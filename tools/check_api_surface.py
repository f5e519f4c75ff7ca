#!/usr/bin/env python3
"""CI gate for the public API surface.

Fails (exit 1) when:

* any name in ``repro.__all__`` / ``repro.api.__all__`` /
  ``repro.schema.__all__`` does not resolve (a broken re-export would
  otherwise only surface in user code);
* any ``from repro... import name`` in a file under ``examples/`` does
  not resolve — the examples are the documentation of record for the
  surface, so a removed or renamed name must not survive in them.

Run from the repository root: ``PYTHONPATH=src python
tools/check_api_surface.py``.
"""

import ast
import importlib
import pathlib
import sys


def _resolves(module_name: str, name: str) -> bool:
    """``from module_name import name`` would succeed."""
    module = importlib.import_module(module_name)
    if hasattr(module, name):
        return True
    try:  # a submodule not yet imported by its package
        importlib.import_module(f"{module_name}.{name}")
    except ImportError:
        return False
    return True


def check_surface() -> list:
    failures = []
    for module_name in ("repro", "repro.api", "repro.schema"):
        module = importlib.import_module(module_name)
        for name in module.__all__:
            if not hasattr(module, name):
                failures.append(
                    f"{module_name}.__all__ lists {name!r} but it does "
                    f"not resolve"
                )
    return failures


def check_examples(root: pathlib.Path) -> list:
    failures = []
    for path in sorted((root / "examples").glob("*.py")):
        rel = path.relative_to(root)
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.ImportFrom) or node.level:
                continue
            module_name = node.module or ""
            if module_name.split(".")[0] != "repro":
                continue
            for alias in node.names:
                if alias.name == "*":
                    failures.append(
                        f"{rel}:{node.lineno}: star import from "
                        f"{module_name} (its names cannot be checked)"
                    )
                elif not _resolves(module_name, alias.name):
                    failures.append(
                        f"{rel}:{node.lineno}: 'from {module_name} import "
                        f"{alias.name}' does not resolve"
                    )
    return failures


def main() -> int:
    root = pathlib.Path(__file__).resolve().parent.parent
    failures = check_surface() + check_examples(root)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if failures:
        return 1
    print("API surface OK: repro, repro.api, repro.schema resolve; every "
          "example import resolves")
    return 0


if __name__ == "__main__":
    sys.exit(main())
