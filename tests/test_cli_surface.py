"""Golden digests of the command-line surface.

Walks ``build_parser()`` and pins one sha256 per command path
(``repro``, ``repro fleet``, ``repro cluster queue``, ...).  Each digest
covers every action's option strings, dest, default, nargs, const,
required, choices, action class and type name — everything that decides
how a command line parses — and leaves help text and option order out,
so a refactor of how the parser is built must keep every digest, while
rewording a help string or regrouping options need not.  Positional
arguments keep their order (it is part of how a command line parses);
optional ones are sorted.

``causal bench --workers`` defaults to ``os.cpu_count()``; it is
recorded as the literal ``"cpu_count"`` so the digest does not depend on
the machine.  Print the current digests with::

    PYTHONPATH=src python tests/test_cli_surface.py
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from typing import Dict, Iterator, Tuple

import pytest

from repro.cli import build_parser


def _parsers(
    parser: argparse.ArgumentParser, path: str = "repro"
) -> Iterator[Tuple[str, argparse.ArgumentParser]]:
    """Every (command path, parser) pair, depth first."""
    yield path, parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _parsers(sub, f"{path} {name}")


def _action_record(path: str, action: argparse.Action) -> dict:
    default = action.default
    if path == "repro causal bench" and action.dest == "workers":
        default = "cpu_count"
    choices = action.choices
    if isinstance(action, argparse._SubParsersAction):
        choices = sorted(choices)
    elif choices is not None:
        choices = list(choices)
    return {
        "option_strings": list(action.option_strings),
        "dest": action.dest,
        "default": default,
        "nargs": action.nargs,
        "const": action.const,
        "required": action.required,
        "choices": choices,
        "action": type(action).__name__,
        "type": None if action.type is None else action.type.__name__,
    }


def surface_digests() -> Dict[str, str]:
    """sha256 of each command path's parse surface."""
    out = {}
    for path, parser in _parsers(build_parser()):
        records = [_action_record(path, a) for a in parser._actions]
        positionals = [r for r in records if not r["option_strings"]]
        optionals = sorted(
            (r for r in records if r["option_strings"]),
            key=lambda r: r["option_strings"],
        )
        encoded = json.dumps(positionals + optionals, sort_keys=True)
        out[path] = hashlib.sha256(encoded.encode()).hexdigest()
    return out


#: Pinned before the CLI was rebuilt on shared parent parsers; a
#: refactor must leave every digest unchanged.
GOLDEN: Dict[str, str] = {
    'repro': '8ce6abbf5b7195276555b896ba27a92b2e7332ba88726a5a54344c0479b2b029',
    'repro simulate': '93cce8210ea7fd3a9a04e451a5115ac0ad3c998cd0e53e22a5b0ab092c69df58',
    'repro analyze': '60e1756667cfda5f60b9b39a1e6f9cdab0cd491371aae97bc7edf9d5dc2faefd',
    'repro report': '37b44841c47a7a5cbe428bd1c276aa2abf3ba5e4a905ad673dec19ea1e65e074',
    'repro codegen': 'd15608b27e195ae2405a7d20424566fc22d7fd2b928e49929d85d9bb2d3c7253',
    'repro fleet': '2c7b597d2fd577c05fb8e63a048a93e74cb4f91451c26b510bcae18fd7766fab',
    'repro fleet-report': 'c411772184d32931c35f9fbebc98c3c21e05cfb50aad29066a870ac914c1b98b',
    'repro live': '885e7c098499c7f1d52edbf977cb7b9dbf9c137a998013ff58e0ccec27900f80',
    'repro watch': '436438fbfc3e2361afb802d4aaf3c7b1a8347e7e887ad728685891ba4bb7e852',
    'repro cluster': '275f2096325a74abb82df0afc2369825dddb547f973346f10e0aa1f2bd57d60a',
    'repro cluster coordinator': '10089d1e39c457357c4aa8f02e785c601c1f1be1c3995f477325c5c82862cd59',
    'repro cluster worker': '37aa83dc43c82e74a0dc8c20df9b9144a6a8081dd27940cfe656c523f9355212',
    'repro cluster queue': '70cf4a61b1a331419b373acffecdf326ede682db12fbeb27d5af20f824cd4e87',
    'repro cluster status': '71e0badf474d1f9c0748d3b936f1da6b279acf309b5adde898503fa244875cab',
    'repro cluster cancel': 'fa71216a6dac03e6eb689fe985c1ee758f1e1e202aed83eac05941a7b2f767ac',
    'repro obs': '42f56d987ef4cf644d8f9725b152ddf8ffb4ea93141185c1c685efcc64706faf',
    'repro obs report': '74419a0c3afdfecf6bfbf70737c65d422a76e11dbe4d3f19c2f2b5554e4fa2e5',
    'repro obs trace': '76c131ecae41dccbe293b8e4cea987d50e090bab3c2c0263e91fbf6e25db178e',
    'repro causal': 'e289f991639086f52319891d47a47eb9ee820f5f5ed89b6e97c50349d8b146f1',
    'repro causal bench': '01890a92cc92def590c214c89d3fe36933abee24dfb86f2e2ac1ce46f9e5954b',
    'repro causal score': 'c411772184d32931c35f9fbebc98c3c21e05cfb50aad29066a870ac914c1b98b',
    'repro store': '92a5491b67f3deb4903e2ec34785c961aa05a40f42e3758d394a37a89e32d7c3',
    'repro store ingest': '237fe3acb7cd16cf81da43cc3084f3a0d77fcfeb44b21bcdfbda2de0f15d98c1',
    'repro store query': '183af63f979d2246603b6e2530c0505338e605680d61b64d9f701a4440a2f2aa',
    'repro store alerts': 'a2ec75ef9cb2a32ec8cd21b592ee236b03c9542108f9b3783a3d9ece9c94cbc7',
    'repro store report': '693a0e8d6c3cd284c7df395794c9e949d663ad8ca22517dadee26c650fc910f2',
    'repro store compact': 'a4d04bcd1007c8e4c31611e97b25fb881b97c1cd0849624e4db63a7e797b4227',
    'repro store reindex': 'ae6483dda8a8431ef9391e4f12021c3935dd773efb192efc30714307527a7507',
}


def test_every_command_is_pinned():
    assert sorted(surface_digests()) == sorted(GOLDEN)


@pytest.mark.parametrize("path", sorted(GOLDEN))
def test_cli_surface_digest(path):
    got = surface_digests()[path]
    assert got == GOLDEN[path], (
        f"`{path}`: parse surface changed (got {got}, pinned "
        f"{GOLDEN[path]})"
    )


def test_cpu_count_default_is_the_only_machine_dependent_value():
    parser = dict(_parsers(build_parser()))["repro causal bench"]
    [workers] = [a for a in parser._actions if a.dest == "workers"]
    assert workers.default == (os.cpu_count() or 4)


if __name__ == "__main__":
    sys.stdout.write("GOLDEN: Dict[str, str] = {\n")
    for path, digest in surface_digests().items():
        sys.stdout.write(f"    {path!r}: {digest!r},\n")
    sys.stdout.write("}\n")
