"""Seeded inputs: the campaign's scenario slice and the trace corpus.

Everything here is a pure function of the workload seed, so the same
seed gives the same inputs on every machine.  The program only ever
sees what these functions produce.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace
from typing import List, Tuple

from repro import schema
from repro.causal.confounders import ConfounderSpec
from repro.fleet.scenarios import ScenarioSpec, derive_seed, get_preset
from repro.telemetry.io import save_bundle
from repro.telemetry.records import TelemetryBundle

#: Seconds of call per campaign scenario: 15 detection windows, and room
#: for every impairment_grid event up to 11 s.
SCENARIO_S = 12.0
#: Seconds of call per corpus trace (11 detection windows each).
TRACE_S = 10.0
#: impairment_grid impairment of each profile.  The assignment is fixed
#: so every seed runs the same mix: a seed-dependent rotation would let
#: the simulation cost of a run swing with the seed.  Wi-Fi takes the
#: one impairment a baseline can apply.
IMPAIRMENT_OF = {
    "amarisoft": "ul_fade",
    "mosolabs": "dl_burst",
    "tmobile_fdd": "rrc_release",
    "tmobile_tdd": "none",
    "wired": "none",
    "wifi": "no_pushback",
}
#: Campaign scenarios per profile in one slice: the run cost of a seed's
#: scenarios varies with their random draws, and more of them per slice
#: average that out.
CAMPAIGN_PER_PROFILE = 2
#: The scenario that carries the reactive_control confounder, so the
#: session loop's tick_hooks path runs in every campaign slice.
CONFOUNDED_PROFILE = "amarisoft"


def profiles() -> Tuple[str, ...]:
    """The campus_sweep mix: the four calibrated cells plus wired, Wi-Fi."""
    return get_preset("campus_sweep").profiles


def scenario_slice(
    seed: int,
    duration_s: float = SCENARIO_S,
    confounders: bool = True,
    per_profile: int = 1,
) -> List[ScenarioSpec]:
    """*per_profile* scenarios per profile, each with its impairment from
    IMPAIRMENT_OF and its random seed derived from *seed*; the first
    CONFOUNDED_PROFILE scenario carries the confounder."""
    impairments = {
        imp.name: imp for imp in get_preset("impairment_grid").impairments
    }
    specs = []
    for rep in range(per_profile):
        for profile in profiles():
            key = profile if rep == 0 else f"{profile}/r{rep}"
            spec = ScenarioSpec(
                name=f"perfbench/s{seed}/{key}",
                profile=profile,
                seed=derive_seed(seed, key),
                duration_s=duration_s,
                impairment=impairments[IMPAIRMENT_OF[profile]],
            )
            if confounders and rep == 0 and profile == CONFOUNDED_PROFILE:
                spec = replace(
                    spec,
                    confounders=(ConfounderSpec(axis="reactive_control"),),
                )
            specs.append(spec)
    return specs


def as_received(specs: List[ScenarioSpec]) -> List[ScenarioSpec]:
    """The slice encoded to its JSON wire form and decoded back, as a
    campaign read from a spec file reaches the program."""
    text = "\n".join(
        json.dumps(schema.scenario_spec_to_wire(spec), sort_keys=True)
        for spec in specs
    )
    return [
        schema.scenario_spec_from_wire(json.loads(line))
        for line in text.splitlines()
    ]


@dataclass
class Corpus:
    """One simulated trace per profile, in memory and as JSONL files."""

    specs: List[ScenarioSpec]
    bundles: List[TelemetryBundle]
    paths: List[str]

    @property
    def session_s(self) -> float:
        return sum(bundle.duration_us for bundle in self.bundles) / 1e6


def build_corpus(seed: int, directory: str) -> Corpus:
    """Simulate and write the corpus for *seed* into *directory*."""
    os.makedirs(directory, exist_ok=True)
    specs = scenario_slice(seed, duration_s=TRACE_S, confounders=False)
    bundles, paths = [], []
    for spec in specs:
        bundle = spec.build_session().run(spec.duration_us).bundle
        path = os.path.join(directory, spec.profile + ".jsonl")
        save_bundle(bundle, path)
        bundles.append(bundle)
        paths.append(path)
    return Corpus(specs=specs, bundles=bundles, paths=paths)
