"""Golden digests of what the simulator produces.

Pins, for one short scenario per ``campus_sweep`` profile plus one
carrying the ``reactive_control`` confounder, the sha256 of each
telemetry source's JSONL lines (``telemetry.io.dump_lines``) and of the
scenario's ``SessionOutcome`` wire form.  These digests are the oracle
for simulator speedups: a change that is meant to keep behaviour must
leave every one of them unchanged.  A change that alters behaviour on
purpose re-pins them and says why in CHANGES.md; print the current
values with::

    PYTHONPATH=src python tests/test_sim_golden.py
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from typing import Dict, List

import pytest

from repro import schema
from repro.causal.confounders import CONFOUNDER_RNTI, ConfounderSpec
from repro.fleet.executor import run_scenario
from repro.fleet.scenarios import ImpairmentSpec, ScenarioSpec, get_preset
from repro.telemetry.io import load_bundle

DURATION_S = 4.0

#: One impairment per profile, with its events inside the first
#: DURATION_S seconds so fades, bursts and RRC releases all fire.
_IMPAIRMENTS = {
    "amarisoft": ImpairmentSpec(name="ul_fade", ul_fades=((1.0, 1.2, 20.0),)),
    "mosolabs": ImpairmentSpec(name="dl_burst", dl_bursts=((1.0, 1.5, 60),)),
    "tmobile_fdd": ImpairmentSpec(name="rrc_release", rrc_releases_s=(1.5,)),
    "tmobile_tdd": ImpairmentSpec(),
    "wired": ImpairmentSpec(),
    "wifi": ImpairmentSpec(name="no_pushback", pushback_enabled=False),
}

#: The confounded scenario: an Amarisoft UL fade collapses client A's
#: GCC target, which the reactive hook answers with scripted bursts.
_REACTIVE = ScenarioSpec(
    name="golden/amarisoft+reactive",
    profile="amarisoft",
    seed=23,
    duration_s=DURATION_S,
    impairment=ImpairmentSpec(name="ul_fade", ul_fades=((1.2, 1.5, 25.0),)),
    confounders=(ConfounderSpec(axis="reactive_control", warmup_s=1.0),),
)

SOURCES = ("dci", "gnb_log", "packets", "webrtc_stats")


def golden_specs() -> List[ScenarioSpec]:
    profiles = get_preset("campus_sweep").profiles
    specs = [
        ScenarioSpec(
            name=f"golden/{profile}",
            profile=profile,
            seed=11 + i,
            duration_s=DURATION_S,
            impairment=_IMPAIRMENTS[profile],
        )
        for i, profile in enumerate(profiles)
    ]
    return specs + [_REACTIVE]


def _sha(lines) -> str:
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode())
        digest.update(b"\n")
    return digest.hexdigest()


def scenario_digests(spec: ScenarioSpec) -> Dict[str, str]:
    """sha256 per telemetry source and of the outcome wire form.

    The bundle is the scenario's own trace shard: ``run_scenario``
    writes it with ``save_bundle``, i.e. one ``dump_lines`` line per
    record, header first, then DCI, gNB log, packets, WebRTC stats.
    """
    with tempfile.TemporaryDirectory() as trace_dir:
        outcome = run_scenario(spec, trace_dir=trace_dir)
        (shard,) = os.listdir(trace_dir)
        path = os.path.join(trace_dir, shard)
        with open(path) as handle:
            lines = handle.read().splitlines()
        bundle = load_bundle(path)
    out = {"n_dci_confounder": sum(
        1 for record in bundle.dci if record.rnti == CONFOUNDER_RNTI
    )}
    start = 1  # skip the header line
    for source in SOURCES:
        count = len(getattr(bundle, source))
        out[source] = _sha(lines[start:start + count])
        start += count
    assert start == len(lines)
    wire = schema.session_outcome_to_wire(outcome)
    out["outcome"] = _sha([json.dumps(wire, sort_keys=True)])
    return out


#: Pinned at the commit that introduced this file; a behaviour-keeping
#: change must leave these untouched.
GOLDEN: Dict[str, Dict[str, str]] = {
    'golden/amarisoft': {
        'outcome': '9c8e2f80bb5af5b98bf449f00ac254d7468fb08c2411db45dbc03288906b22aa',
        'dci': 'a07158843606d79b72c5bedf0afe7f932f311adf1960392fe300dc83deecfb77',
        'gnb_log': '8ce21aa33aa545edf1cb2d1903c33b11ccdeeabd6251547a54065b57fdee8a86',
        'packets': '4cabd75494c7910e70fb479b1ad010fa07999f7e5bdc35b5b1a3afc8858f3e78',
        'webrtc_stats': '42e1163b9ed180329abb967966885cc96a4e2a6ed437850c175ffa2f20f0a3a7',
    },
    'golden/mosolabs': {
        'outcome': '3d3faf776d5ac9c465ec30928c5fca759abe355e3fd2756f2623decaf86de5d8',
        'dci': 'b206f11e010d708127d68cff941c0dc34b060ff88d2a1e803d1e552bc5cda1db',
        'gnb_log': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'packets': '201b6360dcad0c4ec095124b39fc49496ca5fe325ec7ef34c6c3c1d5171e6aa5',
        'webrtc_stats': 'e2dd19edd9a3a09441f71728257c1500d8c9c4f5e2a24959545b1ea0357c2705',
    },
    'golden/tmobile_fdd': {
        'outcome': '50e794f30b27d79d71464497da0506dce629501a27e9cb907cec5ec5ebc27e13',
        'dci': 'c9f7dbbf44f81c9ce885006abb27afca108f226e6e9940b5fef83c081aad9720',
        'gnb_log': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'packets': '92b1f0fb89cfb4a1541a16f9628928405c6ca2408404479cfdc635336c968a56',
        'webrtc_stats': '4c592b482e3833e971eced50ca7fa124dd13f12d46003a20ca59ef5a54aa390e',
    },
    'golden/tmobile_tdd': {
        'outcome': '8c788a90d167bc36b1b641240866e47090b1db9674c26740247c7737c5acde0f',
        'dci': '9ad7d860b4ccef0feaf557fe536b12b25e0cf27069710d89ec85a1f8cdb3cae5',
        'gnb_log': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'packets': '2a5d34dc209def16bfed27cbb57283a013cb3e5ac8ccfb4d5620a75c3420e230',
        'webrtc_stats': 'cc1e3d5fdb48a78dab01bbaf5528499780171099847b6503cd38039f10257db2',
    },
    'golden/wired': {
        'outcome': 'f70baa251192ea8be16c6296b75490e244e2b243bc4ab54c4aa7618ad4780def',
        'dci': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'gnb_log': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'packets': '05e870a906b7fec32b816a492cd1ffa62364b15a00da03545d8c8d7cc3562b67',
        'webrtc_stats': '691f2a8682aaa276b5a045cf41b0e9090d6a1071dec1aa3b9e4008a63ef32721',
    },
    'golden/wifi': {
        'outcome': '4a225e9b1cce56e922a96c69508930364ec040ac614832cebe23c5995cb1e3c1',
        'dci': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'gnb_log': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'packets': 'dcba7d63484afccd224b08168ffee79d75a82129298080a92aa4bf34f621babb',
        'webrtc_stats': '7de002fb28b98bc750e08afdbe60a61fe2d3ce68a62d98bf4b0f11dcd1027306',
    },
    'golden/amarisoft+reactive': {
        'outcome': '49399f4c0007b576eb137c6c807813c70869463df8891066df983691628a9572',
        'dci': '1f650051c569c155d1475f24f16a91fe0f126bc0ea2c21358c132394d738160e',
        'gnb_log': '9f287c1dc43a9ce0ecd3b5e59a32e679fa5d6e50039d4cebee0270a386a40325',
        'packets': 'd66e42ced75211f08802ee632751639a0db20dd1739b2131a997250c8d450577',
        'webrtc_stats': 'e869bc4507283017a98d7b8b70e181105a44616bec4f8c48f2726a2579300a63',
    },
}


@pytest.mark.parametrize("spec", golden_specs(), ids=lambda s: s.name)
def test_simulator_golden_digests(spec):
    got = scenario_digests(spec)
    want = GOLDEN[spec.name]
    for key in ("outcome",) + SOURCES:
        assert got[key] == want[key], (
            f"{spec.name}: {key} digest changed "
            f"(got {got[key]}, pinned {want[key]})"
        )
    # The confounded scenario must actually exercise the tick hook.
    assert (got["n_dci_confounder"] > 0) == bool(spec.confounders)


if __name__ == "__main__":
    sys.stdout.write("GOLDEN = {\n")
    for spec in golden_specs():
        got = scenario_digests(spec)
        sys.stdout.write(f"    {spec.name!r}: {{\n")
        for key in ("outcome",) + SOURCES:
            sys.stdout.write(f"        {key!r}: {got[key]!r},\n")
        sys.stdout.write("    },\n")
    sys.stdout.write("}\n")
