"""``dalvq run`` on the benchmark's three workload configs writes pinned bytes.

The configs come from ``perfbench/workloads.py``, loaded read-only, at
benchmark seed 0 (the identity map, so each is the workload's own config).
The sha256 of every byte-stable artifact below is pinned here, so a change
that moves one bit of a run's output fails tier-1 instead of waiting for a
hand check. The digests inside ``perfbench/workloads.py`` are older and are
not read.
"""

import hashlib
import importlib.util
import json
import os
import sys

import pytest

from dalvq import cli

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  os.path.join(PERFBENCH, "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # its dataclasses resolve their module by name
    spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOADS = _load_workloads()

PINNED = {
    "sweep-ref5k": {
        "metrics.csv": "d02dd6fee7c3c209b0ba7148bad671f4855a7bc39946ff0a374e55490c92976c",
        "report.json": "d70d11ee133fe246425a2ad99e00f45e3e0a5e099337077ca7c332d167129a12",
        "final-quantizers.json":
            "6da1db1ff4574b96927499239b4df9cdcba58eff12eab276895b1c7fbaef8cab",
        "schedule-trace.jsonl":
            "a79e0a95248c2e476bc55f977529bc905b5cd9276f04e29d9825db1c179073f3"},
    "engine-m8-disk": {
        "metrics.csv": "db6ee5894a40b632440fcc3465321841deddf1354d1762af5ef1ca6a5f98eb4e",
        "report.json": "5d9231b618fdb33b6c3cd5ebe277f950331b929f5f03b31d22585ed24a4959c0",
        "final-quantizers.json":
            "c66441ebf16193e8ad9cb997142e8c0856d8ce8aa7530fd7d5897c2e4d163843",
        "schedule-trace.jsonl":
            "865222b4d8c4f2f0e354dafef6b716719e4094646582202483688e6cfec78f89"},
    "impulse-gossip-m8": {
        "metrics.csv": "a138fb2dd409a7d5c3ad3cbbf0375b6728cd3ca60cf70882f8ce3a1620e9fe09",
        "report.json": "60c94277180ac5dbb10847e57a62d0f89df1ab6a65e14c8379425cec306b2907",
        "final-quantizers.json":
            "eb1cad3eb4ce5168503208e544736ae242a6b54044f8f8697cea78956e32921a",
        "schedule-trace.jsonl":
            "38080246f3b80c9a2e67492d36707cecd6ef3de9b0adb507b83989aae43d57a1"},
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_workload_artifacts_are_pinned(name, tmp_path):
    cfg, scale = WORKLOADS[name].config_for(0)
    assert scale == 1.0
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 0
    got = {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in PINNED[name]}
    assert got == PINNED[name]
