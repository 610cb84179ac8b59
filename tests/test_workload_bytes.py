"""``dalvq run`` and ``dalvq phi-table`` on the benchmark's three workload
configs write pinned bytes.

The configs come from ``perfbench/workloads.py``, loaded read-only, at
benchmark seed 0 (the identity map, so each is the workload's own config).
The sha256 of every byte-stable artifact below is pinned here: those of
``dalvq``-mode, ``agreement-only``, ``clvq-baseline`` and ``lloyd-baseline``
runs, and the ``phi-table`` at its default t. A change that moves one bit
of an output fails tier-1 instead of waiting for a hand check. The digests
inside ``perfbench/workloads.py`` are older and are not read.
"""

import hashlib
import json

import pytest

from bench_workloads import WORKLOADS
from dalvq import cli

PINNED = {
    "sweep-ref5k": {
        "metrics.csv": "93d67bbfed045b86922ea09a9ea6d1396c6a46421447c28588c0b24b4ea39ccf",
        "report.json": "bf88189d88aa8dba0d90f93f52321836db157e9a45b59140ee59218c3a5a0c8b",
        "final-quantizers.json":
            "1a3486e5ec04d4afa0bed0c3b87f92a7733205c278b8dd1e4f6fc70455a24a49",
        "schedule-trace.jsonl":
            "a79e0a95248c2e476bc55f977529bc905b5cd9276f04e29d9825db1c179073f3"},
    "engine-m8-disk": {
        "metrics.csv": "75c651f36d1c31365800f2ffc26564f4c7891cffdcde2a6fb126bac869e5f8f7",
        "report.json": "c2fd5c7a596cf10b9de9bf1c028be7f2313d500aa1740a40ca9d59c5b36076d2",
        "final-quantizers.json":
            "e42cb38d6f34109095f24e219a9fbb48df453015826153847090185e331aa035",
        "schedule-trace.jsonl":
            "865222b4d8c4f2f0e354dafef6b716719e4094646582202483688e6cfec78f89"},
    "impulse-gossip-m8": {
        "metrics.csv": "c08c683b3e490146df021340fe47d840e81f81991875dd2f28b7518373968ea4",
        "report.json": "c3d2cd86cd1dcbbcbd034b83eed1eaccf8732f7965b9743cef167d84149671cb",
        "final-quantizers.json":
            "eb1cad3eb4ce5168503208e544736ae242a6b54044f8f8697cea78956e32921a",
        "schedule-trace.jsonl":
            "38080246f3b80c9a2e67492d36707cecd6ef3de9b0adb507b83989aae43d57a1"},
}


# agreement-only runs: report.json carries rho_fit, decay.csv the merge-only
# gaps. Each workload starts every processor at one shared quantizer, so its
# gaps are all 0 and rho_fit takes the fewer-than-three-points branch; with
# per-processor starts the gaps decay and rho_fit is a real fit.
AGREEMENT_PINNED = {
    ("sweep-ref5k", "shared"): {
        "report.json": "01d9d520d26fe9b6803f671aacd8381195fa872649bd9a11c1775d6ee12810f3",
        "decay.csv": "7637e72510877b8e41633fc95c4992e5298ec65f56b5b8461e0004f34d4a1bba"},
    ("engine-m8-disk", "shared"): {
        "report.json": "37060f8baf9d75473332c5233eea6c31084a0b36a44cef201d52ea63e8431d22",
        "decay.csv": "b090b520e547ceb1cec2b138477ab8c76600f96963cd71f73c07cff86f9ad508"},
    ("impulse-gossip-m8", "shared"): {
        "report.json": "aacd1d7891840e33142f432dce26becb7bc7218a48b58c15837fdecb5da9e7e6",
        "decay.csv": "fc16e837ffd68b410a0542119ecdb9892b86a45720073da49f518e9a688a107b"},
    ("sweep-ref5k", "per-processor"): {
        "report.json": "8fb0bae1c6c01e7b70d1b76322c24c62bf05ad611675609744dc8a5d1b0968d6",
        "decay.csv": "205e18428222e577a91b7dc037de014d4242dd8a89601abe91d692899005fceb"},
    ("engine-m8-disk", "per-processor"): {
        "report.json": "0e16a5cf7752759ffe058841265680848fe37293869ca7a3318c41cf0b4fa617",
        "decay.csv": "a4f3afb50e25204cc71dd7a184dac878492154e1509e47c80c7be216e8b321c7"},
    ("impulse-gossip-m8", "per-processor"): {
        "report.json": "054e87196e693c4d33703ef5811e06f92c9642b9114808b41f979c8b5fd25f34",
        "decay.csv": "63149a260de80cf16ea0c8fac8bc9d34a60ef88d0a6f2d4806dfcba47fde440e"},
}

# clvq-baseline runs, on the global clock that mode requires, and
# lloyd-baseline runs: final-quantizers.json holds the baseline's quantizer
# and its distortion on the reference batch
BASELINE_PINNED = {
    ("engine-m8-disk", "clvq-baseline"): {
        "final-quantizers.json":
            "47cd62affd4f2462524bc161394f9403ace9b7e9b6ca4769755bc6544137548f",
        "report.json": "87cbe88771c85c4610e3c3110f72606d310b4050bc8dbd1fd057db02e4af4f43"},
    ("engine-m8-disk", "lloyd-baseline"): {
        "final-quantizers.json":
            "89c07ad20be1fd838de680aa694eabb8fe3858ad8c93a2915343be92df533631",
        "report.json": "3c8a3ed85df42b32c6233faa1f521bc2f561e8c4ff733e791de1eb6704d7ab98"},
    ("impulse-gossip-m8", "clvq-baseline"): {
        "final-quantizers.json":
            "453cdf7540845264d3fd59ea158c8f0041de217b7605285c4f5975749052988a",
        "report.json": "2f8e90b6b443c720b22ed5ab38dc05765c41c5ba1e47f0039ae6347bddca3e3b"},
    ("impulse-gossip-m8", "lloyd-baseline"): {
        "final-quantizers.json":
            "752cd0d66950fd768624f032c01d1ed193f0b4e1e6fad22b3e2412914d8af082",
        "report.json": "a72b109879c38dc777f65872e910ed520d611f80148d4a0f45a90dde22cfc60b"},
    ("sweep-ref5k", "clvq-baseline"): {
        "final-quantizers.json":
            "483a125b1a7583885b02381bf8ddc386e5b60d9f17a1bf61744e9b8aeab00bf4",
        "report.json": "0a25336b41be43e092d36dfcb1c2ceb8c6138710569b21a61e35a4e0444aec52"},
    ("sweep-ref5k", "lloyd-baseline"): {
        "final-quantizers.json":
            "44a598a4ac0e7c2e8bdbdeef448d41712bde1891e5fd0879a7432150a327cbb1",
        "report.json": "557e7458f124ba56cf4b72b2010be1c5081645427fb4881e2490fce3f4d7def3"},
}

# phi-table at its default t, min(horizon, 64)
PHI_TABLE_PINNED = {
    "sweep-ref5k": "2c210b98985d13f9d6309c005d60672a684c0400cf735db7e5ed770cbd390827",
    "engine-m8-disk": "f799ab15e480e1572536dc34f3cb0b66db387b7f1914a5addbe9e74d67694987",
    "impulse-gossip-m8": "6c6e18c506bcd39678e11bc7089c9655b7bdcad7b1ff98fbcdb82b29f153f830",
}


def _write_config(name, tmp_path, **override):
    cfg, scale = WORKLOADS[name].config_for(0)
    assert scale == 1.0
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**cfg, **override}))
    return str(config)


def _run_digests(config, out, files):
    assert cli.main(["run", "--config", config, "--out", str(out)]) == 0
    return {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in files}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_workload_artifacts_are_pinned(name, tmp_path):
    config = _write_config(name, tmp_path)
    assert _run_digests(config, tmp_path / "run", PINNED[name]) == PINNED[name]


@pytest.mark.parametrize("name,init", sorted(AGREEMENT_PINNED))
def test_agreement_only_artifacts_are_pinned(name, init, tmp_path):
    config = _write_config(name, tmp_path, mode="agreement-only", init=init)
    pinned = AGREEMENT_PINNED[name, init]
    assert _run_digests(config, tmp_path / "run", pinned) == pinned


@pytest.mark.parametrize("name,mode", sorted(BASELINE_PINNED))
def test_baseline_artifacts_are_pinned(name, mode, tmp_path):
    override = {"mode": mode}
    if mode == "clvq-baseline":
        override["step"] = {**WORKLOADS[name].config["step"], "kind": "global-clock"}
    config = _write_config(name, tmp_path, **override)
    pinned = BASELINE_PINNED[name, mode]
    assert _run_digests(config, tmp_path / "run", pinned) == pinned


@pytest.mark.parametrize("name", sorted(PHI_TABLE_PINNED))
def test_phi_table_is_pinned(name, tmp_path):
    out = tmp_path / "phi.json"
    assert cli.main(["phi-table", "--config", _write_config(name, tmp_path),
                     "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PHI_TABLE_PINNED[name]
