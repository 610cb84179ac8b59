"""Tests of the benchmark's own code: python3 -m pytest perfbench -q"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import sys
import time
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import dalvq.agreement  # noqa: E402
import dalvq.cli  # noqa: E402
import dalvq.diagnostics  # noqa: E402
import dalvq.engine  # noqa: E402
from checks import ARTIFACTS, check_run  # noqa: E402
from tracer import Tracer  # noqa: E402
from traced_run import traced_run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SMOKE_HORIZON = 200


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_spans_and_counted_calls():
    clock = FakeClock()
    tr = Tracer(clock=clock, rss=lambda: 0.0)

    def leaf():
        clock.now += 2.0

    def inner():
        clock.now += 1.0
        ns.leaf()

    ns = types.SimpleNamespace(leaf=leaf, inner=inner)
    tr.install(ns, "leaf", "leaf", counted=True)
    tr.install(ns, "inner", "inner", counted=True)

    with tr.span("outer"):                 # 0 .. 12
        clock.now += 1.0
        with tr.span("mid"):               # 1 .. 8
            clock.now += 1.0
            ns.inner()                     # 2 .. 5, of which leaf 3 .. 5
            ns.leaf()                      # 5 .. 7
            clock.now += 1.0
        ns.leaf()                          # 8 .. 10
        clock.now += 2.0

    outer, mid = tr.spans
    assert (outer.dur, mid.dur) == (12.0, 7.0)
    assert mid.parent == 0 and outer.parent is None
    assert mid.self_s == 7.0 - 3.0 - 2.0
    assert outer.self_s == 12.0 - 7.0 - 2.0
    assert vars(tr.counters["inner"]) == {"calls": 1, "total_s": 3.0, "self_s": 1.0}
    assert vars(tr.counters["leaf"]) == {"calls": 3, "total_s": 6.0, "self_s": 6.0}


def test_rss_growth_sums_top_level_spans_only():
    rss = iter([100.0, 110.0, 130.0, 150.0, 150.0, 170.0])
    tr = Tracer(clock=FakeClock(), rss=lambda: next(rss))
    with tr.span("a"):              # 100 -> 150
        with tr.span("a"):          # 110 -> 130, nested: not counted again
            pass
    with tr.span("a"):              # 150 -> 170
        pass
    assert tr.rss_growth({"a"}) == 70.0


def test_install_restores_even_when_the_call_raises():
    def boom():
        raise RuntimeError("boom")

    ns = types.SimpleNamespace(boom=boom)
    tr = Tracer()
    tr.install(ns, "boom", "boom")
    assert ns.boom is not boom
    try:
        with pytest.raises(RuntimeError):
            ns.boom()
    finally:
        tr.restore()
    assert ns.boom is boom
    assert tr.spans[0].name == "boom" and tr.spans[0].end >= tr.spans[0].start


def _small(wl, tmp_path):
    cfg = dict(wl.config, horizon=SMOKE_HORIZON)
    path = tmp_path / f"{wl.name}.json"
    path.write_text(json.dumps(cfg))
    return cfg, str(path)


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    """Each workload's config at T=200, run through the real CLI."""
    tmp = tmp_path_factory.mktemp("smoke")
    runs = {}
    for wl in WORKLOADS.values():
        cfg, path = _small(wl, tmp)
        out = str(tmp / wl.name)
        t0 = time.perf_counter()
        code = dalvq.cli.main(["run", "--config", path, "--out", out])
        runs[wl.name] = (cfg, out, code, time.perf_counter() - t0)
    return runs


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_passes_checks_in_seconds(smoke_runs, name):
    cfg, out, code, wall = smoke_runs[name]
    with open(os.path.join(out, "report.json")) as fh:
        report = json.load(fh)
    # pin the small run to its own results; every other check applies as is
    wl = dataclasses.replace(WORKLOADS[name], config=cfg, n_events=report["n_events"],
                             final_distortion_star=report["final_distortion_star"])
    assert check_run(out, code, wl, cfg, 1.0) == []
    assert wall < 30.0


@pytest.mark.parametrize("damage", ["truncate-csv", "truncate-trace", "corrupt-report",
                                    "missing-artifact", "wrong-distortion", "exit-code"])
def test_damaged_artifacts_fail_the_check(smoke_runs, tmp_path, damage):
    name = "sweep-ref5k"
    cfg, out, _, _ = smoke_runs[name]
    with open(os.path.join(out, "report.json")) as fh:
        report = json.load(fh)
    wl = dataclasses.replace(WORKLOADS[name], config=cfg, n_events=report["n_events"],
                             final_distortion_star=report["final_distortion_star"])
    bad = str(tmp_path / "bad")
    shutil.copytree(out, bad)
    code = 0

    def cut(name, keep):
        path = os.path.join(bad, name)
        with open(path, "rb") as fh:
            data = fh.read()
        with open(path, "wb") as fh:
            fh.write(data[:int(len(data) * keep)])

    if damage == "truncate-csv":
        cut("metrics.csv", 0.5)
    elif damage == "truncate-trace":
        cut("schedule-trace.jsonl", 0.99)
    elif damage == "corrupt-report":
        cut("report.json", 0.7)
    elif damage == "missing-artifact":
        os.remove(os.path.join(bad, ARTIFACTS[3]))
    elif damage == "wrong-distortion":
        wl = dataclasses.replace(wl, final_distortion_star=wl.final_distortion_star * (1 + 1e-6))
    else:
        code = 2
    assert check_run(bad, code, wl, cfg, 1.0) != []


def _module_state():
    mods = (dalvq.cli, dalvq.engine, dalvq.agreement, dalvq.diagnostics)
    state = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
    state[("RunMetrics", "to_csv")] = vars(dalvq.diagnostics.RunMetrics)["to_csv"]
    return state


def test_traced_run_reports_every_layer_and_leaves_dalvq_unchanged(tmp_path):
    before = _module_state()
    _, path = _small(WORKLOADS["engine-m8-disk"], tmp_path)
    code, tracer, metrics = traced_run(path, str(tmp_path / "out"))
    assert code == 0
    assert _module_state() == before

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        names = {m["name"] for m in json.load(fh)["per_layer"]}
    measured_by_parent = {"process.cpu_s", "process.cpu_per_wall", "trace.overhead_frac"}
    assert set(metrics) == names - measured_by_parent
    assert metrics["engine.ticks"] == SMOKE_HORIZON
    assert metrics["engine.events"] == 8 * SMOKE_HORIZON
    assert metrics["measures.draws"] == metrics["geometry.nearest_cell_calls"] == 8 * SMOKE_HORIZON
    assert metrics["schedule.generate_calls"] == 2
    assert 0.95 <= metrics["trace.coverage"] <= 1.0
