"""The benchmark's traced run wraps dalvq functions by (module, name).

``perfbench/traced_run.py`` looks each name up with ``vars(owner)[attr]``, so
a refactor that drops or renames one fails every traced benchmark run. This
calls its ``install_layers`` with a tracer that only records, and checks that
every wrapped name exists where it is looked up. A traced run of each
workload then checks that the wrapped calls still cover the run: a pass moved
outside them would leave its time to no span.
"""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

from bench_workloads import PERFBENCH, WORKLOADS


class RecordingTracer:
    def __init__(self):
        self.seams = []

    def install(self, owner, attr, name, counted=False, tally=None):
        self.seams.append((owner, attr, name))


def test_every_traced_name_exists(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)   # traced_run imports its tracer module
    spec = importlib.util.spec_from_file_location("traced_run",
                                                  os.path.join(PERFBENCH, "traced_run.py"))
    traced_run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced_run)
    tracer = RecordingTracer()
    traced_run.install_layers(tracer)
    assert len(tracer.seams) > 10
    missing = [(getattr(owner, "__name__", owner), attr, name)
               for owner, attr, name in tracer.seams if not callable(vars(owner).get(attr))]
    assert not missing


TRACED_HORIZON = 2000     # at 200 ticks the fixed costs outside any span weigh more


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_covers_the_run(name, tmp_path):
    cfg, _ = WORKLOADS[name].config_for(0)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**cfg, "horizon": TRACED_HORIZON}))
    trace = tmp_path / "trace.json"
    src = os.path.join(os.path.dirname(PERFBENCH), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, os.path.join(PERFBENCH, "traced_run.py"),
                           str(config), str(tmp_path / "out"), str(trace)],
                          capture_output=True, env=env)
    assert proc.returncode == 0, proc.stderr.decode()
    metrics = json.loads(trace.read_text())["metrics"]
    assert metrics["trace.coverage"] >= 0.95
    assert metrics["engine.ticks"] == TRACED_HORIZON
