"""What a ``dalvq run`` child process imports and how its peak memory grows.

Each check runs the CLI in a fresh interpreter on a benchmark workload's config
(``perfbench/workloads.py``, loaded read-only), so the whole run's imports and
peak resident set are its own. Peak RSS is read from ``os.wait4``
(``ru_maxrss``, KiB on Linux).
"""

import json
import os
import subprocess
import sys

import pytest

from bench_workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _config(tmp_path, name, horizon):
    cfg, _ = WORKLOADS[name].config_for(0)
    path = tmp_path / f"{name}-{horizon}.json"
    path.write_text(json.dumps({**cfg, "horizon": horizon}))
    return str(path)


def _child(argv):
    """Exit code, stdout and peak RSS in MB of a Python child with this
    checkout's sources first on its path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.Popen([sys.executable, *argv], env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT)
    out = proc.stdout.read().decode()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)   # reaped here, not by Popen
    proc.stdout.close()
    return proc.returncode, out, usage.ru_maxrss / 1024.0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_run_leaves_numpy_ma_unimported(name, tmp_path):
    # np.unique and np.union1d import numpy.ma, which costs a run tens of
    # milliseconds and about a megabyte
    launcher = ("import sys; from dalvq.cli import main; "
                "code = main(sys.argv[1:]); "
                "print('numpy.ma' in sys.modules); "
                "sys.exit(code)")
    code, out, _ = _child(["-c", launcher, "run", "--config",
                           _config(tmp_path, name, 300), "--out", str(tmp_path / "out")])
    assert code == 0, out
    assert out.strip().splitlines()[-1] == "False"


def test_peak_memory_does_not_grow_with_the_horizon(tmp_path):
    # the run holds one chunk of its event log at a time; what is left grows
    # with the horizon by a few per-tick series only. Keeping the whole log
    # added about 1.5 MB per 1,000 ticks on this config (21 MB here).
    peaks = {}
    for horizon in (2000, 16000):
        code, out, peaks[horizon] = _child(
            ["-m", "dalvq.cli", "run", "--config", _config(tmp_path, "engine-m8-disk", horizon),
             "--out", str(tmp_path / f"out-{horizon}")])
        assert code == 0, out
    assert abs(peaks[16000] - peaks[2000]) < 4.0, peaks
