"""What a ``dalvq run`` child process imports, how its peak memory grows, and
that it writes the same bytes on one CPU as on all.

Each check runs the CLI in a fresh interpreter on a benchmark workload's config
(``perfbench/workloads.py``, loaded read-only), so the whole run's imports and
peak resident set are its own. Peak RSS is read from ``os.wait4``
(``ru_maxrss``, KiB on Linux).
"""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from bench_workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# every artifact of a dalvq-mode run but timing.json
BYTE_STABLE = ("effective-config.json", "schedule-trace.jsonl", "metrics.csv",
               "final-quantizers.json", "report.json")


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


# a launcher prefix that leaves the child one CPU, so its metrics sweep runs
# in the process that took the ticks (diagnostics.sweep_path)
ONE_CPU = "import os; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "


@pytest.mark.parametrize("name,prefix", [
    pytest.param(name, prefix, id=name + ("-one-cpu" if prefix else ""))
    for prefix in ("", ONE_CPU) for name in sorted(WORKLOADS)])
def test_run_leaves_numpy_ma_unimported(name, prefix, tmp_path):
    # np.unique and np.union1d import numpy.ma, which costs a run tens of
    # milliseconds and about a megabyte; on one CPU the sweep's own imports
    # are made in the process checked here
    launcher = (prefix + "import sys; from dalvq.cli import main; "
                "code = main(sys.argv[1:]); "
                "print('numpy.ma' in sys.modules); "
                "sys.exit(code)")
    code, out, _ = _child(["-c", launcher, "run", "--config",
                           _config(tmp_path, name, 300), "--out", str(tmp_path / "out")])
    assert code == 0, out
    assert out.strip().splitlines()[-1] == "False"


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_cpu_run_writes_the_same_bytes(name, tmp_path):
    # one CPU sweeps in the caller, more in a forked child: same artifacts
    config = _config(tmp_path, name, 2000)
    digests = []
    for prefix in ("", ONE_CPU):
        out = tmp_path / f"out{len(digests)}"
        launcher = prefix + "import sys; from dalvq.cli import main; sys.exit(main(sys.argv[1:]))"
        code, log, _ = _child(["-c", launcher, "run", "--config", config, "--out", str(out)])
        assert code == 0, log
        digests.append({f: hashlib.sha256((out / f).read_bytes()).hexdigest()
                        for f in BYTE_STABLE})
        sweep = json.loads((out / "timing.json").read_text())["sweep"]
        assert sweep == ("inline" if prefix else
                         "forked" if len(os.sched_getaffinity(0)) > 1 else "inline")
    assert digests[0] == digests[1]


@pytest.mark.parametrize("name", ["engine-m8-disk", "sweep-ref5k"])
def test_peak_memory_does_not_grow_with_the_horizon(name, tmp_path):
    # the run holds one chunk of its event log at a time; what is left grows
    # with the horizon by a few per-tick series only. Keeping the whole log
    # added about 1.5 MB per 1,000 ticks on engine-m8-disk (21 MB here).
    # Scoring every recorded version in one kernel call, on the stack of the
    # whole run's snapshots, added about 4.6 MB here on sweep-ref5k.
    peaks = {}
    for horizon in (2000, 16000):
        code, out, peaks[horizon] = _child(
            ["-m", "dalvq.cli", "run", "--config", _config(tmp_path, name, horizon),
             "--out", str(tmp_path / f"out-{horizon}")])
        assert code == 0, out
    assert abs(peaks[16000] - peaks[2000]) < 4.0, peaks
