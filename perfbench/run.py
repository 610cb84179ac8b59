"""The dalvq benchmark: real ``dalvq run`` child processes, timed from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; ``src`` goes on the children's PYTHONPATH, so
nothing needs installing. Workloads are defined in ``workloads.py``.

``--trace 0`` (end-to-end): set-up time is the median of three
``dalvq validate-schedule`` children (imports, config parsing, schedule
generation and validation: the prefix every run pays). Then ``dalvq run``
children, one at a time, repeat until S seconds have passed (at least three);
each is timed from launch to exit and its peak RSS read with ``os.wait4``.

``--trace 1`` (per layer): one untraced ``dalvq run`` child, then one child
running ``traced_run.py``, which calls the same CLI in-process with every
layer boundary wrapped. Their wall times give the tracing overhead.

Every child's artifacts are checked (``checks.py``); a child that fails a
check counts in ``failed``. The last stdout line is the JSON result; the line
before it records the machine, the code and every child.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

from checks import check_run, digests
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")

SETUP_REPEATS = 3
MIN_RUNS = 3
DEADLINE_S = 170.0            # the whole invocation must end within 180 s


class Child:
    """One finished child process: exit code, wall time, peak RSS, CPU time."""

    def __init__(self, argv: list[str], log: str, timeout: float):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
        with open(log, "w") as fh:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=env,
                                    stdin=subprocess.DEVNULL, stdout=fh, stderr=fh)
            timer = threading.Timer(max(timeout, 0.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            self.wall_s = time.perf_counter() - t0
        self.code = os.waitstatus_to_exitcode(status)
        proc.returncode = self.code            # reaped here, not by Popen
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.cpu_s = usage.ru_utime + usage.ru_stime


def machine_record() -> dict:
    import numpy
    import scipy
    with open("/proc/cpuinfo") as fh:
        models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        top, commit = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                                     capture_output=True, text=True, timeout=10).stdout.split()
    except (OSError, ValueError):
        top = commit = None
    if top is None or os.path.realpath(top) != os.path.realpath(ROOT):
        commit = None              # not a git checkout of this repository
    src_lines = 0
    for base, _, files in os.walk(os.path.join(SRC, "dalvq")):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(base, f), encoding="utf-8") as fh:
                    src_lines += sum(1 for _ in fh)
    threads = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
               if k in os.environ}
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": models[0] if models else None,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": {"name": blas.get("name"), "version": blas.get("version"),
                     "config": blas.get("openblas configuration"),
                     "threads": threads or "unset: OpenBLAS default, one per CPU"},
            "git_commit": commit, "src_lines": src_lines}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(SRC, "dalvq", "cli.py")):
        sys.stderr.write(f"dalvq sources not found under {SRC}\n")
        return 2

    t_start = time.perf_counter()
    wl = WORKLOADS[args.workload]
    cfg, scale = wl.config_for(args.seed)
    work = os.path.join(WORK, wl.name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cfg_path = os.path.join(work, "config.json")
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    out_dir = os.path.join(work, "out")
    runs = []

    def child(kind: str, argv: list[str]) -> Child:
        c = Child(argv, os.path.join(work, f"{len(runs):03d}-{kind}.log"),
                  DEADLINE_S - (time.perf_counter() - t_start))
        runs.append({"kind": kind, "exit_code": c.code, "wall_s": c.wall_s,
                     "rss_mb": c.rss_mb, "cpu_s": c.cpu_s, "problems": []})
        return c

    def run_child(kind: str, argv: list[str]) -> Child:
        shutil.rmtree(out_dir, ignore_errors=True)
        c = child(kind, argv)
        runs[-1]["problems"] = check_run(out_dir, c.code, wl, cfg, scale)
        if not runs[-1]["problems"] and args.seed == 0:
            runs[-1]["digests_match"] = digests(out_dir) == wl.digests
        return c

    dalvq_run = ["-m", "dalvq.cli", "run", "--config", cfg_path, "--out", out_dir]
    if args.trace == 0:
        setup = []
        for _ in range(SETUP_REPEATS):
            c = child("setup", ["-m", "dalvq.cli", "validate-schedule", "--config", cfg_path,
                                "--out", os.path.join(work, "validation.json")])
            if c.code != 0:
                runs[-1]["problems"].append(f"validate-schedule exit code {c.code}")
            setup.append(c.wall_s)
        t_runs = time.perf_counter()
        timed = []
        while len(timed) < MIN_RUNS or time.perf_counter() - t_runs < args.seconds:
            timed.append(run_child("run", dalvq_run))
            if time.perf_counter() - t_start > DEADLINE_S / 2:
                break
        wall = statistics.median(c.wall_s for c in timed)
        values = {
            "wall_s": wall,
            "ticks_per_s": wl.horizon / wall,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(c.rss_mb for c in timed),
        }
    else:
        plain = run_child("run", dalvq_run)
        trace_json = os.path.join(work, "trace.json")
        traced = run_child("traced", [os.path.join(HERE, "traced_run.py"),
                                      cfg_path, out_dir, trace_json])
        try:
            with open(trace_json) as fh:
                layers = json.load(fh)["metrics"]
        except (OSError, ValueError, KeyError):
            layers = {}
        if not layers:
            runs[-1]["problems"].append("traced run wrote no metrics")
        elif layers["trace.coverage"] < 0.95:
            runs[-1]["problems"].append(f"trace coverage {layers['trace.coverage']:.3f} < 0.95")
        values = {**layers,
                  "process.cpu_s": traced.cpu_s,
                  "process.cpu_per_wall": traced.cpu_s / traced.wall_s,
                  "trace.overhead_frac": traced.wall_s / plain.wall_s - 1.0}

    # names and units come from the benchmark's contract file
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec if m["name"] in values}
    failed = sum(1 for r in runs if r["problems"])
    print(json.dumps({"workload": wl.name, "seed": args.seed, "scale": scale,
                      "machine": machine_record(), "runs": runs}))
    print(json.dumps({"correct": failed == 0, "attempted": len(runs), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
