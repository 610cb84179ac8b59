"""Correctness checks on the artifact directory of one ``dalvq run``."""

from __future__ import annotations

import hashlib
import json
import math
import os

from workloads import Workload

ARTIFACTS = ("effective-config.json", "schedule-trace.jsonl", "metrics.csv",
             "final-quantizers.json", "report.json", "timing.json")
# every artifact except timing.json is byte-deterministic in the config
BYTE_STABLE = ARTIFACTS[:-1]
METRICS_COLUMNS = 11

# relative tolerance on the final distortion, also under the benchmark's affine
# map (where rounding differs; the drift measured is about 1e-14)
RTOL = 1e-9


def digests(out_dir: str) -> dict:
    out = {}
    for name in BYTE_STABLE:
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _read(out_dir: str, name: str) -> str:
    with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
        return fh.read()


def check_run(out_dir: str, exit_code: int, wl: Workload, cfg: dict,
              scale: float) -> list[str]:
    """Every way the run misses its contract; an empty list means it passed.

    cfg is the config the run was given and scale the benchmark's affine
    scale s for it (1 at seed 0).
    """
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    missing = [a for a in ARTIFACTS if not os.path.isfile(os.path.join(out_dir, a))]
    if missing:
        return [f"missing artifacts {missing}"]
    try:
        docs = {a: json.loads(_read(out_dir, a)) for a in ARTIFACTS if a.endswith(".json")}
        rows = _read(out_dir, "metrics.csv").splitlines()
        trace = _read(out_dir, "schedule-trace.jsonl").splitlines()
        json.loads(trace[-1])
    except (OSError, ValueError, IndexError) as exc:
        return [f"unreadable artifact: {exc}"]

    problems = []
    eff, report = docs["effective-config.json"], docs["report.json"]
    for key in ("mode", "M", "horizon", "seed", "dist"):
        if eff.get(key) != cfg[key]:
            problems.append(f"effective config {key} is {eff.get(key)!r}")
    if report.get("limits_resolved") is not True:
        problems.append("impulse limits unresolved")
    ratio = report.get("worst_bound_ratio")
    if not (isinstance(ratio, (int, float)) and ratio <= 1.0):
        problems.append(f"worst_bound_ratio {ratio!r} > 1")
    if report.get("n_events") != wl.n_events:
        problems.append(f"n_events {report.get('n_events')!r} != {wl.n_events}")
    if len(rows) - 1 != wl.metrics_rows or any(r.count(",") != METRICS_COLUMNS - 1
                                               for r in rows):
        problems.append(f"metrics.csv has {len(rows) - 1} rows, expected {wl.metrics_rows}")
    if len(trace) != wl.horizon + 1:
        problems.append(f"schedule trace has {len(trace)} lines, expected {wl.horizon + 1}")
    want = wl.final_distortion_star * scale ** 2
    got = report.get("final_distortion_star")
    if not (isinstance(got, float) and math.isclose(got, want, rel_tol=RTOL)):
        problems.append(f"final_distortion_star {got!r} != {want!r} (rtol {RTOL})")
    return problems
