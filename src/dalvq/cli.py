"""Command line: run experiments, tabulate results, inspect schedules.

Every artifact except timing.json is byte-deterministic in the effective
config; wall-clock numbers live in timing.json alone so reruns can be diffed.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .baselines import run_clvq, run_lloyd
from .diagnostics import compute_metrics, consensus_decay, summarize, sweep_path
from .engine import RunConfig, initial_versions, run
from .errors import ConfigError, ScheduleValidationError
from .agreement import compute_phi, phi_limit_series
from .geometry import batched_cell_stats
from .schedule import generate, validate, write_trace

__all__ = ["ExperimentConfig", "parse_config", "main"]

MODES = ("dalvq", "clvq-baseline", "lloyd-baseline", "agreement-only", "validate-only")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SCHEDULE = 3
EXIT_IO = 4


@dataclass(frozen=True)
class ExperimentConfig:
    """A mode plus the run parameters; one JSON document describes both."""

    mode: str
    run: RunConfig

    def to_dict(self) -> dict:
        return {"mode": self.mode, **self.run.to_dict()}


def parse_config(data: dict, seed_override: int | None = None) -> ExperimentConfig:
    """Strict parse: unknown top-level keys are errors, mode defaults to dalvq.

    Baseline and validate modes read only the fields they need but share the
    one schema, so a config can be replayed under any mode unchanged.
    """
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    data = dict(data)
    mode = data.pop("mode", "dalvq")
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    if seed_override is not None:
        data["seed"] = seed_override
    run_cfg = RunConfig.from_dict(data)
    if mode == "clvq-baseline" and run_cfg.step.kind != "global-clock":
        raise ConfigError("the sequential baseline runs on the global clock; "
                          "set step.kind to 'global-clock'")
    return ExperimentConfig(mode=mode, run=run_cfg)


def _json_safe(obj):
    if isinstance(obj, dict):
        return {str(k): _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_json_safe(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        obj = float(obj)
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _write_json(path: str | None, payload) -> None:
    """Sorted, indented JSON to the path, or to stdout without one."""
    text = json.dumps(_json_safe(payload), indent=2, sort_keys=True) + "\n"
    if not path:
        sys.stdout.write(text)
        return
    with open(path, "w") as fh:
        fh.write(text)


def _fingerprint(cfg: RunConfig) -> str:
    """Stable short id of the data source: distribution, seed, batch settings."""
    doc = json.dumps({"dist": cfg.dist.to_dict(), "seed": cfg.seed,
                      "n_ref": cfg.n_ref, "replay": cfg.replay_from_batch},
                     sort_keys=True)
    return hashlib.sha256(doc.encode()).hexdigest()[:12]


def _load_config(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _quantizer_rows(flat: np.ndarray, kappa: int, dim: int) -> list:
    return _json_safe(np.asarray(flat).reshape(kappa, dim))


# ---------------------------------------------------------------------------
# run


def cmd_run(args) -> int:
    cfg = parse_config(_load_config(args.config), args.seed)
    rc = cfg.run
    os.makedirs(args.out, exist_ok=True)
    timing: dict = {}
    t_start = time.perf_counter()

    if cfg.mode == "dalvq":      # the run's own schedule: one generate per run
        art = run(rc)
        schedule = art.schedule
    else:
        schedule = generate(rc.sched, rc.M, rc.horizon, rc.seed)
    report_v = validate(schedule)
    needs_valid = cfg.mode in ("dalvq", "agreement-only")
    if needs_valid and not report_v.passed and not args.allow_invalid_schedule:
        raise ScheduleValidationError(
            "schedule fails validation (see validation report); "
            "rerun with --allow-invalid-schedule to proceed anyway")

    effective = {**cfg.to_dict(), "version": __version__,
                 "fingerprint": _fingerprint(rc)}
    _write_json(os.path.join(args.out, "effective-config.json"), effective)

    if cfg.mode == "validate-only":
        _write_json(os.path.join(args.out, "validation.json"), report_v.to_dict())
        timing["total_s"] = time.perf_counter() - t_start
        _write_json(os.path.join(args.out, "timing.json"), timing)
        return EXIT_OK if report_v.passed else EXIT_SCHEDULE

    write_trace(schedule, os.path.join(args.out, "schedule-trace.jsonl"))
    head = {"mode": cfg.mode, "version": __version__, "fingerprint": effective["fingerprint"]}

    if cfg.mode in ("clvq-baseline", "lloyd-baseline"):
        if cfg.mode == "clvq-baseline":
            res = run_clvq(rc.dist, rc.kappa, rc.horizon, rc.seed, rc.step.c,
                           replay_from_batch=rc.replay_from_batch, n_ref=rc.n_ref)
            extra = {}
        else:
            res = run_lloyd(rc.dist, rc.kappa, rc.seed, n_ref=rc.n_ref)
            extra = {"converged": res.converged}
        _write_json(os.path.join(args.out, "final-quantizers.json"),
                    {"quantizer": _json_safe(res.quantizer),
                     "distortion": res.distortion})
        _write_json(os.path.join(args.out, "report.json"),
                    {**head, "distortion": res.distortion, "iterations": res.iterations,
                     **extra})
    elif cfg.mode == "agreement-only":
        x0 = initial_versions(rc)
        gaps, rho_fit = consensus_decay(schedule, x0)
        with open(os.path.join(args.out, "decay.csv"), "w") as fh:
            fh.write("t,consensus_gap\n")
            for t, g in enumerate(gaps):
                fh.write(f"{t},{float(g)!r}\n")
        _write_json(os.path.join(args.out, "report.json"),
                    {**head, "rho_fit": rho_fit, "initial_gap": float(gaps[0]),
                     "final_gap": float(gaps[-1]), "validation": report_v.to_dict()})
    else:  # dalvq
        timing["run_setup_s"] = time.perf_counter() - t_start
        t_mid = time.perf_counter()
        timing["sweep"] = sweep_path()             # "forked" or "inline"
        metrics = compute_metrics(art)             # takes the ticks, a chunk at a time
        report = summarize(art, metrics)
        timing["pass_s"] = time.perf_counter() - t_mid

        metrics.to_csv(os.path.join(args.out, "metrics.csv"))
        per_proc, _, _, _ = batched_cell_stats(art.final.reshape(rc.M, rc.kappa, rc.dim),
                                               art.batch)
        w_star = metrics.w_star_rec[-1]
        _write_json(os.path.join(args.out, "final-quantizers.json"),
                    {"processors": [_quantizer_rows(art.final[i], rc.kappa, rc.dim)
                                    for i in range(rc.M)],
                     "agreement": _quantizer_rows(w_star, rc.kappa, rc.dim),
                     "distortion": {"per_processor": per_proc,
                                    "agreement": float(metrics.distortion_star[-1])}})
        _write_json(os.path.join(args.out, "report.json"),
                    {**head, **report.to_dict(),
                     "constants": {"alpha": schedule.alpha, "B1": schedule.B1,
                                   "B2": schedule.B2, "B3": schedule.B3},
                     "validation": report_v.to_dict()})

    timing["total_s"] = time.perf_counter() - t_start
    _write_json(os.path.join(args.out, "timing.json"), timing)
    return EXIT_OK


# ---------------------------------------------------------------------------
# report table


class RunDirError(ValueError):
    """A run directory file unlike any a run writes (CLI exit 4)."""


def _load_run_file(d: str, name: str, key: str = "") -> dict:
    """A JSON object a run wrote into directory d, holding key if one is named."""
    path = os.path.join(d, name)
    data = _load_config(path)
    if not isinstance(data, dict) or key and key not in data:
        raise RunDirError(f"{path}: not a JSON object" + (f" with {key!r}" if key else ""))
    return data


def cmd_report(args) -> int:
    rows = [("run_dir", "mode", "seed", "fingerprint", "distortion",
             "consensus_gap", "consensus_slope", "wall_s")]
    for d in args.run_dirs:
        rep = _load_run_file(d, "report.json", "mode")
        eff = _load_run_file(d, "effective-config.json")
        try:
            wall = _load_run_file(d, "timing.json").get("total_s", "")
        except OSError:
            wall = ""
        dist = rep.get("final_distortion_star", rep.get("distortion", ""))
        rows.append((d, rep["mode"], eff.get("seed", ""),
                     rep.get("fingerprint", ""), dist,
                     rep.get("final_consensus_gap", rep.get("final_gap", "")),
                     rep.get("consensus_slope", rep.get("rho_fit", "")), wall))
    for row in rows:
        sys.stdout.write(",".join(str(c) for c in row) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# schedule validation and impulse tables


def _schedule_from_config(args):
    cfg = parse_config(_load_config(args.config), args.seed)
    rc = cfg.run
    return rc, generate(rc.sched, rc.M, rc.horizon, rc.seed)


def cmd_validate_schedule(args) -> int:
    _, schedule = _schedule_from_config(args)
    report = validate(schedule)
    _write_json(args.out, report.to_dict())
    return EXIT_OK if report.passed else EXIT_SCHEDULE


def cmd_phi_table(args) -> int:
    rc, schedule = _schedule_from_config(args)
    t = args.t if args.t is not None else min(rc.horizon, 64)
    if not (0 <= t <= rc.horizon):
        raise ConfigError(f"--t must lie in [0, horizon], got {t}")
    table = compute_phi(schedule, t)
    limits = phi_limit_series(schedule, horizon=t)
    payload = {"t": t, "M": rc.M, "version": __version__,
               "records": table.to_records(),
               "limits": {"phi_init": limits.phi_init, "phi": limits.phi,
                          "A_hat": limits.A_hat, "rho_hat": limits.rho_hat,
                          "eta_hat": limits.eta_hat, "resolved": limits.resolved}}
    _write_json(args.out, payload)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="dalvq",
                                description="distributed online quantization runs")
    sub = p.add_subparsers(dest="command", required=True)

    pr = sub.add_parser("run", help="execute one experiment into an output directory")
    pr.add_argument("--config", required=True, help="experiment config JSON")
    pr.add_argument("--seed", type=int, default=None, help="override the config seed")
    pr.add_argument("--out", required=True, help="output directory")
    pr.add_argument("--allow-invalid-schedule", action="store_true",
                    help="proceed even when the schedule fails validation")
    pr.set_defaults(fn=cmd_run)

    pt = sub.add_parser("report", help="tabulate finished run directories as CSV")
    pt.add_argument("run_dirs", nargs="+", help="directories written by 'run'")
    pt.set_defaults(fn=cmd_report)

    pv = sub.add_parser("validate-schedule", help="check a schedule's assumptions")
    pv.add_argument("--config", required=True)
    pv.add_argument("--seed", type=int, default=None)
    pv.add_argument("--out", default=None, help="write the report here instead of stdout")
    pv.set_defaults(fn=cmd_validate_schedule)

    pp = sub.add_parser("phi-table", help="impulse weight table and limits at a time t")
    pp.add_argument("--config", required=True)
    pp.add_argument("--seed", type=int, default=None)
    pp.add_argument("--t", type=int, default=None)
    pp.add_argument("--out", default=None)
    pp.set_defaults(fn=cmd_phi_table)
    return p


def main(argv=None) -> int:
    atexit.unregister(gc.freeze)        # once, however often main runs: frozen at
    atexit.register(gc.freeze)          # exit, objects skip the teardown's collection
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    except ScheduleValidationError as exc:
        sys.stderr.write(f"schedule error: {exc}\n")
        return EXIT_SCHEDULE
    except (OSError, json.JSONDecodeError, UnicodeDecodeError, RunDirError) as exc:
        sys.stderr.write(f"io error: {exc}\n")
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
