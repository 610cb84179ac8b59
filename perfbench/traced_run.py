"""One ``dalvq run`` in this process, with every layer boundary traced.

    PYTHONPATH=src python3 perfbench/traced_run.py CONFIG OUT_DIR TRACE_JSON

Calls ``dalvq.cli.main(["run", ...])`` after wrapping the public functions
each layer exposes, at the module attribute its caller looks them up
through. Spans stay in memory and are written to TRACE_JSON once, together
with the per-layer metrics derived from them. Exits with the run's code.
"""

from __future__ import annotations

import json
import os
import sys

from tracer import Counter, Tracer


def install_layers(tracer: Tracer) -> None:
    """Wrap each layer's entry points where the layer above calls them."""
    import dalvq.agreement as agreement
    import dalvq.cli as cli
    import dalvq.diagnostics as diagnostics
    import dalvq.engine as engine

    # low-rate calls: one span each
    for owner, attr, name in [
            (cli, "generate", "schedule.generate"),
            (engine, "generate", "schedule.generate"),
            (cli, "validate", "schedule.validate"),
            (cli, "write_trace", "schedule.write_trace"),
            (engine, "make_batch", "measures.make_batch"),
            (cli, "phi_limit_series", "agreement.phi_limits"),
            (cli, "compute_metrics", "diagnostics.metrics"),
            (cli, "summarize", "diagnostics.summarize"),
            (diagnostics, "estimate_lipschitz", "diagnostics.lipschitz"),
            (diagnostics.RunMetrics, "to_csv", "diagnostics.to_csv")]:
        tracer.install(owner, attr, name)
    tracer.install(cli, "run", "engine.run",
                   tally=lambda tr, args, art: tr.count("engine.events", art.events.n))
    tracer.install(diagnostics, "batched_cell_stats", "diagnostics.kernel",
                   tally=lambda tr, args, res: tr.count("diagnostics.kernel_quantizers",
                                                        len(args[0])))
    # high-rate calls: folded into one counter per name
    for owner, attr, name in [
            (engine, "dalvq_tick", "engine.tick"),
            (engine, "merged_versions", "engine.merge"),
            (engine, "sample", "measures.draw"),
            (engine, "draw_index", "measures.draw"),
            (engine, "nearest_cell", "geometry.nearest_cell"),
            (agreement, "merged_versions", "agreement.merge")]:
        tracer.install(owner, attr, name, counted=True)


def layer_metrics(tr: Tracer, wall_s: float, out_dir: str) -> dict:
    """Per-layer metrics of a finished traced run, by benchmark name."""
    def counter(name):
        return tr.counters.get(name) or Counter()

    def per_call_us(name):
        c = counter(name)
        return 1e6 * c.total_s / c.calls if c.calls else 0.0

    (main,) = [s for s in tr.spans if s.name == "cli.main"]
    kernel_q = counter("diagnostics.kernel_quantizers").calls
    trace_path = os.path.join(out_dir, "schedule-trace.jsonl")
    return {
        "cli.import_s": tr.total("cli.import"),
        "cli.self_s": main.self_s,
        "schedule.generate_s": tr.total("schedule.generate"),
        "schedule.generate_calls": tr.calls("schedule.generate"),
        "schedule.validate_s": tr.total("schedule.validate"),
        "schedule.write_trace_s": tr.total("schedule.write_trace"),
        "schedule.trace_mb": os.path.getsize(trace_path) / 2**20,
        "measures.make_batch_s": tr.total("measures.make_batch"),
        "measures.draws": counter("measures.draw").calls,
        "measures.draw_s": counter("measures.draw").total_s,
        "measures.draw_us": per_call_us("measures.draw"),
        "engine.run_s": tr.total("engine.run"),
        "engine.self_s": tr.self_total("engine.run") + counter("engine.tick").self_s,
        "engine.ticks": counter("engine.tick").calls,
        "engine.events": counter("engine.events").calls,
        "engine.tick_us": per_call_us("engine.tick"),
        "engine.merges": counter("engine.merge").calls,
        "engine.merge_s": counter("engine.merge").total_s,
        "geometry.nearest_cell_calls": counter("geometry.nearest_cell").calls,
        "geometry.nearest_cell_s": counter("geometry.nearest_cell").total_s,
        "agreement.phi_limits_s": tr.total("agreement.phi_limits"),
        "agreement.impulse_merges": counter("agreement.merge").calls,
        "agreement.merge_us": per_call_us("agreement.merge"),
        "agreement.rss_growth_mb": tr.rss_growth({"agreement.phi_limits"}),
        "diagnostics.metrics_s": tr.total("diagnostics.metrics"),
        "diagnostics.sweep_self_s": tr.self_total("diagnostics.metrics"),
        "diagnostics.kernel_s": tr.total("diagnostics.kernel"),
        "diagnostics.kernel_calls": tr.calls("diagnostics.kernel"),
        "diagnostics.kernel_quantizers": kernel_q,
        "diagnostics.kernel_us_per_quantizer":
            1e6 * tr.total("diagnostics.kernel") / kernel_q if kernel_q else 0.0,
        "diagnostics.lipschitz_s": tr.total("diagnostics.lipschitz"),
        "diagnostics.summarize_s": tr.total("diagnostics.summarize"),
        "diagnostics.to_csv_s": tr.total("diagnostics.to_csv"),
        "diagnostics.rss_growth_mb": tr.rss_growth(
            {"diagnostics.metrics", "diagnostics.summarize", "diagnostics.to_csv"}),
        "trace.wall_s": wall_s,
        # named spans below the root: the import plus everything main called
        "trace.coverage": (tr.total("cli.import") + main.dur - main.self_s) / wall_s,
    }


def traced_run(config: str, out_dir: str) -> tuple[int, Tracer, dict]:
    """Run once under the tracer; returns (exit code, tracer, metrics).

    The wrappers are removed before this returns, also when the run raises.
    """
    tracer = Tracer()
    t0 = tracer.clock()
    with tracer.span("cli.import"):
        import dalvq.cli
    install_layers(tracer)
    try:
        with tracer.span("cli.main"):
            code = dalvq.cli.main(["run", "--config", config, "--out", out_dir])
    finally:
        tracer.restore()
    wall_s = tracer.clock() - t0
    metrics = layer_metrics(tracer, wall_s, out_dir) if code == 0 else {}
    return code, tracer, metrics


def main(argv: list[str]) -> int:
    config, out_dir, trace_json = argv
    code, tracer, metrics = traced_run(config, out_dir)
    with open(trace_json, "w", encoding="utf-8") as fh:
        json.dump({"exit_code": code, "metrics": metrics, **tracer.to_dict()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
