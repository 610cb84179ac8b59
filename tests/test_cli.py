import dataclasses
import filecmp
import json
import math
import os
import shutil
import subprocess
import sys
from importlib.metadata import EntryPoint

import pytest

import dalvq
from dalvq.cli import (EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_SCHEDULE, main,
                       parse_config)
from dalvq.engine import RunConfig, StepPolicy
from dalvq.errors import ConfigError
from dalvq.measures import DistributionSpec
from dalvq.schedule import ScheduleSpec, generate, write_trace


BOX = DistributionSpec.uniform_box([0.0, 0.0], [1.0, 1.0])
RING = ScheduleSpec(topology="ring", merge_period=2, delay_law="fixed",
                    delay_value=2, activity="round-robin")
IDLE = ScheduleSpec(topology="ring", merge_period=2, delay_law="fixed",
                    delay_value=2, activity="none")


def config_doc(mode="dalvq", **kw):
    base = dict(M=3, kappa=2, dim=2, horizon=40, dist=BOX, sched=RING,
                step=StepPolicy("local-clock", 0.5), seed=5, n_ref=120, cadence=10)
    base.update(kw)
    return {"mode": mode, **RunConfig(**base).to_dict()}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def checkout_env():
    """The environment for a child process that imports this checkout's dalvq
    first, not whatever copy it would find otherwise."""
    src_root = os.path.dirname(os.path.dirname(os.path.abspath(dalvq.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src_root, os.environ.get("PYTHONPATH")) if p))


# ---- config parsing ----


class TestParseConfig:
    def test_defaults_to_dalvq(self):
        cfg = parse_config(config_doc())
        assert cfg.mode == "dalvq"
        assert cfg.run.M == 3

    def test_unknown_key_rejected(self):
        doc = config_doc()
        doc["bogus"] = 1
        with pytest.raises(ConfigError):
            parse_config(doc)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(config_doc(mode="warp"))

    def test_not_an_object(self):
        with pytest.raises(ConfigError):
            parse_config([1, 2])

    def test_seed_override(self):
        cfg = parse_config(config_doc(), seed_override=99)
        assert cfg.run.seed == 99

    def test_sequential_baseline_requires_global_clock(self):
        with pytest.raises(ConfigError):
            parse_config(config_doc(mode="clvq-baseline"))
        cfg = parse_config(config_doc(mode="clvq-baseline",
                                      step=StepPolicy("global-clock", 0.5)))
        assert cfg.run.step.kind == "global-clock"


# ---- run command per mode ----


class TestRunModes:
    def test_dalvq_artifacts(self, tmp_path):
        cfg = write_config(tmp_path, config_doc())
        out = str(tmp_path / "out")
        assert main(["run", "--config", cfg, "--out", out]) == EXIT_OK
        names = sorted(os.listdir(out))
        assert names == ["effective-config.json", "final-quantizers.json",
                         "metrics.csv", "report.json", "schedule-trace.jsonl",
                         "timing.json"]
        rep = read_json(os.path.join(out, "report.json"))
        assert rep["mode"] == "dalvq"
        assert rep["validation"]["passed"] is True
        assert "worst_bound_ratio" in rep and "constants" in rep
        fq = read_json(os.path.join(out, "final-quantizers.json"))
        assert len(fq["processors"]) == 3
        assert len(fq["agreement"]) == 2 and len(fq["agreement"][0]) == 2
        eff = read_json(os.path.join(out, "effective-config.json"))
        assert eff["mode"] == "dalvq" and eff["seed"] == 5
        assert rep["fingerprint"] == eff["fingerprint"]
        with open(os.path.join(out, "metrics.csv")) as fh:
            header = fh.readline().strip().split(",")
        assert header[0] == "t" and "agreement_gap" in header

    @pytest.mark.parametrize("mode", ["dalvq", "agreement-only", "validate-only"])
    def test_one_schedule_per_run(self, tmp_path, monkeypatch, mode):
        # a dalvq run validates and traces the schedule its ticks run on
        calls = []
        for module in (dalvq.cli, dalvq.engine):
            monkeypatch.setattr(module, "generate", lambda *a, gen=module.generate:
                                calls.append(1) or gen(*a))
        cfg = write_config(tmp_path, config_doc(mode=mode))
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_OK
        assert calls == [1]

    def test_dalvq_m64_complete(self, tmp_path):
        sched = ScheduleSpec(topology="complete", merge_period=1, delay_law="fixed",
                             delay_value=1, activity="all-active")
        cfg = write_config(tmp_path, config_doc(M=64, horizon=100, sched=sched,
                                                n_ref=64, cadence=25))
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_OK
        rep = read_json(out / "report.json")
        assert rep["limits_resolved"] is True
        assert rep["worst_bound_ratio"] <= 1.0
        assert len(read_json(out / "final-quantizers.json")["processors"]) == 64

    def test_delayed_complete_per_processor_init_within_bound(self, tmp_path):
        # processors start apart and merge delayed copies: limits read at a
        # dip of the current versions' spread leave a lasting agreement gap
        # (worst_bound_ratio 1.35 here, 2.69 at horizon 8000)
        doc = {"mode": "dalvq", "M": 8, "kappa": 4, "dim": 2, "horizon": 4000,
               "dist": {"kind": "uniform-disk-union",
                        "centers": [[0.0, 0.0], [3.0, 0.0], [1.5, 2.0]],
                        "radii": [1.0, 0.8, 0.6]},
               "sched": {"topology": "complete", "merge_period": 1, "delay_law": "uniform",
                         "delay_value": 3, "activity": "all-active", "base_window": 64},
               "step": {"kind": "local-clock", "c": 0.5}, "seed": 5, "n_ref": 64,
               "cadence": 1000, "replay_from_batch": False, "init": "per-processor"}
        cfg, out = write_config(tmp_path, doc), tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_OK
        rep = read_json(out / "report.json")
        assert rep["limits_resolved"] is True
        assert rep["worst_bound_ratio"] <= 1.0

    def test_clvq_baseline_artifacts(self, tmp_path):
        cfg = write_config(tmp_path, config_doc(
            mode="clvq-baseline", step=StepPolicy("global-clock", 0.5)))
        out = str(tmp_path / "out")
        assert main(["run", "--config", cfg, "--out", out]) == EXIT_OK
        names = sorted(os.listdir(out))
        assert "metrics.csv" not in names
        rep = read_json(os.path.join(out, "report.json"))
        assert rep["mode"] == "clvq-baseline"
        assert rep["iterations"] == 40
        assert rep["distortion"] > 0

    def test_lloyd_baseline_artifacts(self, tmp_path):
        cfg = write_config(tmp_path, config_doc(mode="lloyd-baseline"))
        out = str(tmp_path / "out")
        assert main(["run", "--config", cfg, "--out", out]) == EXIT_OK
        rep = read_json(os.path.join(out, "report.json"))
        assert rep["mode"] == "lloyd-baseline"
        assert rep["converged"] is True

    def test_agreement_only_artifacts(self, tmp_path):
        # distinct starts, else the merge iteration has nothing to contract
        cfg = write_config(tmp_path, config_doc(mode="agreement-only",
                                                init="per-processor"))
        out = str(tmp_path / "out")
        assert main(["run", "--config", cfg, "--out", out]) == EXIT_OK
        rep = read_json(os.path.join(out, "report.json"))
        assert 0.0 <= rep["rho_fit"] < 1.0
        assert rep["final_gap"] < rep["initial_gap"]
        with open(os.path.join(out, "decay.csv")) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "t,consensus_gap"
        assert len(lines) == 42  # header + ticks 0..40

    def test_validate_only_artifacts(self, tmp_path):
        cfg = write_config(tmp_path, config_doc(mode="validate-only"))
        out = str(tmp_path / "out")
        assert main(["run", "--config", cfg, "--out", out]) == EXIT_OK
        names = sorted(os.listdir(out))
        assert names == ["effective-config.json", "timing.json", "validation.json"]
        assert read_json(os.path.join(out, "validation.json"))["passed"] is True

    def test_validate_only_failing_schedule_exits_3(self, tmp_path):
        cfg = write_config(tmp_path, config_doc(mode="validate-only", sched=IDLE))
        out = str(tmp_path / "out")
        assert main(["run", "--config", cfg, "--out", out]) == EXIT_SCHEDULE
        assert read_json(os.path.join(out, "validation.json"))["passed"] is False


# ---- schedule gating ----


class TestScheduleGate:
    def test_invalid_schedule_blocks_run(self, tmp_path):
        cfg = write_config(tmp_path, config_doc(sched=IDLE))
        out = str(tmp_path / "out")
        assert main(["run", "--config", cfg, "--out", out]) == EXIT_SCHEDULE
        assert not os.path.exists(os.path.join(out, "report.json"))

    def test_allow_invalid_schedule_proceeds(self, tmp_path):
        cfg = write_config(tmp_path, config_doc(mode="agreement-only", sched=IDLE))
        out = str(tmp_path / "out")
        code = main(["run", "--config", cfg, "--out", out,
                     "--allow-invalid-schedule"])
        assert code == EXIT_OK
        rep = read_json(os.path.join(out, "report.json"))
        assert rep["validation"]["passed"] is False


# ---- determinism and the seed flag ----


class TestDeterminism:
    def test_artifacts_byte_identical_across_reruns(self, tmp_path):
        cfg = write_config(tmp_path, config_doc())
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["run", "--config", cfg, "--out", a]) == EXIT_OK
        assert main(["run", "--config", cfg, "--out", b]) == EXIT_OK
        for name in ("metrics.csv", "report.json", "final-quantizers.json",
                     "effective-config.json", "schedule-trace.jsonl"):
            assert filecmp.cmp(os.path.join(a, name), os.path.join(b, name),
                               shallow=False), name

    def test_seed_override_changes_results(self, tmp_path):
        cfg = write_config(tmp_path, config_doc())
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["run", "--config", cfg, "--out", a]) == EXIT_OK
        assert main(["run", "--config", cfg, "--seed", "9", "--out", b]) == EXIT_OK
        ea, eb = (read_json(os.path.join(d, "effective-config.json")) for d in (a, b))
        assert ea["seed"] == 5 and eb["seed"] == 9
        assert ea["fingerprint"] != eb["fingerprint"]
        assert not filecmp.cmp(os.path.join(a, "metrics.csv"),
                               os.path.join(b, "metrics.csv"), shallow=False)


# ---- exit codes ----


PREFIX = {EXIT_CONFIG: "config error:", EXIT_SCHEDULE: "schedule error:", EXIT_IO: "io error:"}


def run_args(tmp_path, config, *extra, command="run"):
    """Arguments of `command` on the config file config, with --out under
    tmp_path for `run`."""
    out = ["--out", str(tmp_path / "o")] if command == "run" else []
    return [command, "--config", str(config), *out, *extra]


def edited_config(tmp_path, path, value):
    """The config file of config_doc() with the field at path set to value,
    which may make it invalid: JSON keeps NaN and Infinity."""
    doc = node = config_doc()
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return write_config(tmp_path, doc)


def text_file(tmp_path, text, name="config.json"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def trace_config(tmp_path, edit=None, trace_path=None):
    """A custom-trace config reading the 40-tick ring trace, after
    edit(lines) rewrote its lines, or reading trace_path instead."""
    path = tmp_path / "trace.jsonl"
    if trace_path is None:
        write_trace(generate(RING, 3, 40, seed=5), str(path))
        lines = edit(path.read_text().splitlines())
        path.write_text("".join(line + "\n" for line in lines))
    spec = ScheduleSpec(topology="custom-trace", trace_path=str(trace_path or path))
    return write_config(tmp_path, config_doc(sched=spec))


# Each row builds its argv from tmp_path; a read-only --out needs a user
# whose writes the file mode stops, so it is not a row (root writes anyway).
FAULTS = [
    ("config-missing", EXIT_IO, lambda p: run_args(p, p / "nope.json")),
    ("config-truncated", EXIT_IO,
     lambda p: run_args(p, text_file(p, json.dumps(config_doc())[:60]))),
    ("config-not-object", EXIT_CONFIG, lambda p: run_args(p, text_file(p, "[1, 2]"))),
    ("config-directory", EXIT_IO, lambda p: run_args(p, p)),
    ("out-is-file", EXIT_IO,
     lambda p: ["run", "--config", write_config(p, config_doc()),
                "--out", text_file(p, "x", "taken")]),
    ("out-under-file", EXIT_IO,
     lambda p: ["run", "--config", write_config(p, config_doc()),
                "--out", os.path.join(text_file(p, "x", "taken"), "o")]),
    ("validate-schedule-out-directory", EXIT_IO,
     lambda p: run_args(p, write_config(p, config_doc()), "--out", str(p),
                        command="validate-schedule")),
    ("phi-table-out-directory", EXIT_IO,
     lambda p: run_args(p, write_config(p, config_doc()), "--out", str(p), command="phi-table")),
    ("phi-table-t-negative", EXIT_CONFIG,
     lambda p: run_args(p, write_config(p, config_doc()), "--t", "-1", command="phi-table")),
    ("phi-table-t-past-horizon", EXIT_CONFIG,
     lambda p: run_args(p, write_config(p, config_doc()), "--t", "41", command="phi-table")),
    ("trace-missing", EXIT_CONFIG,
     lambda p: run_args(p, trace_config(p, trace_path=p / "none.jsonl"))),
    ("trace-directory", EXIT_CONFIG, lambda p: run_args(p, trace_config(p, trace_path=p))),
    ("trace-empty", EXIT_CONFIG, lambda p: run_args(p, trace_config(p, lambda lines: []))),
    ("trace-meta-only", EXIT_CONFIG,
     lambda p: run_args(p, trace_config(p, lambda lines: lines[:1]))),
    ("trace-short", EXIT_CONFIG,
     lambda p: run_args(p, trace_config(p, lambda lines: lines[:21]))),
    ("trace-truncated-line", EXIT_CONFIG,
     lambda p: run_args(p, trace_config(p, lambda lines: lines[:-1] + [lines[-1][:25]]))),
    ("trace-t-true", EXIT_CONFIG,
     lambda p: run_args(p, trace_config(p, lambda lines: [
         *lines[:2], lines[2].replace('"t": 1,', '"t": true,', 1), *lines[3:]]))),
    ("trace-t-float", EXIT_CONFIG,
     lambda p: run_args(p, trace_config(p, lambda lines: [
         *lines[:2], lines[2].replace('"t": 1,', '"t": 1.0,', 1), *lines[3:]]))),
    ("trace-meta-B1-huge", EXIT_CONFIG,
     lambda p: run_args(p, trace_config(p, lambda lines: [
         json.dumps({"meta": {**json.loads(lines[0])["meta"], "B1": 10**18}}), *lines[1:]]))),
    ("delay-fixed-huge", EXIT_CONFIG,
     lambda p: run_args(p, edited_config(p, ("sched", "delay_value"), 10**18))),
    ("delay-uniform-huge", EXIT_CONFIG,
     lambda p: run_args(p, write_config(p, config_doc(sched=dataclasses.replace(
         RING, delay_law="uniform", delay_value=10**18))))),
    ("seed-2**70", EXIT_CONFIG,
     lambda p: run_args(p, write_config(p, config_doc()), "--seed", str(2**70))),
    ("box-bound-infinite", EXIT_CONFIG,
     lambda p: run_args(p, edited_config(p, ("dist", "high"), [1.0, math.inf]))),
    ("M-zero", EXIT_CONFIG, lambda p: run_args(p, edited_config(p, ("M",), 0))),
    # the smallest M whose step matrix is too large even at B1 = 1
    ("M-11586", EXIT_CONFIG, lambda p: run_args(p, edited_config(p, ("M",), 11_586))),
    # generated tables sized by a period of 3e9 ticks, on a 40-tick horizon
    ("merge-period-1e9", EXIT_CONFIG, lambda p: run_args(p, write_config(p, config_doc(
        "validate-only", sched=dataclasses.replace(RING, merge_period=10**9))))),
    ("base-window-1e9", EXIT_CONFIG, lambda p: run_args(p, write_config(p, config_doc(
        "validate-only", sched=dataclasses.replace(RING, delay_law="uniform", delay_value=2,
                                                   base_window=10**9))))),
    ("trace-path-integer", EXIT_CONFIG,
     lambda p: run_args(p, edited_config(p, ("sched", "trace_path"), 5))),
    ("step-c-nan", EXIT_CONFIG, lambda p: run_args(p, edited_config(p, ("step", "c"), math.nan))),
    ("report-missing-run-dir", EXIT_IO, lambda p: ["report", str(p / "none")]),
    ("report-empty-run-dir", EXIT_IO, lambda p: ["report", str(p)]),
]
# Rows whose input, were it accepted, would ask for more memory than a host
# has: they run in a child whose address space is capped at 2 GB, where a
# regression fails with MemoryError instead of swamping the host.
CAPPED = {"merge-period-1e9", "base-window-1e9"}


def capped_main(argv):
    """main(argv) in a child capped at 2 GB of address space: its exit code
    and stderr lines."""
    child = ("import resource, sys\n"
             "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
             "from dalvq.cli import main\n"
             "sys.exit(main(sys.argv[1:]))\n")
    proc = subprocess.run([sys.executable, "-c", child, *argv], capture_output=True,
                          text=True, env=checkout_env(), timeout=120)
    return proc.returncode, proc.stderr.splitlines()


class TestExitCodes:
    @pytest.mark.parametrize("name, code, argv", [pytest.param(*row, id=row[0])
                                                  for row in FAULTS])
    def test_fault_matrix(self, tmp_path, capsys, name, code, argv):
        # bad input never gives a traceback: an exit code of 2, 3 or 4 and
        # exactly one stderr line naming the kind of error
        if name in CAPPED:
            got, err = capped_main(argv(tmp_path))
        else:
            got, err = main(argv(tmp_path)), capsys.readouterr().err.splitlines()
        assert got == code
        assert len(err) == 1 and err[0].startswith(PREFIX[code]), err

    def test_config_error(self, tmp_path):
        doc = config_doc()
        doc["bogus"] = 1
        cfg = write_config(tmp_path, doc)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_config_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_bytes(b"\xff\xfe" + json.dumps(config_doc()).encode())
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err.splitlines()
        assert code == EXIT_IO
        assert len(err) == 1 and err[0].startswith("io error:")

    @pytest.mark.parametrize("field", ["M", "kappa", "dim", "horizon", "seed", "n_ref",
                                       "cadence"])
    @pytest.mark.parametrize("bad", ["abc", 50.5, True, 2**63, 10**30])
    def test_integer_fields_rejected(self, tmp_path, capsys, field, bad):
        doc = config_doc()
        doc[field] = bad
        cfg = write_config(tmp_path, doc)
        code = main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err.splitlines()
        assert code == EXIT_CONFIG
        assert len(err) == 1 and err[0].startswith("config error:")

    @pytest.mark.parametrize("path, bad", [
        (("step", "c"), "abc"), (("step", "c"), [0.5]), (("step", "c"), True),
        (("step",), 5),
        (("sched", "base_window"), "x"), (("sched", "merge_period"), "2"),
        (("sched", "delay_value"), 1.5), (("sched", "base_window"), True),
        (("sched", "trace_path"), 5),
        (("dist", "low"), ["a", 0.0]), (("dist", "low"), ["0.0", "0.0"]),
        (("dist", "high"), [True, 1.0]), (("dist", "low"), [[0.0], 0.0]),
        (("dist", "kind"), ["uniform-box"]),
        (("replay_from_batch",), "yes"),
    ], ids=repr)
    def test_mistyped_fields_rejected(self, tmp_path, capsys, path, bad):
        doc = config_doc()
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = bad
        cfg = write_config(tmp_path, doc)
        code = main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err.splitlines()
        assert code == EXIT_CONFIG
        assert len(err) == 1 and err[0].startswith("config error:")

    def run_on_trace(self, tmp_path, capsys, trace_path, **kw):
        spec = ScheduleSpec(topology="custom-trace", trace_path=str(trace_path))
        cfg = write_config(tmp_path, config_doc(sched=spec, **kw))
        code = main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
        return code, capsys.readouterr().err.splitlines()

    def test_nan_trace_coefficient(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        write_trace(generate(RING, 3, 40, seed=5), str(path))
        lines = path.read_text().splitlines()
        rec = json.loads(lines[4])
        rec["coeff"][1][1] = float("nan")
        lines[4] = json.dumps(rec)
        path.write_text("\n".join(lines) + "\n")
        code, err = self.run_on_trace(tmp_path, capsys, path)
        assert code == EXIT_CONFIG
        assert len(err) == 1 and err[0].startswith("config error:")

    def test_trace_config_mismatch(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        write_trace(generate(RING, 3, 40, seed=5), str(path))
        for kw in ({"M": 4}, {"horizon": 50}, {"horizon": 30}):
            code, err = self.run_on_trace(tmp_path, capsys, path, **kw)
            assert code == EXIT_CONFIG, kw
            assert len(err) == 1 and err[0].startswith("config error:"), kw

    def test_malformed_trace_meta(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        write_trace(generate(RING, 3, 40, seed=5), str(path))
        lines = path.read_text().splitlines()
        meta = json.loads(lines[0])["meta"]
        for bad in ("meta", {k: v for k, v in meta.items() if k != "alpha"},
                    {**meta, "alpha": "x"}, {**meta, "B1": None}, {**meta, "B1": 1e20}):
            path.write_text("\n".join([json.dumps({"meta": bad})] + lines[1:]) + "\n")
            code, err = self.run_on_trace(tmp_path, capsys, path)
            assert code == EXIT_CONFIG, bad
            assert len(err) == 1 and err[0].startswith("config error:"), bad

    def test_trace_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        write_trace(generate(RING, 3, 40, seed=5), str(path))
        path.write_bytes(b"\xff\xfe" + path.read_bytes())
        code, err = self.run_on_trace(tmp_path, capsys, path)
        assert code == EXIT_CONFIG
        assert len(err) == 1 and err[0].startswith("config error:")

    def test_malformed_trace_tick(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        write_trace(generate(RING, 3, 40, seed=5), str(path))
        lines = path.read_text().splitlines()
        rec = json.loads(lines[4])
        for bad in ("5", {**rec, "active": 3}, {**rec, "active": ["a"]}, {**rec, "active": [2, 2]},
                    {**rec, "coeff": "abc"}, {**rec, "coeff": rec["coeff"][:2] + [[1.0]]},
                    {**rec, "delay": [[0.5, 0, 0]] + rec["delay"][1:]}):
            text = bad if isinstance(bad, str) else json.dumps(bad)
            path.write_text("\n".join(lines[:4] + [text] + lines[5:]) + "\n")
            code, err = self.run_on_trace(tmp_path, capsys, path)
            assert code == EXIT_CONFIG, bad
            assert len(err) == 1 and err[0].startswith("config error:"), bad

# ---- report, validate-schedule, phi-table ----


class TestReportCommand:
    def test_tabulates_runs(self, tmp_path, capsys):
        cfg = write_config(tmp_path, config_doc())
        out = str(tmp_path / "out")
        main(["run", "--config", cfg, "--out", out])
        capsys.readouterr()
        assert main(["report", out, out]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("run_dir,mode,seed,fingerprint,distortion")
        assert len(lines) == 3
        cells = lines[1].split(",")
        assert cells[0] == out and cells[1] == "dalvq" and cells[2] == "5"

    @pytest.mark.parametrize("name, text", [
        ("report.json", "[1, 2]"), ("report.json", "{}"), ("report.json", '"dalvq"'),
        ("report.json", "{"), ("report.json", None),
        ("effective-config.json", "[1, 2]"), ("effective-config.json", "null"),
        ("effective-config.json", None),
        ("timing.json", "[1, 2]"), ("timing.json", "3.5"), ("timing.json", "{")],
        ids=lambda v: "missing" if v is None else v)
    def test_malformed_run_dir(self, tmp_path, capsys, name, text):
        # every run writes these three as JSON objects, report.json with a mode
        docs = {"report.json": {"mode": "dalvq"}, "effective-config.json": {"seed": 5},
                "timing.json": {"total_s": 1.0}}
        for fname, doc in docs.items():
            (tmp_path / fname).write_text(json.dumps(doc))
        assert main(["report", str(tmp_path)]) == EXIT_OK
        capsys.readouterr()
        if text is None:
            (tmp_path / name).unlink()
        else:
            (tmp_path / name).write_text(text)
        assert main(["report", str(tmp_path)]) == EXIT_IO
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("io error:")


class TestExit:
    """At exit the CLI freezes the collector, so the interpreter's teardown
    skips collecting every object; a child's output stays whole."""

    def test_report_child_prints_its_whole_table(self, tmp_path, capsys):
        cfg = write_config(tmp_path, config_doc())
        out = str(tmp_path / "out")
        assert main(["run", "--config", cfg, "--out", out]) == EXIT_OK
        dirs = [out] * 2000
        capsys.readouterr()
        assert main(["report", *dirs]) == EXIT_OK
        table = capsys.readouterr().out
        assert len(table) > 4 * 65536            # several pipe buffers
        # an exit handler registered before main runs after the CLI's own
        probe = ("import atexit, gc, sys\n"
                 "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0))\n"
                 "from dalvq.cli import main\n"
                 "sys.exit(main(sys.argv[1:]))\n")
        proc = subprocess.run([sys.executable, "-c", probe, "report", *dirs],
                              capture_output=True, text=True, env=checkout_env())
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stdout == table + "frozen True\n"

    def test_run_child_writes_the_same_artifacts(self, tmp_path):
        cfg = write_config(tmp_path, config_doc())
        here, child = tmp_path / "here", tmp_path / "child"
        assert main(["run", "--config", cfg, "--out", str(here)]) == EXIT_OK
        proc = subprocess.run([sys.executable, "-m", "dalvq.cli", "run", "--config", cfg,
                               "--out", str(child)], capture_output=True, env=checkout_env())
        assert proc.returncode == EXIT_OK, proc.stderr.decode()
        names = sorted(os.listdir(here))
        assert sorted(os.listdir(child)) == names
        for name in set(names) - {"timing.json"}:
            assert (here / name).read_bytes() == (child / name).read_bytes(), name


class TestValidateScheduleCommand:
    def test_passing(self, tmp_path):
        cfg = write_config(tmp_path, config_doc())
        out = str(tmp_path / "v.json")
        assert main(["validate-schedule", "--config", cfg, "--out", out]) == EXIT_OK
        assert read_json(out)["passed"] is True

    def test_failing(self, tmp_path, capsys):
        cfg = write_config(tmp_path, config_doc(sched=IDLE))
        assert main(["validate-schedule", "--config", cfg]) == EXIT_SCHEDULE
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is False


class TestPhiTableCommand:
    def test_writes_table(self, tmp_path):
        cfg = write_config(tmp_path, config_doc())
        out = str(tmp_path / "phi.json")
        assert main(["phi-table", "--config", cfg, "--t", "12", "--out", out]) == EXIT_OK
        payload = read_json(out)
        assert payload["t"] == 12 and payload["M"] == 3
        assert len(payload["limits"]["phi"]) == 12
        assert len(payload["limits"]["phi_init"]) == 3
        taus = {rec["tau"] for rec in payload["records"]}
        assert -1 in taus and 11 in taus


class TestWithoutScipy:
    def test_run_and_validate_schedule(self, tmp_path):
        # numpy is the only runtime dependency: hide scipy from a child process
        # and run a generated schedule (B2 derivation and validation included)
        launcher = ("import sys\n"
                    "sys.modules['scipy'] = None\n"
                    "from dalvq.cli import main\n"
                    "sys.exit(main(sys.argv[1:]))\n")
        env = checkout_env()
        cfg = write_config(tmp_path, config_doc())
        for argv in (["run", "--config", cfg, "--out", str(tmp_path / "out")],
                     ["validate-schedule", "--config", cfg]):
            proc = subprocess.run([sys.executable, "-c", launcher, *argv],
                                  capture_output=True, env=env)
            assert proc.returncode == EXIT_OK, proc.stderr.decode()
        assert os.path.exists(tmp_path / "out" / "report.json")


PYPROJECT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "pyproject.toml")


class TestInstalledScript:
    def test_console_entry_point(self, tmp_path):
        tomllib = pytest.importorskip("tomllib")
        with open(PYPROJECT, "rb") as fh:
            scripts = tomllib.load(fh).get("project", {}).get("scripts", {})
        assert "dalvq" in scripts
        entry = EntryPoint(name="dalvq", value=scripts["dalvq"], group="console_scripts")
        assert callable(entry.load())
        # what the script an install generates does: load the entry, call it
        launcher = ("import sys\n"
                    "from importlib.metadata import EntryPoint\n"
                    "sys.argv[0] = 'dalvq'\n"
                    f"sys.exit(EntryPoint('dalvq', {entry.value!r}, 'console_scripts').load()())\n")
        cfg = write_config(tmp_path, config_doc(mode="validate-only"))
        out = tmp_path / "out"
        proc = subprocess.run([sys.executable, "-c", launcher, "run", "--config", cfg,
                               "--out", str(out)], capture_output=True, env=checkout_env())
        assert proc.returncode == EXIT_OK, proc.stderr.decode()
        assert sorted(os.listdir(out)) == ["effective-config.json", "timing.json",
                                           "validation.json"]

    @pytest.mark.skipif(shutil.which("dalvq") is None, reason="dalvq script not installed")
    def test_installed_script_on_path(self, tmp_path):
        cfg = write_config(tmp_path, config_doc(mode="validate-only"))
        proc = subprocess.run([shutil.which("dalvq"), "run", "--config", cfg,
                               "--out", str(tmp_path / "out")], capture_output=True)
        assert proc.returncode == EXIT_OK
