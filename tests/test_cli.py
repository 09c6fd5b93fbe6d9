import csv
import hashlib
import json
import math
import re
import sys
import warnings

import numpy as np
import pytest

from diffevo import FunctionBenchmark, make_synthetic, read_traces, regret_series, write_tabular
from diffevo import cli
from diffevo.cli import main, parse_benchmark


def run_cli(*argv):
    return main(list(argv))


def write_one_choice_table(path, costs):
    """A tabular file of one categorical parameter whose choice ``k`` costs
    ``costs[k]``; returns its benchmark spec."""
    choices = [f"c{k}" for k in range(len(costs))]
    lines = [{"params": [{"name": "p", "kind": "categorical", "choices": choices}]}]
    lines += [{"key": [c], "val_err": 0.5, "test_err": None, "cost": cost}
              for c, cost in zip(choices, costs)]
    path.write_text("".join(json.dumps(doc) + "\n" for doc in lines))
    return str(path)


class TestParseBenchmark:
    def test_synthetic_shorthand(self):
        bench = parse_benchmark("synthetic:5x4")
        assert len(bench.table) == 1024
        assert bench.benchmark_id == "synthetic:5x4:invalid=0:cost=lognormal:seed=0"

    def test_synthetic_with_options(self):
        bench = parse_benchmark("synthetic:3x3:invalid=0.5:seed=7:cost=unit")
        assert len(bench.table) == 27 - 13
        assert "invalid=0.5" in bench.benchmark_id and "seed=7" in bench.benchmark_id

    def test_continuous_shorthand(self):
        bench = parse_benchmark("sphere:3")
        assert bench.space.dimension == 3
        assert bench.space.params[0].lo == -5.0
        assert bench == FunctionBenchmark("sphere", 3)

    def test_continuous_with_bounds(self):
        bench = parse_benchmark("rastrigin:2:lo=-1:hi=2")
        assert bench.space.params[0].lo == -1.0
        assert bench.space.params[1].hi == 2.0

    def test_tabular_path(self, tmp_path):
        path = tmp_path / "bench.jsonl"
        write_tabular(make_synthetic(3, 3, seed=0), path)
        assert len(parse_benchmark(f"tabular:{path}").table) == 27
        assert len(parse_benchmark(str(path)).table) == 27

    def test_an_empty_option_is_skipped(self):
        got, want = parse_benchmark("synthetic:5x4:"), parse_benchmark("synthetic:5x4")
        assert got.benchmark_id == want.benchmark_id
        assert got.table == want.table

    def test_unknown_option_rejected(self):
        with pytest.raises(ValueError, match="bad benchmark option"):
            parse_benchmark("synthetic:3x3:frac=0.5")


class TestRun:
    def test_writes_trace_file_and_summary(self, tmp_path, capsys):
        out = tmp_path / "t.jsonl"
        code = run_cli("run", "--optimizer", "de", "--np", "8",
                       "--benchmark", "synthetic:3x3", "--evals", "50",
                       "--runs", "2", "--seed", "0", "--out", str(out))
        assert code == 0
        traces = read_traces(out)
        assert len(traces) == 2 and all(len(t) == 50 for t in traces)
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("optimizer=de benchmark=synthetic:3x3")
        assert "final_mean_regret=" in lines[0]
        assert "mean_cumulative_cost=" in lines[0]

    def test_canonical_hyperparameter_invocation(self, tmp_path):
        out = tmp_path / "t.jsonl"
        code = run_cli("run", "--optimizer", "de", "--np", "20", "--f", "0.5",
                       "--cr", "0.5", "--benchmark", "synthetic:5x4",
                       "--evals", "2000", "--runs", "5", "--seed", "0",
                       "--out", str(out))
        assert code == 0
        traces = read_traces(out)
        assert len(traces) == 5
        assert all(t.config == {"population_size": 20, "scaling_factor": 0.5,
                                "crossover_rate": 0.5} for t in traces)

    def test_undecodable_byte_names_path_and_line(self, tmp_path, capsys):
        bench = tmp_path / "bench.jsonl"
        write_tabular(make_synthetic(2, 2), bench)
        lines = bench.read_bytes().split(b"\n")
        lines[2] = lines[2].replace(b'"c1"', b'"c\xff"')
        bench.write_bytes(b"\n".join(lines))
        assert run_cli("run", "--benchmark", str(bench), "--evals", "5",
                       "--out", str(tmp_path / "t.jsonl")) == 1
        position = lines[2].index(b"\xff")
        assert capsys.readouterr().err == (f"error: {bench}:3: 'utf-8' codec can't decode byte "
                                           f"0xff in position {position}: invalid start byte\n")

    def test_missing_benchmark_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run_cli("run", "--out", str(tmp_path / "t.jsonl"), "--evals", "10")
        assert err.value.code == 2

    def test_missing_budget_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run_cli("run", "--benchmark", "synthetic:3x3",
                    "--out", str(tmp_path / "t.jsonl"))
        assert err.value.code == 2

    def test_a_config_without_a_budget_keeps_the_budgets_message(self):
        # the message names no flag of its own, so no flag is put in front of it
        cfg = {key: default for key, (_, default, _) in cli.FIELDS.items()}
        with pytest.raises(ValueError) as err:
            cli.build_optimizer("de", cfg)
        assert str(err.value) == "budget needs max_evaluations and/or max_cost"

    def test_bad_benchmark_spec_fails_cleanly(self, tmp_path, capsys):
        code = run_cli("run", "--benchmark", "synthetic:9", "--evals", "5",
                       "--out", str(tmp_path / "t.jsonl"))
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_run_that_never_spends_its_cost_budget_fails_cleanly(self, tmp_path, capsys):
        # every row of the table costs 0, whatever DE draws
        table = tmp_path / "free.jsonl"
        bench = write_one_choice_table(table, [0.0] * 4)
        code = run_cli("run", "--benchmark", bench, "--np", "4", "--cost", "0.5",
                       "--seed", "189", "--out", str(tmp_path / "x.jsonl"))
        assert code == 1
        err = capsys.readouterr().err
        assert err == ("error: run with seed 189 failed: 100000 evaluations in a row left the "
                       "cumulative cost at 0.0, so the cost budget may never be spent; add an "
                       "evaluation limit (--evals)\n")
        assert list(tmp_path.iterdir()) == [table]

    @pytest.mark.parametrize("flags, message", [
        (("--seed", "-1", "--benchmark", "synthetic:3x3"), "--seed must be non-negative, got -1"),
        (("--benchmark", "synthetic:3x3:seed=-2"),
         "benchmark 'synthetic:3x3:seed=-2': expected non-negative integer"),
        (("--benchmark", "synthetic:axb"),
         "benchmark 'synthetic:axb': invalid literal for int() with base 10: 'a'"),
        (("--benchmark", "sphere:x"),
         "benchmark 'sphere:x': invalid literal for int() with base 10: 'x'"),
        (("--benchmark", "sphere:2:lo=-1e200:hi=1e200"),
         "benchmark 'sphere:2:lo=-1e200:hi=1e200': bounds [-1e+200, 1e+200] are too wide: "
         "sphere exceeds the largest float on them"),
        (("--runs", "0", "--benchmark", "synthetic:3x3"), "--runs must be positive, got 0"),
        (("--jobs", "-3", "--benchmark", "synthetic:3x3"), "--jobs must be positive, got -3"),
        (("--evals", "0", "--benchmark", "synthetic:3x3"), "--evals must be positive, got 0"),
        (("--cost", "nan", "--benchmark", "synthetic:3x3"),
         "--cost must be positive and finite, got nan"),
        (("--np", "2", "--benchmark", "synthetic:3x3"), "--np must be >= 4, got 2"),
        (("--cr", "1.5", "--benchmark", "synthetic:3x3"), "--cr must be in [0, 1], got 1.5"),
        (("--optimizer", "re", "--pop", "5", "--sample", "6", "--benchmark", "synthetic:3x3"),
         "--sample must be in [1, 5], got 6"),
        # Path("") is ".", which no file is opened for
        (("--benchmark", "tabular:"), "benchmark 'tabular:': no tabular file path"),
        (("--benchmark", ""), "benchmark '': no tabular file path"),
        (("--benchmark", "synthetic:3x3:cost=unit:cost=lognormal"),
         "benchmark 'synthetic:3x3:cost=unit:cost=lognormal': option 'cost' given twice"),
        (("--benchmark", "sphere:2:lo=-1:lo=-2"),
         "benchmark 'sphere:2:lo=-1:lo=-2': option 'lo' given twice"),
    ])
    def test_error_line_names_the_flag_or_the_spec(self, tmp_path, capsys, flags, message):
        out = tmp_path / "t.jsonl"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli("run", "--evals", "50", *flags, "--out", str(out)) == 1
        assert caught == []
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("cost", ["nan", "inf", "-inf", "0"])
    def test_cost_limit_that_never_ends_a_run_is_refused(self, tmp_path, capsys, cost):
        # no cumulative cost reaches a NaN or infinite limit
        code = run_cli("run", "--benchmark", "synthetic:3x4", f"--cost={cost}",
                       "--out", str(tmp_path / "x.jsonl"))
        assert code == 1
        assert capsys.readouterr().err == (f"error: --cost must be positive and finite, "
                                           f"got {float(cost)}\n")
        assert list(tmp_path.iterdir()) == []

    def test_missing_tabular_file_fails_cleanly(self, tmp_path, capsys):
        code = run_cli("run", "--benchmark", str(tmp_path / "nope.jsonl"),
                       "--evals", "5", "--out", str(tmp_path / "t.jsonl"))
        assert code == 1

    def test_missing_out_directory_fails_before_the_benchmark_is_read(self, tmp_path, capsys):
        out = tmp_path / "missing" / "t.jsonl"
        assert run_cli("run", "--benchmark", str(tmp_path / "nope.jsonl"), "--evals", "5",
                       "--out", str(out)) == 1
        assert capsys.readouterr().err == (f"error: --out {out}: {out.parent} "
                                           "is not a directory\n")
        assert list(tmp_path.iterdir()) == []

    def test_out_that_is_a_directory_fails_before_the_optimizer_runs(self, tmp_path, capsys,
                                                                     monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "run_de", lambda *args: calls.append(args))
        out = tmp_path / "adir"
        out.mkdir()
        assert run_cli("run", "--benchmark", "synthetic:3x3", "--evals", "5",
                       "--out", str(out)) == 1
        assert calls == []
        assert capsys.readouterr() == ("", f"error: --out {out}: {out} is a directory\n")
        assert list(tmp_path.iterdir()) == [out]
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("optimizer,flags", [
        ("de", ("--np", "8")),
        ("rs", ()),
        ("re", ("--pop", "10", "--sample", "3")),
    ])
    def test_identical_invocations_identical_bytes(self, tmp_path, optimizer, flags):
        args = ("run", "--optimizer", optimizer, *flags,
                "--benchmark", "synthetic:3x3:invalid=0.2", "--evals", "40",
                "--runs", "2", "--seed", "1")
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert run_cli(*args, "--out", str(a)) == 0
        assert run_cli(*args, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_jobs_flag_does_not_change_output(self, tmp_path):
        args = ("run", "--optimizer", "rs", "--benchmark", "synthetic:3x3",
                "--evals", "30", "--runs", "4", "--seed", "0")
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run_cli(*args, "--jobs", "1", "--out", str(a))
        run_cli(*args, "--jobs", "3", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_config_file_provides_defaults_flags_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "optimizer": "rs", "benchmark": "synthetic:3x3",
            "evals": 25, "runs": 2, "seed": 0,
            "out": str(tmp_path / "from_file.jsonl"),
        }))
        assert run_cli("run", "--config", str(cfg)) == 0
        assert (tmp_path / "from_file.jsonl").exists()
        override = tmp_path / "override.jsonl"
        assert run_cli("run", "--config", str(cfg), "--runs", "3",
                       "--out", str(override)) == 0
        assert len(read_traces(override)) == 3

    @pytest.mark.parametrize("field,value,problem", [
        ("cost", "5", "is not a number: '5'"), ("evals", 2.5, "is not an integer: 2.5"),
        ("runs", True, "is not an integer: True"), ("np", None, "is not an integer: None"),
        ("benchmark", ["synthetic:3x3"], "is not a string: ['synthetic:3x3']"),
        ("cost", 10**400, "is too large for a float"),
        ("cost", 2**1024 - 2**970 - 1, "is too large for a float"),  # above the largest float
    ])
    def test_wrongly_typed_config_field_fails_cleanly(self, tmp_path, capsys, field, value,
                                                      problem):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"benchmark": "synthetic:3x3", "evals": 10, field: value}))
        out = tmp_path / "t.jsonl"
        assert run_cli("run", "--config", str(cfg), "--out", str(out)) == 1
        assert capsys.readouterr().err == f"error: config file {cfg}: field {field!r} {problem}\n"
        assert not out.exists()

    def test_config_file_integer_for_a_number_is_read_as_the_flag_reads_it(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"benchmark": "synthetic:3x3", "evals": 10, "f": 1, "cr": 0}))
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert run_cli("run", "--config", str(cfg), "--out", str(a)) == 0
        assert run_cli("run", "--benchmark", "synthetic:3x3", "--evals", "10", "--f", "1",
                       "--cr", "0", "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()
        # 2**1024 - 2**971 is the largest float, which the flag spells in full
        cfg.write_text(json.dumps({"benchmark": "synthetic:3x3", "evals": 10,
                                   "cost": 2**1024 - 2**971}))
        assert run_cli("run", "--config", str(cfg), "--out", str(a)) == 0
        assert run_cli("run", "--benchmark", "synthetic:3x3", "--evals", "10", "--cost",
                       repr(sys.float_info.max), "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_config_file_that_is_not_an_object_fails_cleanly(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('["evals"]')
        assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "t.jsonl")) == 1
        assert capsys.readouterr().err == f"error: config file {cfg} does not hold a JSON object\n"

    def test_config_file_with_an_undecodable_byte_names_the_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{"benchmark": "synt\xffhetic:3x3", "evals": 10}')
        out = tmp_path / "t.jsonl"
        assert run_cli("run", "--config", str(cfg), "--out", str(out)) == 1
        assert capsys.readouterr().err == (f"error: config file {cfg}: 'utf-8' codec can't decode "
                                           "byte 0xff in position 19: invalid start byte\n")
        assert not out.exists()

    def test_config_file_that_is_not_json_names_the_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"np": 20,')
        out = tmp_path / "t.jsonl"
        assert run_cli("run", "--config", str(cfg), "--benchmark", "synthetic:3x3",
                       "--evals", "10", "--out", str(out)) == 1
        assert capsys.readouterr().err == (f"error: config file {cfg}: Expecting property name "
                                           "enclosed in double quotes: line 1 column 11 (char 10)\n")
        assert not out.exists()

    def test_missing_config_file_fails_cleanly(self, tmp_path, capsys):
        cfg = tmp_path / "missing.json"
        out = tmp_path / "t.jsonl"
        assert run_cli("run", "--config", str(cfg), "--benchmark", "synthetic:3x3",
                       "--evals", "10", "--out", str(out)) == 1
        assert capsys.readouterr().err == (f"error: [Errno 2] No such file or directory: "
                                           f"{str(cfg)!r}\n")
        assert not out.exists()

    def test_empty_config_path_fails_cleanly(self, tmp_path, capsys):
        # an empty path is a path that cannot be opened, not a missing --config
        out = tmp_path / "t.jsonl"
        assert run_cli("run", "--config", "", "--benchmark", "synthetic:3x3",
                       "--evals", "10", "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err == "error: [Errno 2] No such file or directory: ''\n"
        assert err.count("error:") == 1
        assert not out.exists()

    @pytest.mark.parametrize("spec, value", [("sphere:2", "nan"), ("synthetic:3x3", "inf")])
    def test_non_finite_scaling_factor_fails_cleanly(self, tmp_path, capsys, spec, value):
        out = tmp_path / "t.jsonl"
        assert run_cli("run", "--benchmark", spec, "--evals", "100", "--f", value,
                       "--out", str(out)) == 1
        assert capsys.readouterr().err == f"error: --f must be finite and >= 0, got {value}\n"
        assert not out.exists()

    def test_non_finite_scaling_factor_in_a_config_file_fails_cleanly(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"benchmark": "synthetic:3x3", "evals": 100, "f": NaN}')
        out = tmp_path / "t.jsonl"
        assert run_cli("run", "--config", str(cfg), "--out", str(out)) == 1
        assert capsys.readouterr().err == "error: --f must be finite and >= 0, got nan\n"
        assert not out.exists()

    def test_unknown_config_field_is_usage_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"benchmark": "synthetic:3x3", "evlas": 10}))
        with pytest.raises(SystemExit) as err:
            run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "t.jsonl"))
        assert err.value.code == 2


class TestGoldenBytes:
    """Output bytes pinned by sha256; a change to any trace or curve byte
    must update these constants deliberately. The de constants changed when
    DE began drawing a whole generation at once (a new draw order). They
    changed again when each run's generation became one draw of
    NP * NP + NP * D + NP uniforms, the forced dimensions ``floor(u * D)``
    of the last NP instead of ``integers(D)`` (keys and crossover values
    unchanged). They changed again when the (NP, NP) parent keys gave way
    to three uniforms a target (:func:`diffevo.de.parent_indices`), so that
    a generation draws NP * 3 + NP * D + NP values. The re
    constants changed when each RE child began coming from one draw of
    S + 2 uniforms instead of three generator calls (a new draw order). rs
    is unchanged since it was first recorded. AGGREGATES pins
    ``diffevo aggregate`` over the TRACES files on both grids."""

    TRACES = {
        "de": "1acf6558a3d298712206f3b01d5989df8e1a6a4251da9b948a833e8a1413dc5c",
        "rs": "98b71d1bb476e33313d41ad27724a18e48cd4d04d163522da21806260afc0cca",
        "re": "620eb6c1c7a28d4435124b91230413d503500114cc7fcec9dfe4f898bf7dba2a",
    }
    CURVES = {
        "de": "591d37e20e78560ba1426b9bf83a24d934a6bcb06aa88db3774dc181f9a6aab6",
        "rs": "4302c9d191c46044379f553ae966ae48b1a5d55b1625ab771166c0663b379339",
        "re": "d8d357c450d82d659a128ffc811cc4bd2b434aceca4113cdf6b695eef7a41dfd",
    }

    AGGREGATES = {
        ("de", "union"): "283bbccaf09573d7e42c39af30ca410d0e0dbd8e307173c1155344d965d6371d",
        ("de", "log"): "e7ffad6fda2d8f4f2ae63f4cb80465bc0370381362c189f9cf4e4776e7231116",
        ("rs", "union"): "bbebd4fb57bfb26533281ec1214724b6cbcad5c7d1b011e616b6e24f06395dff",
        ("rs", "log"): "b597846ec17e4744f215fe5b04dafb7c9819b0cd1f4bbcf67fd7c0155185fa10",
        ("re", "union"): "5ab3bbbe6aa8355ce0891f5e9457a71db4566510c87bd631b0e6740aa41c0469",
        ("re", "log"): "76053008b2213662ae7e060787359b480d688148c399f7ed9ca8a044b0bdb7f5",
    }

    @staticmethod
    def write_run_traces(tmp_path):
        """The three invocations of acceptance criterion 6; returns {optimizer: trace path}."""
        tabular_path = tmp_path / "bench.jsonl"
        write_tabular(make_synthetic(3, 3, invalid_fraction=0.2, seed=4), tabular_path)
        combos = [
            ("de", "synthetic:4x3:invalid=0.1", ("--np", "8")),
            ("rs", "sphere:2", ()),
            ("re", str(tabular_path), ("--pop", "15", "--sample", "4")),
        ]
        paths = {}
        for optimizer, benchmark, flags in combos:
            out = paths[optimizer] = tmp_path / f"{optimizer}.jsonl"
            assert run_cli("run", "--optimizer", optimizer, *flags, "--benchmark", benchmark,
                           "--evals", "80", "--runs", "3", "--seed", "0", "--out", str(out)) == 0
        return paths

    def test_run_traces(self, tmp_path):
        for optimizer, path in self.write_run_traces(tmp_path).items():
            assert hashlib.sha256(path.read_bytes()).hexdigest() == self.TRACES[optimizer]

    def test_aggregate_curves(self, tmp_path):
        paths = self.write_run_traces(tmp_path)
        for (optimizer, grid), digest in self.AGGREGATES.items():
            out = tmp_path / f"{optimizer}-{grid}.csv"
            assert run_cli("aggregate", str(paths[optimizer]), "--grid", grid,
                           "--out", str(out)) == 0
            got = hashlib.sha256(out.read_bytes()).hexdigest()
            assert got == digest, (optimizer, grid)

    def test_compare_curves(self, tmp_path):
        assert run_cli("compare", "--optimizers", "de,rs,re",
                       "--benchmark", "synthetic:5x4:invalid=0.2", "--cost", "500",
                       "--runs", "6", "--seed", "2", "--out-dir", str(tmp_path)) == 0
        for optimizer, digest in self.CURVES.items():
            got = hashlib.sha256((tmp_path / f"{optimizer}.csv").read_bytes()).hexdigest()
            assert got == digest, optimizer


class TestCompare:
    def test_emits_csv_per_optimizer_and_summary(self, tmp_path, capsys):
        out_dir = tmp_path / "curves"
        code = run_cli("compare", "--optimizers", "de,rs", "--np", "8",
                       "--benchmark", "synthetic:3x3", "--evals", "60",
                       "--runs", "3", "--seed", "0", "--out-dir", str(out_dir))
        assert code == 0
        assert (out_dir / "de.csv").exists() and (out_dir / "rs.csv").exists()
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("optimizer=de final_regret_mean=")
        assert lines[1].startswith("optimizer=rs final_regret_mean=")
        assert "final_regret_std=" in lines[0]

    def test_optimizer_order_does_not_change_csvs(self, tmp_path):
        common = ("--benchmark", "synthetic:3x3", "--evals", "40",
                  "--runs", "2", "--seed", "0", "--np", "8")
        run_cli("compare", "--optimizers", "de,rs", *common,
                "--out-dir", str(tmp_path / "fwd"))
        run_cli("compare", "--optimizers", "rs,de", *common,
                "--out-dir", str(tmp_path / "rev"))
        for name in ("de.csv", "rs.csv"):
            assert (tmp_path / "fwd" / name).read_bytes() == \
                   (tmp_path / "rev" / name).read_bytes()

    def test_failing_optimizer_leaves_no_partial_results(self, tmp_path, capsys):
        # rs finishes; de then meets the zero-cost limit (see TestRun): in one
        # dimension with F = 0 every trial copies a member, so de only ever
        # scores the choices of its initial population, one (NP, 1) uniform
        # draw, and those cost 0
        initial = np.random.default_rng(189).random(4)
        free = set(np.floor(initial * 8).astype(int).tolist())
        bench = write_one_choice_table(tmp_path / "t.jsonl",
                                       [0.0 if k in free else 1.0 for k in range(8)])
        out_dir = tmp_path / "d"
        code = run_cli("compare", "--optimizers", "rs,de", "--benchmark", bench, "--np", "4",
                       "--f", "0", "--cost", "0.5", "--seed", "189", "--out-dir", str(out_dir))
        assert code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: run with seed 189 failed: 100000 evaluations in a row")
        assert err.count("\n") == 1
        assert not out_dir.exists()
        # alone, rs finishes on this table
        assert run_cli("run", "--optimizer", "rs", "--benchmark", bench, "--cost", "0.5",
                       "--seed", "189", "--out", str(tmp_path / "rs.jsonl")) == 0

    def test_bad_benchmark_spec_leaves_no_out_dir(self, tmp_path, capsys):
        out_dir = tmp_path / "d"
        assert run_cli("compare", "--optimizers", "de,rs", "--benchmark", "synthetic:9",
                       "--evals", "20", "--out-dir", str(out_dir)) == 1
        assert capsys.readouterr().err.startswith("error: benchmark 'synthetic:9': ")
        assert not out_dir.exists()

    @pytest.mark.parametrize("out_dir", ["file", "file/sub"])
    def test_out_dir_under_a_file_fails_before_the_benchmark_is_read(self, tmp_path, capsys,
                                                                     out_dir):
        (tmp_path / "file").write_text("kept")
        assert run_cli("compare", "--optimizers", "de,rs", "--benchmark",
                       str(tmp_path / "nope.jsonl"), "--evals", "20",
                       "--out-dir", str(tmp_path / out_dir)) == 1
        assert capsys.readouterr().err == (f"error: --out-dir {tmp_path / out_dir}: "
                                           f"{tmp_path / 'file'} is not a directory\n")
        assert list(tmp_path.iterdir()) == [tmp_path / "file"]
        assert (tmp_path / "file").read_text() == "kept"

    @pytest.mark.parametrize("points", ["0", "-2"])
    def test_log_grid_without_points_fails_cleanly(self, tmp_path, capsys, points):
        code = run_cli("compare", "--optimizers", "de,rs", "--np", "4",
                       "--benchmark", "synthetic:3x3", "--evals", "20",
                       "--points", points, "--out-dir", str(tmp_path))
        assert code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: --points must be positive, got {points}\n"
        assert list(tmp_path.iterdir()) == []

    def test_repeated_optimizer_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            run_cli("compare", "--optimizers", "de,rs,de", "--np", "4",
                    "--benchmark", "synthetic:3x3", "--evals", "10",
                    "--out-dir", str(tmp_path / "d"))
        assert err.value.code == 2
        assert capsys.readouterr().err.endswith("error: --optimizers names 'de' more than once\n")
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("flags, message", [
        (("--optimizers", "de,bogus"), "unknown optimizer 'bogus'; known: ('de', 'rs', 're')"),
        (("--optimizers", "rs,de", "--f", "nan"), "--f must be finite and >= 0, got nan"),
        (("--optimizers", "de,re", "--pop", "3", "--sample", "5"),
         "--sample must be in [1, 3], got 5"),
        (("--optimizers", "rs,re", "--pop", "0"), "--pop must be >= 1, got 0"),
        (("--optimizers", "de,rs", "--points", "0"), "--points must be positive, got 0"),
    ])
    def test_every_optimizer_is_checked_before_the_first_run(self, tmp_path, capsys, monkeypatch,
                                                              flags, message):
        calls = []
        for name in ("run_de", "run_random_search", "run_regularized_evolution"):
            monkeypatch.setattr(cli, name, lambda *args, name=name: calls.append(name))
        code = run_cli("compare", *flags, "--benchmark", "synthetic:3x3", "--evals", "20",
                       "--out-dir", str(tmp_path / "d"))
        assert (code, calls) == (1, [])
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "d").exists()

    def test_single_optimizer_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run_cli("compare", "--optimizers", "de",
                    "--benchmark", "synthetic:3x3", "--evals", "10",
                    "--out-dir", str(tmp_path))
        assert err.value.code == 2


class TestAggregateCommand:
    def write_run(self, tmp_path, name, benchmark="synthetic:3x3", seed=0):
        out = tmp_path / name
        run_cli("run", "--optimizer", "rs", "--benchmark", benchmark,
                "--evals", "20", "--runs", "1", "--seed", str(seed),
                "--out", str(out))
        return out

    def test_missing_out_directory_fails_before_any_trace_is_read(self, tmp_path, capsys):
        out = tmp_path / "missing" / "c.csv"
        assert run_cli("aggregate", str(tmp_path / "nope.jsonl"), "--out", str(out)) == 1
        assert capsys.readouterr().err == (f"error: --out {out}: {out.parent} "
                                           "is not a directory\n")
        assert list(tmp_path.iterdir()) == []

    def test_out_that_is_a_directory_fails_before_any_trace_is_read(self, tmp_path, capsys,
                                                                    monkeypatch):
        reads = []
        monkeypatch.setattr(cli, "read_traces", lambda path: reads.append(path))
        trace_file = self.write_run(tmp_path, "t.jsonl")
        capsys.readouterr()
        out = tmp_path / "adir"
        out.mkdir()
        assert run_cli("aggregate", str(trace_file), "--out", str(out)) == 1
        assert reads == []
        assert capsys.readouterr() == ("", f"error: --out {out}: {out} is a directory\n")
        assert sorted(tmp_path.iterdir()) == [out, trace_file]
        assert list(out.iterdir()) == []

    def test_single_run_union_grid_reproduces_regret_steps(self, tmp_path):
        trace_file = self.write_run(tmp_path, "t.jsonl")
        out = tmp_path / "curve.csv"
        assert run_cli("aggregate", str(trace_file), "--grid", "union",
                       "--out", str(out)) == 0
        trace = read_traces(trace_file)[0]
        validation, _ = regret_series(trace)
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        # union of one run's event times: the curve is its own regret steps
        got = {float(r["time"]): float(r["mean_regret"]) for r in rows}
        want = {}
        for t, v in zip(trace.cumulative_cost, validation):
            want[float(t)] = float(v)  # zero-cost events collapse to the last
        assert got == want

    def test_mixed_benchmark_ids_refused(self, tmp_path, capsys):
        a = self.write_run(tmp_path, "a.jsonl", benchmark="synthetic:3x3")
        b = self.write_run(tmp_path, "b.jsonl", benchmark="synthetic:3x3:seed=1")
        code = run_cli("aggregate", str(a), str(b), "--out", str(tmp_path / "c.csv"))
        assert code == 1
        assert "multiple benchmarks" in capsys.readouterr().err

    def test_trace_missing_a_field_fails_cleanly(self, tmp_path, capsys):
        trace_file = self.write_run(tmp_path, "t.jsonl")
        lines = trace_file.read_text().splitlines()
        event = json.loads(lines[2])
        del event["cumulative_cost"]
        lines[2] = json.dumps(event)
        trace_file.write_text("\n".join(lines) + "\n")
        out = tmp_path / "c.csv"
        assert run_cli("aggregate", str(trace_file), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {trace_file}:3:") and "'cumulative_cost'" in err
        assert not out.exists()

    @pytest.mark.parametrize("line, field", [(0, "best_validation_error"),
                                             (2, "cumulative_cost")])
    def test_integer_too_large_for_a_float_fails_cleanly(self, tmp_path, capsys, line, field):
        # 1 followed by 400 zeros is a JSON number, but no float holds it
        trace_file = self.write_run(tmp_path, "t.jsonl")
        lines = trace_file.read_text().splitlines()
        lines[line] = re.sub(f'"{field}":[^,}}]*', f'"{field}":1{"0" * 400}', lines[line])
        trace_file.write_text("\n".join(lines) + "\n")
        out = tmp_path / "c.csv"
        assert run_cli("aggregate", str(trace_file), "--out", str(out)) == 1
        assert capsys.readouterr().err == (f"error: {trace_file}:{line + 1}: "
                                           f"{'run header' if line == 0 else 'event'} field "
                                           f"{field!r} is too large for a float\n")
        assert not out.exists()

    @pytest.mark.parametrize("field, value, kind", [
        ("seed", [1], "an integer"), ("seed", "zero", "an integer"),
        ("optimizer", 5, "a string"), ("config", [1], "an object"),
        ("best_test_error", "0.1", "a number or null"),
    ])
    def test_wrongly_typed_header_fails_cleanly(self, tmp_path, capsys, field, value, kind):
        trace_file = self.write_run(tmp_path, "t.jsonl")
        lines = trace_file.read_text().splitlines()
        header = json.loads(lines[0])
        header["run"][field] = value
        lines[0] = json.dumps(header)
        trace_file.write_text("\n".join(lines) + "\n")
        out = tmp_path / "c.csv"
        assert run_cli("aggregate", str(trace_file), "--out", str(out)) == 1
        assert capsys.readouterr().err == (f"error: {trace_file}:1: run header field {field!r} "
                                           f"is not {kind}: {value!r}\n")
        assert not out.exists()

    @pytest.mark.parametrize("fields, message", [
        ({"cumulative_cost": "1.5", "objective": "0.5", "incumbent_test_error": "0.25"},
         "'cumulative_cost' is not a number: '1.5'"),
        ({"eval_index": True}, "'eval_index' is not an integer: True"),
        ({"incumbent_objective": False}, "'incumbent_objective' is not a number: False"),
        ({"valid": 1}, "'valid' is not true or false: 1"),
    ])
    def test_wrongly_typed_event_fails_cleanly(self, tmp_path, capsys, fields, message):
        # line 3 is the event at position 1, which an eval_index of true would match
        trace_file = self.write_run(tmp_path, "t.jsonl")
        lines = trace_file.read_text().splitlines()
        lines[2] = json.dumps({**json.loads(lines[2]), **fields})
        trace_file.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        out = tmp_path / "c.csv"
        assert run_cli("aggregate", str(trace_file), "--out", str(out)) == 1
        assert capsys.readouterr().err == f"error: {trace_file}:3: event field {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("field, value", [
        ("best_validation_error", math.nan), ("best_validation_error", math.inf),
        ("best_test_error", math.nan)])
    def test_non_finite_best_error_fails_cleanly(self, tmp_path, capsys, field, value):
        # json writes these as NaN and Infinity, which the reader decodes
        trace_file = self.write_run(tmp_path, "t.jsonl")
        lines = trace_file.read_text().splitlines()
        header = json.loads(lines[0])
        header["run"][field] = value
        lines[0] = json.dumps(header)
        trace_file.write_text("\n".join(lines) + "\n")
        out = tmp_path / "c.csv"
        assert run_cli("aggregate", str(trace_file), "--out", str(out)) == 1
        assert capsys.readouterr().err == (f"error: {trace_file}:1: "
                                           f"{field.replace('_', ' ')} {value} is not finite\n")
        assert not out.exists()

    @pytest.mark.parametrize("points", ["0", "-1"])
    def test_log_grid_without_points_fails_cleanly(self, tmp_path, capsys, points):
        trace_file = self.write_run(tmp_path, "t.jsonl")
        capsys.readouterr()
        out = tmp_path / "c.csv"
        assert run_cli("aggregate", str(trace_file), "--points", points, "--out", str(out)) == 1
        assert capsys.readouterr().err == f"error: --points must be positive, got {points}\n"
        assert not out.exists()

    def test_points_are_checked_on_the_union_grid_too(self, tmp_path, capsys):
        trace_file = self.write_run(tmp_path, "t.jsonl")
        capsys.readouterr()
        out = tmp_path / "c.csv"
        assert run_cli("aggregate", str(trace_file), "--grid", "union", "--points", "-3",
                       "--out", str(out)) == 1
        assert capsys.readouterr().err == "error: --points must be positive, got -3\n"
        assert not out.exists()

    def test_trace_breaking_invariants_fails_cleanly(self, tmp_path, capsys):
        trace_file = tmp_path / "t.jsonl"
        trace_file.write_text(
            '{"run":{"benchmark":"hand","best_test_error":null,"best_validation_error":0.0,'
            '"config":{},"optimizer":"x","seed":0}}\n'
            '{"cumulative_cost":-1.0,"eval_index":0,"incumbent_objective":-0.4,'
            '"incumbent_test_error":null,"objective":0.5,"valid":true}\n')
        out = tmp_path / "c.csv"
        assert run_cli("aggregate", str(trace_file), "--out", str(out)) == 1
        assert capsys.readouterr().err.startswith(f"error: {trace_file}:1: event 0 ")
        assert not out.exists()

    def test_same_run_twice_refused(self, tmp_path, capsys):
        a = self.write_run(tmp_path, "a.jsonl")
        out = tmp_path / "c.csv"
        assert run_cli("aggregate", str(a), str(a), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err == f"error: run (rs, seed 0) is in both {a} and {a}\n"
        assert not out.exists()

    def test_mixed_optimizers_refused(self, tmp_path, capsys):
        rs = self.write_run(tmp_path, "rs.jsonl")
        de = tmp_path / "de.jsonl"
        run_cli("run", "--optimizer", "de", "--np", "4", "--benchmark", "synthetic:3x3",
                "--evals", "20", "--runs", "1", "--seed", "1", "--out", str(de))
        capsys.readouterr()
        out = tmp_path / "c.csv"
        assert run_cli("aggregate", str(de), str(rs), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err == (f"error: optimizers 'de' ({de}) and 'rs' ({rs}) "
                       "cannot be averaged together\n")
        assert not out.exists()

    def test_multiple_files_aggregate(self, tmp_path):
        a = self.write_run(tmp_path, "a.jsonl", seed=0)
        b = self.write_run(tmp_path, "b.jsonl", seed=1)
        out = tmp_path / "c.csv"
        assert run_cli("aggregate", str(a), str(b), "--grid", "log",
                       "--points", "32", "--out", str(out)) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 32
        assert all(r["n_runs"] in {"1", "2"} for r in rows)
