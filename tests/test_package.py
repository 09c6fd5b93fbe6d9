"""The package's public names, its sources, its CLI's bytes across interpreters and the
benchmark's use of its CLI."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import diffevo
import diffevo.cli
from diffevo.cli import main

ROOT = Path(__file__).resolve().parent.parent


def test_every_exported_name_resolves():
    assert len(set(diffevo.__all__)) == len(diffevo.__all__)
    missing = [name for name in diffevo.__all__ if not hasattr(diffevo, name)]
    assert missing == []


@pytest.mark.parametrize("path", sorted(p.relative_to(ROOT).as_posix() for folder in
                                        ("src", "tests")
                                        for p in (ROOT / folder).rglob("*.py")))
def test_source_parses_as_python_3_10(path):
    # 3.10 is the floor pyproject.toml declares; syntax newer than that fails here
    ast.parse((ROOT / path).read_text(encoding="utf-8"), filename=path, feature_version=(3, 10))


def test_no_module_imports_another_modules_private_name():
    # a name one module shares with another is public: it has one owner, and
    # no module leans on another's internals
    borrowed = [f"{path.name}: from .{node.module} import {alias.name}"
                for path in sorted((ROOT / "src" / "diffevo").glob("*.py"))
                for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                if isinstance(node, ast.ImportFrom) and node.level
                for alias in node.names if alias.name.startswith("_")]
    assert borrowed == []


def src_env():
    """The environment with this checkout's ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def test_cli_import_loads_no_thread_pool():
    # all runs advance together in one thread, so the CLI has no use for one
    done = subprocess.run(
        [sys.executable, "-c", "import sys, diffevo.cli; print('concurrent.futures' in sys.modules)"],
        env=src_env(), capture_output=True, text=True, timeout=120)
    assert (done.stdout, done.stderr) == ("False\n", "")


@pytest.mark.parametrize("argv", [
    # under a cost-only budget the runs leave the lockstep at different steps
    ["compare", "--optimizers", "de,rs,re", "--benchmark", "synthetic:5x4:invalid=0.3",
     "--cost", "100", "--runs", "5", "--pop", "10", "--sample", "3", "--out-dir", "out"],
    # DE at its minimum population, where the third parent has one choice
    *(["run", "--optimizer", "de", "--np", "4", "--evals", "200", "--runs", "3",
       "--benchmark", bench, "--out", "out/t.jsonl"]
      for bench in ("synthetic:4x3:invalid=0.2", "sphere:2")),
], ids=["compare-cost", "de-np4-synthetic", "de-np4-sphere"])
def test_two_interpreters_write_the_same_bytes(tmp_path, argv):
    # each interpreter salts string hashes its own way, so output that
    # follows a set's hash order differs between the two. Seed 0 turns the
    # salt off; seed 3 lists the set {"de", "re", "rs"} in another order
    # than seed 0 does, and seeds 1 and 2 happen not to
    sides = []
    for hash_seed in ("0", "3"):
        side = tmp_path / f"hashseed-{hash_seed}"
        (side / "out").mkdir(parents=True)
        done = subprocess.run([sys.executable, "-m", "diffevo.cli", *argv], cwd=side,
                              env={**src_env(), "PYTHONHASHSEED": hash_seed},
                              capture_output=True, text=True, timeout=120)
        assert (done.returncode, done.stderr) == (0, "")
        sides.append((done.stdout, {p.name: p.read_bytes() for p in (side / "out").iterdir()}))
    assert sides[0] == sides[1]
    written = sorted(sides[0][1])
    if argv[0] == "compare":
        assert written == ["de.csv", "re.csv", "rs.csv"]
    else:
        assert written == ["t.jsonl"]
        assert main(["aggregate", str(tmp_path / "hashseed-0" / "out" / "t.jsonl"),
                     "--out", str(tmp_path / "t.csv")]) == 0


def test_every_benchmark_command_line_runs(tmp_path, capsys):
    # the benchmark runs these command lines on every change, so a flag or
    # option the CLI drops fails here first
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    for name in workloads.WORKLOADS:
        spec = workloads.build(name, 0, tmp_path / name)
        for argv in [spec["argv"], *spec.get("verify", {}).values()]:
            assert main(argv) == 0, (argv, capsys.readouterr().err)


def test_every_benchmark_span_target_resolves():
    # the benchmark's tracer drops the metrics of a target it cannot find, so
    # a renamed function would silently lose its per-layer figures
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        from tracer import TARGETS
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    for _, module_name, attr in TARGETS:
        owner = importlib.import_module(module_name)
        for name in attr.split("."):
            owner = getattr(owner, name, None)
        assert callable(owner), f"{module_name}.{attr}"


@pytest.mark.parametrize("name, builder", [("de-synthetic", "benchmarks.make_synthetic"),
                                           ("compare-mixed", "benchmarks.load_tabular")])
def test_a_traced_benchmark_sample_checks_and_traces_every_layer(tmp_path, name, builder):
    # as the benchmark runs a sample: a fresh interpreter, the tracer's spans
    # around each layer, the spec parsed in set-up, then the command and its checks
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    spec = workloads.build(name, 0, tmp_path)
    spec["src"] = str(ROOT / "src")
    spec_path, result_path = tmp_path / "spec.json", tmp_path / "result.json"
    spec_path.write_text(json.dumps(spec, indent=1))
    done = subprocess.run([sys.executable, str(ROOT / "perfbench" / "sample.py"), "traced",
                           str(spec_path), str(result_path), "check"], cwd=ROOT,
                          env={**os.environ, "PYTHONHASHSEED": "0"}, capture_output=True,
                          text=True, timeout=300)
    assert result_path.is_file(), done.stderr
    result = json.loads(result_path.read_text())
    assert result.get("error") is None and result["exit_code"] == 0
    assert result["check"]["errors"] == [] and result["layers"]["missing"] == []
    calls = result["layers"]["calls"]
    assert (calls.get("cli.parse_benchmark"), calls.get(builder)) == (1, 1)


@pytest.mark.parametrize("argv", [
    ["run", "--benchmark", "synthetic:2x2", "--evals", "8", "--out", "t.jsonl"],
    ["compare", "--optimizers", "rs,re", "--benchmark", "synthetic:2x2", "--evals", "8",
     "--pop", "2", "--sample", "1", "--out-dir", "out"],
])
def test_commands_parse_the_benchmark_through_the_cli_modules_name(tmp_path, monkeypatch, argv):
    # the benchmark's sample parses the spec in set-up and puts a function that
    # returns the parsed benchmark in the place of diffevo.cli.parse_benchmark
    specs, parse = [], diffevo.cli.parse_benchmark
    monkeypatch.setattr(diffevo.cli, "parse_benchmark",
                        lambda spec: specs.append(spec) or parse(spec))
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    assert specs == ["synthetic:2x2"]
