"""The package's public names, its sources and the benchmark's use of its CLI."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import diffevo
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
