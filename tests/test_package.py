"""The package's public names and the scripts built on them."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import diffevo

ROOT = Path(__file__).resolve().parent.parent


def test_every_exported_name_resolves():
    assert len(set(diffevo.__all__)) == len(diffevo.__all__)
    missing = [name for name in diffevo.__all__ if not hasattr(diffevo, name)]
    assert missing == []


@pytest.mark.parametrize("script, args", [
    ("sphere_convergence.py", ["--runs", "2", "--evals", "200"]),
    ("run_comparison.py", ["--runs", "2", "--evals", "100", "--out-dir", "{tmp}"]),
])
def test_script_runs(tmp_path, script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script),
         *(a.format(tmp=tmp_path) for a in args)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout
