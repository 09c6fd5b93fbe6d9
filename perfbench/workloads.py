"""The four benchmark workloads and their seeded input generators.

Each workload is one ``diffevo`` CLI command. The workload seed is a
benchmark argument; the program receives only spec strings and files.
The tabular file and the trace files are written here, with this
directory's own code rather than ``write_tabular`` / ``write_traces``, so
a change to the program under test cannot change its own inputs.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

# de-synthetic: the headline DE job on a 1,024-configuration categorical table
SYNTH_RUNS, SYNTH_EVALS = 20, 2000
# de-sphere: the same DE loop through float discretization, 500 generations a run
SPHERE_RUNS, SPHERE_EVALS = 4, 10000
# compare-mixed: three optimizers on a generated mixed table under a cost cap
COMPARE_RUNS, COMPARE_COST = 30, 600.0
COMPARE_OPTIMIZERS = ("de", "rs", "re")
# aggregate-traces: union-grid aggregation of generated trace files
AGG_FILES, AGG_RUNS_PER_FILE, AGG_EVENTS = 4, 25, 1000

# 16 x 6 x 5 x 4 x 25 = 48,000 keys; 30% of them are left out (invalid)
MIXED_PARAMS = (
    {"name": "width", "kind": "integer", "lo": 0, "hi": 15},
    {"name": "depth", "kind": "ordinal", "values": ["xs", "s", "m", "l", "xl", "xxl"]},
    {"name": "op", "kind": "categorical", "choices": ["conv3", "conv5", "pool", "skip", "none"]},
    {"name": "act", "kind": "categorical", "choices": ["relu", "gelu", "tanh", "swish"]},
    {"name": "epochs", "kind": "integer", "lo": 1, "hi": 25},
)
MIXED_ABSENT = 0.3

WORKLOADS = ("de-synthetic", "de-sphere", "compare-mixed", "aggregate-traces")


def _dumps(doc) -> str:
    return json.dumps(doc, separators=(",", ":"), sort_keys=True)


def _domain(param: dict) -> list:
    if param["kind"] == "integer":
        return list(range(param["lo"], param["hi"] + 1))
    return list(param.get("values") or param["choices"])


def write_mixed_table(path: Path, seed: int) -> float:
    """Write a mixed integer/ordinal/categorical tabular benchmark file.

    Errors are smooth in the integer and ordinal coordinates plus
    categorical main effects and one pairwise interaction, so optimizers
    make progress; costs are lognormal. Returns the best validation error
    among the listed keys.
    """
    rng = np.random.default_rng([seed, 1])
    domains = [_domain(p) for p in MIXED_PARAMS]
    sizes = [len(d) for d in domains]
    idx = np.indices(sizes).reshape(len(sizes), -1).T
    total = len(idx)

    score = rng.normal(0.0, 0.1, total)
    for d, (param, n) in enumerate(zip(MIXED_PARAMS, sizes)):
        u = idx[:, d] / (n - 1)
        if param["kind"] == "integer":
            score += 2.0 * (u - rng.uniform(0.2, 0.8)) ** 2
        elif param["kind"] == "ordinal":
            score += rng.choice([-1.0, 1.0]) * 0.6 * u
        else:
            score += rng.normal(0.0, 0.4, n)[idx[:, d]]
    score += rng.normal(0.0, 0.3, (sizes[2], sizes[3]))[idx[:, 2], idx[:, 3]]
    val = 0.05 + 0.9 * (score - score.min()) / (score.max() - score.min())
    test = np.clip(val + rng.normal(0.0, 0.02, total), 0.0, 1.0)
    cost = rng.lognormal(0.0, 0.5, total)
    listed = np.sort(rng.permutation(total)[: total - round(MIXED_ABSENT * total)])

    header = {"params": list(MIXED_PARAMS), "benchmark_id": f"perfbench-mixed:seed={seed}"}
    lines = [_dumps(header)]
    for row in listed:
        key = [domains[d][i] for d, i in enumerate(idx[row].tolist())]
        lines.append(_dumps({"key": key, "val_err": float(val[row]),
                             "test_err": float(test[row]), "cost": float(cost[row])}))
    path.write_text("\n".join(lines) + "\n")
    return float(val[listed].min())


def write_trace_files(directory: Path, seed: int) -> dict:
    """Write JSON Lines trace files in the README format.

    Every run satisfies the trace invariants, and its incumbent follows the
    recorder's rule (a valid point displaces an invalid incumbent on ties).
    Returns the file paths with what aggregating them must give: run and
    event counts, the number of distinct event times (the union grid) and
    the mean final regret, summed in file order.
    """
    rng = np.random.default_rng([seed, 2])
    best_val = 0.05 + 0.01 * float(rng.random())
    best_test = best_val + 0.01
    paths, times, finals = [], [], []
    for f in range(AGG_FILES):
        lines = []
        for r in range(AGG_RUNS_PER_FILE):
            valid = rng.random(AGG_EVENTS) < 0.85
            objective = np.where(valid, best_val + (1.0 - best_val) * rng.random(AGG_EVENTS), 1.0)
            test = np.clip(objective + rng.normal(0.0, 0.02, AGG_EVENTS), best_test, 1.0)
            cumulative = np.cumsum(np.where(valid, rng.lognormal(0.0, 0.5, AGG_EVENTS), 0.0))
            times.append(cumulative)
            lines.append(_dumps({"run": {
                "seed": seed * 1000 + f * AGG_RUNS_PER_FILE + r,
                "optimizer": "de",
                "benchmark": f"perfbench-traces:seed={seed}",
                "best_validation_error": best_val,
                "best_test_error": best_test,
                "config": {"population_size": 20, "scaling_factor": 0.5, "crossover_rate": 0.5},
            }}))
            inc, inc_test, inc_valid = float("inf"), None, False
            for i in range(AGG_EVENTS):
                obj, ok = float(objective[i]), bool(valid[i])
                if obj < inc or (ok and not inc_valid and obj <= inc):
                    inc, inc_test, inc_valid = obj, float(test[i]) if ok else None, ok
                lines.append(_dumps({
                    "eval_index": i, "cumulative_cost": float(cumulative[i]), "objective": obj,
                    "incumbent_objective": inc, "incumbent_test_error": inc_test, "valid": ok,
                }))
            finals.append(inc - best_val)
        path = directory / f"traces-{f}.jsonl"
        path.write_text("\n".join(lines) + "\n")
        paths.append(str(path))
    total = 0.0
    for regret in finals:
        total += regret
    return {
        "files": paths,
        "runs": len(finals),
        "events": len(finals) * AGG_EVENTS,
        "grid_points": int(np.unique(np.concatenate(times)).size),
        "final_regret_mean": total / len(finals),
    }


def build(name: str, seed: int, work: Path) -> dict:
    """Generate the workload's inputs under ``work`` and return its spec.

    The spec names the CLI command (``argv``), the benchmark spec string
    that set-up parses, the budget, and where the outputs land.
    """
    inputs, out, check = work / "inputs", work / "out", work / "check"
    for d in (inputs, out, check):
        d.mkdir(parents=True, exist_ok=True)
    spec = {"workload": name, "seed": seed, "out_dir": str(out), "check_dir": str(check),
            "benchmark": None, "evals": None, "cost": None, "expected": {}}
    if name in ("de-synthetic", "de-sphere"):
        bench = f"synthetic:5x4:seed={seed}" if name == "de-synthetic" else "sphere:3"
        runs, evals = (SYNTH_RUNS, SYNTH_EVALS) if name == "de-synthetic" else (SPHERE_RUNS, SPHERE_EVALS)
        trace = out / "de.jsonl"
        spec.update(kind="run", benchmark=bench, runs=runs, evals=evals, optimizers=["de"],
                    trace=str(trace), argv=[
                        "run", "--optimizer", "de", "--benchmark", bench,
                        "--evals", str(evals), "--runs", str(runs), "--seed", str(seed),
                        "--jobs", "1", "--out", str(trace)])
    elif name == "compare-mixed":
        table = inputs / "mixed.jsonl"
        best = write_mixed_table(table, seed)
        bench = f"tabular:{table}"
        shared = ["--benchmark", bench, "--cost", repr(COMPARE_COST), "--runs", str(COMPARE_RUNS),
                  "--seed", str(seed), "--jobs", "1"]
        spec.update(kind="compare", benchmark=bench, runs=COMPARE_RUNS, cost=COMPARE_COST,
                    optimizers=list(COMPARE_OPTIMIZERS),
                    expected={"best_validation_error": best},
                    csvs={o: str(out / f"{o}.csv") for o in COMPARE_OPTIMIZERS},
                    argv=["compare", "--optimizers", ",".join(COMPARE_OPTIMIZERS), "--grid", "log",
                          *shared, "--out-dir", str(out)],
                    # the same runs through `diffevo run`, whose traces the checks read
                    verify={o: ["run", "--optimizer", o, *shared, "--out", str(check / f"{o}.jsonl")]
                            for o in COMPARE_OPTIMIZERS})
    elif name == "aggregate-traces":
        expected = write_trace_files(inputs, seed)
        csv_path = out / "curve.csv"
        spec.update(kind="aggregate", runs=expected["runs"], optimizers=[], expected=expected,
                    csvs={"all": str(csv_path)},
                    argv=["aggregate", *expected["files"], "--grid", "union", "--out", str(csv_path)])
    else:
        raise ValueError(f"unknown workload {name!r}; known: {WORKLOADS}")
    return spec
