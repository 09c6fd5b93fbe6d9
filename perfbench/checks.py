"""Output checks for one workload sample.

Trace and CSV files are parsed here with the benchmark's own readers, so
the checks do not trust the program's readers; the program's
``read_traces`` and ``check_trace_invariants`` are run on top, because a
written trace must also read back through the public API.
"""

from __future__ import annotations

import csv
import json
import math
import re
from pathlib import Path

# the CLI prints means with six decimals
STDOUT_TOLERANCE = 5e-7 + 1e-12


def parse_traces(path: Path) -> list[tuple[dict, list[dict]]]:
    """(header, events) per run of a JSON Lines trace file."""
    runs = []
    for line in Path(path).read_text().splitlines():
        doc = json.loads(line)
        if "run" in doc:
            runs.append((doc["run"], []))
        else:
            runs[-1][1].append(doc)
    return runs


def check_run(header: dict, events: list[dict], evals: int | None, cost: float | None) -> list[str]:
    """Contract violations of one recorded run, as messages."""
    where = f"run seed {header['seed']} ({header['optimizer']})"
    best = header["best_validation_error"]
    if not events:
        return [f"{where}: no events"]
    errors = []
    if evals is not None and len(events) != evals:
        errors.append(f"{where}: {len(events)} events under --evals {evals}")
    if cost is not None:
        if any(e["cumulative_cost"] >= cost for e in events[:-1]):
            errors.append(f"{where}: an event was recorded after the cost cap {cost} was reached")
        if evals is None and events[-1]["cumulative_cost"] < cost:
            errors.append(f"{where}: stopped below the cost cap {cost}")
    inc, inc_test, inc_valid, prev_cost = math.inf, None, False, 0.0
    for i, e in enumerate(events):
        obj, ok = e["objective"], e["valid"]
        if e["eval_index"] != i:
            errors.append(f"{where}: eval_index {e['eval_index']} at position {i}")
        if not 0.0 <= obj <= 1.0 or (not ok and obj != 1.0):
            errors.append(f"{where}: event {i} has objective {obj} (valid={ok})")
        if e["cumulative_cost"] < prev_cost or (not ok and e["cumulative_cost"] != prev_cost):
            errors.append(f"{where}: event {i} has a wrong cumulative cost")
        # events carry no test error of their own: it may change only with
        # the incumbent, and an invalid incumbent has none
        if obj < inc or (ok and not inc_valid and obj <= inc):
            inc, inc_valid = obj, ok
            inc_test = e["incumbent_test_error"] if ok else None
        if e["incumbent_objective"] != inc or e["incumbent_test_error"] != inc_test:
            errors.append(f"{where}: event {i} has incumbent {e['incumbent_objective']}"
                          f" / {e['incumbent_test_error']}, expected {inc} / {inc_test}")
        if inc < best:
            errors.append(f"{where}: event {i} beats the best validation error {best}")
        prev_cost = e["cumulative_cost"]
        if errors:
            break
    return errors


def regret_summary(runs) -> tuple[float, float]:
    """Mean final regret and mean anytime regret (per evaluation) over runs."""
    finals, areas = [], []
    for header, events in runs:
        best = header["best_validation_error"]
        finals.append(events[-1]["incumbent_objective"] - best)
        areas.append(sum(e["incumbent_objective"] - best for e in events) / len(events))
    return sum(finals) / len(finals), sum(areas) / len(areas)


def read_csv(path: Path) -> list[tuple[float, float, int]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["time", "mean_regret", "n_runs"]:
        raise ValueError(f"{path}: header {rows[0]}")
    return [(float(t), float(r), int(n)) for t, r, n in rows[1:]]


def check_csv(path: Path, runs: int, mean_regret: float) -> tuple[list[str], int]:
    """Errors in an aggregate-curve CSV, and its number of grid points."""
    rows = read_csv(path)
    errors = []
    if not rows:
        return [f"{path}: no rows"], 0
    times = [t for t, _, _ in rows]
    if any(b <= a for a, b in zip(times, times[1:])):
        errors.append(f"{path}: grid times are not strictly ascending")
    _, last_mean, last_n = rows[-1]
    if last_n != runs:
        errors.append(f"{path}: last row has n_runs {last_n}, expected {runs}")
    if not math.isclose(last_mean, mean_regret, rel_tol=1e-9, abs_tol=1e-12):
        errors.append(f"{path}: last mean_regret {last_mean!r}, expected {mean_regret!r}")
    return errors, len(rows)


def printed_means(stdout: str, key: str) -> list[float]:
    return [float(m) for m in re.findall(rf"{key}=([0-9.eE+-]+)", stdout)]


def check_outputs(spec: dict, cli, exit_code: int, stdout: str) -> dict:
    """Check the outputs of one CLI command; returns errors and counts.

    The counts (events per optimizer, regrets, grid points, trace bytes)
    feed the reported metrics, so they come from the outputs, not from the
    program's in-memory objects.
    """
    import diffevo

    errors = [] if exit_code == 0 else [f"command exited {exit_code}"]
    info = {"events": {}, "final_regret_mean": {}, "regret_auc": {}, "grid_points": 0,
            "trace_bytes": 0, "events_read": 0}
    if exit_code != 0:
        return {"errors": errors, **info}

    trace_files = {}
    if spec["kind"] == "run":
        trace_files["de"] = Path(spec["trace"])
        info["trace_bytes"] = trace_files["de"].stat().st_size
    elif spec["kind"] == "compare":
        for opt, argv in spec["verify"].items():
            code = cli.main(argv)
            if code != 0:
                errors.append(f"verification run of {opt} exited {code}")
            trace_files[opt] = Path(argv[argv.index("--out") + 1])

    grid_points = []
    for opt, path in trace_files.items():
        if not path.is_file():
            errors.append(f"{opt}: trace file {path} missing")
            continue
        runs = parse_traces(path)
        for trace in diffevo.read_traces(path):
            try:
                diffevo.check_trace_invariants(trace)
            except ValueError as exc:
                errors.append(f"{opt}: {exc}")
        if len(runs) != spec["runs"]:
            errors.append(f"{opt}: {len(runs)} runs, expected {spec['runs']}")
        for header, events in runs:
            errors += check_run(header, events, spec["evals"], spec["cost"])
            best = spec["expected"].get("best_validation_error")
            if best is not None and header["best_validation_error"] != best:
                errors.append(f"{opt}: best validation error {header['best_validation_error']}"
                              f" != {best} from the generated table")
        mean, auc = regret_summary(runs)
        info["events"][opt] = sum(len(events) for _, events in runs)
        info["final_regret_mean"][opt] = mean
        info["regret_auc"][opt] = auc
        if spec["kind"] == "run":
            printed = printed_means(stdout, "final_mean_regret")
        else:
            printed = printed_means(stdout, f"optimizer={opt} final_regret_mean")
            csv_errors, points = check_csv(Path(spec["csvs"][opt]), spec["runs"], mean)
            errors += csv_errors
            grid_points.append(points)
        if len(printed) != 1 or abs(printed[0] - mean) > STDOUT_TOLERANCE:
            errors.append(f"{opt}: printed mean regret {printed} != {mean}")

    if spec["kind"] == "aggregate":
        expected = spec["expected"]
        csv_errors, points = check_csv(Path(spec["csvs"]["all"]), expected["runs"],
                                       expected["final_regret_mean"])
        errors += csv_errors
        if points != expected["grid_points"]:
            errors.append(f"union grid has {points} points, expected {expected['grid_points']}")
        grid_points.append(points)
        info["events_read"] = expected["events"]
    if grid_points:
        info["grid_points"] = sum(grid_points) / len(grid_points)
    return {"errors": errors, **info}
