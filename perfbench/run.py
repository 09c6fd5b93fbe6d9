"""Benchmark for diffevo: one CLI command per sample, in a fresh process.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in workloads.py, or ``all``. A run first makes
the workload's inputs from the seed, then runs one untimed warm-up sample
whose outputs are checked in full, then timed samples until S seconds have
passed. Every timed sample must produce outputs byte-identical to the
checked one. With ``--trace 0`` the run reports the end-to-end metrics
listed in BENCHMARK.json (medians over samples); with ``--trace 1`` it
alternates plain and traced samples and reports the per-layer metrics.
Times are scaled to a reference machine speed (see REFERENCE_S). The last
line of stdout is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib.metadata import version
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import EVALUATES, OPTIMIZERS  # noqa: E402

# a run must end within 180 s; stop starting samples well before that
RUN_LIMIT_S = 150.0
# The host's speed drifts by a third and more over minutes, so every time a
# sample measures is scaled by REFERENCE_S / its calibration time: the times
# reported are seconds on a machine that runs sample.calibrate() in REFERENCE_S.
REFERENCE_S = 0.2
OPTIMIZER_SPANS = {opt: span for span, opt in OPTIMIZERS.items()}


def metadata() -> dict:
    src_files = sorted((ROOT / "src").rglob("*.py"))
    try:
        revision = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        revision = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_revision": revision,
        "src_lines": sum(len(p.read_text().splitlines()) for p in src_files),
    }


def fingerprint() -> str:
    """Hash of the program's and the benchmark's sources."""
    digest = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *HERE.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def output_hash(out_dir: Path, stdout: str) -> str:
    digest = hashlib.sha256(stdout.encode())
    for path in sorted(out_dir.rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(out_dir)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_sample(mode: str, spec: dict, spec_path: Path, timeout: float, check: bool = False) -> dict:
    """Run one sample process; returns its result with ``errors`` filled in."""
    out_dir = Path(spec["out_dir"])
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    result_path = spec_path.with_name(f"result-{mode}.json")
    result_path.unlink(missing_ok=True)
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "sample.py"), mode, str(spec_path), str(result_path),
             *(["check"] if check else [])],
            cwd=ROOT, capture_output=True, text=True, timeout=timeout,
            env={**os.environ, "PYTHONHASHSEED": "0"},
        )
    except subprocess.TimeoutExpired:
        return {"mode": mode, "errors": [f"{mode} sample timed out after {timeout:.0f} s"]}
    if not result_path.is_file():
        tail = proc.stderr.strip().splitlines()[-5:]
        return {"mode": mode, "errors": [f"{mode} sample exited {proc.returncode}: {tail}"]}
    result = json.loads(result_path.read_text())
    errors = [result["error"]] if "error" in result else []
    if result.get("exit_code") != 0:
        errors.append(f"command exited {result.get('exit_code')}: {proc.stderr.strip()[-500:]}")
    errors += result.get("check", {}).get("errors", [])
    if "ready" in result:
        result["setup_s"] = result["ready"] - spawned
    if "calibration_s" in result:
        scale_times(result, REFERENCE_S / result["calibration_s"])
    if result.get("exit_code") == 0:
        result["hash"] = output_hash(out_dir, result["stdout"])
    result["errors"] = errors
    return result


def scale_times(result: dict, scale: float):
    result["raw"] = {"setup_s": result["setup_s"], "wall_s": result["wall_s"]}
    for key in ("setup_s", "wall_s", "import_s", "load_s"):
        if key in result:
            result[key] *= scale
    layers = result.get("layers")
    if layers is not None:
        for key in ("total_s", "self_s"):
            layers[key] = {name: value * scale for name, value in layers[key].items()}
        layers["main_children_s"] *= scale
        layers["load_s"] *= scale


def median(values):
    return statistics.median(values) if values else None


def end_to_end(timed: list[dict], check: dict) -> dict:
    events = sum(check["events"].values()) or check["events_read"]
    return {
        "setup_s": median([r["setup_s"] for r in timed]),
        "wall_s": median([r["wall_s"] for r in timed]),
        "events_per_s": median([events / r["wall_s"] for r in timed]),
        "peak_rss_mb": median([r["peak_rss_kib"] / 1024 for r in timed]),
    }


def sample_layers(layers: dict, wall_s: float, check: dict) -> dict:
    """Per-layer metrics of one traced sample; a layer that did not run reads 0."""
    calls, total, own = layers["calls"], layers["total_s"], layers["self_s"]
    missing = set(layers["missing"])
    events = check["events"]
    produced = sum(events.values())

    def per(seconds: float, count: int) -> float:
        return seconds / count * 1e6 if count else 0.0

    n_eval = sum(calls.get(n, 0) for n in EVALUATES)
    n_disc = calls.get("space.SearchSpace.discretize", 0)
    metrics = {
        "cli.self_s": ((), wall_s - layers["main_children_s"]),
        "de.self_us_per_eval": (("de.run_de",), per(own.get("de.run_de", 0.0), events.get("de", 0))),
        "space.discretize_calls": (("space.SearchSpace.discretize",), n_disc),
        "space.discretize_us": (("space.SearchSpace.discretize",),
                                per(own.get("space.SearchSpace.discretize", 0.0), n_disc)),
        "benchmarks.load_s": (("cli.parse_benchmark",), layers["load_s"]),
        "benchmarks.evaluate_calls": (EVALUATES, n_eval),
        "benchmarks.evaluate_us": (EVALUATES, per(sum(own.get(n, 0.0) for n in EVALUATES), n_eval)),
        "benchmarks.invalid_ratio": (EVALUATES, layers["invalid"] / n_eval if n_eval else 0.0),
        "benchmarks.distinct_ratio": (EVALUATES, layers["distinct"] / n_eval if n_eval else 0.0),
        "trace.record_us_per_eval": (("trace.RunRecorder.evaluate",),
                                     per(own.get("trace.RunRecorder.evaluate", 0.0), produced)),
        "trace.finish_us_per_event": (("trace.RunRecorder.finish",),
                                      per(total.get("trace.RunRecorder.finish", 0.0), produced)),
        "trace.write_us_per_event": (("trace.write_traces",),
                                     per(total.get("trace.write_traces", 0.0),
                                         produced if calls.get("trace.write_traces") else 0)),
        "trace.read_us_per_event": (("trace.read_traces",),
                                    per(total.get("trace.read_traces", 0.0), check["events_read"])),
        "harness.aggregate_s": (("harness.aggregate",), total.get("harness.aggregate", 0.0)),
        "harness.write_csv_s": (("harness.write_curve_csv",), total.get("harness.write_curve_csv", 0.0)),
    }
    for opt in ("rs", "re"):
        span = OPTIMIZER_SPANS[opt]
        metrics[f"baselines.{opt}_self_us_per_eval"] = ((span,),
                                                        per(own.get(span, 0.0), events.get(opt, 0)))
    return {name: value for name, (needs, value) in metrics.items() if not missing & set(needs)}


def per_layer(timed: list[dict], check: dict) -> dict:
    traced = [r for r in timed if r["mode"] == "traced"]
    plain = [r for r in timed if r["mode"] == "plain"]
    samples = [sample_layers(r["layers"], r["wall_s"], check) for r in traced]
    metrics = {name: median([s[name] for s in samples]) for name in samples[0]} if samples else {}
    metrics["cli.import_s"] = median([r["import_s"] for r in timed])
    metrics["trace.write_mb"] = check["trace_bytes"] / 1e6
    metrics["harness.grid_points"] = check["grid_points"]
    for opt in OPTIMIZER_SPANS:
        metrics[f"harness.final_regret_mean.{opt}"] = check["final_regret_mean"].get(opt, 0.0)
        metrics[f"harness.regret_auc.{opt}"] = check["regret_auc"].get(opt, 0.0)
    if traced and plain:
        metrics["tracing_overhead"] = (median([r["wall_s"] for r in traced])
                                       / median([r["wall_s"] for r in plain]) - 1.0)
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec_doc: dict) -> dict:
    begun = time.monotonic()
    work = ROOT / ".bench_build" / "perfbench" / name
    shutil.rmtree(work, ignore_errors=True)
    spec = workloads.build(name, seed, work)
    spec["src"] = str(ROOT / "src")
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec, indent=1))

    def remaining() -> float:
        return max(5.0, RUN_LIMIT_S + 20.0 - (time.monotonic() - begun))

    # the first sample is checked in full; the rest must match its outputs
    first = time.monotonic()
    deadline = first + seconds
    samples = [run_sample("plain", spec, spec_path, remaining(), check=True)]
    modes = itertools.cycle(["traced", "plain"] if trace else ["plain"])
    last = time.monotonic() - first
    while samples[-1].get("exit_code") == 0:
        # start another sample only if it would end mostly inside --seconds
        now = time.monotonic()
        if (now + last / 2 >= deadline and len(samples) >= 1 + trace) or now - begun > RUN_LIMIT_S:
            break
        samples.append(run_sample(next(modes), spec, spec_path, remaining()))
        last = time.monotonic() - now

    reference = samples[0].get("hash")
    for r in samples[1:]:
        if r.get("hash", reference) != reference:
            r["errors"].append(f"{r['mode']} sample outputs differ from the checked sample")
    store_path = ROOT / ".bench_build" / "perfbench" / "hashes.json"
    store = json.loads(store_path.read_text()) if store_path.is_file() else {}
    key = f"{fingerprint()}:{name}:{seed}"
    if reference is not None:
        if store.get(key, reference) != reference:
            samples[0]["errors"].append("outputs differ from an earlier run of the same code and seed")
        store[key] = reference
        store_path.write_text(json.dumps(store, indent=1))
    failed = sum(1 for r in samples if r["errors"])
    timed = [r for r in samples if r.get("exit_code") == 0]
    for r in timed:
        print(f"{name}: {r['mode']} sample: calibration_s={r['calibration_s']:.4f}"
              f" setup_s={r['setup_s']:.4f} wall_s={r['wall_s']:.4f}"
              f" (unscaled {r['raw']['setup_s']:.4f}, {r['raw']['wall_s']:.4f})", file=sys.stderr)

    metrics = {}
    check = samples[0].get("check")
    if timed and check is not None:
        metrics = per_layer(timed, check) if trace else end_to_end(timed, check)
    wanted = spec_doc["per_layer" if trace else "end_to_end"]
    reported = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                for m in wanted if metrics.get(m["name"]) is not None}
    for r in samples:
        for problem in r["errors"][:3]:
            print(f"{name}: {r['mode']} sample FAILED: {problem}", file=sys.stderr)
    absent = [m["name"] for m in wanted if m["name"] not in reported]
    if absent:
        print(f"{name}: absent metrics: {absent}", file=sys.stderr)
    print(f"{name} (seed {seed}, {len(timed)} timed samples, {failed} failed): " + "  ".join(
        f"{k}={v['value']:.6g} {v['unit']}" for k, v in reported.items()))
    return {"correct": failed == 0, "attempted": len(samples),
            "failed": failed, "metrics": reported}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "diffevo" / "__init__.py").is_file():
        print(f"error: no diffevo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec_doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    print(json.dumps({"meta": {**metadata(), "workload": args.workload, "seed": args.seed,
                               "seconds": args.seconds, "trace": args.trace}}))

    names = workloads.WORKLOADS if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace), spec_doc) for n in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    if not final["metrics"]:
        print("error: no sample completed, so there is nothing to report", file=sys.stderr)
        return 1
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
