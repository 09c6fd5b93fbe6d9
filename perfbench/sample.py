"""One benchmark sample: one diffevo CLI command in a fresh process.

Usage: python3 sample.py MODE SPEC RESULT [check]

MODE is ``plain`` (nothing wrapped) or ``traced`` (spans around each
layer's public functions). With ``check``, the outputs are checked in full
after the timed command. SPEC is the workload spec that run.py writes;
this process writes its measurements to RESULT as JSON.

Set-up ends when ``import diffevo`` and the benchmark spec parse are done.
The CLI then gets the parsed benchmark back instead of parsing it again,
so the command's wall time holds only optimizing, recording, writing and
summarizing. After the command, the process times a fixed calibration
loop that does not touch the program, so run.py can scale the sample's
times to a reference machine speed.
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

CALIBRATION_REPEATS = 3


def calibrate() -> float:
    """Median seconds of a fixed loop of dict, tuple, float and small numpy work."""
    import numpy as np

    def loop():
        table, acc, vec = {}, 0.0, np.zeros(5)
        for i in range(40000):
            key = (i % 97, i % 13, f"c{i % 4}")
            table[key] = table.get(key, 0) + 1
            acc += float(np.clip(vec + i * 1e-6, 0.0, 1.0)[i % 5])
        return acc

    times = []
    for _ in range(CALIBRATION_REPEATS):
        start = time.perf_counter()
        loop()
        times.append(time.perf_counter() - start)
    return sorted(times)[CALIBRATION_REPEATS // 2]


def sample(mode: str, check: bool, spec: dict, result: dict):
    src = Path(spec["src"])
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import diffevo
    import diffevo.cli as cli
    result["import_s"] = time.perf_counter() - start
    if not Path(diffevo.__file__).resolve().is_relative_to(src.resolve()):
        raise RuntimeError(f"imported diffevo from {diffevo.__file__}, not from {src}")

    tracer = None
    if mode == "traced":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    if spec["benchmark"] is not None:
        start = time.perf_counter()
        bench = cli.parse_benchmark(spec["benchmark"])
        result["load_s"] = time.perf_counter() - start
        parse = cli.parse_benchmark
        cli.parse_benchmark = lambda s: bench if s == spec["benchmark"] else parse(s)
    result["ready"] = time.monotonic()

    stdout = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(spec["argv"])
    end = time.perf_counter()
    result.update(wall_s=end - start, exit_code=code, stdout=stdout.getvalue(),
                  peak_rss_kib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  calibration_s=calibrate())
    if tracer is not None:
        result["layers"] = tracer.summary(start, end)
        tracer.dump(Path(spec["check_dir"]) / "spans.jsonl")
    if check:
        import checks
        with contextlib.redirect_stdout(io.StringIO()):
            result["check"] = checks.check_outputs(spec, cli, code, stdout.getvalue())


def main() -> int:
    mode, spec_path, result_path, *check = sys.argv[1:]
    result = {"mode": mode}
    try:
        sample(mode, check == ["check"], json.loads(Path(spec_path).read_text()), result)
    except Exception:
        result["error"] = traceback.format_exc()
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
