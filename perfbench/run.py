"""Closed-loop, single-process benchmark of drinfeld-weil.

    python3 perfbench/run.py --workload {operators,pairing,bridge} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout: the package is imported from ./src.
One operation starts only when the previous one has returned.  Every
output is checked by perfbench/checks.py, which shares no code with
the program.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

--trace 0 measures the end-to-end metrics for S seconds of operations.
--trace 1 runs a fixed number of rounds with every layer wrapped and
reports per-layer counts and self times; the spans go to
perfbench/out/trace-<workload>-<seed>.json.
"""

from __future__ import annotations

import argparse
import compileall
import importlib
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(1, str(SRC))

import workloads  # noqa: E402

# highest of 90/95/99/99.9 with at least ten samples beyond it at the
# operation counts a 30-second run reaches (see README)
TAIL_PERCENTILE = {"operators": 95, "pairing": 99.9, "bridge": 90}
# fresh-process set-ups per run; setup_s is their median
SETUP_SAMPLES = {"operators": 7, "pairing": 3, "bridge": 7}
# rounds of a traced run: fixed, so that counts repeat exactly
TRACE_ROUNDS = {"operators": 2, "pairing": 25, "bridge": 1}


def percentile(values, pct):
    """Nearest-rank percentile."""
    xs = sorted(values)
    k = min(len(xs) - 1, max(0, math.ceil(pct / 100 * len(xs)) - 1))
    return xs[k]


def run_op(wl, inp, call):
    try:
        return call(wl.run, inp), False
    except Exception as exc:  # an operation that raises counts as failed
        print(f"operation failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return None, True


def run_rounds(wl, rng, until_seconds=None, rounds=None, call=lambda fn, x: fn(x)):
    """Whole rounds, until the timed op blocks add up to until_seconds or
    the given number of rounds is done.  Checking and input generation
    run between the timed blocks."""
    # 8 bytes per latency, so the harness adds little to peak_rss_mb
    latencies, errors = array("d"), []
    attempted = failed = 0
    timed = 0.0
    done = 0
    while (rounds is None and timed < until_seconds) or (rounds is not None and done < rounds):
        inputs = wl.make_round(rng)
        outputs = []
        block = time.perf_counter()
        for inp in inputs:
            t = time.perf_counter()
            out, bad = run_op(wl, inp, call)
            if not bad:
                latencies.append(time.perf_counter() - t)
            failed += bad
            outputs.append(out)
        timed += time.perf_counter() - block
        attempted += len(inputs)
        done += 1
        errors += wl.check_round(inputs, outputs)
    return latencies, timed, attempted, failed, errors


def probe_setup(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--setup-probe"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def timed_setup(wl) -> float:
    t0 = time.perf_counter()
    wl.setup()
    return time.perf_counter() - t0


def check_source():
    mod = sys.modules.get("drinfeld_weil")
    if mod is None or not Path(mod.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError("drinfeld_weil was not imported from ./src")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "drinfeld_weil" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'drinfeld_weil'}; run from a checkout root",
              file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]()
    if args.setup_probe:
        print(json.dumps({"setup_s": timed_setup(wl)}))
        return 0

    compileall.compile_dir(str(SRC / "drinfeld_weil"), quiet=1)
    rng = random.Random(f"{args.seed}:{args.workload}")
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-{args.seed}-trace{args.trace}"

    if args.trace:
        from tracing import Tracer

        importlib.import_module("drinfeld_weil.cli")  # load every layer
        check_source()
        tracer = Tracer()
        tracer.install()
        tracer.span("bench.setup", wl.setup)
        start = time.perf_counter()
        lat, timed, attempted, failed, errors = run_rounds(
            wl, rng, rounds=TRACE_ROUNDS[args.workload],
            call=lambda fn, x: tracer.span("bench.op", fn, x))
        errors += wl.check_setup()
        wall = time.perf_counter() - start
        metrics = tracer.metrics()
        dump = tracer.dump()
        dump.update({"workload": args.workload, "seed": args.seed,
                     "ops": len(lat), "traced_ops_wall_s": timed, "traced_wall_s": wall})
        (OUT / f"trace-{args.workload}-{args.seed}.json").write_text(json.dumps(dump))
    else:
        samples = [probe_setup(args) for _ in range(SETUP_SAMPLES[args.workload] - 1)]
        samples.append(timed_setup(wl))
        check_source()
        lat, timed, attempted, failed, errors = run_rounds(wl, rng, until_seconds=args.seconds)
        errors += wl.check_setup()
        # read before sorting the latencies, which allocates
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "ops_per_s": {"value": len(lat) / timed, "unit": "1/s"},
            "op_p50_ms": {"value": statistics.median(lat) * 1e3, "unit": "ms"},
            "op_tail_ms": {"value": percentile(lat, TAIL_PERCENTILE[args.workload]) * 1e3,
                           "unit": "ms"},
            "setup_s": {"value": statistics.median(samples), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    for err in errors[:10]:
        print(f"check failed: {err}", file=sys.stderr)
    result = {"correct": not errors, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (OUT / f"result-{tag}.json").write_text(json.dumps(result, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
