"""epsgeom benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

Run from the root of a checkout:

    python3 perfbench/run.py --workload flatness --seed 7002 --seconds 30 --trace 0

Workloads are ``flatness``, ``ideals`` and ``cli`` (see NOTES.md).  The
package is imported from this checkout's ``src/``; without it the run exits
with code 2 and prints no result.  The last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
line before it is the full record (machine, tail percentile, failed_ratio,
failures), which is also written under ``perfbench/out/``.
"""

import argparse
import gc
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
import workloads  # noqa: E402

MODULES = (
    "gaussian",
    "levicivita",
    "poly",
    "parser",
    "groebner",
    "shadow",
    "varieties",
    "transfer",
    "cli",
)
SETUP_REPEATS = 9
TAIL_BEYOND = 10
# the reference kernel's time on the reference machine when it runs at full
# speed; call times are given in ms at that speed (see NOTES.md, "Timing")
REFERENCE_MS = 0.125
REFERENCE_REPEATS = 3


def load_epsgeom():
    """Import epsgeom afresh from this checkout's src/."""
    for name in [n for n in sys.modules if n == "epsgeom" or n.startswith("epsgeom.")]:
        del sys.modules[name]
    pkg = importlib.import_module("epsgeom")
    if Path(pkg.__file__).resolve().parent != (SRC / "epsgeom").resolve():
        raise ImportError("epsgeom was not imported from %s" % SRC)
    return SimpleNamespace(**{n: importlib.import_module("epsgeom." + n) for n in MODULES})


def setup(name, seed, shape_seed):
    """Import, generate the batch and warm up.

    Returns (scaled seconds, CPU seconds, eg, workload); the set-up is timed
    like a call, against the reference kernel on either side of it.
    """
    before = reference_time()
    start = time.thread_time()
    eg = load_epsgeom()
    work = workloads.build(name, seed, eg, ROOT, shape_seed)
    for fn in work.warmup:
        fn()
    seconds = time.thread_time() - start
    return scaled(seconds, before, reference_time()), seconds, eg, work


def calib_ms():
    """A fixed pure-Python loop, to show machine drift beside the numbers."""
    start = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i % 7
    return (time.perf_counter() - start) * 1000


def _reference_operands():
    """Two fixed 8-term polynomials in two variables, as (exponents, coefficient)."""
    rng = random.Random(0)

    def term():
        exps = (rng.randint(0, 6), rng.randint(0, 6))
        return exps, Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    return [term() for _ in range(8)], [term() for _ in range(8)]


_REF_A, _REF_B = _reference_operands()


def reference_kernel():
    """A fixed product of two sparse polynomials over Fraction, stdlib only.

    It does the kind of work the library does (Fraction arithmetic, tuple
    keys, dict updates) but none of the library's code, so no change to
    epsgeom moves it; only the speed the host gives this core does.
    """
    out = {}
    for (a1, a2), ca in _REF_A:
        for (b1, b2), cb in _REF_B:
            m = (a1 + b1, a2 + b2)
            c = ca * cb
            if m in out:
                out[m] += c
            else:
                out[m] = c
    return out


def reference_time():
    """The kernel's lowest CPU time over a few back-to-back runs.

    The first runs after a call pay for the caches that call left behind.
    """
    best = math.inf
    for _ in range(REFERENCE_REPEATS):
        start = time.thread_time()
        reference_kernel()
        best = min(best, time.thread_time() - start)
    return best


def scaled(seconds, before, after):
    """CPU seconds at the reference machine's full speed.

    The host's speed drifts within seconds on a shared machine, so a time
    is taken in units of the reference kernel timed on either side of it.
    """
    return seconds * 2 * REFERENCE_MS / 1000 / (before + after)


class Raised:
    """A call that raised; never equal to anything, so it always fails."""

    def __init__(self, ex):
        self.error = "%s: %s" % (type(ex).__name__, ex)

    def __eq__(self, other):
        return False


def run_pass(calls, tracer=None, reference=False):
    """Time each call once; returns (seconds per call, results, reference).

    A call's time is the CPU time of this thread.  The work is single-threaded
    and does no I/O, so on an idle core that is its wall time; on a shared
    machine it leaves out the time the thread waited while other tenants
    held the core.  With ``reference``, the reference kernel is timed before
    the first call and after every call, so each call has one timing on
    either side of it; otherwise ``reference`` comes back empty.
    """
    clock = time.thread_time
    times, results, ref = [], [], []
    if reference:
        ref.append(reference_time())
    for i, call in enumerate(calls):
        if tracer is not None:
            tracer.call = i
        start = clock()
        try:
            result = call.fn()
        except Exception as ex:  # counted as a failed call, the run goes on
            result = Raised(ex)
        times.append(clock() - start)
        results.append(result)
        if reference:
            ref.append(reference_time())
    return times, results, ref


def check_pass(calls, results, reference=None):
    """Indices of failed calls: by each call's check, or against a checked pass."""
    failed = []
    for i, (call, result) in enumerate(zip(calls, results)):
        if isinstance(result, Raised):
            ok = False
        elif reference is not None:
            ok = result == reference[i]
        else:
            try:
                ok = bool(call.check(result))
            except Exception:  # a check that cannot run is a failed call
                ok = False
        if not ok:
            failed.append(i)
    return failed


def describe(calls, results, failed):
    out = []
    for i in failed[:5]:
        r = results[i]
        detail = r.error if isinstance(r, Raised) else "wrong output"
        out.append("%d %s: %s" % (i, calls[i].kind, detail))
    return out


def tail_percentile(n):
    """Highest whole percentile with at least TAIL_BEYOND calls beyond it."""
    return min(99, math.floor(100 * (n - TAIL_BEYOND) / n))


def end_to_end(work, seconds, setups, raw_setups):
    calls = work.calls
    n = len(calls)
    passes, raw_passes, failed, failures, first = [], [], 0, [], None
    start = time.perf_counter()
    while True:
        times, results, ref = run_pass(calls, reference=True)
        bad = check_pass(calls, results, first)
        if first is None:
            first = results
        failed += len(bad)
        failures += describe(calls, results, bad)
        passes.append([scaled(t, ref[i], ref[i + 1]) for i, t in enumerate(times)])
        raw_passes.append(times)
        if time.perf_counter() - start >= seconds:
            break
    # a call's time is its median over the passes; the unscaled figures in
    # the record take each call's lowest time, as contention only adds time
    per_call = sorted(statistics.median(times) for times in zip(*passes))
    raw = sorted(min(times) for times in zip(*raw_passes))
    pct = tail_percentile(n)
    rank = math.ceil(pct * n / 100)
    metrics = {
        "calls_per_s": (n / sum(per_call), "1/s"),
        "latency_p50_ms": (statistics.median(per_call) * 1000, "ms"),
        "latency_tail_ms": (per_call[rank - 1] * 1000, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    attempted = n * len(passes)
    extra = {
        "passes": len(passes),
        "latency_tail_percentile": pct,
        "latency_samples": n,
        "failed_ratio": failed / attempted,
        "setup_runs_s": setups,
        "unscaled": {
            "setup_s": statistics.median(raw_setups),
            "calls_per_s": n / sum(raw),
            "latency_p50_ms": statistics.median(raw) * 1000,
            "latency_tail_ms": raw[rank - 1] * 1000,
        },
    }
    return metrics, attempted, failed, failures, extra, None


def traced(work, eg):
    """Untraced and span-traced passes in turn, then the counting pass."""
    calls = work.calls
    untraced, spanned, failures = [], [], []
    first = None

    def check(results):
        nonlocal first
        bad = check_pass(calls, results, first)
        first = first or results
        failures.extend(describe(calls, results, bad))
        return len(bad)

    failed = 0
    for _ in range(2):
        times, results, _ = run_pass(calls)
        untraced.append(times)
        failed += check(results)
        # the spans of the last traced pass are the ones reported
        tracer = tracing.SpanTracer(eg)
        try:
            times, results, _ = run_pass(calls, tracer)
        finally:
            tracer.restore()
        spanned.append(times)
        failed += check(results)

    counter = tracing.OpCounter(eg)
    try:
        _, results, _ = run_pass(calls)
    finally:
        counter.restore()
    failed += check(results)
    attempted = 5 * len(calls)

    metrics = tracing.layer_metrics(tracer.spans)
    metrics.update(counter.count_metrics())
    micro, samples = counter.micro_metrics()
    metrics.update(micro)
    cold = imported = 0.0
    if work.name == "cli":
        expected = eg.cli.run_command(tracing.COLD_ARGV)[1]
        cold, imported, spawned, spawn_failed = tracing.cli_startup(ROOT, expected)
        attempted += spawned
        failed += spawn_failed
        if spawn_failed:
            failures.append("%d cold-start spawns failed" % spawn_failed)
    metrics["cli.cold_start_ms"] = (cold, "ms")
    metrics["cli.import_ms"] = (imported, "ms")
    metrics["trace.overhead_ratio"] = (
        sum(min(t) for t in zip(*spanned)) / sum(min(t) for t in zip(*untraced)),
        "ratio",
    )
    extra = {
        "passes": 5,
        "failed_ratio": failed / attempted,
        "micro_samples": samples,
        "spans": len(tracer.spans),
    }
    return metrics, attempted, failed, failures, extra, tracer.spans


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.DEFAULT_SEEDS))
    ap.add_argument("--seed", type=int, help="default: the workload's acceptance seed")
    ap.add_argument(
        "--shape-seed",
        type=int,
        help="seed of the instances themselves (default: the workload's "
        "acceptance seed); change it for a held-out check",
    )
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    default = workloads.DEFAULT_SEEDS[args.workload]
    seed = default if args.seed is None else args.seed
    shape_seed = default if args.shape_seed is None else args.shape_seed

    sys.path.insert(0, str(SRC))
    calib_start = calib_ms()
    try:
        setups, raw_setups = [], []
        for _ in range(SETUP_REPEATS if args.trace == 0 else 1):
            seconds, raw, eg, work = setup(args.workload, seed, shape_seed)
            setups.append(seconds)
            raw_setups.append(raw)
    except ImportError as ex:
        print("cannot import epsgeom from %s: %s" % (SRC, ex), file=sys.stderr)
        return 2
    # the batch and the library stay alive all run: keep the collector from
    # rescanning them, so a call does not pay for the benchmark's own heap
    gc.collect()
    gc.freeze()

    if args.trace:
        metrics, attempted, failed, failures, extra, spans = traced(work, eg)
    else:
        metrics, attempted, failed, failures, extra, spans = end_to_end(
            work, args.seconds, setups, raw_setups
        )

    record = {
        "workload": args.workload,
        "seed": seed,
        "shape_seed": shape_seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "batch_calls": len(work.calls),
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
        "machine": {
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "calib_ms_start": calib_start,
            "calib_ms_end": calib_ms(),
        },
    }
    record.update(extra)
    OUT.mkdir(exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, seed, args.trace)
    if shape_seed != default:
        stem += "-shape%d" % shape_seed
    (OUT / (stem + ".json")).write_text(json.dumps(record, indent=1) + "\n")
    if spans is not None:
        (OUT / (stem + "-spans.json")).write_text(json.dumps(spans) + "\n")
    print(json.dumps({"record": record}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": record["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
