"""Run one workload of the bicomplex benchmark and print its metrics.

    python3 perfbench/run.py --workload zigzag-sweep --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the program is imported from its
`src/`.  Set-up makes the workload's inputs from the seed.  The measured
phase then runs whole rounds over the inputs, one input after another in
one thread, until `--seconds` of wall time have passed, and checks every
output.  Every time is in reference seconds (refclock.py): wall time
rescaled to a reference speed by the speed of the core measured as the
run goes.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`, which also writes
every span to perfbench/out/trace-<workload>.tsv.
"""

import time

T0 = time.perf_counter()  # set-up is timed from the start of the process's work

import argparse
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path

from refclock import REF_KERNEL_S, RefClock

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
sys.path.insert(0, str(ROOT / "src"))  # the checkout's sources, never an installed copy


def measure(wl, seconds: float):
    """Whole rounds over wl.inputs until `seconds` of wall time have passed.

    Returns per round the perf_counter readings before each input and
    after the last, the number of failed operations, and the problems
    the checks found.
    """
    rounds, failed, problems = [], 0, []
    begin = time.perf_counter()
    while True:
        outs, stamps = [], [time.perf_counter()]
        for inp in wl.inputs:
            try:
                out, ok = wl.run(inp), True
            except Exception:  # a failed operation is counted; the run goes on
                traceback.print_exc()
                out, ok = None, False
            stamps.append(time.perf_counter())
            outs.append((out, ok))
        for inp, (out, ok) in zip(wl.inputs, outs):
            if ok:
                problems += [f"{inp.name}: {p}" for p in wl.check(inp, out)]
            else:
                failed += 1
        rounds.append(stamps)
        if time.perf_counter() - begin >= seconds:
            return rounds, failed, problems


def main(argv=None) -> int:
    clock = RefClock(since=T0)
    clock.start()
    try:
        return run(clock, argv)
    finally:
        clock.stop()


def run(clock, argv) -> int:
    try:
        import bicomplex
        from tracing import Tracer, layer_metrics
        from workloads import WORKLOADS
    except ImportError as e:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: {e}",
              file=sys.stderr)
        return 2
    if Path(bicomplex.__file__).resolve().parent != ROOT / "src" / "bicomplex":
        print(f"perfbench: bicomplex imported from {bicomplex.__file__}, "
              f"not from {ROOT / 'src'}", file=sys.stderr)
        return 2

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    wl = WORKLOADS[args.workload](args.seed, OUT / args.workload)
    setup_end = time.perf_counter()

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    try:
        stamps, failed, problems = measure(wl, args.seconds)
    finally:
        if tracer:
            tracer.uninstall()
    clock.stop()

    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    print(f"perfbench: calibration kernel median {1000 * clock.kernel_median():.3f} ms "
          f"over {len(clock.ticks)} runs, {1000 * REF_KERNEL_S:.3f} ms at the reference speed",
          file=sys.stderr)
    # per round: its time and each input's, in reference seconds
    rounds = []
    for round_stamps in stamps:
        ref = [clock.ref(t) for t in round_stamps]
        rounds.append((ref[-1] - ref[0], [b - a for a, b in zip(ref, ref[1:])]))
    walls = [wall for wall, _ in rounds]
    if tracer:
        tracer.rescale(clock.ref)
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.write(OUT / f"trace-{args.workload}.tsv")
        metrics = layer_metrics(tracer, len(rounds))
        metrics["trace.wall_s"] = (statistics.median(walls), "s")
    else:
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            # each input's median over the rounds, so that which input the
            # median falls on does not depend on the number of rounds
            "complex_p50_ms": (
                1000 * statistics.median(map(statistics.median, zip(*(dts for _, dts in rounds)))),
                "ms"),
            "largest_s": (
                statistics.median(sum(dts[i] for i in wl.largest) for _, dts in rounds), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": (clock.ref(setup_end), "s"),
        }
    print(json.dumps({
        "correct": not problems,
        "attempted": len(rounds) * len(wl.inputs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
