"""One benchmark process, started by ``run.py`` in a fresh interpreter.

Modes:

* ``setup``: import ``repro``, generate the inputs, build the first unit,
  print the ready line and exit (one more set-up sample);
* ``oracle``: the same set-up with the reference configuration, then run
  one unit and print its digest, or exit 1 if an operation raised;
* ``run``: the same set-up, then run units in a closed batch for
  ``--seconds`` seconds and check each against ``--expect``.  With
  ``--trace 1`` every untraced unit is followed by a traced one (spans
  around each layer's public calls), so the tracing overhead is measured
  on interleaved units.

Set-up and every unit run under the speed probe's sampler (``pace.py``):
their times exclude the probe's ticks, and each comes with the harmonic mean
of the ticks taken while it ran.  The first line on stdout is the ready
line, printed once set-up is done; ``run.py`` times the interpreter start-up
to it.  The last line is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

import pace

START = perf_counter()
ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("setup", "oracle", "run"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--expect", default="")
    return parser.parse_args(argv)


def _emit(payload) -> None:
    print(json.dumps(payload), flush=True)


def main(argv=None) -> int:
    args = _parse(argv)
    sampler = pace.Sampler(pace.Probe())
    with sampler:
        # the program comes from this checkout's sources, never from elsewhere
        sys.path.insert(0, str(SRC))
        import repro

        if Path(repro.__file__).resolve().parent != SRC / "repro":
            print(f"repro imported from {repro.__file__}, not {SRC}", file=sys.stderr)
            return 2
        import workloads
        from repro._numpy import np

        imported = sampler.clock()
        if args.workload not in workloads.WORKLOADS:
            print(f"unknown workload {args.workload!r}", file=sys.stderr)
            return 2
        workload = workloads.WORKLOADS[args.workload](args.seed)
        unit = workload.prepare(reference=args.mode == "oracle")
        built = sampler.clock()
    _emit({"ready": True, "import_s": imported - START, "build_s": built - imported,
           "probe_spent_s": sampler.spent, "tick_s": sampler.speed()})
    if args.mode == "setup":
        return 0
    if args.mode == "oracle":
        digests = [digest for digest, _, _ in workload.run(unit)]
        if None in digests:
            # a reference that raised gives nothing to check against
            print("the reference oracle raised; no digest", file=sys.stderr)
            return 1
        _emit({"digest": workloads.unit_digest(digests)})
        return 0

    if args.trace:
        import spans
        log = spans.SpanLog(sampler.clock)
    deadline = perf_counter() + args.seconds
    walls, ticks, op_seconds, op_ticks = [], [], [], []
    traced_walls, traced_ticks, layers = [], [], []
    attempted = failed = 0
    mismatched = []
    while True:
        for traced in ((False, True) if args.trace else (False,)):
            gc.collect()
            if traced:
                log.counters.clear()
                first = len(log)
                with spans.Instrumentation(log), sampler:
                    start = sampler.clock()
                    ops = workload.run(unit, log.root, sampler.clock)
                    wall = sampler.clock() - start
                layers.append(spans.layer_metrics(log, first, len(log)))
            else:
                with sampler:
                    start = sampler.clock()
                    ops = workload.run(unit, clock=sampler.clock)
                    wall = sampler.clock() - start
                op_seconds.append([seconds for _, _, seconds in ops])
                op_ticks.append([sampler.speed_around(start, seconds)
                                 for _, start, seconds in ops])
            (traced_walls if traced else walls).append(wall)
            (traced_ticks if traced else ticks).append(sampler.speed())
            digests = [digest for digest, _, _ in ops]
            attempted += len(ops)
            failed += digests.count(None)  # raised
            if workloads.unit_digest(digests) != args.expect:
                mismatched.append(digests)
            unit = workload.prepare()
        if perf_counter() >= deadline:
            break
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if mismatched:
        # find the operations whose outputs differ from the oracle's, off the clock
        reference = [digest for digest, _, _ in
                     workload.run(workload.prepare(reference=True))]
        if None in reference or workloads.unit_digest(reference) != args.expect:
            print("oracle digest differs from the expected one", file=sys.stderr)
            reference = [None] * len(reference)
        for digests in mismatched:
            failed += sum(1 for got, want in zip(digests, reference)
                          if got is not None and got != want)
    counts_repeat = True
    if args.trace:
        counts_repeat = all(spans.counts(m) == spans.counts(layers[0]) for m in layers)
        OUT.mkdir(exist_ok=True)
        log.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
    _emit({
        "walls": walls,
        "ticks": ticks,
        "op_seconds": op_seconds,
        "op_ticks": op_ticks,
        "traced_walls": traced_walls,
        "traced_ticks": traced_ticks,
        "layers": layers,
        "counts_repeat": counts_repeat,
        "attempted": attempted,
        "failed": failed,
        "peak_rss_kb": peak_rss_kb,
        "numpy": np.__version__,
        "non_default": workload.NON_DEFAULT,
        "structurally_zero": list(workload.STRUCTURALLY_ZERO),
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())
