"""nashfol benchmark: one workload, one seed, a fixed measuring time.

    python3 benchmarks/run.py --workload corpus --seed 0 --seconds 30 --trace 0

Workloads are ``corpus`` and ``fiber-singular`` (see workloads.py for what
each runs and why).  The harness is one process and
one thread.  It imports nashfol from the checkout's ``src`` and calls the
same entry points as the CLI.

With ``--trace 0`` it reports the end-to-end metrics:

- ``wall_s``: the time of one pass over the workload's items, as the mean
  over the passes that fit in ``--seconds`` (at least three).
- ``setup_s``: the time from starting a fresh interpreter to a loaded
  workload (nashfol imported, the scenario documents read and parsed), as
  the median over one interpreter started before each pass
  and at least fifteen in all.

Both times are scaled to a reference host speed (calibrate.py): before each
item the harness times a fixed kernel that does not use nashfol, and
multiplies the times above by ``calibrate.REFERENCE_S`` over the mean kernel
time of the run.  That takes out the drift of a shared host's speed between
runs and leaves in every change to the package.  ``wall_s`` is a mean, not a
median, so that it and the kernel's mean average the host's speed over the
same stretch of time.  The raw times, with quartiles, are printed too.
- ``peak_rss_mb``: the peak resident memory of this process.
- ``error_rate``: item runs that raised or failed their output check, over
  item runs attempted.  It is printed, and is ``failed``/``attempted`` in
  the JSON line; it is not a JSON metric because it is 0 on a correct run.

With ``--trace 1`` it wraps the package (tracing.py), runs untraced and
traced passes for half the time each, and reports each per-layer time as
its median over the traced passes, each count as its value in every traced
pass (counts must repeat exactly), plus ``trace.overhead_s``, the median
traced minus the median untraced pass time.

Every pass's output must equal the first pass's, the first pass's outputs
must pass their checks, and traced output must equal untraced output.  The
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 when every check passes, 1
when one fails, 2 when the checkout has no nashfol sources.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import calibrate
import workloads

SETUP_INTERPRETERS = 15
MIN_PASSES = 3


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be a non-negative integer")
    return value


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=_seed, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe",
        action="store_true",
        help=argparse.SUPPRESS,  # child mode used to time setup_s
    )
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# measuring
# ---------------------------------------------------------------------------


class Passes:
    """Pass times plus a verdict for every item run against the reference
    outputs of the first pass."""

    def __init__(self, workload, items, seed):
        self.workload = workload
        self.items = items
        self.seed = seed
        self.reference: list[str | None] | None = None
        self.walls: list[float] = []
        self.kernel_times: list[float] = []  # calibrate.sample() before each item
        self.failures = [0] * len(items)  # failed runs of each item
        self.problems: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.items) * len(self.walls)

    @property
    def failed(self) -> int:
        return sum(self.failures)

    def run_one(self) -> float:
        outputs = []
        wall = 0.0
        for item in self.items:
            self.kernel_times.append(calibrate.sample())
            start = perf_counter()
            try:
                outputs.append(workloads.run_item(self.workload, item, self.seed))
            except Exception:  # one bad item must not hide the others
                traceback.print_exc(file=sys.stderr)
                outputs.append(None)
            wall += perf_counter() - start
        self.walls.append(wall)
        if self.reference is None:
            self.reference = outputs
        for idx, (item, out, ref) in enumerate(zip(self.items, outputs, self.reference)):
            if out is None or out != ref:
                self.failures[idx] += 1
                what = "raised" if out is None else "output changed between passes"
                self.report(f"{item.label}: {what}")
        return wall

    def run_for(self, seconds: float, min_passes: int, before=None, after=None) -> None:
        start = perf_counter()
        walls = []
        while True:
            if before:
                before()
            walls.append(self.run_one())
            if after:
                after()
            spent = perf_counter() - start
            if len(walls) >= min_passes and spent + statistics.median(walls) > seconds:
                return

    def host_scale(self) -> float:
        """Factor that scales this run's times to the reference host speed."""
        return calibrate.REFERENCE_S / statistics.fmean(self.kernel_times)

    def check_reference(self, goldens) -> None:
        """Check the first pass's outputs; a wrong one fails every run of it."""
        for idx, (item, out) in enumerate(zip(self.items, self.reference)):
            if out is None:
                continue
            problem = workloads.check_item(self.workload, item, out, self.seed, goldens)
            if problem is not None:
                self.failures[idx] = len(self.walls)
                self.report(f"{item.label}: {problem}")

    def report(self, text: str) -> None:
        if text not in self.problems:
            self.problems.append(text)
            print(f"FAIL {text}", file=sys.stderr)


def measure_setup(workload: str, seed: int) -> float:
    """Seconds from spawning an interpreter to it reporting a loaded workload."""
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--setup-probe",
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", "0",
    ]
    start = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        proc.stdout.read()
        code = proc.wait()
    if code != 0 or line.strip() != "loaded":
        raise RuntimeError(f"setup probe exited with {code}: {line!r}")
    return elapsed


def _spread(values) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"q1 {q1:.4f}, q3 {q3:.4f}, n={len(values)}"


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------


def end_to_end(args, items, goldens) -> tuple[Passes, dict]:
    # One setup probe before each pass, so that setup_s samples the machine
    # over the whole run like wall_s does, then more up to the minimum.
    setup: list[float] = []

    def probe():
        setup.append(measure_setup(args.workload, args.seed))

    passes = Passes(args.workload, items, args.seed)
    passes.run_for(args.seconds, MIN_PASSES, before=probe)
    while len(setup) < SETUP_INTERPRETERS:
        probe()
    passes.check_reference(goldens)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    scale = passes.host_scale()
    metrics = {
        "wall_s": (statistics.fmean(passes.walls) * scale, "s"),
        "setup_s": (statistics.median(setup) * scale, "s"),
        "peak_rss_mb": (rss_mb, "MiB"),
    }
    kernel = statistics.fmean(passes.kernel_times)
    print(f"  host scale   {scale:.4f}  (reference kernel {calibrate.REFERENCE_S:g} s, "
          f"mean here {kernel:.4f} s; {_spread(passes.kernel_times)} samples)")
    print(f"  wall_s       {metrics['wall_s'][0]:.4f} s  (raw mean "
          f"{statistics.fmean(passes.walls):.4f}; {_spread(passes.walls)} passes)")
    print(f"  setup_s      {metrics['setup_s'][0]:.4f} s  (raw median "
          f"{statistics.median(setup):.4f}; {_spread(setup)} interpreters)")
    print(f"  peak_rss_mb  {rss_mb:.1f} MiB")
    return passes, metrics


def per_layer(args, items, goldens) -> tuple[Passes, dict]:
    import tracing

    passes = Passes(args.workload, items, args.seed)
    passes.run_for(args.seconds / 2, 1)
    untraced = list(passes.walls)
    snapshots = []
    with tracing.Tracer() as tracer:
        tracer.install(tracing.HOOKS)

        def start():
            tracer.reset()
            tracer.enabled = True

        def stop():
            tracer.enabled = False
            snapshots.append(tracing.read_layer_metrics(tracer))

        passes.run_for(args.seconds / 2, 1, before=start, after=stop)
    passes.check_reference(goldens)
    traced = passes.walls[len(untraced):]
    values = {}
    for m in tracing.LAYER_METRICS:
        per_pass = [snap[m.name] for snap in snapshots]
        if m.name in tracing.EXACT_COUNTS:
            values[m.name] = per_pass[0]
            if any(v != per_pass[0] for v in per_pass):
                passes.report(f"{m.name} differs between traced passes: {per_pass}")
        else:
            values[m.name] = statistics.median(per_pass)
        if args.workload in m.exercised and not values[m.name]:
            passes.report(f"{m.name} is 0 on {args.workload}, which exercises it")
        print(f"  {m.name:38s} {values[m.name]:.6g} {m.unit}")
    overhead = statistics.median(traced) - statistics.median(untraced)
    print(f"  {'trace.overhead_s':38s} {overhead:.6g} s  "
          f"(traced {statistics.median(traced):.4f}, untraced {statistics.median(untraced):.4f})")
    metrics = {m.name: (values[m.name], m.unit) for m in tracing.JSON_METRICS}
    metrics["trace.overhead_s"] = (overhead, "s")
    return passes, metrics


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        workloads.import_engine()
    except workloads.SourceMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    items = workloads.load(args.workload)
    if args.setup_probe:
        print("loaded", flush=True)
        return 0
    goldens = workloads.read_goldens()
    mode = "traced" if args.trace else "untraced"
    print(f"workload {args.workload}, seed {args.seed}, {len(items)} items, "
          f"{args.seconds:g} s, {mode}")
    run = per_layer if args.trace else end_to_end
    passes, metrics = run(args, items, goldens)
    rate = passes.failed / passes.attempted
    print(f"  error_rate   {rate:g}  ({passes.failed} of {passes.attempted} item runs failed)")
    correct = not passes.problems
    print(json.dumps({
        "correct": correct,
        "attempted": passes.attempted,
        "failed": passes.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
