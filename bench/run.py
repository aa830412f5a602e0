"""Seeded closed-loop benchmark for treeideals.

    python3 bench/run.py --workload ideals-mix --seed 20181 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
The workload (see ``workloads.py``) is set up ``SETUP_REPEATS`` times and
then run in whole passes, one op at a time, while the next pass is
expected to end within ``--seconds`` of op wall time (at least
``MIN_PASSES``).
Every answer is checked by an oracle; an op fails when it raises or its
oracle objects.

Times are taken at the reference speed.  On the shared 2-vCPU virtual
machine the baseline was measured on (Intel Xeon, Python 3.11.7), CPU
speed swings by up to 2x for stretches of 0.1 s to tens of seconds, so
every timed call is bracketed by ``calibrate()``, a fixed slice of
Fraction and dict work, and its wall time is scaled by
``CALIBRATION_REF_S`` over the calibration time measured around it (see
``Clock``).  When that machine is idle the scale is about 1 and the
figures are plain wall-clock times.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` first does
the same measured run, then installs layer spans (``tracing.py``),
replays one set-up and the first pass of the same inputs and reports the
per-layer metrics, including the tracing overhead against the measured
run; no end-to-end metric is taken from a traced run.  The last line of
standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import bisect
import json
import resource
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
MIN_PASSES = 3
IMPORT_REPEATS = 7
CALIBRATION_REF_S = 1.0e-3  # calibrate() on the idle reference machine

END_TO_END = {
    "setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
    "ok_frac": "fraction", "peak_rss_mb": "MB",
}

PER_LAYER = (
    [f"polycore.{op}.{m}" for op in ("mul", "addsub", "substitute", "evaluate", "order")
     for m in ("calls", "self_s")]
    + ["polycore.mul.terms_out", "polycore.substitute.terms_out", "polycore.self_share"]
    + [f"stagedtree.{f}.{m}" for f in ("build_tree", "validate_tree", "position_classes")
       for m in ("calls", "self_s")]
    + ["stagedtree.vertices", "stagedtree.atoms", "stagedtree.stage_pairs",
       "stagedtree.self_share"]
    + [f"ideals.{k}.{m}" for k in ("model", "paths", "mpaths")
       for m in ("self_s", "raw", "distinct", "dedup_ratio")]
    + ["ideals.seeds", "ideals.maximal_extensions.calls", "ideals.maximal_extensions.self_s",
       "ideals.maximal_extensions.pairs_out", "ideals.stepwise.calls", "ideals.stepwise.self_s",
       "ideals.self_share"]
    + ["parametrization.is_toric.self_s", "parametrization.is_toric.checked_pairs",
       "parametrization.star_condition.calls", "parametrization.star_condition.self_s",
       "parametrization.star_condition.witnesses", "parametrization.containment.self_s",
       "parametrization.containment.generators_checked", "parametrization.psi_evaluate.calls",
       "parametrization.psi_evaluate.self_s", "parametrization.self_share"]
    + ["model.membership.calls", "model.membership.self_s",
       "model.membership.generators_evaluated", "model.membership.failures_listed",
       "model.recover.calls", "model.recover.self_s", "model.sample_theta.self_s",
       "model.self_share"]
    + [f"cli.{f}.{m}" for f in ("run_command", "parse_tree_document", "render_tree_document")
       for m in ("calls", "self_s")]
    + ["cli.self_share", "cli.import_ms", "trace.overhead_frac"]
)


def layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[1]
    if last == "self_s":
        return "s"
    if last == "import_ms":
        return "ms"
    if last in ("self_share", "overhead_frac", "dedup_ratio"):
        return "fraction"
    return "count"


def calibrate() -> float:
    """Wall time of a fixed slice of work like the package's own."""
    start = perf_counter()
    total, seen = Fraction(0), {}
    for i in range(1, 400):
        total += Fraction(1, i)
        seen[i % 37] = total
    return perf_counter() - start


class Clock:
    """Timed calls and their times at the reference speed.

    Every call runs between two ``calibrate()`` samples.  The speed during
    a call is the mean of its own two samples and any others taken within
    one call length (plus 2 ms) of it: for a long call that adds its
    neighbours' samples, since a speed regime can outlast either of its own.
    """

    def __init__(self) -> None:
        self._marks: list[float] = []  # midpoints of the calibration samples
        self._sums = [0.0]  # prefix sums of the calibration times
        self.spans: list[tuple[float, float]] = []  # (start, end) per call
        self._own: list[int] = []  # index of each call's first sample

    def _sample(self) -> None:
        start = perf_counter()
        c = calibrate()
        self._marks.append(start + c / 2)
        self._sums.append(self._sums[-1] + c)

    def run(self, call):
        """(result, exception or None) of call(), which is timed."""
        self._own.append(len(self._marks))
        self._sample()
        start = perf_counter()
        try:
            result, error = call(), None
        except Exception as e:  # reported by the caller as a failed op
            result, error = None, e
        self.spans.append((start, perf_counter()))
        self._sample()
        return result, error

    def wall(self) -> list[float]:
        return [end - start for start, end in self.spans]

    def reference(self) -> list[float]:
        out = []
        for (start, end), own in zip(self.spans, self._own):
            margin = end - start + 2e-3
            lo = min(own, bisect.bisect_left(self._marks, start - margin))
            hi = max(own + 2, bisect.bisect_right(self._marks, end + margin))
            speed = (self._sums[hi] - self._sums[lo]) / (hi - lo) / CALIBRATION_REF_S
            out.append((end - start) / speed)
        return out


@dataclass
class Run:
    setup_s: list[float]
    latencies: list[float]  # every op, at the reference speed
    slowdown: list[float]  # wall / reference time, per op
    failed: int
    pass_s: list[float]  # each pass's op wall time
    replay_s: float  # median set-up plus the first pass, at the reference speed


def measure(workload, seed: int, seconds: float, workdir: str) -> Run:
    """Untraced set-ups and checked, timed passes."""
    clock = Clock()
    for _ in range(SETUP_REPEATS):
        state, error = clock.run(lambda: workload.setup(seed, workdir))
        if error is not None:
            raise error
    pass_s: list[float] = []
    pass_ops: list[int] = []
    failed = 0
    while len(pass_s) < MIN_PASSES or sum(pass_s) + statistics.mean(pass_s) <= seconds:
        first = len(clock.spans)
        for op in workload.make_pass(state, len(pass_s)):
            answer, error = clock.run(op.run)
            try:
                problems = [f"raised {error!r}"] if error is not None else op.check(answer)
            except Exception as e:  # a malformed answer the oracle cannot read
                problems = [f"answer unreadable: {e!r}"]
            if problems:
                failed += 1
                print(f"FAILED {op.group}: {'; '.join(problems)}", file=sys.stderr)
        pass_s.append(sum(clock.wall()[first:]))
        pass_ops.append(len(clock.spans) - first)
    ref, wall = clock.reference(), clock.wall()
    setup_s, latencies = ref[:SETUP_REPEATS], ref[SETUP_REPEATS:]
    return Run(setup_s, latencies, [w / r for w, r in zip(wall, ref)][SETUP_REPEATS:],
               failed, pass_s, statistics.median(setup_s) + sum(latencies[:pass_ops[0]]))


def end_to_end(run: Run) -> dict[str, float]:
    lat = run.latencies
    return {
        "setup_s": statistics.median(run.setup_s),
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_p90_ms": statistics.quantiles(lat, n=10)[-1] * 1e3,
        "ok_frac": 1 - run.failed / len(lat),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def import_ms() -> float:
    """Fresh-interpreter import of treeideals.cli, minus a bare start."""
    bare = f"import sys; sys.path.insert(0, {str(SRC)!r})"
    times: dict[str, list[float]] = {"bare": [], "cli": []}
    for _ in range(IMPORT_REPEATS):
        for key, code in (("bare", bare), ("cli", bare + "; import treeideals.cli")):
            start = perf_counter()
            subprocess.run([sys.executable, "-c", code], check=True)
            times[key].append(perf_counter() - start)
    return (statistics.median(times["cli"]) - statistics.median(times["bare"])) * 1e3


def traced(workload, seed: int, workdir: str, run: Run) -> dict[str, float]:
    """Per-layer metrics from a traced replay of the measured run's inputs.

    Layer spans are installed only now, after ``measure()``, so the
    measured run made no call through a wrapper.  One set-up and the first
    pass are run again with spans on, answers unchecked.  The overhead
    compares their time with ``run.replay_s``, the same inputs untraced,
    both at the reference speed; self-time shares are of the traced
    calls' wall time.
    """
    from tracing import LAYERS, Tracer

    tracer = Tracer()
    tracer.install()
    clock = Clock()
    state, error = clock.run(lambda: workload.setup(seed, workdir))
    if error is not None:
        raise error
    groups: dict[str, dict[str, float]] = {}
    for op in workload.make_pass(state, 0):
        before = tracer.layer_self_s()
        clock.run(op.run)
        group = groups.setdefault(op.group, dict.fromkeys(LAYERS, 0.0))
        for layer, s in tracer.layer_self_s().items():
            group[layer] += s - before[layer]
    for group, shares in sorted(groups.items()):
        busy = sum(shares.values()) or 1.0
        print(f"self-time shares in {group} ops: "
              + " ".join(f"{k} {v / busy:.3f}" for k, v in shares.items()))

    wall = sum(clock.wall())
    layer_s = tracer.layer_self_s()
    out: dict[str, float] = {}
    for name in PER_LAYER:
        head, last = name.rsplit(".", 1)
        if last == "calls":
            out[name] = tracer.calls[head]
        elif last == "self_s":
            out[name] = tracer.self_s[head]
        elif last == "self_share":
            out[name] = layer_s[head] / wall
        elif last == "dedup_ratio":
            raw = tracer.counters[head + ".raw"]
            out[name] = tracer.counters[head + ".distinct"] / raw if raw else 0.0
        elif name == "cli.import_ms":
            out[name] = import_ms()
        elif name == "trace.overhead_frac":
            out[name] = sum(clock.reference()) / run.replay_s - 1
        else:
            out[name] = tracer.counters[name]
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "treeideals" / "__init__.py").is_file():
        print(f"error: no treeideals sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    # The CLI reads its inputs from files.  They are written inside the
    # checkout, since the benchmark reads and writes nowhere else.
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as workdir:
        run = measure(workload, args.seed, args.seconds, workdir)
        if args.trace:
            values = traced(workload, args.seed, workdir, run)
            units = {name: layer_unit(name) for name in PER_LAYER}
        else:
            values, units = end_to_end(run), END_TO_END
    attempted = len(run.latencies)
    print(f"workload {args.workload}  seed {args.seed}  ops {attempted}  failed {run.failed}  "
          f"fail_frac {run.failed / attempted:g}  median slowdown "
          f"{statistics.median(run.slowdown):.3f}  pass seconds "
          + " ".join(f"{s:.3f}" for s in run.pass_s))
    for name, value in values.items():
        print(f"{name:48s} {value:14.6g} {units[name]}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
