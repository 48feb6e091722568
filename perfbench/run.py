"""centrallift benchmark: one workload, one seed, timed for a fixed span.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload demo|verify|query --seed N \\
        --seconds S --trace 0|1

An operation is one ``centrallift`` command run by ``cli.main`` in a fresh
interpreter (perfbench/child.py), one at a time.  A pass runs the
workload's operations once.  Every report is checked (content and
SHA-256 against reference.json).

With ``--trace 0`` the run repeats the pass's operations for ``--seconds``
and reports the end-to-end metrics from each operation's median; with
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics from the spans.  Lines before the last one are a
table (median, quartiles, sample count, unit); the last line is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
See perfbench/README.md for the definitions.
"""

from __future__ import annotations

import argparse
import itertools
import json
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "child.py"
WORK = ROOT / ".perfbench_work"

# A run must end within 180 s; operations still running at this point
# after the start are stopped and count as failed.
DEADLINE_S = 165
# An end-to-end run starts with set-up-only passes, at least this many and
# enough for this many interpreters, so that setup_s is a median over
# several set-ups of each operation even when few timed passes fit.
DRY_PASSES, DRY_OPERATIONS = 2, 10

END_TO_END = (
    ("wall_s", "s"),
    ("phi_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
)

S, COUNT = "s", "count"
PER_LAYER = (
    ("oracle.bf_automorphism_group.self_s", S),
    ("oracle.bf_automorphism_group.calls", COUNT),
    ("oracle.bf_quotient_auts.self_s", S),
    ("oracle.bf_hom_lifts.self_s", S),
    ("oracle.bf_hom_lifts.calls", COUNT),
    ("oracle.bf_aut_lifts.self_s", S),
    ("oracle.compare.self_s", S),
    ("lifting.LiftProblem.build.self_s", S),
    ("lifting.LiftProblem.build.calls", COUNT),
    ("lifting.solve_hom_lifts.self_s", S),
    ("lifting.solve_hom_lifts.calls", COUNT),
    ("lifting.solve_aut_lifts.self_s", S),
    ("lifting.solve_aut_lifts.calls", COUNT),
    ("lifting.build_residue_vector.self_s", S),
    ("lifting.materialize.calls", COUNT),
    ("lifting.materialize.self_s", S),
    ("lifting.is_automorphism.calls", COUNT),
    ("lifting.is_automorphism.self_s", S),
    ("lifting.report_to_dict.self_s", S),
    ("modlinalg.smith.self_s", S),
    ("modlinalg.smith.calls", COUNT),
    ("modlinalg.smith.reuse_ratio", "ratio"),
    ("modlinalg.solve.self_s", S),
    ("modlinalg.solve.calls", COUNT),
    ("modlinalg.enumerate_solutions.self_s", S),
    ("engines.todd_coxeter.self_s", S),
    ("engines.quotient_engine.self_s", S),
    ("engines.word_for_element.self_s", S),
    ("engines.word_for_element.calls", COUNT),
    ("engines.map_images.self_s", S),
    ("engines.PermutationEngine.self_s", S),
    ("engines.subgroup_closure.self_s", S),
    ("engines.subgroup_closure.calls", COUNT),
    ("engines.element_order.calls", COUNT),
    ("metacyclic.build_aut_A.self_s", S),
    ("metacyclic.verify_pi_surjective.self_s", S),
    ("metacyclic.noncharacteristic_witness.self_s", S),
    ("presentation.parse.self_s", S),
    ("presentation.check_quotient_aut_on.self_s", S),
    ("words.evaluate.calls", COUNT),
    ("cli.self_s", S),
    ("engines.self_s", S),
    ("lifting.self_s", S),
    ("metacyclic.self_s", S),
    ("modlinalg.self_s", S),
    ("oracle.self_s", S),
    ("presentation.self_s", S),
    ("words.self_s", S),
    ("trace_overhead_s", S),
    ("failed_ratio", "ratio"),
)

# Metric bases that sum several spans: a module's total, and the parsers.
SPAN_GROUPS = {m: f"{m}." for m in spans.MODULES}
SPAN_GROUPS["presentation.parse"] = "presentation.parse_"


@dataclass
class Pass:
    setup_s: float = 0.0
    wall_s: float = 0.0
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    totals: dict = field(default_factory=dict)  # span name -> [calls, self ns]
    distinct: dict = field(default_factory=dict)  # span name -> distinct first args


@dataclass
class OpSamples:
    """Samples of each operation of a pass, by its position in the pass."""

    setup_s: list
    wall_s: list
    rss_mb: list
    attempted: int = 0
    failed: int = 0

    @classmethod
    def empty(cls, n: int) -> "OpSamples":
        return cls([[] for _ in range(n)], [[] for _ in range(n)], [[] for _ in range(n)])


class Runner:
    """Runs operations in child interpreters, one at a time."""

    def __init__(self, work: Path, digests: dict, deadline_ns: int):
        self.work = work
        self.digests = digests
        self.deadline_ns = deadline_ns
        self.errors: list[str] = []

    def run_op(self, op, j: int = 0, *, dry: bool = False, trace: bool = False):
        """Run one operation; return (setup_s, wall_s, rss_mb, spans or None),
        or None if it failed, with the reason added to ``errors``."""
        t0 = time.monotonic_ns()
        argv, report = workloads.write_inputs(op, self.work)
        report.unlink(missing_ok=True)
        info = self.work / "child.json"
        info.unlink(missing_ok=True)
        span_file = self.work / f"spans-op{j}.pickle"
        cmd = [sys.executable, str(CHILD), str(SRC), str(info)]
        if trace:
            cmd += ["--trace", str(span_file)]
        if dry:
            cmd += ["--dry"]
        problem = self._spawn(cmd + ["--", *argv])
        if problem is None:
            child = json.loads(info.read_text(encoding="utf-8"))
            if not dry:
                data = report.read_bytes() if report.exists() else None
                problem = workloads.check_report(op, child["exit"], data, self.digests)
        if problem is not None:
            self.errors.append(f"{op.key}: {problem}")
            return None
        return (
            (child["t_ready"] - t0) / 1e9,
            (child["t_done"] - child["t_ready"]) / 1e9,
            child["maxrss_kb"] / 1024,
            spans.load(str(span_file)) if trace else None,
        )

    def run_pass(self, ops, *, dry: bool = False, trace: bool = False) -> Pass:
        result = Pass()
        op_totals = []
        for j, op in enumerate(ops):
            out = self.run_op(op, j, dry=dry, trace=trace)
            result.attempted += not dry
            if out is None:
                result.failed += not dry
                if self.past_deadline():
                    break
                continue
            setup_s, wall_s, rss_mb, recorded = out
            result.setup_s += setup_s
            result.wall_s += wall_s
            result.peak_rss_mb = max(result.peak_rss_mb, rss_mb)
            if recorded is not None:
                op_totals.append(spans.layer_totals(recorded))
                for name, count in recorded["distinct"].items():
                    result.distinct[name] = result.distinct.get(name, 0) + count
        result.totals = spans.merge_totals(op_totals)
        return result

    def past_deadline(self) -> bool:
        return time.monotonic_ns() >= self.deadline_ns

    def _spawn(self, cmd) -> str | None:
        remaining = (self.deadline_ns - time.monotonic_ns()) / 1e9
        if remaining <= 0:
            return "not started: run deadline reached"
        try:
            proc = subprocess.run(
                cmd,
                cwd=ROOT,
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                timeout=remaining,
            )
        except subprocess.TimeoutExpired:
            return "stopped at the run deadline"
        if proc.returncode != 0:
            tail = proc.stderr.decode(errors="replace").strip().splitlines()[-1:]
            return f"interpreter exited {proc.returncode}: {' '.join(tail)}"
        return None


def summary(values):
    """(median, first quartile, third quartile, sample count)."""
    if not values:
        return 0.0, 0.0, 0.0, 0
    if len(set(values)) == 1:
        return values[0], values[0], values[0], len(values)
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, len(values)


def timed_ops(runner: Runner, ops, seconds: float, begin_ns: int, samples: OpSamples):
    """Untraced operations, in pass order and round again, until ``seconds``
    are used up.  The first pass always runs in full; after it, an
    operation starts only if its previous run would still fit, so the
    last pass may stop part-way and every operation keeps its samples.
    """
    took = [0.0] * len(ops)
    for i in itertools.count():
        j = i % len(ops)
        t = time.monotonic_ns()
        if i >= len(ops) and (t - begin_ns) / 1e9 + took[j] > seconds or runner.past_deadline():
            return
        out = runner.run_op(ops[j], j)
        took[j] = (time.monotonic_ns() - t) / 1e9
        samples.attempted += 1
        if out is None:
            samples.failed += 1
            continue
        setup_s, wall_s, rss_mb, _ = out
        samples.setup_s[j].append(setup_s)
        samples.wall_s[j].append(wall_s)
        samples.rss_mb[j].append(rss_mb)


def timed_rounds(runner: Runner, ops, seconds: float, begin_ns: int):
    """Rounds of one untraced and one traced pass until ``seconds`` are
    used up.  Another round starts only if the last one would still fit,
    and at least one round always runs.
    """
    plain, traced = [], []
    while True:
        t = time.monotonic_ns()
        plain.append(runner.run_pass(ops))
        traced.append(runner.run_pass(ops, trace=True))
        now = time.monotonic_ns()
        if (2 * now - t - begin_ns) / 1e9 > seconds or runner.past_deadline():
            return plain, traced


def layer_value(metric: str, totals: dict, distinct: dict):
    base, _, stat = metric.rpartition(".")
    if stat == "reuse_ratio":
        calls = totals.get(base, [0, 0])[0]
        return distinct.get(base, 0) / calls if calls else 0.0
    prefix = SPAN_GROUPS.get(base)
    if prefix is None:
        parts = [totals.get(base, [0, 0])]
    else:
        parts = [v for k, v in totals.items() if k.startswith(prefix)]
    if stat == "calls":
        return sum(calls for calls, _ in parts)
    return sum(self_ns for _, self_ns in parts) / 1e9


def combine(lists, how) -> list:
    """Median, first and third quartile of each list, combined across the
    lists by ``how`` (``sum`` or ``max``)."""
    return [how(q) for q in zip(*(summary(values)[:3] for values in lists))]


def end_to_end_metrics(samples: OpSamples, phis: int) -> dict:
    """A pass's metrics from per-operation medians (and quartiles): times
    are summed over the pass's operations, memory is the largest."""
    wall = combine(samples.wall_s, sum)
    n = min(len(values) for values in samples.wall_s)
    attempted, failed = samples.attempted, samples.failed
    return {
        "wall_s": (*wall, n),
        "phi_per_s": (phis / wall[0], phis / wall[2], phis / wall[1], n) if n else (0.0, 0.0, 0.0, 0),
        "setup_s": (*combine(samples.setup_s, sum), min(len(v) for v in samples.setup_s)),
        "peak_rss_mb": (*combine(samples.rss_mb, max), n),
        "ok_ratio": summary([(attempted - failed) / attempted if attempted else 0.0]),
    }


def per_layer_metrics(plain, traced) -> tuple[dict, list[str]]:
    """Per-layer summaries, and the counts that differ between traced
    passes (which run identical operations, so must agree exactly)."""
    out, unstable = {}, []
    for name, _ in PER_LAYER:
        if name == "trace_overhead_s":
            overhead = summary([p.wall_s for p in traced])[0] - summary([p.wall_s for p in plain])[0]
            out[name] = summary([overhead])
        elif name == "failed_ratio":
            attempted = sum(p.attempted for p in plain + traced)
            failed = sum(p.failed for p in plain + traced)
            out[name] = summary([failed / attempted if attempted else 1.0])
        else:
            values = [layer_value(name, p.totals, p.distinct) for p in traced]
            if name.endswith((".calls", ".reuse_ratio")) and len(set(values)) > 1:
                unstable.append(f"{name}: {values}")
            out[name] = summary(values)
    return out, unstable


def table(summaries: dict, units: dict) -> list[str]:
    lines = [f"{'metric':48} {'median':>14} {'q1':>14} {'q3':>14} {'n':>3}  unit"]
    for name, (med, q1, q3, n) in summaries.items():
        lines.append(f"{name:48} {med:14.6f} {q1:14.6f} {q3:14.6f} {n:3d}  {units[name]}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "centrallift" / "__init__.py").is_file():
        print(f"error: no centrallift sources at {SRC}", file=sys.stderr)
        return 2
    start = time.monotonic_ns()
    reference = workloads.load_reference()
    ops = workloads.pass_ops(args.workload, args.seed, reference["query_pool"])
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(work, reference["digests"], start + DEADLINE_S * 10**9)

    # Unmeasured: the first interpreter of a fresh checkout compiles bytecode.
    runner.run_op(ops[0], dry=True)
    begin = time.monotonic_ns()
    if args.trace:
        plain, traced = timed_rounds(runner, ops, args.seconds, begin)
        summaries, unstable = per_layer_metrics(plain, traced)
        units = dict(PER_LAYER)
        runner.errors += [f"call count differs between traced passes: {u}" for u in unstable]
        passes = plain + traced
        attempted = sum(p.attempted for p in passes)
        failed = sum(p.failed for p in passes)
        for i, p in enumerate(passes):
            kind = "traced" if i >= len(plain) else "untraced"
            print(
                f"pass {i} ({kind}): wall_s {p.wall_s:.6f} setup_s {p.setup_s:.6f} "
                f"peak_rss_mb {p.peak_rss_mb:.3f}"
            )
        done = f"{len(plain)} untraced and {len(traced)} traced passes"
    else:
        samples = OpSamples.empty(len(ops))
        for _ in range(max(DRY_PASSES, -(-DRY_OPERATIONS // len(ops)))):
            for j, op in enumerate(ops):
                out = runner.run_op(op, j, dry=True)
                if out is not None:
                    samples.setup_s[j].append(out[0])
        timed_ops(runner, ops, args.seconds, begin, samples)
        summaries = end_to_end_metrics(samples, sum(op.phis for op in ops))
        units = dict(END_TO_END)
        attempted, failed = samples.attempted, samples.failed
        for op, walls in zip(ops, samples.wall_s):
            print(f"{op.key}: wall_s {' '.join(f'{w:.6f}' for w in walls)}")
        done = f"{min(map(len, samples.wall_s))} or more timed runs of each operation"

    for line in table(summaries, units):
        print(line)
    print(
        f"workload {args.workload}, seed {args.seed}: {len(ops)} operations a pass, "
        f"{done}, {attempted} attempted, {failed} failed, "
        f"failed_ratio {failed / attempted if attempted else 1.0}"
    )
    for error in runner.errors:
        print(f"FAILED {error}", file=sys.stderr)
    result = {
        "correct": not runner.errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": summaries[name][0], "unit": units[name]} for name in summaries
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
