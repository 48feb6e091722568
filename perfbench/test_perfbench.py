"""Tests of the benchmark's own code.  Not part of the tier-1 suite; run with

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import record
import run
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent


def make_spans(rows, names):
    """rows: (name, start, end, parent) tuples, in call order."""
    return {
        "names": names,
        "name": [names.index(r[0]) for r in rows],
        "start": [r[1] for r in rows],
        "end": [r[2] for r in rows],
        "parent": [r[3] for r in rows],
        "distinct": {},
    }


def test_self_time_subtracts_direct_children_only():
    names = ["cli.main", "lifting.solve_hom_lifts", "modlinalg.smith"]
    recorded = make_spans(
        [
            ("cli.main", 0, 100, -1),
            ("lifting.solve_hom_lifts", 10, 50, 0),
            ("modlinalg.smith", 20, 30, 1),
            ("modlinalg.smith", 35, 45, 1),
            ("modlinalg.smith", 60, 70, 0),
        ],
        names,
    )
    totals = spans.layer_totals(recorded)
    assert totals["cli.main"] == [1, 100 - 40 - 10]
    assert totals["lifting.solve_hom_lifts"] == [1, 40 - 20]
    assert totals["modlinalg.smith"] == [3, 30]
    # self times partition the root span
    assert sum(ns for _, ns in totals.values()) == 100


def test_tracer_records_nesting_and_exceptions():
    ticks = iter(range(0, 1000, 10))
    tracer = spans.Tracer(clock=lambda: next(ticks))

    def leaf(x):
        if x < 0:
            raise ValueError(x)
        return x

    traced_leaf = tracer.wrap("words.leaf", leaf)

    def outer():
        traced_leaf(1)
        with pytest.raises(ValueError):
            traced_leaf(-1)
        return 7

    assert tracer.wrap("cli.outer", outer)() == 7
    assert list(tracer.parent) == [-1, 0, 0]
    totals = spans.layer_totals(
        {
            "names": tracer.names,
            "name": tracer.name,
            "start": tracer.start,
            "end": tracer.end,
            "parent": tracer.parent,
        }
    )
    assert totals["words.leaf"] == [2, 20]
    assert totals["cli.outer"] == [1, 50 - 20]


def test_merge_and_grouped_layer_values():
    merged = spans.merge_totals(
        [
            {"presentation.parse_presentation_file": [1, 2_000_000_000]},
            {
                "presentation.parse_quotient_aut": [1, 1_000_000_000],
                "presentation.check_quotient_aut_on": [3, 500_000_000],
                "modlinalg.smith": [4, 0],
            },
        ]
    )
    assert run.layer_value("presentation.parse.self_s", merged, {}) == 3.0
    assert run.layer_value("presentation.self_s", merged, {}) == 3.5
    assert run.layer_value("presentation.check_quotient_aut_on.calls", merged, {}) == 3
    assert run.layer_value("modlinalg.smith.reuse_ratio", merged, {"modlinalg.smith": 1}) == 0.25
    assert run.layer_value("oracle.compare.calls", merged, {}) == 0


def test_end_to_end_sums_per_operation_medians():
    samples = run.OpSamples.empty(2)
    samples.wall_s[:] = [[1.0, 9.0, 2.0], [4.0, 3.0]]  # the first op ran once more
    samples.setup_s[:] = [[0.1, 0.3, 0.2], [0.5]]
    samples.rss_mb[:] = [[20.0, 20.0, 20.0], [30.0, 31.0]]
    samples.attempted, samples.failed = 5, 0
    metrics = run.end_to_end_metrics(samples, phis=2)
    assert metrics["wall_s"][0] == 2.0 + 3.5
    assert metrics["wall_s"][3] == 2
    assert metrics["phi_per_s"][0] == 2 / 5.5
    assert metrics["setup_s"][0] == 0.2 + 0.5
    assert metrics["peak_rss_mb"][0] == 30.5
    assert metrics["ok_ratio"][0] == 1.0


def verify_op():
    return workloads.pass_ops("verify", 0, [])[0]


def verify_report(op):
    body = {"match": True, "phi_count": op.phis, "comparisons": []}
    return (json.dumps(body, sort_keys=True, indent=2) + "\n").encode()


def test_good_report_passes():
    op = verify_op()
    report = verify_report(op)
    digests = {op.key: workloads.digest(report)}
    assert workloads.check_report(op, 0, report, digests) is None


@pytest.mark.parametrize(
    "tamper",
    [
        lambda b: b.replace(b"\n", b"\r\n"),  # same JSON content, other bytes
        lambda b: b.replace(b"true", b"false"),  # a mismatch
        lambda b: b[: len(b) // 2],  # truncated
    ],
)
def test_tampered_report_is_caught(tamper):
    op = verify_op()
    report = verify_report(op)
    digests = {op.key: workloads.digest(report)}
    assert workloads.check_report(op, 0, tamper(report), digests) is not None


def test_exit_code_and_missing_report_are_failures():
    op = verify_op()
    report = verify_report(op)
    digests = {op.key: workloads.digest(report)}
    assert "exit code 3" in workloads.check_report(op, 3, report, digests)
    assert workloads.check_report(op, 0, None, digests) == "no report written"
    assert "no reference digest" in workloads.check_report(op, 0, report, {})


def test_query_inputs_depend_only_on_the_seed():
    pool = workloads.load_reference()["query_pool"]
    first = workloads.pass_ops("query", 11, pool)
    assert first == workloads.pass_ops("query", 11, pool)
    drawn = {tuple(op.key for op in workloads.pass_ops("query", s, pool)) for s in range(20)}
    assert len(drawn) > 10
    assert [op.argv[0] for op in first] == ["solve", "auto"]


def test_query_pool_is_seeded_gl2_7():
    pool = workloads.load_reference()["query_pool"]
    assert pool == record.query_pool()
    for images in pool:
        exps = []
        for word in images[:2]:
            e = {"x": 0, "y": 0}
            for term in word.split("*"):
                name, _, power = term.partition("^")
                if name in e:
                    e[name] = int(power or 1)
            exps.append(e)
        det = exps[0]["x"] * exps[1]["y"] - exps[1]["x"] * exps[0]["y"]
        assert det % 7, images


def test_every_op_has_a_reference_digest():
    reference = workloads.load_reference()
    pool = reference["query_pool"]
    keys = {op.key for w in workloads.WORKLOADS for op in workloads.pass_ops(w, 0, pool)}
    keys |= {
        workloads.query_op(cmd, i, images).key
        for i, images in enumerate(pool)
        for cmd in ("solve", "auto")
    }
    assert keys == set(reference["digests"])


def test_benchmark_json_matches_the_metrics_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def run_child(tmp_path, name):
    op = next(o for o in workloads.pass_ops("verify", 0, []) if o.key == "verify:Q8_mod_center")
    argv, report = workloads.write_inputs(op, tmp_path)
    info, span_file = tmp_path / f"{name}.json", tmp_path / f"{name}.pickle"
    cmd = [sys.executable, str(run.CHILD), str(run.SRC), str(info), "--trace", str(span_file)]
    subprocess.run(cmd + ["--", *argv], cwd=ROOT, check=True, timeout=120)
    child = json.loads(info.read_text())
    digests = workloads.load_reference()["digests"]
    # tracing must not change a byte of the report
    assert workloads.check_report(op, child["exit"], report.read_bytes(), digests) is None
    return spans.load(str(span_file))


def test_traced_child_counts_repeat_exactly(tmp_path):
    first, second = run_child(tmp_path, "a"), run_child(tmp_path, "b")

    def calls(recorded):
        return {k: v[0] for k, v in spans.layer_totals(recorded).items()}

    assert calls(first) == calls(second)
    assert first["names"][first["name"][0]] == "cli.main"
    assert list(first["parent"]).count(-1) == 1
    assert calls(first)["lifting.LiftProblem.build"] == 6
    assert first["distinct"] == second["distinct"]


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "query", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
