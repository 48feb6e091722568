"""The benchmark's `verify`, `solve` and `auto` reports, byte for byte.

The benchmark (perfbench/) checks every report it produces against a
SHA-256 digest in perfbench/reference.json.  These tests run the same
operations in-process through cli.main, so a change to any report's bytes
fails here as well as in the benchmark.  The benchmark's files are only
read.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from centrallift import cli

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()
REFERENCE = workloads.load_reference()
POOL = REFERENCE["query_pool"]

OPS = workloads.pass_ops("verify", 0, POOL) + [
    workloads.query_op(command, i, POOL[i])
    for i in range(4)
    for command in ("solve", "auto")
]


@pytest.mark.parametrize("op", OPS, ids=[op.key for op in OPS])
def test_report_matches_reference_digest(op, tmp_path):
    argv, report = workloads.write_inputs(op, tmp_path)
    code = cli.main(argv)
    data = report.read_bytes()
    assert workloads.digest(data) == REFERENCE["digests"][op.key]
    assert workloads.check_report(op, code, data, REFERENCE["digests"]) is None

