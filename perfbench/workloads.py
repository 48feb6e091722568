"""The benchmark's workloads: the operations of one pass, from a seed, and
the checks each operation's report must pass.

An operation is one ``centrallift`` command.  Its inputs are files whose
text is fixed here or in ``reference.json``; the command line names them
through the placeholders ``{pres}`` and ``{phi}``, and the report goes
to the path given by ``--out``.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"

WORKLOADS = ("demo", "verify", "query")

# Every homomorphic lift of a GL2(7) automorphism of H/Z(H), H the
# Heisenberg group mod 7, is x -> x' z^a, y -> y' z^b: 7 * 7 of them, all
# automorphic because the matrix is invertible.
QUERY_LIFTS = 49


def heisenberg(p: int) -> str:
    return (
        "generators: x y z\n"
        f"relator: x^{p}\nrelator: y^{p}\nrelator: z^{p}\n"
        "relator: x^-1*y^-1*x*y*z^-1\n"
        "relator: x^-1*z^-1*x*z\n"
        "relator: y^-1*z^-1*y*z\n"
        "central: z\n"
    )


# The test corpus (one presentation per solve_aut_lifts branch: prime-power,
# composite and non-cyclic N), plus Heisenberg mod 5.  The second field is
# the number of quotient automorphisms verify answers for the entry.
VERIFY_CORPUS = (
    ("C4_mod_x2", 1, "generators: x\nrelator: x^4\ncentral: x^2\n"),
    ("C6_mod_x2", 1, "generators: x\nrelator: x^6\ncentral: x^2\n"),
    ("C6_mod_x", 1, "generators: x\nrelator: x^6\ncentral: x\n"),
    (
        "Q8_mod_center",
        6,
        "generators: x y\nrelator: x^4\nrelator: x^2*y^-2\n"
        "relator: y^-1*x*y*x\ncentral: x^2\n",
    ),
    ("Heisenberg27_mod_center", 48, heisenberg(3)),
    (
        "C2xC2xC4_mod_ab",
        2,
        "generators: a b c\nrelator: a^2\nrelator: b^2\nrelator: c^4\n"
        "relator: a^-1*b^-1*a*b\nrelator: a^-1*c^-1*a*c\nrelator: b^-1*c^-1*b*c\n"
        "central: a\ncentral: b\n",
    ),
    (
        "C2xC2xC4_mod_ac2",
        6,
        "generators: a b c\nrelator: a^2\nrelator: b^2\nrelator: c^4\n"
        "relator: a^-1*b^-1*a*b\nrelator: a^-1*c^-1*a*c\nrelator: b^-1*c^-1*b*c\n"
        "central: a\ncentral: c^2\n",
    ),
    (
        "metacyclic34_mod_x9",
        108,
        "generators: x y\nrelator: x^27\nrelator: y^3\n"
        "relator: y^-1*x*y*x^-10\ncentral: x^9\n",
    ),
    (
        "C4xC2_mod_x2",
        6,
        "generators: x y\nrelator: x^4\nrelator: y^2\n"
        "relator: x^-1*y^-1*x*y\ncentral: x^2\n",
    ),
    ("Heisenberg125_mod_center", 480, heisenberg(5)),
)


@dataclass(frozen=True)
class Op:
    key: str  # names the reference digest of the report
    argv: tuple[str, ...]  # centrallift arguments, before "--out REPORT"
    files: tuple[tuple[str, str], ...]  # (placeholder, file text)
    phis: int  # quotient automorphisms the command answers
    kind: str  # which semantic check the report gets


def load_reference() -> dict:
    with open(REFERENCE, "r", encoding="utf-8") as handle:
        return json.load(handle)


def query_op(command: str, index: int, images) -> Op:
    return Op(
        key=f"query:{command}:{index}",
        argv=(command, "{pres}", "{phi}"),
        files=(("pres", heisenberg(7)), ("phi", "".join(f"image: {w}\n" for w in images))),
        phis=1,
        kind=f"query-{command}",
    )


def pass_ops(workload: str, seed: int, pool: list) -> list[Op]:
    """The operations of one pass.  The same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "demo":
        return [Op("demo:p3n4", ("demo", "--p", "3", "--n", "4"), (), 432, "demo")]
    if workload == "verify":
        ops = [
            Op(f"verify:{name}", ("verify", "{pres}"), (("pres", text),), phis, "verify")
            for name, phis, text in VERIFY_CORPUS
        ]
        rng.shuffle(ops)
        return ops
    if workload == "query":
        first, second = rng.sample(range(len(pool)), 2)
        return [
            query_op("solve", first, pool[first]),
            query_op("auto", second, pool[second]),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def write_inputs(op: Op, directory: Path) -> tuple[list[str], Path]:
    """Write the operation's input files; return its argv and report path."""
    paths = {}
    for placeholder, text in op.files:
        path = directory / f"{placeholder}.txt"
        path.write_text(text, encoding="utf-8")
        paths[placeholder] = str(path)
    report = directory / "report.json"
    return [arg.format_map(paths) for arg in op.argv] + ["--out", str(report)], report


def check_report(op: Op, exit_code, report: bytes | None, digests: dict | None) -> str | None:
    """None if the operation's outcome is correct, else why it is not.

    With ``digests`` None only the report's content is checked, not its
    bytes (used when recording the digests).
    """
    if exit_code != 0:
        return f"exit code {exit_code}, expected 0"
    if report is None:
        return "no report written"
    try:
        payload = json.loads(report)
    except ValueError as exc:
        return f"report is not JSON: {exc}"
    problem = _semantic_problem(op, payload)
    if problem or digests is None:
        return problem
    expected = digests.get(op.key)
    if expected is None:
        return f"no reference digest for {op.key}"
    if digest(report) != expected:
        return f"report bytes differ from the reference digest for {op.key}"
    return None


def _semantic_problem(op: Op, payload: dict) -> str | None:
    if op.kind == "demo":
        want = {
            "lifts_per_phi": 3,
            "aut_of_aut_order": 1296,
            "inner_not_characteristic": True,
            "quotient_aut_count": op.phis,
        }
    elif op.kind == "verify":
        want = {"match": True, "phi_count": op.phis}
    elif op.kind == "query-solve":
        want = {"kind": "homomorphic", "lift_count": QUERY_LIFTS}
    else:
        want = {"kind": "automorphic", "lift_count": QUERY_LIFTS}
        if not all(lift.get("automorphic") for lift in payload.get("lifts", ())):
            return "a lift of an invertible phi is not automorphic"
    for key, value in want.items():
        if payload.get(key) != value:
            return f"{key} is {payload.get(key)!r}, expected {value!r}"
    return None
