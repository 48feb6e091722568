"""Record reference.json: the query pool and the SHA-256 of every report.

Run from the checkout root:

    python3 perfbench/record.py

Reports must stay byte-identical, so re-record only when a change to
the report format is intended.  The query pool is drawn from a fixed
seed: POOL_SIZE automorphisms of H/Z(H), H the Heisenberg group mod 7,
each a random matrix in GL2(7) written with random z^k factors.

Recording runs every command in this one process.  ``todd_coxeter`` is
memoized here so the mod-7 engine is enumerated once instead of once
per pool entry; the benchmark itself checks the digests against reports
from fresh interpreters, so a recording that differed would show there.
"""

from __future__ import annotations

import json
import random
import sys
import tempfile
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
POOL_SEED = 4632
POOL_SIZE = 256


def _word(exponents: dict[str, int]) -> str:
    terms = [g if e == 1 else f"{g}^{e}" for g, e in exponents.items() if e]
    return "*".join(terms) or "1"


def query_pool(seed: int = POOL_SEED, size: int = POOL_SIZE, p: int = 7) -> list:
    rng = random.Random(seed)
    pool = []
    while len(pool) < size:
        a, b, c, d = (rng.randrange(p) for _ in range(4))
        if (a * d - b * c) % p == 0:
            continue
        k = [rng.randrange(p) for _ in range(3)]
        pool.append(
            [
                _word({"x": a, "y": c, "z": k[0]}),
                _word({"x": b, "y": d, "z": k[1]}),
                _word({"z": k[2]}),
            ]
        )
    return pool


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from centrallift import cli, engines

    enumerated = {}
    todd_coxeter = engines.todd_coxeter

    def memo_todd_coxeter(pres, max_cosets=50000):
        key = (pres, max_cosets)
        if key not in enumerated:
            enumerated[key] = todd_coxeter(pres, max_cosets)
        return enumerated[key]

    cli.engines.todd_coxeter = memo_todd_coxeter

    pool = query_pool()
    ops = workloads.pass_ops("demo", 0, pool) + workloads.pass_ops("verify", 0, pool)
    for index, images in enumerate(pool):
        ops += [workloads.query_op(cmd, index, images) for cmd in ("solve", "auto")]
    digests = {}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for op in ops:
            argv, report = workloads.write_inputs(op, Path(tmp))
            code = cli.main(argv)
            data = report.read_bytes()
            problem = workloads.check_report(op, code, data, None)
            if problem:
                print(f"{op.key}: {problem}", file=sys.stderr)
                return 1
            digests[op.key] = workloads.digest(data)
    with open(workloads.REFERENCE, "w", encoding="utf-8") as handle:
        json.dump({"query_pool": pool, "digests": digests}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"recorded {len(digests)} digests in {workloads.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
