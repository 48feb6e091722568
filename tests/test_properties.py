"""Property tests: the solver against the brute-force oracle on generated
finite presentations with a cyclic or a two-generator central subgroup."""

import os

import pytest

pytest.importorskip("hypothesis")
from hypothesis import configuration, given, settings, strategies as st

import corpus
from centrallift import oracle
from centrallift.lifting import LiftContext

# Whatever the database setting, hypothesis caches the literals of local
# modules under its home directory (./.hypothesis).  A home in which no
# directory can be made turns that cache off, so a run leaves no files.
configuration.set_hypothesis_home_dir(os.devnull)


@st.composite
def central_quotients(draw) -> str:
    """C_a x C_b modulo a nontrivial <x^i*y^j>, or modulo <x^i, y^j> for
    proper divisors i of a and j of b (two independent z-generators, so N
    is not cyclic when gcd(a/i, b/j) > 1); a dihedral group of order
    2n modulo the trivial subgroup or its centre <r^(n/2)>; the Heisenberg
    group mod p (p in {2, 3}) modulo its centre <z>; or the metacyclic
    group <x, y | x^9, y^3, y^-1*x*y*x^-4> of order 27 modulo <x^3>."""
    family = draw(
        st.sampled_from(("abelian", "abelian2", "dihedral", "heisenberg", "metacyclic"))
    )
    if family == "abelian":
        a, b = draw(st.integers(2, 8)), draw(st.integers(2, 8))
        k = draw(st.integers(1, a * b - 1))
        i, j = k % a, k // a
        return (
            f"generators: x y\nrelator: x^{a}\nrelator: y^{b}\n"
            f"relator: x^-1*y^-1*x*y\ncentral: x^{i}*y^{j}\n"
        )
    if family == "abelian2":
        a, b = draw(st.integers(2, 8)), draw(st.integers(2, 8))
        i = draw(st.sampled_from([d for d in range(1, a) if a % d == 0]))
        j = draw(st.sampled_from([d for d in range(1, b) if b % d == 0]))
        return (
            f"generators: x y\nrelator: x^{a}\nrelator: y^{b}\n"
            f"relator: x^-1*y^-1*x*y\ncentral: x^{i}\ncentral: y^{j}\n"
        )
    if family == "dihedral":
        n = draw(st.integers(2, 8))
        central = draw(st.sampled_from(["1", f"r^{n // 2}"] if n % 2 == 0 else ["1"]))
        return (
            f"generators: r s\nrelator: r^{n}\nrelator: s^2\nrelator: s*r*s*r\n"
            f"central: {central}\n"
        )
    if family == "heisenberg":
        p = draw(st.sampled_from((2, 3)))
        return (
            f"generators: x y z\nrelator: x^{p}\nrelator: y^{p}\nrelator: z^{p}\n"
            "relator: x^-1*y^-1*x*y*z^-1\nrelator: x^-1*z^-1*x*z\n"
            "relator: y^-1*z^-1*y*z\ncentral: z\n"
        )
    return (
        "generators: x y\nrelator: x^9\nrelator: y^3\nrelator: y^-1*x*y*x^-4\n"
        "central: x^3\n"
    )


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(central_quotients())
def test_solver_matches_oracle_on_generated_groups(text):
    pres, central, engine, _ = corpus.build(text)
    context = LiftContext(pres, engine, central)
    hom_counts = set()
    for phi in oracle.bf_quotient_auts(context):
        report = oracle.compare(context.problem(phi))
        assert report.match
        if report.solver_hom_count:
            hom_counts.add(report.solver_hom_count)
    # the homomorphic lifts of any liftable phi form a coset of one group
    assert len(hom_counts) <= 1
