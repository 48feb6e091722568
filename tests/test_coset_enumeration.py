"""todd_coxeter against the two-pass reference enumerator in tc_reference,
the check it runs on its final table, and the --max-cosets contract."""

import os

import pytest

pytest.importorskip("hypothesis")
from hypothesis import configuration, given, settings, strategies as st

import corpus
import tc_reference
from centrallift import cli, engines
from centrallift.engines import CosetLimitExceeded, _check_coset_table, todd_coxeter
from centrallift.metacyclic import CaseStudyConfig, metacyclic_presentation
from centrallift.presentation import parse_presentation, parse_presentation_file
from test_engines import TC_CASES, heisenberg

# as in test_properties: no hypothesis cache files under the working tree
configuration.set_hypothesis_home_dir(os.devnull)


def metacyclic(p, n):
    return metacyclic_presentation(CaseStudyConfig(p, n, order_budget=(p - 1) * p**n))


def assert_matches_reference(pres):
    npoints, actions = tc_reference.enumerate_cosets(pres, engines.DEFAULT_MAX_COSETS)
    steps = engines._regular_steps(npoints, actions)
    assert todd_coxeter(pres)._steps == steps


@pytest.mark.parametrize("text", [text for text, _ in TC_CASES])
def test_matches_reference_on_tc_cases(text):
    assert_matches_reference(parse_presentation(text))


@pytest.mark.parametrize("name,text", corpus.CORPUS)
def test_matches_reference_on_corpus(name, text):
    assert_matches_reference(parse_presentation_file(text)[0])


@pytest.mark.parametrize(
    "pres",
    [heisenberg(5), heisenberg(7), metacyclic(3, 4), metacyclic(3, 5)],
    ids=["heisenberg5", "heisenberg7", "metacyclic34", "metacyclic35"],
)
def test_matches_reference_on_larger_groups(pres):
    assert_matches_reference(pres)


@st.composite
def small_presentations(draw) -> str:
    """C_a x C_b; the dihedral group of order 2n; or the metacyclic
    <x, y | x^m, y^k, y^-1*x*y*x^-r> of order m*k, with r^k = 1 mod m."""
    family = draw(st.sampled_from(("abelian", "dihedral", "metacyclic")))
    if family == "abelian":
        a, b = draw(st.integers(1, 8)), draw(st.integers(1, 8))
        return f"generators: x y\nrelator: x^{a}\nrelator: y^{b}\nrelator: x^-1*y^-1*x*y"
    if family == "dihedral":
        n = draw(st.integers(1, 10))
        return f"generators: r s\nrelator: r^{n}\nrelator: s^2\nrelator: s*r*s*r"
    m, k = draw(st.integers(2, 20)), draw(st.integers(1, 6))
    r = draw(st.sampled_from([r for r in range(1, m) if pow(r, k, m) == 1]))
    return f"generators: x y\nrelator: x^{m}\nrelator: y^{k}\nrelator: y^-1*x*y*x^-{r}"


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(small_presentations())
def test_matches_reference_on_generated_presentations(text):
    assert_matches_reference(parse_presentation(text))


def heisenberg27_actions():
    pres = parse_presentation_file(corpus.HEISENBERG)[0]
    return pres, tc_reference.enumerate_cosets(pres, 1000)[1]


def test_check_coset_table_accepts_correct_tables():
    for pres in (parse_presentation_file(corpus.HEISENBERG)[0], metacyclic(3, 5)):
        _check_coset_table(pres, tc_reference.enumerate_cosets(pres, 1000)[1])


@pytest.mark.parametrize("g", range(3))
def test_check_coset_table_rejects_a_swapped_entry(g):
    # swap two images of x_g and mend its inverse to match, so only the
    # relators can tell
    pres, actions = heisenberg27_actions()
    act, inv = actions[2 * g], actions[2 * g + 1]
    act[0], act[1] = act[1], act[0]
    inv[act[0]], inv[act[1]] = 0, 1
    with pytest.raises(AssertionError, match="relator"):
        _check_coset_table(pres, actions)


@pytest.mark.parametrize("g", range(3))
def test_check_coset_table_rejects_a_wrong_inverse(g):
    pres, actions = heisenberg27_actions()
    actions[2 * g + 1] = actions[2 * g]
    with pytest.raises(AssertionError, match="inverse"):
        _check_coset_table(pres, actions)


def test_failed_table_check_exits_4(tmp_path, capsys, monkeypatch):
    # todd_coxeter checks the table it returns; a failure is an internal error
    check = engines._check_coset_table

    def swapping(presentation, actions):
        actions[0][0], actions[0][1] = actions[0][1], actions[0][0]
        check(presentation, actions)

    monkeypatch.setattr(engines, "_check_coset_table", swapping)
    pres = tmp_path / "c4.grp"
    pres.write_text(corpus.C4)
    assert cli.main(["verify", str(pres)]) == 4
    assert capsys.readouterr().err.startswith("internal error: AssertionError: coset table")


# The smallest max_cosets at which the two-pass enumerator succeeded on
# each presentation.  An enumerator may need fewer cosets, never more.
MINIMUM_MAX_COSETS = [
    (parse_presentation_file(corpus.Q8)[0], 8, 8),
    (parse_presentation_file(corpus.HEISENBERG)[0], 36, 27),
    (parse_presentation_file(corpus.METACYCLIC34)[0], 107, 81),
    (heisenberg(5), 268, 125),
    (metacyclic(3, 5), 323, 243),
    (heisenberg(7), 1041, 343),
]


@pytest.mark.parametrize(
    "pres,max_cosets,order",
    MINIMUM_MAX_COSETS,
    ids=["Q8", "heisenberg27", "metacyclic81", "heisenberg5", "metacyclic35", "heisenberg7"],
)
def test_succeeds_at_parent_minimum_max_cosets(pres, max_cosets, order):
    assert todd_coxeter(pres, max_cosets=max_cosets).order() == order


def test_infinite_group_exceeds_the_limit():
    pres = parse_presentation("generators: x y\nrelator: x*y*x^-1*y^-1")
    with pytest.raises(CosetLimitExceeded):
        todd_coxeter(pres, max_cosets=1000)



def test_relators_longer_than_a_full_table_are_refused_before_expansion():
    # x^(10^9) would be a 10^9-letter list; the default limit admits
    # 2 * 50000 letters, max_cosets * 2 * ngens
    with pytest.raises(CosetLimitExceeded, match="total length 1000000000"):
        todd_coxeter(parse_presentation("generators: x\nrelator: x^1000000000"))
    c2 = parse_presentation("generators: x\nrelator: x^4\nrelator: x^6")
    assert todd_coxeter(c2, max_cosets=5).order() == 2
    with pytest.raises(CosetLimitExceeded, match="total length 10"):
        todd_coxeter(c2, max_cosets=4)
