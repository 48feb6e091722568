"""Exhaustive ground truth for the lift solver.

Everything here enumerates candidate image tuples directly and checks
relators by evaluation; no matrix machinery is shared with the solver,
so agreement between the two is meaningful evidence.  Searches prune
early: candidates are filtered by element order where orders must match,
a relator on one generator filters that generator's candidates once, and
every other relator is checked as soon as all generators in its support
are assigned, cheapest (shortest) relator first.  A tuple that passes
every relator is an endomorphism (von Dyck), so an automorphism test is
one map of the whole group plus "the map is a permutation"; the map is
dropped once that test is made.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from . import engines, lifting
from .engines import Element, GroupEngine
from .lifting import Endomorphism, LiftContext, LiftProblem
from .presentation import Presentation, QuotientAutSpec
from .words import evaluate_indices


class BudgetExceeded(RuntimeError):
    """A brute-force search would exceed its configured candidate budget."""

    def __init__(self, required: int, budget: int, what: str):
        super().__init__(f"{what}: {required} candidates exceed budget {budget}")
        self.required = required
        self.budget = budget


class Mismatch(RuntimeError):
    """Solver and oracle disagree; carries the comparison report."""

    def __init__(self, report: "ComparisonReport"):
        super().__init__(
            f"solver/oracle mismatch: hom {report.solver_hom_count} vs "
            f"{report.oracle_hom_count}, aut {report.solver_aut_count} vs "
            f"{report.oracle_aut_count}"
        )
        self.report = report


DEFAULT_LIFT_BUDGET = 10**6
DEFAULT_AUT_BUDGET = 10**8


def _relators_by_depth(relators, depth_order: list[int]) -> list[list]:
    """Relator words grouped by the search depth at which they become checkable."""
    position = {gen: d for d, gen in enumerate(depth_order)}
    groups: list[list] = [[] for _ in depth_order]
    for rel in relators:
        depth = max(position[g] for g, _ in rel.letters)
        groups[depth].append(rel)
    for group in groups:
        group.sort(key=lambda rel: (rel.length(), rel.letters))
    return groups


def _search_image_tuples(pres, engine, pools, depth_order) -> list[tuple[int, ...]]:
    """Every tuple of element indices, one from each generator's pool, at
    which each relator evaluates to the identity, sorted.

    A relator on a single generator is checked once per candidate of that
    generator, while its pool is filtered; the others are checked per
    depth of the search, as soon as their support is assigned.
    """
    pools = list(pools)
    relators = []
    for rel in pres.relators:
        support = {g for g, _ in rel.letters}
        if len(support) == 1:
            (gen,) = support
            pools[gen] = [
                c for c in pools[gen] if evaluate_indices(rel, {gen: c}, engine) == 0
            ]
        elif support:
            relators.append(rel)
    groups = _relators_by_depth(relators, depth_order)
    n = pres.n
    images = [0] * n
    out = []

    def descend(depth: int) -> None:
        if depth == n:
            out.append(tuple(images))
            return
        gen = depth_order[depth]
        for candidate in pools[gen]:
            images[gen] = candidate
            if all(
                evaluate_indices(rel, images, engine) == 0 for rel in groups[depth]
            ):
                descend(depth + 1)

    descend(0)
    out.sort()
    return out


def bf_hom_lifts(problem: LiftProblem, budget: int = DEFAULT_LIFT_BUDGET) -> list[Endomorphism]:
    """All homomorphic lifts of phi by enumerating the cosets xbar_i * N."""
    n = problem.pres.n
    n_elements = problem.context.n_elements
    required = len(n_elements) ** n
    if required > budget:
        raise BudgetExceeded(required, budget, "homomorphic lift enumeration")
    engine = problem.engine
    mult = engine._mult_index
    n_idx = [engine.check(z) for z in n_elements]
    pools = [[mult(engine.check(x), z) for z in n_idx] for x in problem.xbar]
    leaves = _search_image_tuples(problem.pres, engine, pools, list(range(n)))
    return [Endomorphism(tuple(Element(engine, i) for i in leaf)) for leaf in leaves]


def _bijective(engine: GroupEngine, images: tuple[Element, ...]) -> bool:
    """True iff the endomorphism with these generator images is a
    permutation of the engine's group.

    One map of the whole group, checked to send each generator to its
    image, and dropped.
    """
    image_map = engines.map_images(engine, images)
    if any(image_map[g] != im.index for g, im in zip(engine._gen_indices, images)):
        raise AssertionError("an endomorphism's map moves a generator's image")
    return len(set(image_map)) == engine.order()


def _greedy_depth_order(pres: Presentation, candidates) -> list[int]:
    """Assignment order: most newly checkable relators, then fewest candidates."""
    supports = [
        {g for g, _ in rel.letters} for rel in pres.relators if rel.letters
    ]
    remaining = list(range(pres.n))
    chosen: set[int] = set()
    order: list[int] = []
    while remaining:
        def gain(g: int) -> int:
            with_g = chosen | {g}
            return sum(1 for s in supports if s <= with_g and not s <= chosen)

        best = min(remaining, key=lambda g: (-gain(g), len(candidates[g]), g))
        remaining.remove(best)
        chosen.add(best)
        order.append(best)
    return order


def bf_automorphism_group(
    pres: Presentation, engine: GroupEngine, budget: int = DEFAULT_AUT_BUDGET
) -> list[Endomorphism]:
    """All automorphisms of the engine's group, by image-tuple search, sorted.

    Candidate images are restricted to elements of the same order as the
    generator (automorphisms preserve order); relators are applied as
    soon as their support is assigned, so every tuple that passes them is
    an endomorphism; finally the map it defines must be a permutation
    (_bijective).
    """
    n = pres.n
    order = engine.order()
    required = order**n
    if required > budget:
        raise BudgetExceeded(required, budget, "automorphism group enumeration")
    orders = [engines.element_order(engine, el) for el in engine.elements()]
    pools = []
    for i in range(n):
        target = orders[engine.generator(i).index]
        pools.append([j for j in range(order) if orders[j] == target])
    depth_order = _greedy_depth_order(pres, pools)
    auts = []
    for leaf in _search_image_tuples(pres, engine, pools, depth_order):
        images = tuple(Element(engine, i) for i in leaf)
        if _bijective(engine, images):
            auts.append(Endomorphism(images))
    return auts


def bf_quotient_auts(
    context: LiftContext, budget: int = DEFAULT_AUT_BUDGET
) -> list[QuotientAutSpec]:
    """One representative-word spec per element of Aut(G/N).

    The search runs on the context's presentation <X | R, z-words> of G/N
    and its engine; only G/N is read from the context, none of its
    matrices.  Each automorphism is re-expressed as shortest
    representative words, reusable as G-words.
    """
    quotient = context.quotient
    specs = []
    for endo in bf_automorphism_group(context.quotient_pres, quotient, budget):
        words = tuple(engines.word_for_element(quotient, im) for im in endo.images)
        specs.append(QuotientAutSpec(words))
    return specs


@dataclass(frozen=True)
class ComparisonReport:
    solver_hom_count: int
    oracle_hom_count: int
    solver_aut_count: int
    oracle_aut_count: int
    match: bool
    counterexample: dict | None

    def to_dict(self) -> dict:
        return asdict(self)


def compare(problem: LiftProblem, budget: int = DEFAULT_LIFT_BUDGET) -> ComparisonReport:
    """Solver vs oracle on one problem; raises Mismatch on any disagreement."""
    hom = lifting.solve_hom_lifts(problem)
    solver_hom = {lift.endo for lift in hom.lifts}
    solver_aut = {lift.endo for lift in lifting.solve_aut_lifts(problem, hom).lifts}
    oracle_hom_list = bf_hom_lifts(problem, budget)
    oracle_hom = set(oracle_hom_list)
    oracle_aut = {e for e in oracle_hom_list if _bijective(problem.engine, e.images)}

    counterexample = None
    for kind, mine, theirs in (
        ("homomorphic", solver_hom, oracle_hom),
        ("automorphic", solver_aut, oracle_aut),
    ):
        diff = mine.symmetric_difference(theirs)
        if diff:
            endo = min(diff, key=lambda e: e.key())
            counterexample = {
                "kind": kind,
                "side": "solver_only" if endo in mine else "oracle_only",
                "images": endo.words(problem.pres.names),
            }
            break
    report = ComparisonReport(
        solver_hom_count=len(solver_hom),
        oracle_hom_count=len(oracle_hom),
        solver_aut_count=len(solver_aut),
        oracle_aut_count=len(oracle_aut),
        match=counterexample is None,
        counterexample=counterexample,
    )
    if not report.match:
        raise Mismatch(report)
    return report
