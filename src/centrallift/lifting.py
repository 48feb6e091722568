"""Deciding and enumerating lifts of quotient automorphisms.

Setting: G finitely presented, N a finite central subgroup generated by
the values of the declared z-words, and phi an automorphism of G/N given
by representative words.  Lifting phi through the quotient reduces to
exact linear systems: row i of the exponent matrix M abelianizes relator
r_i, the residue w encodes r_i at the chosen representatives, and the
homomorphic lifts of phi correspond one-to-one to solutions of
M*v = w modulo the order of each central generator (one block per
generator when N is not cyclic).  Automorphic lifts add one row per
z-word and one target per admissible image of the z-generators.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from math import prod

from . import engines, modlinalg
from .engines import Element, GroupEngine
from .modlinalg import IntMatrix, SmithDecomposition, SolutionSet
from .presentation import (
    CentralSubgroupSpec,
    NotCentral,
    NotHomomorphism,
    NotSurjective,
    Presentation,
    QuotientAutSpec,
)
from .words import FreeWord, evaluate, evaluate_indices, exponent_vector, format_word


class NotASolution(RuntimeError):
    """A claimed solution vector fails a relator; indicates a solver bug."""


class CriterionMismatch(RuntimeError):
    """The two automorphy criteria disagreed; internal consistency failure."""


class NotSquarefree(ValueError):
    """#N is not squarefree, so the existence shortcut does not apply."""


class DependentCentralGenerators(ValueError):
    """The z-words are not independent, so block systems would miscount."""


class SolverConsistencyError(RuntimeError):
    """An internal cross-check between two solver routes failed."""


class Endomorphism:
    """An endomorphism of the engine's group, given by generator images.

    Equal when the images lie in the same engine and have the same
    indices; the index tuple and its hash are computed once.
    """

    __slots__ = ("images", "_engine", "_key", "_hash")

    def __init__(self, images: tuple[Element, ...]):
        self.images = images
        self._engine = images[0].engine if images else None
        self._key = tuple(el.index for el in images)
        self._hash = hash(self._key)

    def key(self) -> tuple[int, ...]:
        return self._key

    def words(self, names: tuple[str, ...]) -> list[str]:
        """The images as shortest words in the generators `names`."""
        return [
            format_word(engines.word_for_element(self._engine, im), names)
            for im in self.images
        ]

    def __eq__(self, other):
        return (
            isinstance(other, Endomorphism)
            and other._engine is self._engine
            and other._key == self._key
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Endomorphism(images={self.images!r})"


class LiftContext:
    """Everything about (G, N) that does not depend on phi, computed once.

    The z-words generate N, so G/N is presented by <X | R, z-words> and
    enumerated from that presentation, bounded by max_cosets as G is.
    Checks that the z-words are central and that the z-generators are
    independent (|N| equals the product of their orders, which makes the
    per-block correspondence one-to-one).  Holds N, the presentation and
    engine of G/N, the projection G -> G/N on element indices, the central
    log table, and the exponent matrix M with its Smith decomposition; the
    automorphic targets' extended matrix is built on first use.  Each phi
    then costs only its own check and right-hand sides (problem).
    """

    def __init__(
        self,
        pres: Presentation,
        engine: GroupEngine,
        central: CentralSubgroupSpec,
        max_cosets: int = engines.DEFAULT_MAX_COSETS,
    ):
        gens = [engine.generator(i) for i in range(pres.n)]
        self.pres = pres
        self.engine = engine
        self.central = central
        self.z_elements = tuple(evaluate(w, gens, engine) for w in central.z_words)
        for i, (word, z) in enumerate(zip(central.z_words, self.z_elements)):
            if any(engine.multiply(z, x) != engine.multiply(x, z) for x in gens):
                raise NotCentral(
                    i, f"central word {format_word(word, pres.names)!r} is not central"
                )
        self.z_orders = tuple(engines.element_order(engine, z) for z in self.z_elements)
        # N <= G, so independent z-generators have order product at most |G|;
        # refusing a larger product first keeps the table below |G| products
        if prod(self.z_orders) > engine.order():
            raise DependentCentralGenerators(
                f"z-generators have order product {prod(self.z_orders)} but G has "
                f"order {engine.order()}; supply independent generators"
            )
        # N is central, so it is the set of power products of the z-elements
        self.log_table = engines.central_log_table(engine, self.z_elements, self.z_orders)
        self.n_elements = tuple(Element(engine, i) for i in sorted(self.log_table))
        self.n_order = len(self.n_elements)
        if prod(self.z_orders) != self.n_order:
            raise DependentCentralGenerators(
                f"z-generators have order product {prod(self.z_orders)} but generate "
                f"a subgroup of order {self.n_order}; supply independent generators"
            )
        # the z-words are scanned first: they collapse N early
        self.quotient_pres = Presentation(pres.names, central.z_words + pres.relators)
        self.quotient = engines.todd_coxeter(self.quotient_pres, max_cosets)
        if self.quotient.order() * self.n_order != engine.order():
            raise AssertionError("|G/N| * |N| != |G|")
        self.projection = engines.map_images(
            engine, [self.quotient.generator(i) for i in range(pres.n)]
        )
        self.matrix = build_exponent_matrix(pres)
        self.smith = modlinalg.smith(self.matrix)

    def problem(self, phi: QuotientAutSpec) -> "LiftProblem":
        """The lift instance for one automorphism phi of G/N."""
        return LiftProblem.build(self, phi)

    @cached_property
    def aut_system(self) -> "AutSystem":
        """The phi-independent half of solve_aut_lifts.

        Cyclic N of prime-power order #N = p^e: the z-word's exponent row
        is scaled by #N/p, with one target per k in 1..p-1 forcing the
        image of z to keep order #N.  Other cyclic N: one unscaled target
        per unit residue (each admissible image of z).  Non-cyclic N: one
        target per tuple of images of the z-generators that has matching
        orders and generates N, with one appended row per z-word.
        """
        engine, orders = self.engine, self.z_orders
        scale = 1
        targets: list[tuple[str, tuple[tuple[int, ...], ...]]] = []
        if len(orders) == 1:
            order = orders[0]
            factors = modlinalg.factorize(order)
            if len(factors) == 1:
                (p,) = factors
                scale = order // p
                targets = [(f"k={k}", ((k,),)) for k in range(1, p)]
            else:
                # composite non-prime-power (or trivial) order: enumerate the
                # admissible images of z directly; the smallest-prime trick
                # only rules out one prime divisor.
                targets = [(f"z->z^{c}", ((c,),)) for c in modlinalg.units(order)]
        else:
            for tup in itertools.product(self.n_elements, repeat=len(orders)):
                if any(
                    engines.element_order(engine, el) != o for el, o in zip(tup, orders)
                ):
                    continue
                if engines.subgroup_closure(engine, tup) != self.n_elements:
                    continue
                logs = [self.log_table[el.index] for el in tup]
                label = "images=" + ",".join(
                    format_word(engines.word_for_element(engine, el), self.pres.names)
                    for el in tup
                )
                shifts = tuple(tuple(lg[j] for lg in logs) for j in range(len(orders)))
                targets.append((label, shifts))
        extended = self.matrix.stack_rows(
            [
                [scale * x for x in exponent_vector(w, self.pres.n)]
                for w in self.central.z_words
            ]
        )
        return AutSystem(extended, modlinalg.smith(extended), scale, tuple(targets))


@dataclass(frozen=True)
class AutSystem:
    """M with one row per z-word appended (times `scale`), its Smith
    decomposition, and the automorphic targets as (label, shifts): block j
    of a target's right-hand side is w_j followed, for each z-word i, by
    scale * (u[i][j] + shifts[j][i]) mod o_j, where f_i(xbar) =
    prod_j z_j^(-u[i][j])."""

    matrix: IntMatrix
    smith: SmithDecomposition
    scale: int
    targets: tuple[tuple[str, tuple[tuple[int, ...], ...]], ...]


class LiftProblem:
    """One lift instance: a LiftContext and an automorphism phi of G/N.

    Use LiftProblem.build (or context.problem); it checks that phi is an
    automorphism of G/N, evaluates its representatives xbar in G and
    stores the residues of relator r_k and z-word f_i at them:
    r_k(xbar) = prod_j z_j^(-residues[j][k]), f_i(xbar) =
    prod_j z_j^(-z_residues[i][j]).
    """

    def __init__(
        self,
        context: LiftContext,
        phi: QuotientAutSpec,
        xbar: tuple[Element, ...],
        residues: tuple[tuple[int, ...], ...],
        z_residues: tuple[tuple[int, ...], ...],
    ):
        self.context = context
        self.phi = phi
        self.xbar = xbar
        self.residues = residues
        self.z_residues = z_residues
        self.pres = context.pres
        self.engine = context.engine
        self.z_orders = context.z_orders

    @classmethod
    def build(cls, context: LiftContext, phi: QuotientAutSpec) -> "LiftProblem":
        """Check that the representatives induce an automorphism of G/N.

        The induced map is an endomorphism of G/N = <X | R, z-words> iff
        every relator and every z-word evaluated at xbar lies in N (von
        Dyck), that is, has a central log; those logs are the residues.
        Together with surjectivity this certifies an automorphism of the
        finite quotient.
        """
        pres, engine = context.pres, context.engine
        if len(phi.rep_words) != pres.n:
            raise ValueError("need exactly one representative word per generator")
        gens = [engine.generator(i) for i in range(pres.n)]
        xbar = tuple(evaluate(w, gens, engine) for w in phi.rep_words)

        def residue(word: FreeWord, index: int | None) -> tuple[int, ...]:
            exps = context.log_table.get(evaluate(word, xbar, engine).index)
            if exps is None:
                raise NotHomomorphism(index)
            return tuple((-e) % o for e, o in zip(exps, context.z_orders))

        per_relator = [residue(rel, k) for k, rel in enumerate(pres.relators)]
        z_residues = tuple(residue(w, None) for w in context.central.z_words)
        quotient, proj = context.quotient, context.projection
        images = [quotient.element(proj[x.index]) for x in xbar]
        if not engines.generates(quotient, images):
            raise NotSurjective("images generate a proper subgroup of the quotient")
        residues = tuple(
            tuple(r[j] for r in per_relator) for j in range(len(context.z_orders))
        )
        return cls(context, phi, xbar, residues, z_residues)


@dataclass(frozen=True)
class LiftTarget:
    """One right-hand side of the lift system, with its per-block solutions."""

    label: str
    rhs_blocks: tuple[tuple[int, ...], ...]
    solution_sets: tuple[SolutionSet, ...]
    count: int

    @classmethod
    def solve(cls, label: str, dec: SmithDecomposition, rhs_blocks, moduli) -> "LiftTarget":
        """Solve block j, M * v = rhs_blocks[j] mod moduli[j], where
        dec = smith(M); the count is the product of the block counts."""
        sets = tuple(
            modlinalg.solve(dec, rhs, modulus) for rhs, modulus in zip(rhs_blocks, moduli)
        )
        return cls(label, rhs_blocks, sets, prod(s.count for s in sets))


@dataclass(frozen=True)
class Lift:
    """A materialized lift: per-block exponent vectors plus the endomorphism."""

    v_blocks: tuple[tuple[int, ...], ...]
    endo: Endomorphism
    automorphic: bool


@dataclass(frozen=True)
class LiftReport:
    """What one phi adds: its solved targets and its lifts.  M, the
    moduli and w live in the context and the problem."""

    kind: str  # "homomorphic" | "automorphic"
    targets: tuple[LiftTarget, ...]
    lifts: tuple[Lift, ...]


def build_exponent_matrix(pres: Presentation) -> IntMatrix:
    """m x n matrix whose row i abelianizes relator i."""
    rows = [list(exponent_vector(rel, pres.n)) for rel in pres.relators]
    if not rows:
        return IntMatrix(0, pres.n, ())
    return IntMatrix.from_rows(rows)


def materialize(problem: LiftProblem, v_blocks) -> Endomorphism:
    """Images g_i = xbar_i * prod_j z_j^(v[j][i]); relators are re-verified."""
    engine = problem.engine
    mult, power = engine._mult_index, engine._power_index
    z_indices = [engine.check(z) for z in problem.context.z_elements]
    indices = []
    for i in range(problem.pres.n):
        g = engine.check(problem.xbar[i])
        for j, z in enumerate(z_indices):
            g = mult(g, power(z, v_blocks[j][i]))
        indices.append(g)
    for k, rel in enumerate(problem.pres.relators):
        if evaluate_indices(rel, indices, engine) != 0:
            raise NotASolution(f"relator {k} fails at the materialized images")
    return Endomorphism(tuple(Element(engine, g) for g in indices))


def is_automorphism(problem: LiftProblem, psi: Endomorphism) -> bool:
    """psi(N) = N, cross-checked against surjectivity of psi.

    For a homomorphic lift the two are equivalent; disagreement is a
    fatal internal error.
    """
    engine, context = problem.engine, problem.context
    z_images = [evaluate(w, psi.images, engine) for w in context.central.z_words]
    preserves_n = engines.subgroup_closure(engine, z_images) == context.n_elements
    surjective = engines.generates(engine, psi.images)
    if preserves_n != surjective:
        raise CriterionMismatch(
            f"psi(N)=N is {preserves_n} but surjectivity is {surjective}"
        )
    return preserves_n


def _enumerate_block_solutions(target: LiftTarget):
    """Every tuple of block solutions; none if some block is unsolvable."""
    return itertools.product(
        *(modlinalg.enumerate_solutions(s) for s in target.solution_sets)
    )


def _hom_target(problem: LiftProblem) -> LiftTarget:
    """M * v = w mod o_j, one block per z-generator."""
    context = problem.context
    return LiftTarget.solve("hom", context.smith, problem.residues, context.z_orders)


def solve_hom_lifts(problem: LiftProblem) -> LiftReport:
    """All homomorphic lifts of phi, via one block system per z-generator."""
    target = _hom_target(problem)
    lifts: list[Lift] = []
    for combo in _enumerate_block_solutions(target):
        endo = materialize(problem, combo)
        lifts.append(Lift(tuple(combo), endo, is_automorphism(problem, endo)))
    if len({lift.endo for lift in lifts}) != len(lifts) or len(lifts) != target.count:
        raise SolverConsistencyError("block solutions did not map to distinct lifts")
    return LiftReport("homomorphic", (target,), tuple(lifts))


def _aut_targets(problem: LiftProblem) -> tuple[LiftTarget, ...]:
    """Each target of the context's aut_system, solved against the
    extended matrix, with the right-hand sides AutSystem describes."""
    system = problem.context.aut_system
    orders = problem.z_orders
    t = len(orders)
    w, u = problem.residues, problem.z_residues

    def rhs_blocks(shifts):
        return tuple(
            w[j] + tuple(system.scale * (u[i][j] + shifts[j][i]) % orders[j] for i in range(t))
            for j in range(t)
        )

    return tuple(
        LiftTarget.solve(label, system.smith, rhs_blocks(shifts), orders)
        for label, shifts in system.targets
    )


def count_lifts(problem: LiftProblem) -> tuple[int, int]:
    """(homomorphic, automorphic) lift counts of phi, read off the Smith
    forms; nothing is materialized.

    The extended matrix is M with rows appended and w on top, so every aut
    target's solutions are hom solutions; each target fixes a different
    image of the z-generators, so the targets are disjoint.  Equal counts
    mean that every homomorphic lift is automorphic.
    """
    return _hom_target(problem).count, sum(t.count for t in _aut_targets(problem))


def solve_aut_lifts(problem: LiftProblem, hom: LiftReport) -> LiftReport:
    """All automorphic lifts of phi, given hom = solve_hom_lifts(problem).

    Each target of the context's aut_system is solved against the
    extended matrix, and its solution vectors are looked up among the
    homomorphic lifts.  The union over targets is cross-checked against
    the homomorphic lifts filtered by the psi(N)=N criterion.
    """
    by_v = {lift.v_blocks: lift for lift in hom.lifts}
    truth = {lift.endo for lift in hom.lifts if lift.automorphic}

    targets = _aut_targets(problem)
    lifts: list[Lift] = []
    seen: dict[Endomorphism, str] = {}
    for target in targets:
        label = target.label
        for combo in _enumerate_block_solutions(target):
            lift = by_v.get(combo)
            if lift is None:
                raise SolverConsistencyError(
                    f"target {label} produced a vector with no homomorphic lift"
                )
            if lift.endo in seen:
                raise SolverConsistencyError(
                    f"lift produced by targets {seen[lift.endo]} and {label}"
                )
            seen[lift.endo] = label
            if not lift.automorphic:
                raise SolverConsistencyError(
                    f"target {label} produced a non-automorphic lift"
                )
            lifts.append(lift)

    if set(seen) != truth:
        raise SolverConsistencyError(
            f"target construction found {len(seen)} automorphic lifts, "
            f"filtering homomorphic lifts found {len(truth)}"
        )
    return LiftReport("automorphic", targets, tuple(lifts))


def squarefree_existence(problem: LiftProblem) -> bool:
    """For squarefree #N: a homomorphic lift exists iff an automorphic one does.

    Only the hom target is solved; nothing is materialized.
    """
    n_order = problem.context.n_order
    if any(e > 1 for e in modlinalg.factorize(n_order).values()):
        raise NotSquarefree(f"#N = {n_order} is not squarefree")
    return _hom_target(problem).count > 0


def report_to_dict(problem: LiftProblem, report: LiftReport) -> dict:
    """JSON-ready form of a lift report (deterministic for fixed inputs).

    M, the moduli and w come from the problem; the extended matrix of an
    automorphic report is the context's aut_system, which solve_aut_lifts
    has already built.
    """
    context, names = problem.context, problem.pres.names

    def solset(s: SolutionSet) -> dict:
        return {
            "solvable": s.solvable,
            "count": str(s.count),
            "particular": modlinalg.vector_to_strings(s.particular),
            "kernel": [
                {"vector": modlinalg.vector_to_strings(v), "period": str(p)}
                for v, p in s.kernel_basis
            ],
        }

    return {
        "kind": report.kind,
        "generators": list(names),
        "matrix": modlinalg.matrix_to_strings(context.matrix),
        "extended_matrix": (
            modlinalg.matrix_to_strings(context.aut_system.matrix)
            if report.kind == "automorphic"
            else None
        ),
        "moduli": [str(o) for o in context.z_orders],
        "residues": [modlinalg.vector_to_strings(r) for r in problem.residues],
        "targets": [
            {
                "label": tg.label,
                "rhs": [modlinalg.vector_to_strings(r) for r in tg.rhs_blocks],
                "solvable": all(s.solvable for s in tg.solution_sets),
                "count": str(tg.count),
                "solution_sets": [solset(s) for s in tg.solution_sets],
            }
            for tg in report.targets
        ],
        "lift_count": len(report.lifts),
        "lifts": [
            {
                "v": [modlinalg.vector_to_strings(b) for b in lift.v_blocks],
                "images": lift.endo.words(names),
                "automorphic": lift.automorphic,
            }
            for lift in report.lifts
        ],
    }
