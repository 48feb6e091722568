"""Metacyclic showcase: Inn(G) is not characteristic in Aut(G).

For G = <x, y | x^(p^(n-1)), y^p, x^y = x^(1+p^(n-2))> with p an odd
prime and n >= 4, this module builds A = Aut(G) as a composition engine,
fits the known 3-generator presentation of A (parameters a, j, k are
found by search, not hardcoded), identifies Z = Z(A) and I = Inn(G)
inside A, shows that every automorphism of A/Z has exactly p^(n-3)
homomorphic lifts and that all of them are automorphic, and finally
exhibits an automorphism of A moving I.  Every claim is re-verified by
direct engine computation.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import engines, lifting, oracle
from .engines import Element, GroupEngine, PermutationEngine
from .lifting import LiftContext
from .presentation import CentralSubgroupSpec, Presentation, QuotientAutSpec
from .words import FreeWord, concat, evaluate, format_word


class InvalidConfig(ValueError):
    """The case-study parameters are out of range."""


class SearchFailed(RuntimeError):
    """No parameter assignment satisfies the automorphism-group presentation."""


class VerificationFailed(AssertionError):
    """An engine-level check of a structural claim failed."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise VerificationFailed(message)


def _multiplicative_order(a: int, m: int) -> int:
    if m == 1:
        return 1
    from math import gcd

    if gcd(a, m) != 1:
        raise ValueError("not a unit")
    k, cur = 1, a % m
    while cur != 1:
        cur = (cur * a) % m
        k += 1
    return k


def _primitive_roots(m: int) -> list[int]:
    from math import gcd

    phi = sum(1 for x in range(1, m) if gcd(x, m) == 1)
    return [
        a
        for a in range(2, m)
        if gcd(a, m) == 1 and _multiplicative_order(a, m) == phi
    ]


@dataclass(frozen=True)
class CaseStudyConfig:
    p: int
    n: int
    order_budget: int = 200  # bound on |Aut(G)| = (p-1)*p^n

    def __post_init__(self):
        if self.p < 3 or lifting._smallest_prime_factor(self.p) != self.p:
            raise InvalidConfig("p must be an odd prime")
        if self.n < 4:
            raise InvalidConfig("n must be >= 4")
        if self.aut_order > self.order_budget:
            raise InvalidConfig(
                f"|Aut(G)| = {self.aut_order} exceeds the budget {self.order_budget}"
            )

    @property
    def group_order(self) -> int:
        return self.p**self.n

    @property
    def aut_order(self) -> int:
        return (self.p - 1) * self.p**self.n


def metacyclic_presentation(cfg: CaseStudyConfig) -> Presentation:
    """<x, y | x^(p^(n-1)), y^p, y^-1 x y x^-(1+p^(n-2))>."""
    p, n = cfg.p, cfg.n
    return Presentation(
        names=("x", "y"),
        relators=(
            FreeWord(((0, p ** (n - 1)),)),
            FreeWord(((1, p),)),
            FreeWord(((1, -1), (0, 1), (1, 1), (0, -(1 + p ** (n - 2))))),
        ),
    )


def aut_presentation(p: int, n: int, a: int, a_inv: int, j: int, k: int) -> Presentation:
    """3-generator presentation of Aut(G) with parameters (a, j, k)."""
    big = (p - 1) * p ** (n - 2)
    small = (p - 1) * p ** (n - 3)
    return Presentation(
        names=("x1", "x2", "x3"),
        relators=(
            FreeWord(((0, p),)),
            FreeWord(((1, p),)),
            FreeWord(((2, big),)),
            FreeWord(((0, -a), (2, -1), (0, 1), (2, 1 + j * small))),
            FreeWord(((1, -a_inv), (2, -1), (1, 1), (2, 1 + k * small))),
            FreeWord(((0, -1), (1, -1), (0, 1), (1, 1), (2, -small))),
        ),
    )


@dataclass(frozen=True)
class AutParams:
    """Fitted generators and parameters of the Aut(G) presentation."""

    x1: Element
    x2: Element
    x3: Element
    a: int
    a_inv: int
    j: int
    k: int
    a_is_proot_mod_pn2: bool
    a_is_proot_mod_pn1: bool

    def triple(self) -> tuple[Element, Element, Element]:
        return (self.x1, self.x2, self.x3)


def build_group(cfg: CaseStudyConfig, pres: Presentation) -> GroupEngine:
    engine = engines.todd_coxeter(pres, max_cosets=50 * cfg.group_order)
    _require(engine.order() == cfg.group_order, "group order mismatch")
    return engine


def _conjugation_map(engine: GroupEngine, g: Element) -> tuple[int, ...]:
    gi = engine.check(g)
    ginv = engine._inv_index(gi)
    return tuple(
        engine._mult_index(engine._mult_index(ginv, h), gi)
        for h in range(engine.order())
    )


def build_aut_A(
    cfg: CaseStudyConfig, pres_g: Presentation, g_engine: GroupEngine
) -> tuple[PermutationEngine, AutParams]:
    """Aut(G) as a composition engine, generated by the fitted triple.

    Automorphisms are permutations of G's element indices; the engine's
    generators are the fitted (x1, x2, x3).  The parameter search tries
    primitive roots a of both p^(n-2) and p^(n-1), j and k in [0, p),
    x1 among order-p inner automorphisms (conjugation by x first) and x3
    among elements of maximal order (p-1)p^(n-2).
    """
    p, n = cfg.p, cfg.n
    auts = oracle.bf_automorphism_group(pres_g, g_engine)
    _require(auts.order == cfg.aut_order, "automorphism group order mismatch")

    maps = sorted(auts.maps)
    seed = PermutationEngine(_greedy_generators(maps))
    _require(seed.order() == len(maps), "greedy generators do not close to Aut(G)")

    order_of = {
        el.index: engines.element_order(seed, el) for el in seed.elements()
    }
    inner_maps = sorted(
        {_conjugation_map(g_engine, g) for g in g_engine.elements()}
    )
    conj_x = seed.element_from_perm(_conjugation_map(g_engine, g_engine.generator(0)))
    inner = [seed.element_from_perm(m) for m in inner_maps]

    max_order = (p - 1) * p ** (n - 2)
    small = (p - 1) * p ** (n - 3)
    x3_candidates = [el for el in seed.elements() if order_of[el.index] == max_order]
    x1_candidates = [
        el
        for el in [conj_x] + sorted(set(inner) - {conj_x})
        if order_of[el.index] == p
    ]
    x2_candidates = [el for el in seed.elements() if order_of[el.index] == p]

    a_candidates: list[tuple[int, bool, bool]] = []
    roots_small = set(_primitive_roots(p ** (n - 2)))
    roots_big = set(_primitive_roots(p ** (n - 1)))
    for a in sorted(roots_small | roots_big):
        a_candidates.append((a, a in roots_small, a in roots_big))

    def solve_exponent(x3: Element, conj: Element, base: Element, exp: int):
        # conj * x3^(exp_j * small) == base^exp for some exp_j in [0, p)
        want = seed.power(base, exp)
        step = seed.power(x3, small)
        cur = conj
        for jj in range(p):
            if cur == want:
                return jj
            cur = seed.multiply(cur, step)
        return None

    for a, proot_small, proot_big in a_candidates:
        a_inv = pow(a % p, -1, p)
        for x3 in x3_candidates:
            x3_inv = seed.inverse(x3)
            pairs1 = []
            for x1 in x1_candidates:
                conj = seed.multiply(seed.multiply(x3_inv, x1), x3)
                jj = solve_exponent(x3, conj, x1, a)
                if jj is not None:
                    pairs1.append((x1, jj))
            if not pairs1:
                continue
            pairs2 = []
            for x2 in x2_candidates:
                conj = seed.multiply(seed.multiply(x3_inv, x2), x3)
                kk = solve_exponent(x3, conj, x2, a_inv)
                if kk is not None:
                    pairs2.append((x2, kk))
            comm_target = seed.power(x3, small)
            for x1, jj in pairs1:
                for x2, kk in pairs2:
                    comm = seed.multiply(
                        seed.multiply(seed.inverse(x1), seed.inverse(x2)),
                        seed.multiply(x1, x2),
                    )
                    if comm != comm_target:
                        continue
                    if not engines.generates(seed, (x1, x2, x3)):
                        continue
                    # both engines number the same maps in sorted order
                    final = PermutationEngine([maps[x.index] for x in (x1, x2, x3)])
                    _require(
                        final.order() == seed.order(),
                        "fitted triple does not close to Aut(G)",
                    )
                    params = AutParams(
                        x1=final.element(x1.index),
                        x2=final.element(x2.index),
                        x3=final.element(x3.index),
                        a=a,
                        a_inv=a_inv,
                        j=jj,
                        k=kk,
                        a_is_proot_mod_pn2=proot_small,
                        a_is_proot_mod_pn1=proot_big,
                    )
                    _verify_params(cfg, final, params)
                    return final, params
    raise SearchFailed("no (a, j, k, x1, x2, x3) satisfies the presentation")


def _greedy_generators(maps: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    # grow a generating set element by element until it spans all maps
    chosen: list[tuple[int, ...]] = []
    identity = maps[0]
    have = {identity}
    for m in maps:
        if m in have:
            continue
        chosen.append(m)
        trial = PermutationEngine(chosen)
        have = set(trial._perms)
        if len(have) == len(maps):
            break
    if set(maps) != have:
        raise SearchFailed("could not regenerate the automorphism group")
    return chosen


def _verify_params(cfg: CaseStudyConfig, engine: PermutationEngine, params: AutParams):
    pres = aut_presentation(cfg.p, cfg.n, params.a, params.a_inv, params.j, params.k)
    triple = params.triple()
    for rel in pres.relators:
        _require(
            evaluate(rel, triple, engine) == engine.identity(),
            "a fitted presentation relator does not hold",
        )
    _require(
        engines.generates(engine, triple),
        "fitted triple does not generate Aut(G)",
    )
    modulus = cfg.p ** (cfg.n - 2) if params.a_is_proot_mod_pn2 else cfg.p ** (cfg.n - 1)
    phi = modulus - modulus // cfg.p
    _require(
        _multiplicative_order(params.a, modulus) == phi,
        "parameter a is not a primitive root of the recorded modulus",
    )


def verify_center(
    cfg: CaseStudyConfig, a_engine: PermutationEngine, params: AutParams
) -> tuple[Element, ...]:
    """Z(A) by exhaustive commutation; asserts Z = <x3^(p-1)> of order p^(n-2)."""
    center = tuple(
        el for el in a_engine.elements() if engines.is_central(a_engine, el)
    )
    z = a_engine.power(params.x3, cfg.p - 1)
    _require(
        engines.subgroup_closure(a_engine, (z,)) == center,
        "Z(A) is not generated by x3^(p-1)",
    )
    _require(len(center) == cfg.p ** (cfg.n - 2), "|Z(A)| != p^(n-2)")
    return center


def verify_inner(
    cfg: CaseStudyConfig,
    g_engine: GroupEngine,
    a_engine: PermutationEngine,
    params: AutParams,
) -> tuple[Element, ...]:
    """Inn(G) as conjugations; asserts Inn(G) = <x1, x3^((p-1)p^(n-3))>."""
    inner = tuple(
        sorted(
            {
                a_engine.element_from_perm(_conjugation_map(g_engine, g))
                for g in g_engine.elements()
            }
        )
    )
    span = engines.subgroup_closure(
        a_engine,
        (params.x1, a_engine.power(params.x3, (cfg.p - 1) * cfg.p ** (cfg.n - 3))),
    )
    _require(span == inner, "Inn(G) does not match <x1, x3^((p-1)p^(n-3))>")
    g_center = sum(1 for el in g_engine.elements() if engines.is_central(g_engine, el))
    _require(
        len(inner) * g_center == g_engine.order(),
        "|Inn(G)| * |Z(G)| != |G|",
    )
    return inner


def verify_commutator_structure(
    cfg: CaseStudyConfig,
    a_engine: PermutationEngine,
    params: AutParams,
    center: tuple[Element, ...],
    k_elems: set[Element],
) -> None:
    """K = <x1,x2> facts: Z(K) = Z cap K and K cap Z = <[x1,x2]> = <z^(p^(n-3))>."""
    center_set = set(center)
    z_cap_k = {el for el in k_elems if el in center_set}
    z_of_k = {
        el
        for el in k_elems
        if all(
            a_engine.multiply(el, other) == a_engine.multiply(other, el)
            for other in k_elems
        )
    }
    _require(z_of_k == z_cap_k, "Z(K) != Z cap K")
    comm = a_engine.multiply(
        a_engine.multiply(a_engine.inverse(params.x1), a_engine.inverse(params.x2)),
        a_engine.multiply(params.x1, params.x2),
    )
    z = a_engine.power(params.x3, cfg.p - 1)
    _require(
        comm == a_engine.power(z, cfg.p ** (cfg.n - 3)),
        "[x1, x2] != z^(p^(n-3))",
    )
    _require(
        set(engines.subgroup_closure(a_engine, (comm,))) == z_cap_k,
        "K cap Z != <[x1, x2]>",
    )


def _central_spec(cfg: CaseStudyConfig) -> CentralSubgroupSpec:
    return CentralSubgroupSpec((FreeWord(((2, cfg.p - 1),)),))


def _adjust_into_k(
    cfg: CaseStudyConfig,
    a_engine: PermutationEngine,
    params: AutParams,
    spec: QuotientAutSpec,
    k_elems: set[Element],
) -> QuotientAutSpec:
    """Shift the x1/x2 representatives by central factors into K = <x1,x2>.

    Always possible because the image cosets lie in the Sylow subgroup
    KZ/Z; makes the residue divisibility pattern visible.
    """
    gens = [a_engine.generator(i) for i in range(3)]
    z_order = cfg.p ** (cfg.n - 2)
    words = list(spec.rep_words)
    for i in (0, 1):
        value = evaluate(words[i], gens, a_engine)
        for c in range(z_order):
            shifted = a_engine.multiply(
                value, a_engine.power(params.x3, (cfg.p - 1) * c)
            )
            if shifted in k_elems:
                if c:
                    words[i] = concat(words[i], FreeWord(((2, (cfg.p - 1) * c),)))
                break
        else:
            raise VerificationFailed("representative cannot be shifted into K")
    return QuotientAutSpec(tuple(words))


@dataclass(frozen=True)
class SurjectivityReport:
    quotient_aut_count: int
    lifts_per_phi: int
    all_automorphic: bool
    aut_of_a_count: int


def verify_pi_surjective(
    cfg: CaseStudyConfig,
    params: AutParams,
    context: LiftContext,
    k_elems: set[Element],
) -> SurjectivityReport:
    """Every phi in Aut(A/Z) lifts to exactly p^(n-3) automorphisms of A.

    Also checks the residue pattern (rows for x1^p, x2^p, x3^e vanish;
    the commutation rows are divisible by p^(n-3)) and the order count
    |Aut(A)| = p^(n-3) * |Aut(A/Z)|.
    """
    p, n = cfg.p, cfg.n
    fiber = p ** (n - 3)
    a_engine = context.engine
    phis = oracle.bf_quotient_auts(context)
    for spec in phis:
        adjusted = _adjust_into_k(cfg, a_engine, params, spec, k_elems)
        problem = context.problem(adjusted)
        report = lifting.solve_hom_lifts(problem)
        w = report.residues[0]
        _require(
            w[0] == 0 and w[1] == 0 and w[2] == 0,
            "residues of the power relators do not vanish",
        )
        _require(
            all(w[i] % fiber == 0 for i in (3, 4, 5)),
            "commutation residues are not divisible by p^(n-3)",
        )
        _require(
            len(report.lifts) == fiber,
            f"phi has {len(report.lifts)} homomorphic lifts, expected {fiber}",
        )
        _require(
            all(lift.automorphic for lift in report.lifts),
            "a homomorphic lift failed to be automorphic",
        )
    # the config already gates |A|, so allow the full |A|^3 candidate space
    aut_a = oracle.bf_automorphism_group(
        context.pres, a_engine, budget=max(oracle.DEFAULT_AUT_BUDGET, a_engine.order() ** 3)
    )
    _require(
        aut_a.order == fiber * len(phis),
        "|Aut(A)| != p^(n-3) * |Aut(A/Z)|",
    )
    return SurjectivityReport(
        quotient_aut_count=len(phis),
        lifts_per_phi=fiber,
        all_automorphic=True,
        aut_of_a_count=aut_a.order,
    )


@dataclass(frozen=True)
class WitnessReport:
    phi: QuotientAutSpec
    psi: lifting.Endomorphism
    inner: tuple[Element, ...]
    verdict: bool


def noncharacteristic_witness(
    params: AutParams, context: LiftContext, inner: tuple[Element, ...]
) -> WitnessReport:
    """The map (x1,x2,x3) -> (x2^(a^-1), x1^a, x3^-1) on A/Z lifts to an
    automorphism of A that moves Inn(G); hence Inn(G) is not characteristic."""
    phi = QuotientAutSpec(
        (
            FreeWord(((1, params.a_inv),)),
            FreeWord(((0, params.a),)),
            FreeWord(((2, -1),)),
        )
    )
    problem = context.problem(phi)  # validates phi

    a_engine, center = context.engine, context.n_elements
    quotient = context.quotient
    iz = set(engines.subgroup_closure(a_engine, tuple(inner) + tuple(center)))
    iz_q = {quotient.project(el) for el in iz}
    phi_images = [quotient.project(x) for x in problem.xbar]
    phi_map = engines.map_images(quotient, phi_images)
    moved_q = {quotient.element(phi_map[el.index]) for el in iz_q}
    _require(moved_q != iz_q, "phi fixes IZ/Z")

    report = lifting.solve_aut_lifts(problem, lifting.solve_hom_lifts(problem))
    _require(report.lifts, "witness phi has no automorphic lift")
    psi = report.lifts[0].endo
    psi_map = engines.map_images(a_engine, psi.images)

    def image_set(subset):
        return {a_engine.element(psi_map[el.index]) for el in subset}

    _require(image_set(set(center)) == set(center), "psi does not fix Z")
    _require(image_set(iz) != iz, "psi fixes IZ")
    inner_set = set(inner)
    verdict = image_set(inner_set) != inner_set
    _require(verdict, "psi fixes Inn(G)")
    return WitnessReport(phi=phi, psi=psi, inner=inner, verdict=verdict)


@dataclass(frozen=True)
class CaseStudyResult:
    cfg: CaseStudyConfig
    pres_g: Presentation
    g_engine: GroupEngine
    a_engine: PermutationEngine
    params: AutParams
    pres_a: Presentation
    center: tuple[Element, ...]
    inner: tuple[Element, ...]
    quotient_order: int
    quotient_center_trivial: bool
    surjectivity: SurjectivityReport
    witness: WitnessReport

    def to_dict(self) -> dict:
        names = self.pres_a.names
        return {
            "p": self.cfg.p,
            "n": self.cfg.n,
            "a": self.params.a,
            "a_inverse_mod_p": self.params.a_inv,
            "a_primitive_root_mod_p^(n-2)": self.params.a_is_proot_mod_pn2,
            "a_primitive_root_mod_p^(n-1)": self.params.a_is_proot_mod_pn1,
            "j": self.params.j,
            "k": self.params.k,
            "group_order": self.g_engine.order(),
            "aut_order": self.a_engine.order(),
            "center_order": len(self.center),
            "inner_order": len(self.inner),
            "quotient_order": self.quotient_order,
            "quotient_center_trivial": self.quotient_center_trivial,
            "quotient_aut_count": self.surjectivity.quotient_aut_count,
            "lifts_per_phi": self.surjectivity.lifts_per_phi,
            "all_lifts_automorphic": self.surjectivity.all_automorphic,
            "aut_of_aut_order": self.surjectivity.aut_of_a_count,
            "witness_phi": [
                format_word(w, names) for w in self.witness.phi.rep_words
            ],
            "witness_psi": [
                format_word(engines.word_for_element(self.a_engine, im), names)
                for im in self.witness.psi.images
            ],
            "inner_not_characteristic": self.witness.verdict,
        }


def run_case_study(cfg: CaseStudyConfig) -> CaseStudyResult:
    """Full pipeline; raises VerificationFailed on any failed check."""
    pres_g = metacyclic_presentation(cfg)
    g_engine = build_group(cfg, pres_g)
    a_engine, params = build_aut_A(cfg, pres_g, g_engine)
    pres_a = aut_presentation(cfg.p, cfg.n, params.a, params.a_inv, params.j, params.k)
    center = verify_center(cfg, a_engine, params)
    inner = verify_inner(cfg, g_engine, a_engine, params)
    k_elems = set(engines.subgroup_closure(a_engine, (params.x1, params.x2)))
    verify_commutator_structure(cfg, a_engine, params, center, k_elems)

    # built only now, so the exhaustive centre check above fails first
    context = LiftContext(pres_a, a_engine, _central_spec(cfg))
    quotient = context.quotient
    quotient_center = [
        el for el in quotient.elements() if engines.is_central(quotient, el)
    ]
    _require(
        quotient.order() == a_engine.order() // len(center),
        "|A/Z| mismatch",
    )

    surjectivity = verify_pi_surjective(cfg, params, context, k_elems)
    witness = noncharacteristic_witness(params, context, inner)
    return CaseStudyResult(
        cfg=cfg,
        pres_g=pres_g,
        g_engine=g_engine,
        a_engine=a_engine,
        params=params,
        pres_a=pres_a,
        center=center,
        inner=inner,
        quotient_order=quotient.order(),
        quotient_center_trivial=len(quotient_center) == 1,
        surjectivity=surjectivity,
        witness=witness,
    )
