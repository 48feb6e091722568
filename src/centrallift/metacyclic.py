"""Metacyclic showcase: Inn(G) is not characteristic in Aut(G).

For G = <x, y | x^(p^(n-1)), y^p, x^y = x^(1+p^(n-2))> with p an odd
prime and n >= 4, this module fits the known 3-generator presentation
of A = Aut(G) (parameters a, j, k are found by search, not hardcoded),
enumerates it as A's engine, ties each element of A to the automorphism
of G with the same images of x and y, identifies Z = Z(A) and I = Inn(G)
inside A, shows that every automorphism of A/Z has exactly p^(n-3)
homomorphic lifts and that all of them are automorphic, and finally
exhibits an automorphism of A moving I.  Every claim is re-verified by
direct engine computation, except three derived facts: Z(A) = Z, since
the LiftContext for (A, Z) checks that z is central and A/Z has trivial
centre; Inn(G) = <conj_x, conj_y>, since g -> conj_g is onto; and the
lift counts of each phi after the first, which are read off the Smith
forms (lifting.count_lifts) and checked as a whole by the order of
Aut(A), found by the oracle's independent search.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from . import engines, lifting, modlinalg, oracle
from .engines import Element, GroupEngine, PermutationEngine, _compose, _perm_inverse, _perm_power
from .lifting import LiftContext
from .presentation import CentralSubgroupSpec, NotCentral, Presentation, QuotientAutSpec
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


@dataclass(frozen=True)
class CaseStudyConfig:
    p: int
    n: int
    order_budget: int = 200  # bound on |Aut(G)| = (p-1)*p^n

    def __post_init__(self):
        if self.p < 3:
            raise InvalidConfig("p must be an odd prime")
        if self.n < 4:
            raise InvalidConfig("n must be >= 4")
        # |Aut(G)| = (p-1)*p^n exceeds both p and 2^n: a p or an n past the
        # budget is refused before p is trial-divided or p^n is formed
        over = f"|Aut(G)| = {self.p - 1}*{self.p}^{self.n} exceeds the budget {self.order_budget}"
        if self.p > self.order_budget or self.n > self.order_budget.bit_length():
            raise InvalidConfig(over)
        # build_aut_A's Aut(G) search tries |G|^2 image pairs
        if self.group_order**2 > oracle.DEFAULT_AUT_BUDGET:
            raise InvalidConfig(
                f"|G|^2 = {self.group_order**2} candidates exceed the Aut(G) "
                f"search budget {oracle.DEFAULT_AUT_BUDGET}"
            )
        if modlinalg.factorize(self.p) != {self.p: 1}:
            raise InvalidConfig("p must be an odd prime")
        if self.aut_order > self.order_budget:
            raise InvalidConfig(over)

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


def build_group(cfg: CaseStudyConfig, pres: Presentation) -> GroupEngine:
    limit = 50 * cfg.group_order
    try:
        engine = engines.todd_coxeter(pres, max_cosets=limit)
    except engines.CosetLimitExceeded:
        what = f"G of order p^n = {cfg.p}^{cfg.n} = {cfg.group_order}: its enumeration"
        raise engines.CosetLimitExceeded(f"{what} passed 50*|G| = {limit} cosets") from None
    _require(engine.order() == cfg.group_order, "group order mismatch")
    return engine


def _conjugation_map(engine: GroupEngine, g: Element) -> tuple[int, ...]:
    # h -> g^-1 h g is an automorphism: extend it from the generators
    ginv, gens = engine.inverse(g), map(engine.generator, range(engine.ngens))
    conj = [engine.multiply(engine.multiply(ginv, x), g) for x in gens]
    return engines.map_images(engine, conj)


def _inner_maps(g_engine: GroupEngine) -> list[tuple[int, ...]]:
    """Inn(G), conjugation by x first, then sorted: the closure of conj_x
    and conj_y, since g -> conj_g maps G onto Inn(G)."""
    conj_x, conj_y = (_conjugation_map(g_engine, g_engine.generator(i)) for i in (0, 1))
    return [conj_x] + [m for m in PermutationEngine([conj_x, conj_y])._perms if m != conj_x]


def _perm_order(perm: tuple[int, ...]) -> int:
    """Order of a permutation: the lcm of its cycle lengths."""
    order, seen = 1, [False] * len(perm)
    for start in range(len(perm)):
        length, x = 0, start
        while not seen[x]:
            seen[x] = True
            x = perm[x]
            length += 1
        if length:
            order = lcm(order, length)
    return order


def build_aut_A(
    cfg: CaseStudyConfig,
    pres_g: Presentation,
    g_engine: GroupEngine,
    inner_maps: list[tuple[int, ...]],
) -> tuple[GroupEngine, AutParams, Presentation, dict[tuple[int, int], int]]:
    """A = Aut(G) as the engine of its fitted presentation, with the fitted
    parameters, the presentation and A's element index by pair.

    The search runs on automorphisms as maps of G's element indices, in the
    oracle's order (sorted by generator images, so by map): x1 among the
    order-p maps of inner_maps, in their order, x2 among the order-p maps,
    x3 among those of maximal order (p-1)p^(n-2), a among the primitive
    roots of p^(n-2) or p^(n-1), j and k in [0, p).
    """
    p, n = cfg.p, cfg.n
    auts = oracle.bf_automorphism_group(pres_g, g_engine)
    _require(len(auts) == cfg.aut_order, "automorphism group order mismatch")

    max_order = (p - 1) * p ** (n - 2)
    small = (p - 1) * p ** (n - 3)
    by_order: dict[int, list[tuple[int, ...]]] = {p: [], max_order: []}
    for aut in auts:  # one map at a time: only the candidates are kept
        m = engines.map_images(g_engine, aut.images)
        by_order.get(_perm_order(m), []).append(m)
    x2_candidates, x3_candidates = by_order[p], by_order[max_order]
    x1_candidates = [m for m in inner_maps if _perm_order(m) == p]
    roots_small = set(modlinalg.primitive_roots(p ** (n - 2)))
    roots_big = set(modlinalg.primitive_roots(p ** (n - 1)))
    enumerated: dict[Presentation, GroupEngine] = {}  # one per (a, j, k)

    def with_exponents(candidates, exp: int, x3, step):
        # (x, e) for each x with x3^-1 x x3 * step^e == x^exp, e in [0, p)
        x3_inv = _perm_inverse(x3)
        found = []
        for x in candidates:
            want, cur = _perm_power(x, exp), _compose(_compose(x3_inv, x), x3)
            for e in range(p):
                if cur == want:
                    found.append((x, e))
                    break
                cur = _compose(cur, step)
        return found

    for a in sorted(roots_small | roots_big):
        a_inv = pow(a % p, -1, p)
        for x3 in x3_candidates:
            step = _perm_power(x3, small)
            pairs1 = with_exponents(x1_candidates, a, x3, step)
            if not pairs1:
                continue
            pairs2 = with_exponents(x2_candidates, a_inv, x3, step)
            for x1, jj in pairs1:
                for x2, kk in pairs2:
                    comm = _compose(
                        _compose(_perm_power(x1, p - 1), _perm_power(x2, p - 1)),
                        _compose(x1, x2),
                    )
                    if comm != step:
                        continue
                    pres = aut_presentation(p, n, a, a_inv, jj, kk)
                    fitted = _verify_params(
                        cfg, g_engine, auts, pres, (x1, x2, x3), enumerated
                    )
                    if fitted is None:
                        continue
                    engine, index = fitted
                    gens = map(engine.generator, range(3))
                    flags = (a in roots_small, a in roots_big)
                    params = AutParams(*gens, a, a_inv, jj, kk, *flags)
                    return engine, params, pres, index
    raise SearchFailed("no (a, j, k, x1, x2, x3) satisfies the presentation")


def _verify_params(
    cfg: CaseStudyConfig,
    g_engine: GroupEngine,
    auts: list,
    pres: Presentation,
    triple: tuple,
    enumerated: dict[Presentation, GroupEngine],
) -> tuple[GroupEngine, dict[tuple[int, int], int]] | None:
    """A, enumerated from the fitted presentation, and A's element index by
    pair (images of x and y); None if the triple does not generate Aut(G).

    The relators must hold at the triple on G's points, so A maps onto
    <triple>; A must have order |Aut(G)|; distinct pairs along A's word
    tree make the map one-to-one, and equal to the oracle's make it onto.
    The enumeration depends only on the presentation, that is on (a, j, k),
    not on the triple: it is made once per presentation, in `enumerated`.
    """
    actions = [m for x in triple for m in (x, _perm_inverse(x))]
    try:
        engines._check_coset_table(pres, actions)
    except AssertionError:
        raise VerificationFailed("a fitted presentation relator does not hold") from None
    engine = enumerated.get(pres)
    if engine is None:
        limit, order = 100 * cfg.aut_order, cfg.aut_order
        try:  # HLT needs ~54|A| cosets at p = 5
            engine = engines.todd_coxeter(pres, max_cosets=limit)
            cause = f"it presents a group of order {engine.order()}, not |Aut(G)| = {order}"
        except engines.CosetLimitExceeded:
            engine, cause = None, f"its enumeration passed 100*|A| = {limit} cosets"
        _require(
            engine is not None and engine.order() == order,
            f"the fitted presentation does not present Aut(G): {cause}",
        )
        enumerated[pres] = engine
    # the triple's actions on G's points carry x and y along A's word tree
    x, y = (engines._walk_tree(engine, actions, g) for g in g_engine._gen_indices)
    index = {pair: i for i, pair in enumerate(zip(x, y))}
    if len(index) < len(auts):
        return None
    _require(
        sorted(index) == [aut.key() for aut in auts],
        "fitted triple does not close to the oracle's automorphisms",
    )
    return engine, index


def verify_center(cfg: CaseStudyConfig, context: LiftContext) -> tuple[Element, ...]:
    """Z(A) = Z = <x3^(p-1)>, of order p^(n-2), read off the context for (A, Z).

    The context checked that z is central, so Z <= Z(A).  A c in Z(A) maps
    into the centre of A/Z, which is required to be trivial, so c is in Z.
    """
    _require(len(engines.center(context.quotient)) == 1, "A/Z has a non-trivial centre")
    _require(context.n_order == cfg.p ** (cfg.n - 2), "|Z(A)| != p^(n-2)")
    return context.n_elements


def verify_inner(
    cfg: CaseStudyConfig,
    g_engine: GroupEngine,
    a_engine: GroupEngine,
    params: AutParams,
    inner_maps: list[tuple[int, ...]],
    a_index: dict[tuple[int, int], int],
) -> tuple[Element, ...]:
    """Inn(G) as conjugations, found in A by pair; asserts Inn(G) = <x1,
    x3^((p-1)p^(n-3))>, and |Inn(G)| * |Z(G)| = |G| by G's centralizer rows."""
    x, y = g_engine._gen_indices
    inner = tuple(sorted(a_engine.element(a_index[m[x], m[y]]) for m in inner_maps))
    span = engines.subgroup_closure(
        a_engine,
        (params.x1, a_engine.power(params.x3, (cfg.p - 1) * cfg.p ** (cfg.n - 3))),
    )
    _require(span == inner, "Inn(G) does not match <x1, x3^((p-1)p^(n-3))>")
    _require(
        len(inner) * len(engines.center(g_engine)) == g_engine.order(),
        "|Inn(G)| * |Z(G)| != |G|",
    )
    return inner


def verify_commutator_structure(
    cfg: CaseStudyConfig,
    a_engine: GroupEngine,
    params: AutParams,
    center: tuple[Element, ...],
    k_elems: set[Element],
) -> None:
    """K = <x1,x2> facts: Z(K) = Z cap K and K cap Z = <[x1,x2]> = <z^(p^(n-3))>.

    An element of K is central in K iff it commutes with A's generators x1, x2.
    """
    z_cap_k = k_elems.intersection(center)
    z_of_k = k_elems.intersection(engines.centralizer(a_engine, (0, 1)))
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
    a_engine: GroupEngine,
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
    aut_of_a_count: int


def verify_pi_surjective(
    cfg: CaseStudyConfig,
    params: AutParams,
    context: LiftContext,
    k_elems: set[Element],
) -> SurjectivityReport:
    """Every phi in Aut(A/Z) lifts to exactly p^(n-3) automorphisms of A.

    Each phi's homomorphic and automorphic lifts are counted from the
    Smith forms (lifting.count_lifts), and the counts must be p^(n-3) and
    equal.  Only the first phi's lifts are materialized and tested by
    is_automorphism, and they must agree with its counts.  Also checks the
    residue pattern (rows for x1^p, x2^p, x3^e vanish; the commutation
    rows are divisible by p^(n-3)) and, against the oracle's Aut(A)
    search, the order count |Aut(A)| = p^(n-3) * |Aut(A/Z)|.
    """
    p, n = cfg.p, cfg.n
    fiber = p ** (n - 3)
    a_engine = context.engine
    phis = oracle.bf_quotient_auts(context)
    for index, spec in enumerate(phis):
        adjusted = _adjust_into_k(cfg, a_engine, params, spec, k_elems)
        problem = context.problem(adjusted)
        w = problem.residues[0]
        _require(
            w[0] == 0 and w[1] == 0 and w[2] == 0,
            "residues of the power relators do not vanish",
        )
        _require(
            all(w[i] % fiber == 0 for i in (3, 4, 5)),
            "commutation residues are not divisible by p^(n-3)",
        )
        hom, aut = lifting.count_lifts(problem)
        if index == 0:
            lifts = lifting.solve_hom_lifts(problem).lifts
            _require(
                (len(lifts), sum(lift.automorphic for lift in lifts)) == (hom, aut),
                "the first phi's materialized lifts disagree with its Smith-form counts",
            )
        _require(hom == fiber, f"phi has {hom} homomorphic lifts, expected {fiber}")
        _require(aut == hom, "a homomorphic lift failed to be automorphic")
    # the config already gates |A|, so allow the full |A|^3 candidate space
    aut_a = oracle.bf_automorphism_group(
        context.pres, a_engine, budget=max(oracle.DEFAULT_AUT_BUDGET, a_engine.order() ** 3)
    )
    _require(
        len(aut_a) == fiber * len(phis),
        "|Aut(A)| != p^(n-3) * |Aut(A/Z)|",
    )
    return SurjectivityReport(quotient_aut_count=len(phis), aut_of_a_count=len(aut_a))


@dataclass(frozen=True)
class WitnessReport:
    phi: QuotientAutSpec
    psi: lifting.Endomorphism


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
    quotient, proj = context.quotient, context.projection
    iz = set(engines.subgroup_closure(a_engine, tuple(inner) + tuple(center)))
    iz_q = {proj[el.index] for el in iz}
    phi_images = [quotient.element(proj[x.index]) for x in problem.xbar]
    phi_map = engines.map_images(quotient, phi_images)
    moved_q = {phi_map[i] for i in iz_q}
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
    _require(image_set(inner_set) != inner_set, "psi fixes Inn(G)")
    return WitnessReport(phi=phi, psi=psi)


@dataclass(frozen=True)
class CaseStudyResult:
    cfg: CaseStudyConfig
    g_engine: GroupEngine
    a_engine: GroupEngine
    a_index: dict[tuple[int, int], int]  # A's element index by pair (images of x, y)
    params: AutParams
    pres_a: Presentation
    center: tuple[Element, ...]
    inner: tuple[Element, ...]
    quotient_order: int
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
            "quotient_center_trivial": True,  # verify_center requires it
            "quotient_aut_count": self.surjectivity.quotient_aut_count,
            # verify_pi_surjective requires both for every phi
            "lifts_per_phi": self.cfg.p ** (self.cfg.n - 3),
            "all_lifts_automorphic": True,
            "aut_of_aut_order": self.surjectivity.aut_of_a_count,
            "witness_phi": [
                format_word(w, names) for w in self.witness.phi.rep_words
            ],
            "witness_psi": self.witness.psi.words(names),
            "inner_not_characteristic": True,  # noncharacteristic_witness requires it
        }


def run_case_study(cfg: CaseStudyConfig) -> CaseStudyResult:
    """Full pipeline; raises VerificationFailed on any failed check."""
    pres_g = metacyclic_presentation(cfg)
    g_engine = build_group(cfg, pres_g)
    inner_maps = _inner_maps(g_engine)
    a_engine, params, pres_a, a_index = build_aut_A(cfg, pres_g, g_engine, inner_maps)
    # LiftContext checks that z is central and |A/Z| * |Z| = |A|; a z that
    # is not central is a failed claim about A here, not bad input
    try:
        context = LiftContext(pres_a, a_engine, _central_spec(cfg))
    except NotCentral as exc:
        raise VerificationFailed(f"Z(A): {exc}") from None
    center = verify_center(cfg, context)
    inner = verify_inner(cfg, g_engine, a_engine, params, inner_maps, a_index)
    k_elems = set(engines.subgroup_closure(a_engine, (params.x1, params.x2)))
    verify_commutator_structure(cfg, a_engine, params, center, k_elems)

    surjectivity = verify_pi_surjective(cfg, params, context, k_elems)
    witness = noncharacteristic_witness(params, context, inner)
    return CaseStudyResult(
        cfg=cfg,
        g_engine=g_engine,
        a_engine=a_engine,
        a_index=a_index,
        params=params,
        pres_a=pres_a,
        center=center,
        inner=inner,
        quotient_order=context.quotient.order(),
        surjectivity=surjectivity,
        witness=witness,
    )
