"""Concrete finite groups in one representation: generator steps.

An engine numbers its elements 0..order-1 (0 is the identity), hands out
opaque Element handles (engine + index) and stores only the action of
each generator and its inverse on the indices.  Column j of the Cayley
table (i -> i*j) is built on first use from the column of j's parent in
the BFS word tree, so hot loops that multiply by a few fixed elements
build only their columns.  Engines come from todd_coxeter (the regular
action on the coset table of a presentation: G, G/N and Aut(G)) and
PermutationEngine (a small permutation group closed from its
generators, as sorted permutations).  Lazy caches only ever add
columns, inverses and powers, so concurrent readers are safe.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence, TYPE_CHECKING

from .words import FreeWord, reduce as reduce_word

if TYPE_CHECKING:  # pragma: no cover
    from .presentation import Presentation


DEFAULT_MAX_COSETS = 50000


class EngineMismatch(TypeError):
    """Elements of two different engines were mixed."""


class CosetLimitExceeded(RuntimeError):
    """Coset enumeration outgrew its limit (infinite group or limit too small)."""


class Element:
    """Opaque group element: equality, hashing and a total order per engine."""

    __slots__ = ("engine", "index")

    def __init__(self, engine: "GroupEngine", index: int):
        self.engine = engine
        self.index = index

    def __eq__(self, other):
        return (
            isinstance(other, Element)
            and other.engine is self.engine
            and other.index == self.index
        )

    def __hash__(self):
        return hash((id(self.engine), self.index))

    def __lt__(self, other):
        if not isinstance(other, Element) or other.engine is not self.engine:
            raise EngineMismatch("cannot order elements of different engines")
        return self.index < other.index

    def __repr__(self):
        return f"Element({self.index})"


class GroupEngine:
    """A finite group given by its generator steps on element indices.

    steps[2g][i] is the index of i*x_g and steps[2g+1][i] the index of
    i*x_g^-1; index 0 is the identity.
    """

    def __init__(self, order: int, steps: list[list[int]]):
        self._order = order
        self._steps = steps
        self._gen_indices = [step[0] for step in steps[0::2]]
        self._columns: list[list[int] | None] = [None] * order
        self._columns[0] = list(range(order))
        self._inverses = [-1] * order  # -1: not yet known
        self._inverses[0] = 0
        self._powers: dict[int, dict[int, int]] = {}  # k -> {i: index of i**k}
        self._tree: tuple[list[int], list[int], list[int], list[int]] | None = None

    def check(self, el: Element) -> int:
        if not isinstance(el, Element) or el.engine is not self:
            raise EngineMismatch("element belongs to a different engine")
        return el.index

    def element(self, index: int) -> Element:
        if not 0 <= index < self._order:
            raise IndexError(f"element index {index} out of range")
        return Element(self, index)

    def identity(self) -> Element:
        return Element(self, 0)

    def multiply(self, a: Element, b: Element) -> Element:
        return Element(self, self._mult_index(self.check(a), self.check(b)))

    def inverse(self, a: Element) -> Element:
        return Element(self, self._inv_index(self.check(a)))

    def generator(self, i: int) -> Element:
        return Element(self, self._gen_indices[i])

    @property
    def ngens(self) -> int:
        return len(self._gen_indices)

    def order(self) -> int:
        return self._order

    def elements(self) -> list[Element]:
        return [Element(self, i) for i in range(self._order)]

    def power(self, a: Element, k: int) -> Element:
        return Element(self, self._power_index(self.check(a), k))

    def _power_index(self, idx: int, k: int) -> int:
        """Index of idx**k, memoized per exponent like the inverses.

        A miss runs square-and-multiply; negative k goes through the
        inverse.  The last square is skipped, so x^1 touches no column.
        """
        try:
            return self._powers[k][idx]
        except KeyError:
            power = self._square_and_multiply(idx, k)
            self._powers.setdefault(k, {})[idx] = power
            return power

    def _square_and_multiply(self, idx: int, k: int) -> int:
        if k < 0:
            idx = self._inv_index(idx)
            k = -k
        mult = self._mult_index
        acc = 0  # identity index
        while k:
            if k & 1:
                acc = idx if acc == 0 else mult(acc, idx)
            k >>= 1
            if k:
                idx = mult(idx, idx)
        return acc

    def _mult_index(self, i: int, j: int) -> int:
        return (self._columns[j] or self._column(j))[i]

    def _inv_index(self, i: int) -> int:
        """Index of i's inverse: column i is scanned once, and the pair
        is stored both ways."""
        inv = self._inverses[i]
        if inv < 0:
            inv = self._column(i).index(0)
            self._inverses[i] = inv
            self._inverses[inv] = i
        return inv

    def _column(self, j: int) -> list[int]:
        """Column j of the Cayley table, building the missing columns on
        j's word-tree path from the nearest built ancestor down; a loop,
        not recursion, since a cyclic group's tree is order/2 deep."""
        col = self._columns[j]
        if col is None:
            parent, via, _, _ = self._word_tree()
            path = []
            while col is None:
                path.append(j)
                j = parent[j]
                col = self._columns[j]
            for k in reversed(path):
                step = self._steps[via[k]]
                col = [step[x] for x in col]
                self._columns[k] = col
        return col

    # Cayley-graph BFS tree rooted at the identity.  via[i] is the step
    # from i's parent to i: step 2g is x_g and 2g+1 is x_g^-1, an order
    # that also fixes the lexicographic order used for shortest words.
    # The tree is (parent, via, BFS order, the steps that occur in via).
    def _word_tree(self):
        if self._tree is None:
            parent = [-1] * self._order
            parent[0] = 0  # the root: no walk up the tree reads it
            via = [-1] * self._order
            used = [False] * len(self._steps)
            order = [0]
            for cur in order:  # grows while it is walked
                for s, step in enumerate(self._steps):
                    nxt = step[cur]
                    if parent[nxt] == -1:
                        parent[nxt] = cur
                        via[nxt] = s
                        used[s] = True
                        order.append(nxt)
            if len(order) != self._order:
                raise AssertionError("generators do not generate the engine")
            self._tree = (parent, via, order, [s for s, u in enumerate(used) if u])
        return self._tree


def _compose(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    # right action: apply a, then b; a list comprehension beats both a
    # generator and map(b.__getitem__, a), whose slot wrapper is slow on tuples
    return tuple([b[x] for x in a])


def _perm_power(perm: Sequence[int], k: int) -> tuple[int, ...]:
    """perm^k for k >= 0 by square-and-multiply (x^243 costs 8
    compositions, not 243)."""
    acc = tuple(range(len(perm)))
    while k:
        if k & 1:
            acc = _compose(acc, perm)
        k >>= 1
        if k:
            perm = _compose(perm, perm)
    return acc


def _perm_inverse(perm: Sequence[int]) -> list[int]:
    return sorted(range(len(perm)), key=perm.__getitem__)


class PermutationEngine(GroupEngine):
    """Finite group of permutations of {0..n-1}, closed from its generators.

    Elements are numbered in sorted order of their permutation tuples, so
    index 0 is the identity and the numbering does not depend on the
    generating set.
    """

    def __init__(self, generator_perms: Sequence[tuple[int, ...]]):
        if not generator_perms:
            raise ValueError("need at least one generator permutation")
        size = len(generator_perms[0])
        gens = [tuple(p) for p in generator_perms]
        for p in gens:
            if len(p) != size or sorted(p) != list(range(size)):
                raise ValueError("generator is not a permutation of the right degree")
        identity = tuple(range(size))
        elems = [identity]
        seen = {identity}
        for cur in elems:  # grows while it is walked
            for g in gens:
                nxt = _compose(cur, g)
                if nxt not in seen:
                    seen.add(nxt)
                    elems.append(nxt)
        self._perms = sorted(elems)
        index = {p: i for i, p in enumerate(self._perms)}
        steps = []
        for g in gens:
            forward = [index[_compose(p, g)] for p in self._perms]
            steps += [forward, _perm_inverse(forward)]
        super().__init__(len(self._perms), steps)


def _regular_steps(npoints: int, actions: list[list[int]]) -> list[list[int]]:
    """Engine steps of a regular action on points 0..npoints-1.

    actions[2g][p] is the image of point p under x_g, actions[2g+1][p]
    under x_g^-1.  Points are numbered by BFS from point 0 over the
    generators in order, the order a BFS closure of the generator
    permutations lists the group elements.
    """
    number = [-1] * npoints
    number[0] = 0
    points = [0]
    for p in points:  # grows while it is walked
        for act in actions[0::2]:
            q = act[p]
            if number[q] == -1:
                number[q] = len(points)
                points.append(q)
    if len(points) != npoints:
        raise AssertionError("regular action order does not match point count")
    return [[number[act[p]] for p in points] for act in actions]


def _check_coset_table(presentation: "Presentation", actions: list[list[int]]) -> None:
    """Raise AssertionError unless actions is an action of the presented group.

    actions[2g] and actions[2g+1] are the point images under x_g and
    x_g^-1.  Each generator's action followed by its inverse's must fix
    every point, and so must each relator, composed run by run.
    """
    identity = tuple(range(len(actions[0]))) if actions else (0,)
    for g in range(0, len(actions), 2):
        if _compose(actions[g], actions[g + 1]) != identity:
            raise AssertionError(f"coset table: generator {g // 2} times its inverse is not 1")
    for rel in presentation.relators:
        pts = identity
        for gen, exp in rel.letters:
            pts = _compose(pts, _perm_power(actions[2 * gen + (exp < 0)], abs(exp)))
        if pts != identity:
            raise AssertionError("coset table: a relator does not act as the identity")


def todd_coxeter(
    presentation: "Presentation", max_cosets: int = DEFAULT_MAX_COSETS
) -> GroupEngine:
    """Enumerate cosets of the trivial subgroup of a finitely presented group.

    One HLT pass: scans every relator (plus the generator/inverse
    cancellation pairs) at every live coset in definition order, filling
    the first undefined entry of each gap and applying deductions and
    coincidences immediately.  A coincidence moves each dead coset's
    entries onto its live representative (Holt-Eick-O'Brien, Handbook of
    Computational Group Theory, ch. 5), so live rows name only live
    cosets.  The final table is checked once against every relator and
    generator/inverse pair.  Returns the engine of the regular action on
    the cosets, so the engine order is the group order.

    Raises CosetLimitExceeded when the number of live cosets passes
    max_cosets: the group may be infinite, or the limit too small.
    """
    if max_cosets < 1:
        raise ValueError("max_cosets must be >= 1")
    ngens = len(presentation.names)
    nsyms = 2 * ngens
    # relators are expanded letter by letter: refuse any longer in total
    # than a full max_cosets table, before building them
    length = sum(abs(exp) for rel in presentation.relators for _, exp in rel.letters)
    if length > max_cosets * nsyms:
        raise CosetLimitExceeded(
            f"relators of total length {length} exceed the {max_cosets * nsyms} "
            f"entries of a {max_cosets}-coset table; raise --max-cosets"
        )

    seqs: list[list[int]] = []
    for rel in presentation.relators:
        seq: list[int] = []
        for gen, exp in rel.letters:
            sym = 2 * gen if exp > 0 else 2 * gen + 1
            seq.extend([sym] * abs(exp))
        if seq:
            seqs.append(seq)
    for g in range(ngens):
        seqs.append([2 * g, 2 * g + 1])
        seqs.append([2 * g + 1, 2 * g])

    table: list[list[int]] = [[-1] * nsyms]
    parent = [0]  # union-find over merged cosets; a live coset is its own root
    live = 1

    def find(c: int) -> int:
        root = c
        while parent[root] != root:
            root = parent[root]
        while parent[c] != root:
            parent[c], c = root, parent[c]
        return root

    def define(x: int, d: int) -> int:
        nonlocal live
        live += 1
        if live > max_cosets:
            raise CosetLimitExceeded(
                f"more than {max_cosets} live cosets; group may be infinite"
            )
        y = len(table)
        table.append([-1] * nsyms)
        parent.append(y)
        table[x][d] = y
        table[y][d ^ 1] = x
        return y

    def coincidence(a: int, b: int) -> None:
        # the Handbook's COINCIDENCE: the larger of two merged cosets dies,
        # and each dead row's entries move onto the live representatives
        dead: list[int] = []

        def merge(a: int, b: int) -> None:
            nonlocal live
            a, b = find(a), find(b)
            if a != b:
                if a > b:
                    a, b = b, a
                parent[b] = a
                live -= 1
                dead.append(b)

        merge(a, b)
        for e in dead:  # grows while it is walked
            row = table[e]
            for d in range(nsyms):
                f = row[d]
                if f == -1:
                    continue
                table[f][d ^ 1] = -1
                e1, f1 = find(e), find(f)
                if table[e1][d] != -1:
                    merge(f1, table[e1][d])
                elif table[f1][d ^ 1] != -1:
                    merge(e1, table[f1][d ^ 1])
                else:
                    table[e1][d] = f1
                    table[f1][d ^ 1] = e1

    def scan_and_fill(f: int, seq: list[int]) -> None:
        b = f
        i, j = 0, len(seq) - 1
        while True:
            while i <= j and (nxt := table[f][seq[i]]) != -1:
                f = nxt
                i += 1
            if i > j:
                if f != b:
                    coincidence(f, b)
                return
            while j >= i and (nxt := table[b][seq[j] ^ 1]) != -1:
                b = nxt
                j -= 1
            if j < i:
                coincidence(f, b)
                return
            if j == i:
                table[f][seq[i]] = b
                table[b][seq[i] ^ 1] = f
                return
            f = define(f, seq[i])
            i += 1

    c = 0
    while c < len(table):  # cosets defined during the pass are scanned in turn
        for seq in seqs:
            if parent[c] != c:
                break
            scan_and_fill(c, seq)
        c += 1

    live_list = [c for c in range(len(table)) if parent[c] == c]
    if any(-1 in table[c] for c in live_list):
        raise AssertionError("incomplete coset table after enumeration")
    renumber = {c: i for i, c in enumerate(live_list)}
    actions = [[renumber[table[c][d]] for c in live_list] for d in range(nsyms)]
    _check_coset_table(presentation, actions)
    return GroupEngine(len(live_list), _regular_steps(len(live_list), actions))


def _closure_indices(engine: GroupEngine, seeds: Iterable[Element], limit: int) -> list[int]:
    # BFS from the identity over right multiplication by the seeds, one
    # Cayley column read per seed; stops early once the closure has more
    # than `limit` elements
    columns = [engine._column(s) for s in sorted({engine.check(s) for s in seeds})]
    seen = bytearray(engine.order())
    seen[0] = 1
    frontier = [0]
    for cur in frontier:  # grows while it is walked
        if len(frontier) > limit:
            break
        for col in columns:
            nxt = col[cur]
            if not seen[nxt]:
                seen[nxt] = 1
                frontier.append(nxt)
    return frontier


def subgroup_closure(engine: GroupEngine, seeds: Iterable[Element]) -> tuple[Element, ...]:
    """Smallest subgroup containing the seeds, sorted by element index."""
    found = _closure_indices(engine, seeds, engine.order())
    return tuple(Element(engine, i) for i in sorted(found))


def generates(engine: GroupEngine, seeds: Iterable[Element]) -> bool:
    """True iff the seeds generate the whole engine.

    Stops as soon as the closure has more than half the elements: by
    Lagrange a subgroup that large is the whole group.
    """
    half = engine.order() // 2
    return len(_closure_indices(engine, seeds, half)) > half


def element_order(engine: GroupEngine, h: Element) -> int:
    """Least k >= 1 with h^k = identity."""
    idx = engine.check(h)
    k = 1
    cur = idx
    while cur != 0:
        cur = engine._mult_index(cur, idx)
        k += 1
    return k


def is_central(engine: GroupEngine, h: Element) -> bool:
    """True iff h commutes with every generator."""
    hi = engine.check(h)
    for g in range(engine.ngens):
        gi = engine._gen_indices[g]
        if engine._mult_index(hi, gi) != engine._mult_index(gi, hi):
            return False
    return True


def center(engine: GroupEngine) -> tuple[Element, ...]:
    """Z(G): the elements that commute with every generator, sorted by index."""
    return tuple(el for el in engine.elements() if is_central(engine, el))


def central_log_table(
    engine: GroupEngine, z_gens: Sequence[Element], orders: Sequence[int]
) -> dict[int, tuple[int, ...]]:
    """Element index -> least exponent tuple, for every product of z-powers;
    orders[j] is the order of z_gens[j]."""
    power_lists = []
    for z, o in zip(z_gens, orders):
        zi = engine.check(z)
        powers = [0]
        for _ in range(o - 1):
            powers.append(engine._mult_index(powers[-1], zi))
        power_lists.append(powers)
    table: dict[int, tuple[int, ...]] = {}
    for exps in itertools.product(*(range(o) for o in orders)):
        idx = 0
        for powers, e in zip(power_lists, exps):
            idx = engine._mult_index(idx, powers[e])
        if idx not in table:
            table[idx] = exps
    return table


def word_for_element(engine: GroupEngine, h: Element) -> FreeWord:
    """Shortest word in the generators evaluating to h.

    Breadth-first search over the Cayley graph with inverse edges; ties
    are broken lexicographically with x_i before x_i^-1 before x_(i+1).
    """
    idx = engine.check(h)
    parent, via, _, _ = engine._word_tree()
    raw: list[tuple[int, int]] = []
    while idx != 0:
        s = via[idx]
        raw.append((s >> 1, -1 if s & 1 else 1))
        idx = parent[idx]
    raw.reverse()
    return reduce_word(raw)


def map_images(engine: GroupEngine, images: Sequence[Element]) -> tuple[int, ...]:
    """Extend generator images to the whole engine along its BFS tree.

    Returns, for every element index of `engine`, the index of its image
    in the images' engine.  The generator images must define a
    homomorphism for the result to be meaningful.  Only the columns of
    the images, and of their inverses, that the tree's steps use are read.
    """
    target = images[0].engine
    img_idx = [target.check(im) for im in images]
    parent, via, order, used = engine._word_tree()
    columns: list[list[int] | None] = [None] * (2 * len(img_idx))
    for s in used:
        im = img_idx[s >> 1]
        columns[s] = target._column(target._inv_index(im) if s & 1 else im)
    out = [0] * engine.order()
    for idx in order[1:]:
        out[idx] = columns[via[idx]][out[parent[idx]]]
    return tuple(out)
