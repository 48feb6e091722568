"""Slow reference coset enumerator for the todd_coxeter tests.

The two-pass HLT enumerator that engines.todd_coxeter replaced: every
link is followed through find(), a coincidence only moves a dead row's
entries onto its representative's empty slots, and whole passes repeat
until one changes nothing.  It returns the renumbered regular action,
so the tests can compare engines built from it with todd_coxeter's.
"""

from centrallift.engines import CosetLimitExceeded


def enumerate_cosets(presentation, max_cosets):
    """(number of cosets, actions): actions[2g][c] is c*x_g, actions[2g+1][c] is c*x_g^-1."""
    ngens = len(presentation.names)
    nsyms = 2 * ngens

    def inv_sym(d):
        return d ^ 1

    seqs = []
    for rel in presentation.relators:
        seq = []
        for gen, exp in rel.letters:
            sym = 2 * gen if exp > 0 else 2 * gen + 1
            seq.extend([sym] * abs(exp))
        if seq:
            seqs.append(seq)
    for g in range(ngens):
        seqs.append([2 * g, 2 * g + 1])
        seqs.append([2 * g + 1, 2 * g])

    table = [[-1] * nsyms]
    parent = [0]
    live = 1
    mods = 0  # bumped on every define/deduction/merge; passes repeat until stable

    def find(c):
        root = c
        while parent[root] != root:
            root = parent[root]
        while parent[c] != root:
            parent[c], c = root, parent[c]
        return root

    def set_edge(x, d, y):
        table[x][d] = y
        table[y][inv_sym(d)] = x

    def define(x, d):
        nonlocal live, mods
        live += 1
        mods += 1
        if live > max_cosets:
            raise CosetLimitExceeded(f"more than {max_cosets} live cosets")
        y = len(table)
        table.append([-1] * nsyms)
        parent.append(y)
        set_edge(x, d, y)
        return y

    def coincidence(a, b):
        nonlocal live, mods
        stack = [(a, b)]
        while stack:
            a, b = stack.pop()
            a, b = find(a), find(b)
            if a == b:
                continue
            if a > b:
                a, b = b, a
            parent[b] = a
            live -= 1
            mods += 1
            rowa, rowb = table[a], table[b]
            for d in range(nsyms):
                nb = rowb[d]
                if nb == -1:
                    continue
                if rowa[d] == -1:
                    rowa[d] = nb
                else:
                    stack.append((rowa[d], nb))

    def scan_and_fill(start, seq):
        nonlocal mods
        f = find(start)
        b = f
        i, j = 0, len(seq) - 1
        while True:
            while i <= j:
                nxt = table[f][seq[i]]
                if nxt == -1:
                    break
                f = find(nxt)
                i += 1
            if i > j:
                if f != b:
                    coincidence(f, b)
                return
            while j >= i:
                nxt = table[b][inv_sym(seq[j])]
                if nxt == -1:
                    break
                b = find(nxt)
                j -= 1
            if j < i:
                coincidence(f, b)
                return
            if j == i:
                set_edge(f, seq[i], b)
                mods += 1
                return
            f = define(f, seq[i])
            i += 1

    while True:
        before = mods
        c = 0
        while c < len(table):
            if find(c) == c:
                for seq in seqs:
                    scan_and_fill(c, seq)
                    if find(c) != c:
                        break
            c += 1
        if mods == before:
            break

    live_list = [c for c in range(len(table)) if find(c) == c]
    renumber = {c: i for i, c in enumerate(live_list)}
    if any(-1 in table[c] for c in live_list):
        raise AssertionError("incomplete coset table after stabilization")
    actions = [[renumber[find(table[c][d])] for c in live_list] for d in range(nsyms)]
    return len(live_list), actions
