"""Shared fixture corpus: presentation files plus central subgroup choices.

Each entry is (name, presentation file text); the text includes the
central: section, so the same string feeds both the API and the CLI.
"""

from functools import lru_cache

from centrallift import engines
from centrallift.presentation import parse_presentation_file
from centrallift.words import evaluate

C4 = """\
generators: x
relator: x^4
central: x^2
"""

C4_FULL = """\
generators: x
relator: x^4
central: x
"""

C6 = """\
generators: x
relator: x^6
central: x^2
"""

C6_FULL = """\
generators: x
relator: x^6
central: x
"""

Q8 = """\
generators: x y
relator: x^4
relator: x^2*y^-2
relator: y^-1*x*y*x
central: x^2
"""

HEISENBERG = """\
generators: x y z
relator: x^3
relator: y^3
relator: z^3
relator: x^-1*y^-1*x*y*z^-1
relator: x^-1*z^-1*x*z
relator: y^-1*z^-1*y*z
central: z
"""

C2C2C4_AB = """\
generators: a b c
relator: a^2
relator: b^2
relator: c^4
relator: a^-1*b^-1*a*b
relator: a^-1*c^-1*a*c
relator: b^-1*c^-1*b*c
central: a
central: b
"""

C2C2C4_AC2 = """\
generators: a b c
relator: a^2
relator: b^2
relator: c^4
relator: a^-1*b^-1*a*b
relator: a^-1*c^-1*a*c
relator: b^-1*c^-1*b*c
central: a
central: c^2
"""

METACYCLIC34 = """\
generators: x y
relator: x^27
relator: y^3
relator: y^-1*x*y*x^-10
central: x^9
"""

C4C2 = """\
generators: x y
relator: x^4
relator: y^2
relator: x^-1*y^-1*x*y
central: x^2
"""

CORPUS = [
    ("C4_mod_x2", C4),
    ("C6_mod_x2", C6),
    ("C6_mod_x", C6_FULL),
    ("Q8_mod_center", Q8),
    ("Heisenberg27_mod_center", HEISENBERG),
    ("C2xC2xC4_mod_ab", C2C2C4_AB),
    ("C2xC2xC4_mod_ac2", C2C2C4_AC2),
    ("metacyclic34_mod_x9", METACYCLIC34),
    ("C4xC2_mod_x2", C4C2),
]


def perm(engine, el):
    """The right-regular permutation of el: i -> index of i*el."""
    return tuple(engine._column(el.index))


@lru_cache(maxsize=None)
def build(text: str):
    """(presentation, central spec, engine, N elements) for a corpus entry."""
    pres, central = parse_presentation_file(text)
    engine = engines.todd_coxeter(pres, max_cosets=5000)
    gens = [engine.generator(i) for i in range(pres.n)]
    z_elements = tuple(evaluate(w, gens, engine) for w in central.z_words)
    n_elements = engines.subgroup_closure(engine, z_elements)
    return pres, central, engine, n_elements
