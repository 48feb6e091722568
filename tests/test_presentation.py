import itertools

import pytest

import corpus
from centrallift import engines
from centrallift.lifting import LiftContext
from centrallift.presentation import (
    CentralSubgroupSpec,
    NotCentral,
    NotHomomorphism,
    NotSurjective,
    PresentationSyntaxError,
    QuotientAutSpec,
    parse_presentation,
    parse_presentation_file,
    parse_quotient_aut,
)
from centrallift.words import FreeWord, evaluate, format_word, parse_word


def test_parse_single_relator():
    pres = parse_presentation("generators: x\nrelator: x^4\n")
    assert pres.names == ("x",)
    assert pres.relators == (FreeWord(((0, 4),)),)


def test_parse_metacyclic_34():
    pres, central = parse_presentation_file(corpus.METACYCLIC34)
    assert pres.names == ("x", "y")
    assert [r.letters for r in pres.relators] == [
        ((0, 27),),
        ((1, 3),),
        ((1, -1), (0, 1), (1, 1), (0, -10)),
    ]
    assert central.z_words == (FreeWord(((0, 9),)),)


def test_parse_worked_example():
    pres = parse_presentation(
        "generators: x y\nrelator: x^2*y^-1*x^-5*y^-1\nrelator: x*y^-3*x^7\n"
    )
    assert len(pres.relators) == 2
    assert pres.relators[0].letters == ((0, 2), (1, -1), (0, -5), (1, -1))


def test_parse_comments_and_blanks():
    pres = parse_presentation("# header\n\ngenerators: x\n# note\nrelator: x^4\n")
    assert pres.names == ("x",)


@pytest.mark.parametrize(
    "text,line,fragment",
    [
        ("generators: x x\nrelator: x^2\n", 1, "duplicate"),
        ("generators: x\nrelator: q^2\n", 2, "unknown generator"),
        ("relator: x^2\n", 1, "first line"),
        ("generators: x\nrelator: x^\n", 2, "malformed exponent"),
        ("generators: x\nfoo: x\n", 2, "unknown directive"),
        ("", 1, "empty presentation"),
        ("generators: x\ngenerators: y\n", 2, "twice"),
    ],
)
def test_parse_errors_carry_line_numbers(text, line, fragment):
    with pytest.raises(PresentationSyntaxError) as err:
        parse_presentation(text)
    assert err.value.line == line
    assert fragment in str(err.value)


@pytest.mark.parametrize("name,text", corpus.CORPUS)
def test_round_trip(name, text):
    # every corpus file is in canonical form: formatting the parsed words
    # gives back the file line by line
    pres, central = parse_presentation_file(text)
    lines = ["generators: " + " ".join(pres.names)]
    lines += ["relator: " + format_word(r, pres.names) for r in pres.relators]
    lines += ["central: " + format_word(w, pres.names) for w in central.z_words]
    assert lines == text.splitlines()


def test_parse_quotient_aut():
    pres = parse_presentation("generators: x y\nrelator: x^4\n")
    spec = parse_quotient_aut("image: x^3\nimage: y\n", pres)
    assert spec.rep_words[0].letters == ((0, 3),)
    with pytest.raises(PresentationSyntaxError):
        parse_quotient_aut("image: x\n", pres)  # wrong count
    with pytest.raises(PresentationSyntaxError) as err:
        parse_quotient_aut("image: x\npicture: y\n", pres)
    assert err.value.line == 2


# Parsed files are checked against the group by lifting.LiftContext (the
# central words) and LiftProblem.build (the images of phi).


def context_for(text, central=None):
    pres, spec, engine, _ = corpus.build(text)
    return LiftContext(pres, engine, central or spec)


def test_validate_central_abelian():
    context_for(corpus.C4)


def test_validate_central_commutator_is_central():
    pres = parse_presentation(corpus.HEISENBERG)
    spec = CentralSubgroupSpec((parse_word("x^-1*y^-1*x*y", pres.names),))
    context_for(corpus.HEISENBERG, spec)


def test_validate_central_rejects_noncentral():
    pres = parse_presentation(corpus.METACYCLIC34)
    spec = CentralSubgroupSpec((parse_word("y", pres.names),))
    with pytest.raises(NotCentral) as err:
        context_for(corpus.METACYCLIC34, spec)
    assert err.value.index == 0


def test_validate_quotient_aut_identity():
    context = context_for(corpus.C4)
    context.problem(QuotientAutSpec((parse_word("x", context.pres.names),)))


def test_validate_quotient_aut_x_cubed():
    # x -> x^3 agrees with x -> x modulo <x^2>
    context = context_for(corpus.C4)
    context.problem(QuotientAutSpec((parse_word("x^3", context.pres.names),)))


def test_validate_quotient_aut_not_surjective():
    context = context_for(corpus.C4)
    spec = QuotientAutSpec((parse_word("x^2", context.pres.names),))
    with pytest.raises(NotSurjective):
        context.problem(spec)


def test_validate_quotient_aut_must_annihilate_n():
    # In C2 x C4 = <a, c>, mapping a -> c^2 satisfies every relator of the
    # presentation and generates the quotient by <a>, yet is not well
    # defined on it: a lies in N but its image does not vanish.
    context = context_for(
        "generators: a c\n"
        "relator: a^2\nrelator: c^4\nrelator: a^-1*c^-1*a*c\ncentral: a\n"
    )
    names = context.pres.names
    spec = QuotientAutSpec((parse_word("c^2", names), parse_word("c", names)))
    with pytest.raises(NotHomomorphism) as err:
        context.problem(spec)
    assert err.value.relator_index is None


def test_validate_quotient_aut_relator_failure():
    # Heisenberg mod center: sending z's coset to x's breaks the relator
    # [x, y] = z in the quotient, and the error names it.
    context = context_for(corpus.HEISENBERG)
    names = context.pres.names
    spec = QuotientAutSpec(
        (parse_word("x", names), parse_word("y", names), parse_word("x", names))
    )
    with pytest.raises(NotHomomorphism) as err:
        context.problem(spec)
    assert err.value.relator_index == 3


def check_in_the_quotient(context, spec):
    """The exception the check in G/N raises: relators in index order, then
    z-words, then surjectivity, all at the images evaluated in G/N."""
    quotient = context.quotient
    gens = [quotient.generator(i) for i in range(context.pres.n)]
    images = [evaluate(w, gens, quotient) for w in spec.rep_words]
    for k, rel in enumerate(context.pres.relators):
        if evaluate(rel, images, quotient) != quotient.identity():
            return NotHomomorphism(k)
    for word in context.central.z_words:
        if evaluate(word, images, quotient) != quotient.identity():
            return NotHomomorphism(None)
    if not engines.generates(quotient, images):
        return NotSurjective("images generate a proper subgroup of the quotient")
    return None


@pytest.mark.parametrize(
    "text", [corpus.Q8, corpus.HEISENBERG, corpus.C2C2C4_AB], ids=["Q8", "H27", "C2C2C4"]
)
def test_build_decides_as_the_check_in_the_quotient(text):
    # every tuple of G/N elements, as shortest representative words: build's
    # central-log lookups accept what the oracle lists and reject the rest as
    # the check in G/N does, and the residues are the negated central logs of
    # the relators and z-words at xbar
    from centrallift import oracle

    context = context_for(text)
    engine, quotient = context.engine, context.quotient
    words = [engines.word_for_element(quotient, el) for el in quotient.elements()]
    accepted = set()
    for rep_words in itertools.product(words, repeat=context.pres.n):
        spec = QuotientAutSpec(rep_words)
        expected = check_in_the_quotient(context, spec)
        if expected is not None:
            with pytest.raises(type(expected)) as err:
                context.problem(spec)
            assert str(err.value) == str(expected)
            assert getattr(err.value, "relator_index", "none") == getattr(
                expected, "relator_index", "none"
            )
            continue
        problem = context.problem(spec)
        accepted.add(spec)
        relator_residues = [
            tuple(block[k] for block in problem.residues)
            for k in range(len(context.pres.relators))
        ]
        for word, exps in zip(
            context.pres.relators + context.central.z_words,
            relator_residues + list(problem.z_residues),
        ):
            value = evaluate(word, problem.xbar, engine)
            for z, e in zip(context.z_elements, exps):
                value = engine.multiply(value, engine.power(z, e))
            assert value == engine.identity()
    assert accepted == set(oracle.bf_quotient_auts(context))


def test_validate_oracle_agreement():
    # the checks accept exactly the specs the brute-force quotient list contains
    from centrallift import oracle

    context = context_for(corpus.Q8)
    specs = oracle.bf_quotient_auts(context)
    for spec in specs:
        context.problem(spec)
    assert len(specs) == 6  # Aut(C2 x C2)
