"""Group presentations, central-subgroup specs and quotient-automorphism specs.

File grammar (UTF-8, line oriented):

    # comment
    generators: x y          exactly one line, first
    relator: x^2*y^-1        zero or more
    central: x^2             one per central generator (optional section)

A quotient-automorphism file has one ``image: word`` line per generator,
in generator order.  This module parses text only; the input errors for
words that parse but do not fit the group (NotCentral, NotHomomorphism,
NotSurjective) are raised by lifting.LiftContext and LiftProblem.build.
"""

from __future__ import annotations

from dataclasses import dataclass

from .words import FreeWord, WordSyntaxError, parse_word


class PresentationSyntaxError(ValueError):
    """Malformed presentation or image file; message carries the line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class NotCentral(ValueError):
    """A declared central generator word fails to commute with a generator."""

    def __init__(self, index: int, message: str = ""):
        super().__init__(message or f"central word {index} is not central")
        self.index = index


class NotHomomorphism(ValueError):
    """Representative images do not induce an endomorphism of the quotient."""

    def __init__(self, relator_index: int | None, message: str = ""):
        if not message:
            if relator_index is None:
                message = "induced map does not annihilate the central subgroup"
            else:
                message = f"relator {relator_index} does not vanish in the quotient"
        super().__init__(message)
        self.relator_index = relator_index


class NotSurjective(ValueError):
    """Representative images do not generate the quotient."""


@dataclass(frozen=True)
class Presentation:
    """Generator names plus relator words: the object <x_1..x_n | r_1..r_m>."""

    names: tuple[str, ...]
    relators: tuple[FreeWord, ...]

    def __post_init__(self):
        if not self.names:
            raise ValueError("a presentation needs at least one generator")
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate generator names")
        n = len(self.names)
        for rel in self.relators:
            if rel.max_generator() >= n:
                raise ValueError("relator references an unknown generator index")

    @property
    def n(self) -> int:
        return len(self.names)


@dataclass(frozen=True)
class CentralSubgroupSpec:
    """Words whose values generate the central subgroup N."""

    z_words: tuple[FreeWord, ...]

    def __post_init__(self):
        if not self.z_words:
            raise ValueError("central subgroup spec needs at least one word")


@dataclass(frozen=True)
class QuotientAutSpec:
    """Coset-representative words, one per generator, describing a map on G/N."""

    rep_words: tuple[FreeWord, ...]


def _significant_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


def parse_presentation_file(
    text: str,
) -> tuple[Presentation, CentralSubgroupSpec | None]:
    """Parse a presentation file; returns the presentation and optional central spec."""
    names: tuple[str, ...] | None = None
    relators: list[FreeWord] = []
    central: list[FreeWord] = []
    for lineno, line in _significant_lines(text):
        key, sep, rest = line.partition(":")
        key = key.strip()
        if not sep:
            raise PresentationSyntaxError(lineno, f"expected 'key: value', got {line!r}")
        if names is None:
            if key != "generators":
                raise PresentationSyntaxError(lineno, "first line must declare generators")
            declared = tuple(rest.split())
            if not declared:
                raise PresentationSyntaxError(lineno, "no generator names declared")
            if len(set(declared)) != len(declared):
                raise PresentationSyntaxError(lineno, "duplicate generator names")
            names = declared
            continue
        if key == "generators":
            raise PresentationSyntaxError(lineno, "generators declared twice")
        if key not in ("relator", "central"):
            raise PresentationSyntaxError(lineno, f"unknown directive {key!r}")
        try:
            word = parse_word(rest, names)
        except WordSyntaxError as exc:
            raise PresentationSyntaxError(lineno, str(exc)) from None
        (relators if key == "relator" else central).append(word)
    if names is None:
        raise PresentationSyntaxError(1, "empty presentation file")
    pres = Presentation(names, tuple(relators))
    spec = CentralSubgroupSpec(tuple(central)) if central else None
    return pres, spec


def parse_presentation(text: str) -> Presentation:
    return parse_presentation_file(text)[0]


def parse_quotient_aut(text: str, pres: Presentation) -> QuotientAutSpec:
    """Parse an image file: exactly one ``image:`` line per generator."""
    words: list[FreeWord] = []
    for lineno, line in _significant_lines(text):
        key, sep, rest = line.partition(":")
        if not sep or key.strip() != "image":
            raise PresentationSyntaxError(lineno, f"expected 'image: word', got {line!r}")
        try:
            words.append(parse_word(rest, pres.names))
        except WordSyntaxError as exc:
            raise PresentationSyntaxError(lineno, str(exc)) from None
    if len(words) != pres.n:
        raise PresentationSyntaxError(
            1, f"expected {pres.n} image lines, found {len(words)}"
        )
    return QuotientAutSpec(tuple(words))

