"""Free-group words over indexed abstract generators.

A word is stored freely reduced, as a run-length sequence of
(generator index, nonzero exponent) pairs with distinct adjacent
generators.  Words carry relators, central-generator words and coset
representatives.  All operations are pure; words are immutable and safe
to share between threads.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence


class WordSyntaxError(ValueError):
    """A word string that does not conform to the word grammar."""


@dataclass(frozen=True)
class FreeWord:
    """Freely reduced word; ``letters`` holds (generator, exponent) runs."""

    letters: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        prev = None
        for gen, exp in self.letters:
            if exp == 0:
                raise ValueError("zero exponent in FreeWord")
            if gen == prev:
                raise ValueError("FreeWord is not freely reduced")
            prev = gen

    def is_identity(self) -> bool:
        return not self.letters

    def length(self) -> int:
        """Number of single-generator letters (sum of |exponent|)."""
        return sum(abs(e) for _, e in self.letters)

    def max_generator(self) -> int:
        """Largest generator index used; -1 for the empty word."""
        return max((g for g, _ in self.letters), default=-1)


IDENTITY = FreeWord()


def reduce(raw: Sequence[tuple[int, int]]) -> FreeWord:
    """Freely reduce a raw (generator, exponent) sequence.

    Adjacent equal-generator runs are merged and zero exponents dropped;
    the stack makes cascading cancellations run in O(length).
    """
    stack: list[list[int]] = []
    for gen, exp in raw:
        if exp == 0:
            continue
        if stack and stack[-1][0] == gen:
            stack[-1][1] += exp
            if stack[-1][1] == 0:
                stack.pop()
        else:
            stack.append([gen, exp])
    return FreeWord(tuple((g, e) for g, e in stack))


def concat(u: FreeWord, v: FreeWord) -> FreeWord:
    return reduce(u.letters + v.letters)


def exponent_vector(word: FreeWord, n: int) -> tuple[int, ...]:
    """Signed exponent sum of each of the n generators (commutative image)."""
    sums = [0] * n
    for gen, exp in word.letters:
        if gen >= n:
            raise IndexError(f"generator {gen} out of range for n={n}")
        sums[gen] += exp
    return tuple(sums)


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_EXPONENT_RE = re.compile(r"[+-]?\d+\Z")


def parse_word(text: str, names: Sequence[str]) -> FreeWord:
    """Parse a word string.

    Grammar: ``word := term ('*' term)* | '1'`` with
    ``term := name ('^' signed-integer)?``; whitespace is ignored and
    ``1`` denotes the empty word.
    """
    lookup = {name: i for i, name in enumerate(names)}
    stripped = "".join(text.split())
    if not stripped:
        raise WordSyntaxError("empty word text (write '1' for the identity)")
    if stripped == "1":
        return IDENTITY
    raw = []
    for token in stripped.split("*"):
        if not token:
            raise WordSyntaxError(f"empty token in word {text!r}")
        name, caret, exp_text = token.partition("^")
        if not _NAME_RE.match(name):
            raise WordSyntaxError(f"bad generator name {name!r} in word {text!r}")
        if name not in lookup:
            raise WordSyntaxError(f"unknown generator {name!r} in word {text!r}")
        if caret:
            if not _EXPONENT_RE.match(exp_text):
                raise WordSyntaxError(f"malformed exponent {exp_text!r} in word {text!r}")
            exp = int(exp_text)
        else:
            exp = 1
        raw.append((lookup[name], exp))
    return reduce(raw)


def format_word(word: FreeWord, names: Sequence[str]) -> str:
    """Render a word in the grammar accepted by parse_word."""
    if word.is_identity():
        return "1"
    terms = []
    for gen, exp in word.letters:
        terms.append(names[gen] if exp == 1 else f"{names[gen]}^{exp}")
    return "*".join(terms)


def evaluate_indices(word: FreeWord, indices, engine) -> int:
    """Index of the word evaluated at generator images given as element
    indices (``indices[g]`` is the image of generator g) in an engine.

    Powers go through the engine's square-and-multiply, so relators like
    x^(p^(n-1)) cost O(log exp) multiplications; an exponent of 1 is a
    plain lookup.  Invariant under free reduction of the word.
    """
    mult, power = engine._mult_index, engine._power_index
    acc = 0  # identity index
    for gen, exp in word.letters:
        step = indices[gen] if exp == 1 else power(indices[gen], exp)
        acc = step if acc == 0 else mult(acc, step)
    return acc


def evaluate(word: FreeWord, images, engine):
    """Evaluate the word at the given generator images (Elements) in an
    engine; only the images of generators the word uses are read."""
    indices = {}
    for gen, _ in word.letters:
        if gen >= len(images):
            raise IndexError(
                f"word uses generator {gen} but only {len(images)} images were given"
            )
        if gen not in indices:
            indices[gen] = engine.check(images[gen])
    return engine.element(evaluate_indices(word, indices, engine))
