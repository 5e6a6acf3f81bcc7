"""Formal sums of counting functions and Brooks quasimorphisms.

A counting function #v maps a reduced word w to the number of (possibly
overlapping) occurrences of v as a contiguous reduced subword.  The Brooks
quasimorphism of v is the symmetrization phi(v) = #v - #(v^-1).

Sums are stored as a finite weight (word -> exact rational, no zero entries,
no identity key) together with a mode:

* COUNTING  -- the sum represents sum alpha(v) * #v
* BROOKS    -- the sum represents sum alpha(v) * phi(v), with the canonical
               orientation rule: of the pair {v, v^-1} only the
               (length, lex)-smaller word may appear as a key.

Everything is exact; no floats anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional

from .freegroup import (
    Alphabet,
    Word,
    inverse,
    is_reduced,
    word_sort_key,
    word_str,
)


class Mode(Enum):
    COUNTING = "counting"
    BROOKS = "brooks"


Rational = Fraction


def count_subword(v: Word, w: Word) -> int:
    """Number of contiguous occurrences of v in w (overlaps count).

    The empty pattern is rejected: #e is not a counting function.
    """
    if not v:
        raise ValueError("the identity has no counting function")
    k = len(v)
    return sum(1 for i in range(len(w) - k + 1) if w[i : i + k] == v)


@dataclass(frozen=True)
class BrooksSum:
    """An element of the span of counting functions (or Brooks sums)."""

    weight: dict[Word, Rational]
    mode: Mode

    def support(self) -> list[Word]:
        return sorted(self.weight, key=word_sort_key)

    def coefficient(self, v: Word) -> Rational:
        return self.weight.get(v, Fraction(0))

    def is_zero(self) -> bool:
        return not self.weight

    def __add__(self, other: "BrooksSum") -> "BrooksSum":
        if self.mode is not other.mode:
            raise ValueError("cannot add sums of different modes; widen with as_counting first")
        merged = dict(self.weight)
        for v, c in other.weight.items():
            merged[v] = merged.get(v, Fraction(0)) + c
        return BrooksSum({v: c for v, c in merged.items() if c != 0}, self.mode)

    def __sub__(self, other: "BrooksSum") -> "BrooksSum":
        return self + other.scale(Fraction(-1))

    def scale(self, c: Rational | int) -> "BrooksSum":
        c = Fraction(c)
        if c == 0:
            return BrooksSum({}, self.mode)
        return BrooksSum({v: c * x for v, x in self.weight.items()}, self.mode)

    def __neg__(self) -> "BrooksSum":
        return self.scale(-1)

    def __str__(self) -> str:
        return format_sum(self)


def _validated(entries: dict[Word, Rational]) -> dict[Word, Rational]:
    out: dict[Word, Rational] = {}
    for v, c in entries.items():
        if v == ():
            raise ValueError("the identity cannot carry weight")
        if not is_reduced(v):
            raise ValueError(f"key {v!r} is not reduced")
        c = Fraction(c)
        if c != 0:
            out[v] = c
    return out


def counting_sum(entries: dict[Word, Rational | int]) -> BrooksSum:
    return BrooksSum(_validated({v: Fraction(c) for v, c in entries.items()}), Mode.COUNTING)


def brooks_sum(entries: dict[Word, Rational | int]) -> BrooksSum:
    """Brooks sum from a raw weight, re-orienting keys to canonical form.

    Of each pair {v, v^-1} the (length, lex)-smaller word is kept; weights of
    re-oriented keys flip sign (phi(v^-1) = -phi(v)) and colliding entries
    merge.
    """
    merged: dict[Word, Fraction] = {}
    for v, c in entries.items():
        if v == ():
            raise ValueError("the identity cannot carry weight")
        if not is_reduced(v):
            raise ValueError(f"key {v!r} is not reduced")
        vinv = inverse(v)
        if v == vinv:
            raise ValueError(f"key {word_str(v)} equals its own inverse; corrupted input")
        c = Fraction(c)
        if word_sort_key(vinv) < word_sort_key(v):
            v, c = vinv, -c
        merged[v] = merged.get(v, Fraction(0)) + c
    return BrooksSum({v: c for v, c in merged.items() if c != 0}, Mode.BROOKS)


def phi(v: Word) -> BrooksSum:
    """The Brooks quasimorphism of a single word."""
    return brooks_sum({v: Fraction(1)})


def count_term(v: Word) -> BrooksSum:
    return counting_sum({v: Fraction(1)})


def zero(mode: Mode = Mode.BROOKS) -> BrooksSum:
    return BrooksSum({}, mode)


def as_counting(f: BrooksSum) -> BrooksSum:
    """Exact widening: phi(v) = #v - #(v^-1) expanded key by key."""
    if f.mode is Mode.COUNTING:
        return f
    out: dict[Word, Fraction] = {}
    for v, c in f.weight.items():
        out[v] = out.get(v, Fraction(0)) + c
        vinv = inverse(v)
        out[vinv] = out.get(vinv, Fraction(0)) - c
    return BrooksSum({v: c for v, c in out.items() if c != 0}, Mode.COUNTING)


def evaluate(f: BrooksSum, w: Word) -> Rational:
    total = Fraction(0)
    if f.mode is Mode.COUNTING:
        for v, c in f.weight.items():
            total += c * count_subword(v, w)
    else:
        for v, c in f.weight.items():
            total += c * (count_subword(v, w) - count_subword(inverse(v), w))
    return total


def norm(f: BrooksSum) -> int:
    """The length: max word length over the support, 0 for the zero sum."""
    return max((len(v) for v in f.weight), default=0)


def format_sum(f: BrooksSum) -> str:
    if f.is_zero():
        return "0"
    head = "#" if f.mode is Mode.COUNTING else "phi"
    parts: list[str] = []
    for v in f.support():
        c = f.weight[v]
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        coeff = "" if mag == 1 else f"{mag}*"
        parts.append(f"{sign} {coeff}{head}({word_str(v)})")
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


# ---------------------------------------------------------------------------
# Unbalancedness and certified reduced lengths


def right_brothers(v: Word, alphabet: Alphabet) -> list[Word]:
    """Same-length words differing from v exactly in the last letter."""
    if len(v) < 2:
        raise ValueError("brotherhood needs length >= 2")
    out = []
    for y in alphabet.letters():
        if y != v[-1] and y != -v[-2]:
            out.append(v[:-1] + (y,))
    return out


def left_brothers(v: Word, alphabet: Alphabet) -> list[Word]:
    """Same-length words differing from v exactly in the first letter."""
    if len(v) < 2:
        raise ValueError("brotherhood needs length >= 2")
    out = []
    for y in alphabet.letters():
        if y != v[0] and y != -v[1]:
            out.append((y,) + v[1:])
    return out


@dataclass(frozen=True)
class UnbalancedWitness:
    v0: Word
    v1: Word
    v2: Word


def is_unbalanced(f: BrooksSum, alphabet: Alphabet) -> tuple[bool, Optional[UnbalancedWitness]]:
    """Unbalancedness of the underlying counting sum, with a witness.

    A maximal-length support word v0 qualifies when (1) some right brother v1
    carries a weight different from v0's and (2) some left brother v2 carries
    weight 0 and so does v2's entire right brotherhood.  Applies only to sums
    of norm >= 2.
    """
    g = as_counting(f)
    top = norm(g)
    if top < 2:
        raise ValueError("unbalancedness is defined only for norm >= 2")
    alpha = g.weight
    for v0 in sorted((v for v in alpha if len(v) == top), key=word_sort_key):
        v1 = next(
            (u for u in right_brothers(v0, alphabet) if alpha.get(u, Fraction(0)) != alpha[v0]),
            None,
        )
        if v1 is None:
            continue
        for v2 in left_brothers(v0, alphabet):
            if alpha.get(v2, Fraction(0)) != 0:
                continue
            if all(alpha.get(u, Fraction(0)) == 0 for u in right_brothers(v2, alphabet)):
                return True, UnbalancedWitness(v0, v1, v2)
    return False, None


class LengthStatus(Enum):
    EXACT = "EXACT"
    UNKNOWN = "UNKNOWN"


@dataclass(frozen=True)
class CertifiedLength:
    status: LengthStatus
    value: Optional[int]
    certificate: str
    witness: Optional[Word] = None


def certified_reduced_length(f: BrooksSum, alphabet: Alphabet) -> CertifiedLength:
    """Best available certificate for the reduced length of f's class.

    EXACT certificates, tried in order: norm <= 1 (such sums are reduced)
    and unbalancedness.  When neither applies the answer is UNKNOWN; deciding
    reducedness in general is out of scope.
    """
    g = as_counting(f)
    top = norm(g)
    if top <= 1:
        return CertifiedLength(LengthStatus.EXACT, top, "norm at most 1")
    unbalanced, witness = is_unbalanced(g, alphabet)
    if unbalanced:
        assert witness is not None
        return CertifiedLength(LengthStatus.EXACT, top, "unbalanced", witness.v0)
    # No s-truncated end is nonempty here.  Balance puts, for every letter index s,
    # a key of length top that starts or ends with s (the right brothers of a top
    # key, or its left brothers or a right brother of each), so n_s = top.
    return CertifiedLength(LengthStatus.UNKNOWN, None, "no certificate applies")
