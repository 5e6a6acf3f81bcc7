"""Formal sums of counting functions and Brooks quasimorphisms.

A counting function #v maps a reduced word w to the number of (possibly
overlapping) occurrences of v as a contiguous reduced subword.  The Brooks
quasimorphism of v is the symmetrization phi(v) = #v - #(v^-1).

Sums are stored as a finite weight (word -> exact rational, no zero entries,
no identity key) together with a mode:

* COUNTING  -- the sum represents sum alpha(v) * #v
* BROOKS    -- the sum represents sum alpha(v) * phi(v).  As phi(v^-1) =
               -phi(v), brooks_sum keys each pair {v, v^-1} by the (length,
               lex)-smaller word; the entries, guarded by check_sum, take either.

Brooks sums are built in an Accumulator (canonical keys, integer numerators
over one denominator): brooks_sum seeds one, and rewrites, act and
n-representatives run passes over one; +, - and scale combine sums.

Everything is exact; no floats anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import lcm
from typing import Callable, Iterable, Optional

from .freegroup import (
    Alphabet,
    Word,
    _NAMED,
    inverse,
    is_canonical,
    word_sort_key,
    word_str,
)


class Mode(Enum):
    COUNTING = "counting"
    BROOKS = "brooks"


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
    """A counting or Brooks sum; brooks_sum orients keys canonically, entries take either."""

    weight: dict[Word, Fraction]
    mode: Mode

    def support(self) -> list[Word]:
        return sorted(self.weight, key=word_sort_key)

    def coefficient(self, v: Word) -> Fraction:
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

    def scale(self, c: Fraction | int) -> "BrooksSum":
        c = Fraction(c)
        if c == 0:
            return BrooksSum({}, self.mode)
        return BrooksSum({v: c * x for v, x in self.weight.items()}, self.mode)

    def __neg__(self) -> "BrooksSum":
        return self.scale(-1)

    def __str__(self) -> str:
        return format_sum(self)


def check_sum(f: BrooksSum, alphabet: Alphabet) -> bool:
    """The contract of every entry that takes a Brooks sum: raise ValueError
    unless f is in Brooks mode and every key passes alphabet.check_key.  Key
    orientation is not part of it.

    Return whether f is also canonical, as an Accumulator builds its sums:
    every key in canonical orientation, every weight a nonzero Fraction.
    """
    if f.mode is not Mode.BROOKS:
        raise ValueError("expected a Brooks sum, got a counting sum")
    canonical = True
    for v, c in f.weight.items():
        alphabet.check_key(v)
        if canonical:
            canonical = type(c) is Fraction and c.numerator != 0 and is_canonical(v)
    return canonical


def counting_sum(entries: dict[Word, Fraction | int]) -> BrooksSum:
    for v in entries:
        _NAMED.check_key(v)
    weight = {v: Fraction(c) for v, c in entries.items()}
    return BrooksSum({v: c for v, c in weight.items() if c != 0}, Mode.COUNTING)


def _denominator(coefficients: Iterable[Fraction | int]) -> int:
    """The lcm of the denominators: scaled by it, every coefficient is an integer."""
    return lcm(*{c.denominator for c in coefficients})


class Accumulator:
    """A Brooks weight under construction: canonical keys mapped to integer
    numerators over den, the lcm of the seed weights' denominators.  take and
    emit pass numerators too; until as_sum() the weight may hold zeros.  Keys
    enter checked (by brooks_sum or check_sum) or built reduced: none is rechecked."""

    def __init__(self, weight: dict[Word, Fraction | int]) -> None:
        self.den = _denominator(weight.values())
        self.weight: dict[Word, int] = {}
        for v, c in weight.items():
            self.emit(v, c.numerator * (self.den // c.denominator))

    def take(self, pick: Callable[[Word], bool]) -> dict[Word, int]:
        """Remove the keys pick selects; return those of nonzero weight."""
        picked = [v for v in self.weight if pick(v)]
        taken = {v: self.weight.pop(v) for v in picked}
        return {v: n for v, n in taken.items() if n}

    def emit(self, w: Word, n: int) -> None:
        """Add n/den * phi(w), turning w to its canonical orientation."""
        if n == 0:
            return
        if not w:
            raise ValueError("rewriting emitted the identity")
        if not is_canonical(w):
            w, n = inverse(w), -n
        self.weight[w] = self.weight.get(w, 0) + n

    def as_sum(self) -> BrooksSum:
        """The weight as a Brooks sum, zeros dropped; tests/test_contracts.py checks its keys."""
        fractions: dict[int, Fraction] = {}
        out: dict[Word, Fraction] = {}
        for v, n in self.weight.items():
            if n:
                out[v] = fractions.get(n) or fractions.setdefault(n, Fraction(n, self.den))
        return BrooksSum(out, Mode.BROOKS)


def brooks_sum(entries: dict[Word, Fraction | int]) -> BrooksSum:
    """Brooks sum from a raw weight, re-orienting keys to canonical form.

    Of each pair {v, v^-1} the (length, lex)-smaller word is kept; weights of
    re-oriented keys flip sign (phi(v^-1) = -phi(v)) and colliding entries
    merge.  Every key is checked once, here, those of weight 0 included, and
    against the 26 named letters, since no alphabet is given.
    """
    for v in entries:
        _NAMED.check_key(v)
    return Accumulator(entries).as_sum()


def phi(v: Word) -> BrooksSum:
    """The Brooks quasimorphism of a single word."""
    return brooks_sum({v: Fraction(1)})


def count_term(v: Word) -> BrooksSum:
    return counting_sum({v: Fraction(1)})


def zero() -> BrooksSum:
    return BrooksSum({}, Mode.BROOKS)


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


def _window_sum(weight: dict[Word, Fraction], lengths: set[int], w: Word) -> Fraction:
    """Sum of weight[u] over the windows u of w whose length is a key length."""
    get, n = weight.get, len(w)
    hits = (get(w[i : i + k]) for k in lengths for i in range(n - k + 1))
    return sum(filter(None, hits), Fraction(0))


def evaluate(f: BrooksSum, w: Word) -> Fraction:
    """f(w), with one weight lookup per window of w of each key length.

    The occurrences of v^-1 in w are those of v in w^-1, so a Brooks sum is
    the window sum over w minus the one over w^-1.
    """
    lengths = {len(v) for v in f.weight}
    if 0 in lengths:
        raise ValueError("the identity has no counting function")
    total = _window_sum(f.weight, lengths, w)
    if f.mode is Mode.BROOKS:
        total -= _window_sum(f.weight, lengths, inverse(w))
    return total


def norm(f: BrooksSum) -> int:
    """The length: max word length over the support, 0 for the zero sum."""
    return max((len(v) for v in f.weight), default=0)


def format_sum(f: BrooksSum) -> str:
    if f.is_zero():
        return "0"
    # Named before sorting: word_sort_key knows only the named letters.
    names = {v: word_str(v) for v in f.weight}
    head = "#" if f.mode is Mode.COUNTING else "phi"
    parts: list[str] = []
    for v in f.support():
        c = f.weight[v]
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        coeff = "" if mag == 1 else f"{mag}*"
        parts.append(f"{sign} {coeff}{head}({names[v]})")
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
    """Same-length words differing from v exactly in the first letter: the
    mirror of right_brothers, v^-1's right brothers inverted, in (length, lex) order."""
    return sorted(map(inverse, right_brothers(inverse(v), alphabet)), key=word_sort_key)


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
