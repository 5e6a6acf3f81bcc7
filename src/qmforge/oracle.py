"""Brute-force ground truth over Cayley balls.

Everything here is deliberately naive and independent of the algebraic
modules: occurrence counting is re-implemented on top of a string encoding,
and all checks are exhaustive scans.  The oracle is the arbiter in
differential tests; it is never called from algebraic code paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

from .counting import BrooksSum, Mode
from .freegroup import Alphabet, Word, ball, ball_size, inverse

Evaluable = Union[BrooksSum, Callable[[Word], Fraction]]

_ball_cache: dict[tuple[int, int], list[Word]] = {}


def cached_ball(alphabet: Alphabet, radius: int) -> list[Word]:
    key = (alphabet.rank, radius)
    if key not in _ball_cache:
        _ball_cache[key] = list(ball(alphabet, radius))
    return _ball_cache[key]


def _encode(w: Word) -> str:
    # letter x -> a single char; positive and negative letters are disjoint
    return "".join(chr(96 + x) if x > 0 else chr(64 - x) for x in w)


def count_subword_scan(v: Word, w: Word) -> int:
    """Second, independent occurrence counter (string find loop)."""
    if not v:
        raise ValueError("the identity has no counting function")
    pattern, text = _encode(v), _encode(w)
    count, idx = 0, text.find(pattern)
    while idx >= 0:
        count += 1
        idx = text.find(pattern, idx + 1)
    return count


def brute_evaluate(f: BrooksSum, w: Word) -> Fraction:
    """Oracle-side evaluation built on the independent counter."""
    total = Fraction(0)
    if f.mode is Mode.COUNTING:
        for v, c in f.weight.items():
            total += c * count_subword_scan(v, w)
    else:
        for v, c in f.weight.items():
            total += c * (count_subword_scan(v, w) - count_subword_scan(inverse(v), w))
    return total


def _as_callable(f: Evaluable) -> Callable[[Word], Fraction]:
    if isinstance(f, BrooksSum):
        return lambda w: brute_evaluate(f, w)
    return f


@dataclass(frozen=True)
class BallReport:
    radius: int
    sup: Fraction
    argmax: Optional[Word]
    count: int


def sup_on_ball(f: Evaluable, radius: int, alphabet: Alphabet) -> BallReport:
    """Exhaustive max of |f| over the ball, with the first maximizer."""
    func = _as_callable(f)
    sup, argmax, count = Fraction(0), None, 0
    for w in cached_ball(alphabet, radius):
        count += 1
        value = abs(func(w))
        if value > sup:
            sup, argmax = value, w
    assert count == ball_size(alphabet.rank, radius)
    return BallReport(radius, sup, argmax, count)


def sup_profile(f: Evaluable, radii: Sequence[int], alphabet: Alphabet) -> list[BallReport]:
    """Sups over several radii in a single pass over the largest ball."""
    radii = sorted(radii)
    func = _as_callable(f)
    sups: dict[int, Fraction] = {r: Fraction(0) for r in radii}
    argmaxes: dict[int, Optional[Word]] = {r: None for r in radii}
    for w in cached_ball(alphabet, radii[-1]):
        value = abs(func(w))
        for r in radii:
            if len(w) <= r and value > sups[r]:
                sups[r], argmaxes[r] = value, w
    return [BallReport(r, sups[r], argmaxes[r], ball_size(alphabet.rank, r)) for r in radii]


PASS = "PASS"


def exact_identity_check(
    lhs: Evaluable,
    rhs: Evaluable,
    radius: int,
    alphabet: Alphabet,
    transform: Optional[Callable[[Word], Word]] = None,
) -> Union[str, Word]:
    """Check lhs(transform(v)) = rhs(v) on the whole ball.

    Returns PASS or the first counterexample in enumeration order.
    """
    left, right = _as_callable(lhs), _as_callable(rhs)
    for v in cached_ball(alphabet, radius):
        u = transform(v) if transform is not None else v
        if left(u) != right(v):
            return v
    return PASS


class Verdict(Enum):
    LIKELY_EQUIV = "LIKELY_EQUIV"
    DIVERGING = "DIVERGING"
    INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class EquivReport:
    verdict: Verdict
    sups: tuple[Fraction, ...]


DEFAULT_RADII = (4, 5, 6, 7)


def empirical_equiv(
    f: Evaluable,
    g: Evaluable,
    alphabet: Alphabet,
    radii: Sequence[int] = DEFAULT_RADII,
) -> EquivReport:
    """Semi-decision for bounded difference, never used by algebraic code.

    LIKELY_EQUIV when the sup of |f - g| is constant over the last three
    radii; DIVERGING when it strictly increases across all sampled radii;
    INCONCLUSIVE otherwise (the defined cases cover all acceptance uses).
    """
    if len(radii) < 3 or any(radii[i] >= radii[i + 1] for i in range(len(radii) - 1)):
        raise ValueError("radii must be increasing, at least three of them")
    left, right = _as_callable(f), _as_callable(g)
    reports = sup_profile(lambda w: left(w) - right(w), radii, alphabet)
    sups = tuple(r.sup for r in reports)
    if sups[-1] == sups[-2] == sups[-3]:
        return EquivReport(Verdict.LIKELY_EQUIV, sups)
    if all(sups[i] < sups[i + 1] for i in range(len(sups) - 1)):
        return EquivReport(Verdict.DIVERGING, sups)
    return EquivReport(Verdict.INCONCLUSIVE, sups)


def defect_and_homogenize(
    f: Evaluable,
    radius: int,
    power_word: Word,
    k: int,
    alphabet: Alphabet,
) -> tuple[Fraction, Fraction]:
    """Defect estimate over ball pairs and the Fekete-style ratio f(v^k)/k.

    Both are estimates: the defect is a max over a finite ball, the
    homogenization a single ratio; no convergence claim is made.
    """
    if radius < 1 or k < 1:
        raise ValueError("radius and k must be positive")
    func = _as_callable(f)
    words = cached_ball(alphabet, radius)
    values = {w: func(w) for w in words}
    from .freegroup import multiply, power

    defect = Fraction(0)
    for g in words:
        fg = values[g]
        for h in words:
            d = abs(func(multiply(g, h)) - fg - values[h])
            if d > defect:
                defect = d
    return defect, func(power(power_word, k)) / k
