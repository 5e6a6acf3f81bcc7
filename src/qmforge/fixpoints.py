"""Fixpoint exclusion: an explicit Nielsen word moving a given class.

exclude_fixpoint returns, for any nonzero Brooks sum, a Nielsen word X
together with recomputable evidence that the class of act(X, f) cannot stay
put under T^-1 iteration while [f] does - positive speed, a changed
homomorphism coefficient vector, or (only on the rank-2 rot line, where the
speed evidence degenerates) a sign flip of the rot coefficient.  The case
dispatch follows a fixed order, so results are deterministic; minimality of
X is not attempted.  One function computes the evidence of every kind from
f and act(X, f): exclude_fixpoint builds each witness with it, and
verify_witness replays it and compares.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from typing import Optional

from .action import NielsenWord, act
from .counting import BrooksSum
from .freegroup import A, B, Alphabet, NielsenGen, Word, skeleton, word_sort_key
from .relations import normal_form
from .speed import SpeedReport, speed


class EvidenceKind(Enum):
    POSITIVE_SPEED = "POSITIVE_SPEED"
    HOM_COEFFICIENT_CHANGE = "HOM_COEFFICIENT_CHANGE"
    ROT_SIGN_FLIP = "ROT_SIGN_FLIP"


@dataclass(frozen=True)
class ExclusionWitness:
    """X and the evidence that act(X, f) escapes the class of f.

    POSITIVE_SPEED carries the speed report of act(X, f); since speed is a
    class invariant and positive speed forces an unbounded T^-1-orbit, the
    class is not fixed.  HOM_COEFFICIENT_CHANGE carries the coefficient
    vectors on the generators before and after.  ROT_SIGN_FLIP carries the
    rot coefficients, which X negates.
    """

    X: NielsenWord
    kind: EvidenceKind
    report: Optional[SpeedReport] = None
    hom_before: Optional[dict[int, Fraction]] = None
    hom_after: Optional[dict[int, Fraction]] = None
    rot_before: Optional[Fraction] = None
    rot_after: Optional[Fraction] = None
    witness_word: Optional[Word] = None


def _hom_vector(f: BrooksSum, alphabet: Alphabet) -> dict[int, Fraction]:
    """Coefficient vector of the homomorphism part, read off generator powers.
    f is a normal form, whose canonical keys spell each x^k with x > 0 (x < x^-1)."""
    vec = {i: Fraction(0) for i in range(1, alphabet.rank + 1)}
    for v, c in f.weight.items():
        if len(set(v)) == 1:
            vec[v[0]] += c
    return vec


def _witness(
    x: NielsenWord, kind: EvidenceKind, f: BrooksSum, alphabet: Alphabet
) -> ExclusionWitness:
    """The witness X = x of the given kind, its evidence computed from f and act(x, f)."""
    moved = act(x, f, alphabet)
    if kind is EvidenceKind.HOM_COEFFICIENT_CHANGE:
        before, after = (_hom_vector(normal_form(g, alphabet)[0], alphabet) for g in (f, moved))
        return ExclusionWitness(x, kind, hom_before=before, hom_after=after)
    report = speed(moved, alphabet)
    if kind is EvidenceKind.POSITIVE_SPEED:
        return ExclusionWitness(x, kind, report=report)
    before = speed(f, alphabet).rot_coefficient
    return ExclusionWitness(x, kind, rot_before=before, rot_after=report.rot_coefficient)


def _holds(wit: ExclusionWitness) -> bool:
    """Does the witness's evidence show that X moves the class?"""
    if wit.kind is EvidenceKind.POSITIVE_SPEED:
        assert wit.report is not None
        return wit.report.value > 0
    if wit.kind is EvidenceKind.HOM_COEFFICIENT_CHANGE:
        return wit.hom_after != wit.hom_before
    assert wit.rot_before is not None and wit.rot_after is not None
    return wit.rot_after == -wit.rot_before != wit.rot_before


def _checked(wit: ExclusionWitness, failure: str) -> ExclusionWitness:
    if not _holds(wit):
        raise ValueError(failure)
    return wit


def exclude_fixpoint(
    f: BrooksSum, alphabet: Alphabet, _depth: int = 0
) -> ExclusionWitness:
    """A Nielsen word moving [f], with machine-checkable evidence.

    Raises ValueError on the zero class.  The dispatch order is fixed:
    positive speed as given; nonzero rot coefficient; a support word mixing
    a-letters with other skeleton letters; an all-{a,a^-1} skeleton of two
    or more letters; an a-free skeleton (cycled onto b and retried); and
    finally the homomorphism coefficient vector.  The cases after the rot
    case have speed 0 and rot coefficient 0, where the residue of f's speed
    report is f's normal form: they read the support off it.
    """
    if _depth > alphabet.rank + 1:
        raise ValueError("case dispatch failed to terminate")
    rep = speed(f, alphabet)
    if rep.value > 0:
        # X = e: the evidence speed(act(e, f)) is f's own report, already at hand.
        return ExclusionWitness(NielsenWord(()), EvidenceKind.POSITIVE_SPEED, report=rep)
    if rep.rot_coefficient == 0 and rep.residue.is_zero():
        raise ValueError("the zero class is fixed by everything")

    if rep.rot_coefficient != 0:
        for gen in (NielsenGen.H, NielsenGen.P1):
            wit = _witness(NielsenWord((gen,)), EvidenceKind.POSITIVE_SPEED, f, alphabet)
            if _holds(wit):
                return wit
        # Rank 2, the rot line itself: H negates the rot coefficient, which
        # is all the moving that can be certified by speed alone.
        wit = _witness(NielsenWord((NielsenGen.H,)), EvidenceKind.ROT_SIGN_FLIP, f, alphabet)
        return _checked(wit, "H failed to flip the rot coefficient")

    skeletons = {v: skeleton(v) for v in rep.residue.support()}
    long_keys = {v: sk for v, sk in skeletons.items() if len(sk) >= 2}
    mixed = [
        v
        for v, sk in long_keys.items()
        if any(abs(s) == A for s in sk) and any(abs(s) != A for s in sk)
    ]
    a_only = [v for v, sk in long_keys.items() if all(abs(s) == A for s in sk)]
    for gen, keys, failure in (
        (NielsenGen.H, mixed, "mixed-skeleton word failed to leave O under H"),
        (NielsenGen.P1, a_only, "all-a skeleton failed to gain speed under P1"),
    ):
        if keys:
            wit = _witness(NielsenWord((gen,)), EvidenceKind.POSITIVE_SPEED, f, alphabet)
            return replace(_checked(wit, failure), witness_word=min(keys, key=word_sort_key))

    if long_keys:
        # A-free skeletons: cycle the leading skeleton letter of the smallest
        # one onto b and rerun the dispatch on the image.
        w0 = min(long_keys, key=word_sort_key)
        j = (B - abs(long_keys[w0][0])) % alphabet.rank
        shift = NielsenWord((NielsenGen.P2,) * j)
        inner = exclude_fixpoint(act(shift, f, alphabet), alphabet, _depth + 1)
        return replace(inner, X=NielsenWord(shift.gens + inner.X.gens))

    before = _hom_vector(rep.residue, alphabet)
    if before[B] != 0:
        x = NielsenWord((NielsenGen.TINV,))
    else:
        j = min((B - i) % alphabet.rank for i, c in before.items() if c != 0)
        x = NielsenWord((NielsenGen.P2,) * j + (NielsenGen.TINV,))
    wit = _witness(x, EvidenceKind.HOM_COEFFICIENT_CHANGE, f, alphabet)
    return _checked(wit, "T^-1 left the coefficient vector unchanged")


def _evidence(wit: ExclusionWitness) -> tuple:
    """What verify_witness compares: the report value, both vectors, both rot coefficients."""
    value = None if wit.report is None else wit.report.value
    return value, wit.hom_before, wit.hom_after, wit.rot_before, wit.rot_after


def verify_witness(f: BrooksSum, witness: ExclusionWitness, alphabet: Alphabet) -> bool:
    """Rebuild the witness with the function exclude_fixpoint built it with,
    and compare its evidence."""
    again = _witness(witness.X, witness.kind, f, alphabet)
    return _holds(again) and _evidence(again) == _evidence(witness)
