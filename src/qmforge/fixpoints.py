"""Fixpoint exclusion: an explicit Nielsen word moving a given class.

exclude_fixpoint returns, for any nonzero Brooks sum, a Nielsen word X
together with recomputable evidence that the class of act(X, f) cannot stay
put under T^-1 iteration while [f] does - positive speed, a changed
homomorphism coefficient vector, or (only on the rank-2 rot line, where the
speed evidence degenerates) a sign flip of the rot coefficient.  The case
dispatch follows a fixed order, so results are deterministic; minimality of
X is not attempted.
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
from .speed import SpeedReport, _speed_of_normal_form, speed


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
    """Coefficient vector of the homomorphism part, read off generator powers."""
    vec = {i: Fraction(0) for i in range(1, alphabet.rank + 1)}
    for v, c in f.weight.items():
        if len(set(v)) == 1:
            s = v[0]
            if s > 0:
                vec[s] += c
            else:
                vec[-s] -= c
    return vec


def exclude_fixpoint(
    f: BrooksSum, alphabet: Alphabet, _depth: int = 0
) -> ExclusionWitness:
    """A Nielsen word moving [f], with machine-checkable evidence.

    Raises ValueError on the zero class.  The dispatch order is fixed:
    positive speed as given; nonzero rot coefficient; a support word mixing
    a-letters with other skeleton letters; an all-{a,a^-1} skeleton of two
    or more letters; an a-free skeleton (cycled onto b and retried); and
    finally the homomorphism coefficient vector.
    """
    if _depth > alphabet.rank + 1:
        raise ValueError("case dispatch failed to terminate")
    nf, trace = normal_form(f, alphabet)
    if nf.is_zero():
        raise ValueError("the zero class is fixed by everything")

    rep = _speed_of_normal_form(nf, trace, alphabet)
    if rep.value > 0:
        return ExclusionWitness(
            X=NielsenWord(()), kind=EvidenceKind.POSITIVE_SPEED, report=rep
        )

    if rep.rot_coefficient != 0:
        for gen in (NielsenGen.H, NielsenGen.P1):
            moved = speed(act(gen, f, alphabet), alphabet)
            if moved.value >= 1:
                return ExclusionWitness(
                    X=NielsenWord((gen,)),
                    kind=EvidenceKind.POSITIVE_SPEED,
                    report=moved,
                )
        # Rank 2, the rot line itself: H negates the rot coefficient, which
        # is all the moving that can be certified by speed alone.
        flipped = speed(act(NielsenGen.H, f, alphabet), alphabet).rot_coefficient
        if flipped != -rep.rot_coefficient or flipped == rep.rot_coefficient:
            raise ValueError("H failed to flip the rot coefficient")
        return ExclusionWitness(
            X=NielsenWord((NielsenGen.H,)),
            kind=EvidenceKind.ROT_SIGN_FLIP,
            rot_before=rep.rot_coefficient,
            rot_after=flipped,
        )

    skeletons = {v: skeleton(v) for v in rep.residue.support()}
    long_keys = {v: sk for v, sk in skeletons.items() if len(sk) >= 2}
    mixed = [
        v
        for v, sk in long_keys.items()
        if any(abs(s) == A for s in sk) and any(abs(s) != A for s in sk)
    ]
    if mixed:
        moved = speed(act(NielsenGen.H, f, alphabet), alphabet)
        if moved.value < 1:
            raise ValueError("mixed-skeleton word failed to leave O under H")
        return ExclusionWitness(
            X=NielsenWord((NielsenGen.H,)),
            kind=EvidenceKind.POSITIVE_SPEED,
            report=moved,
            witness_word=min(mixed, key=word_sort_key),
        )

    a_only = [v for v, sk in long_keys.items() if all(abs(s) == A for s in sk)]
    if a_only:
        moved = speed(act(NielsenGen.P1, f, alphabet), alphabet)
        if moved.value < 1:
            raise ValueError("all-a skeleton failed to gain speed under P1")
        return ExclusionWitness(
            X=NielsenWord((NielsenGen.P1,)),
            kind=EvidenceKind.POSITIVE_SPEED,
            report=moved,
            witness_word=min(a_only, key=word_sort_key),
        )

    if long_keys:
        # A-free skeletons: cycle the leading skeleton letter of the smallest
        # one onto b and rerun the dispatch on the image.
        w0 = min(long_keys, key=word_sort_key)
        j = (B - abs(long_keys[w0][0])) % alphabet.rank
        if j < 1:
            raise ValueError("the leading skeleton letter is already b")
        shift = NielsenWord((NielsenGen.P2,) * j)
        inner = exclude_fixpoint(act(shift, f, alphabet), alphabet, _depth + 1)
        return replace(inner, X=NielsenWord(shift.gens + inner.X.gens))

    before = _hom_vector(nf, alphabet)
    if before[B] != 0:
        x = NielsenWord((NielsenGen.TINV,))
    else:
        nonzero = [i for i, c in before.items() if c != 0]
        if not nonzero:
            raise ValueError("nonzero normal form with an empty coefficient vector")
        j = min((B - i) % alphabet.rank for i in nonzero)
        if j < 1:
            raise ValueError("the coefficient vector is already on b")
        x = NielsenWord((NielsenGen.P2,) * j + (NielsenGen.TINV,))
    moved_nf, _ = normal_form(act(x, f, alphabet), alphabet)
    after = _hom_vector(moved_nf, alphabet)
    if after == before:
        raise ValueError("T^-1 left the coefficient vector unchanged")
    return ExclusionWitness(
        X=x,
        kind=EvidenceKind.HOM_COEFFICIENT_CHANGE,
        hom_before=before,
        hom_after=after,
    )


def verify_witness(f: BrooksSum, witness: ExclusionWitness, alphabet: Alphabet) -> bool:
    """Recompute the evidence of a witness from scratch."""
    moved = act(witness.X, f, alphabet)
    if witness.kind is EvidenceKind.POSITIVE_SPEED:
        assert witness.report is not None
        rep = speed(moved, alphabet)
        return rep.value > 0 and rep.value == witness.report.value
    if witness.kind is EvidenceKind.HOM_COEFFICIENT_CHANGE:
        before = _hom_vector(normal_form(f, alphabet)[0], alphabet)
        after = _hom_vector(normal_form(moved, alphabet)[0], alphabet)
        return (
            before == witness.hom_before
            and after == witness.hom_after
            and before != after
        )
    lam = speed(f, alphabet).rot_coefficient
    lam_moved = speed(moved, alphabet).rot_coefficient
    return (
        lam == witness.rot_before
        and lam_moved == witness.rot_after
        and lam_moved == -lam != lam
    )
