"""Speed of T^-1 on Brooks classes.

The speed of a single key phi_w is a closed form in the b-representation of
w: the alternation count |A+| + |A-| plus a kind offset.  For sums the value
is read off a speed-reduced decomposition f ~ lambda*rot + g.  In the one
degenerate configuration (the top-speed keys hold an edge column b^m s or
s b^m, and nothing but edge columns and b-truncated keys) relations'
_merge_columns with edge targets walks each edge column to exponent 1, and
the b*a^-1 / a*b column is absorbed into rot.

support_geometry reports the length grid of the n-support of one key from
the actual factor words, plus the cutoff n_b below which non-b-truncated
support words live; empirical_speed is the estimator companion - it only
reports certified lengths against n and makes no convergence claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Union

from .action import (
    NielsenWord,
    act,
    left_factors,
    n_representative,
    nrep,
)
from .counting import (
    BrooksSum,
    LengthStatus,
    brooks_sum,
    certified_reduced_length,
    norm,
)
from .freegroup import (
    A,
    B,
    Alphabet,
    Kind,
    NielsenGen,
    Word,
    b_form,
    inverse,
    skeleton,
    tau,
    word_sort_key,
)
from .relations import (
    RewriteTrace,
    _first_violation,
    _is_column,
    _merge_columns,
    _Rewriter,
    normal_form,
)


def sp_word(w: Word) -> int:
    """The closed-form speed of T^-1 on [phi_w].

    |A+| + |A-| + kind offset, where A+ collects the skeleton positions with
    s_j != a followed by a^-1 and A- those with s_j = a not followed by a^-1.
    The kind offset (0 b-truncated, 1 b-left or right-b, 2 b-and-b) is the
    number of w's ends that carry b.  Pure b-powers other than b^{+-1} have
    no single-key speed; sums holding them must be decomposed first.
    """
    if not w:
        raise ValueError("the identity has no word speed")
    value = (abs(w[0]) == B) + (abs(w[-1]) == B)
    last = 0  # the skeleton letter read last; 0 before the first
    for x in w:
        if x != B and x != -B:
            # A position is in A+ or A- exactly when "s_j = a" and "s_j+1 = a^-1" differ.
            if last:
                value += (last == A) != (x == -A)
            last = x
    if not last:
        if len(w) == 1:
            return 0
        raise ValueError("phi of a proper b-power is not speed reduced; decompose first")
    return value


def in_O(w: Word) -> bool:
    """Membership in O, the words where T^-1 moves phi_w boundedly.

    O consists of b^{+-1} and the b-truncated words where every a is
    immediately followed by a^-1 and every a^-1 immediately preceded by a:
    the zero set of sp_word away from b-powers.
    """
    if not w:
        raise ValueError("the identity is not classified")
    return len(w) == 1 if tau(w) is None else sp_word(w) == 0


def _rot_weights(alphabet: Alphabet) -> dict[Word, int]:
    """rot's integer weights on raw keys: 1 at ab, then -1 at each b s, s in
    S_b minus a^-1.  Some b s are not canonical; brooks_sum and emit turn them."""
    weights = {(A, B): 1}
    for s in alphabet.s_b():
        if s != -A:
            weights[(B, s)] = -1
    return weights


def rot(alphabet: Alphabet) -> BrooksSum:
    """The distinguished T^-1-invariant combination phi(ab) - sum phi(bs).

    The sum runs over s in S_b minus a^-1; at rank 2 this is phi(ab)-phi(ba).
    """
    return brooks_sum(_rot_weights(alphabet))


# ---------------------------------------------------------------------------
# Speed-reduced decomposition


@dataclass(frozen=True)
class SpeedReport:
    """Speed of T^-1 on [f], with the decomposition that certifies it.

    Only value is a class invariant: rot_coefficient (lambda) and residue
    belong to this representative's decomposition, and adding a bounded sum
    to f can change them.
    """

    rot_coefficient: Fraction
    value: int
    witness: Optional[Word]
    residue: BrooksSum
    trace: RewriteTrace


def _top_speeds(f: BrooksSum) -> tuple[int, list[Word]]:
    """The top word speed over the support (0 when empty) and the keys that
    reach it, in (length, lex) order."""
    speeds = {v: sp_word(v) for v in f.weight}
    top = max(speeds.values(), default=0)
    return top, sorted((v for v, sp in speeds.items() if sp == top), key=word_sort_key)


def _is_edge_column(v: Word) -> bool:
    """One skeleton letter carrying a single boundary exponent (b^m s or s b^m)."""
    return _is_column(v) and len(skeleton(v)) == 1


def _reduced_as_given(top: list[Word]) -> bool:
    """Does the top-speed set already force speed = max support speed?

    False only in the degenerate configuration: top holds an edge column,
    and nothing but edge columns and b-truncated keys.
    """
    return not any(map(_is_edge_column, top)) or not all(
        _is_edge_column(v) or B not in (abs(v[0]), abs(v[-1])) for v in top
    )


def _absorb_columns(nf: BrooksSum, alphabet: Alphabet) -> tuple[Fraction, BrooksSum, RewriteTrace]:
    """Walk every edge column to exponent 1 and convert b*a^-1 into rot.

    Keys b^m s (and the flipped s b^m) retarget to phi(b s); the a^-1 column
    funnels to the phi(ab) class instead, which then dissolves by definition
    of rot: with n the numerator at ab, subtracting lambda*rot emits -n times
    each of rot's weights.  Everything else passes through untouched.  The
    residue is built from checked keys, so only the recognition scan reruns.
    """
    rewriter = _Rewriter(alphabet, nf.weight)
    _merge_columns(rewriter, _is_edge_column, lambda skel, _: -1 if skel == (-A,) else 1)
    n = rewriter.weight.get((A, B), 0)
    for v, c in _rot_weights(alphabet).items():
        rewriter.emit(v, -n * c)
    residue, trace = rewriter.result()
    if (violation := _first_violation(residue.weight)) is not None:
        raise ValueError(str(violation))
    return Fraction(n, rewriter.den), residue, trace


def speed(f: BrooksSum, alphabet: Alphabet) -> SpeedReport:
    """Exact speed of T^-1 on [f]: the top word speed over the residue g of
    f ~ lambda*rot + g, witnessed by g's first top-speed key.

    When the top-speed set of the normal form is already conclusive the rot
    part is 0; otherwise the column rewrite runs, and in the borderline case
    (top-speed keys of both column and b-truncated shape) its result is kept
    only if it strictly lowers the top speed.
    """
    nf, trace = normal_form(f, alphabet)
    lam, residue = Fraction(0), nf
    value, top = _top_speeds(nf)
    if value > 0 and not _reduced_as_given(top):
        lam_c, residue_c, extra = _absorb_columns(nf, alphabet)
        value_c, top_c = _top_speeds(residue_c)
        if all(_is_edge_column(v) for v in top) or value_c < value:
            lam, residue, trace = lam_c, residue_c, trace + extra
            value, top = value_c, top_c
    witness: Optional[Word] = None
    if value > 0:
        v = top[0]
        witness = v if residue.weight[v] > 0 else inverse(v)
    return SpeedReport(lam, value, witness, residue, trace)


# ---------------------------------------------------------------------------
# Geometry of one key's n-support


@dataclass(frozen=True)
class SupportGeometry:
    """Length grid of the n-support of phi_w and its b-truncation cutoff.

    square_lengths[(i, j)] is the common length of the support words built
    from an index-i left factor and an index-j right factor; n_b bounds the
    lengths of the non-b-truncated support words (0 when every support word
    is b-truncated, in which case E_b is the whole support).
    """

    base: Word
    n: int
    kind: Kind
    middle: Word
    square_lengths: dict[tuple[int, int], int]
    n_b: int
    support_norm: int
    e_b_nonempty: bool


def _length_by_index(rows: list[tuple[int, int, Word]]) -> dict[int, int]:
    lengths: dict[int, int] = {}
    for i, _, u in rows:
        if lengths.setdefault(i, len(u)) != len(u):
            raise ValueError(f"factor words of index {i} differ in length")
    return lengths


def support_geometry(w: Word, n: int, alphabet: Alphabet) -> SupportGeometry:
    rep = nrep(w, n, alphabet)  # rejects b-powers and n < 1
    form = b_form(w)

    lefts = _length_by_index(left_factors(form.m0, form.s[0], n, alphabet))
    # The right factors are the left factors of (-mk, -sk) inverted, of the same lengths.
    rights = _length_by_index(left_factors(-form.mk, -form.s[-1], n, alphabet))
    squares = {
        (i, j): li + len(rep.middle) + rj for i, li in lefts.items() for j, rj in rights.items()
    }

    arms = [0]
    if form.m0 != 0:
        w_k = w[abs(form.m0):]
        arms.append(abs(form.m0) + norm(n_representative(w_k, n, alphabet)))
    if form.mk != 0:
        w_0 = w[: len(w) - abs(form.mk)]
        arms.append(norm(n_representative(w_0, n, alphabet)) + abs(form.mk))
    n_b = max(arms)

    support_norm = norm(rep.as_sum())
    return SupportGeometry(
        base=w,
        n=n,
        kind=form.kind(),
        middle=rep.middle,
        square_lengths=squares,
        n_b=n_b,
        support_norm=support_norm,
        e_b_nonempty=n_b < support_norm,
    )


# ---------------------------------------------------------------------------
# Gauge estimator


class BoundTag(Enum):
    EXACT = "EXACT"
    UPPER = "UPPER"


@dataclass(frozen=True)
class GaugeSample:
    n: int
    length: int
    tag: BoundTag
    ratio: Fraction


@dataclass(frozen=True)
class GaugeSeries:
    samples: tuple[GaugeSample, ...]


def empirical_speed(
    f: BrooksSum,
    x: Union[NielsenWord, NielsenGen],
    n_max: int,
    alphabet: Alphabet,
) -> GaugeSeries:
    """Certified lengths of representatives of x^n[f] against n.

    The representative of x^n[f] is act(x, .) applied n times to f, for T^-1
    as for any other Nielsen word, so every step is checked and charged to
    relations.REWRITE_LETTER_BUDGET like any act.  Each sample carries the
    best length certificate available: EXACT when the class length is pinned,
    otherwise the support norm as an UPPER bound.  No convergence claim is
    made - the ratios are raw data.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    samples = []
    rep = f
    for n in range(1, n_max + 1):
        rep = act(x, rep, alphabet)
        cert = certified_reduced_length(rep, alphabet)
        if cert.status is LengthStatus.UNKNOWN:
            length, tag = norm(rep), BoundTag.UPPER
        else:
            assert cert.value is not None
            length, tag = cert.value, BoundTag.EXACT
        samples.append(GaugeSample(n, length, tag, Fraction(length, n)))
    return GaugeSeries(samples=tuple(samples))
