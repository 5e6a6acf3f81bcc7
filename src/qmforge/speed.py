"""Speed of T^-1 on Brooks classes.

The speed of a single key phi_w is a closed form in the b-representation of
w: the alternation count |A+| + |A-| plus a kind offset.  For sums the value
is read off a speed-reduced decomposition f ~ lambda*rot + g: the one
degenerate configuration (all top-speed keys are single-skeleton-letter
words carrying one boundary b-exponent) is repaired by walking those
exponents to 1 and absorbing the b*a^-1 / a*b column into rot.

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
    n_representative_sum,
    nrep,
    right_factors,
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
    kind_of,
    tau,
    word_sort_key,
)
from .relations import (
    RelationKind,
    RewriteTrace,
    _Rewriter,
    eliminate_b_powers,
    is_normal_form,
    normal_form,
)

_KIND_OFFSET = {Kind.B_TRUNCATED: 0, Kind.B_LEFT: 1, Kind.RIGHT_B: 1, Kind.B_AND_B: 2}


def sp_word(w: Word) -> int:
    """The closed-form speed of T^-1 on [phi_w].

    |A+| + |A-| + kind offset, where A+ collects the skeleton positions with
    s_j != a followed by a^-1 and A- those with s_j = a not followed by a^-1.
    Pure b-powers other than b^{+-1} have no single-key speed; sums holding
    them must be decomposed first.
    """
    if not w:
        raise ValueError("the identity has no word speed")
    if tau(w) is None:
        if len(w) == 1:
            return 0
        raise ValueError("phi of a proper b-power is not speed reduced; decompose first")
    s = b_form(w).s
    plus = sum(1 for j in range(len(s) - 1) if s[j] != A and s[j + 1] == -A)
    minus = sum(1 for j in range(len(s) - 1) if s[j] == A and s[j + 1] != -A)
    return plus + minus + _KIND_OFFSET[kind_of(w)]


def in_O(w: Word) -> bool:
    """Membership in O, the words where T^-1 moves phi_w boundedly.

    O consists of b^{+-1} and the b-truncated words where every a is
    immediately followed by a^-1 and every a^-1 immediately preceded by a;
    equivalently the zero set of sp_word away from proper b-powers.
    """
    if not w:
        raise ValueError("the identity is not classified")
    if tau(w) is None:
        return len(w) == 1
    form = b_form(w)
    if form.kind() is not Kind.B_TRUNCATED:
        return False
    s = form.s
    for j in range(len(s) - 1):
        if s[j] == A and s[j + 1] != -A:
            return False
        if s[j + 1] == -A and s[j] != A:
            return False
    return True


def rot(alphabet: Alphabet) -> BrooksSum:
    """The distinguished T^-1-invariant combination phi(ab) - sum phi(bs).

    The sum runs over s in S_b minus a^-1; at rank 2 this is phi(ab)-phi(ba).
    """
    entries: dict[Word, Fraction] = {(A, B): Fraction(1)}
    for s in alphabet.s_b():
        if s != -A:
            entries[(B, s)] = Fraction(-1)
    return brooks_sum(entries)


# ---------------------------------------------------------------------------
# Speed-reduced decomposition


@dataclass(frozen=True)
class SpeedReport:
    """Speed of T^-1 on [f], with the decomposition that certifies it."""

    rot_coefficient: Fraction
    value: int
    witness: Optional[Word]
    residue: BrooksSum
    trace: RewriteTrace


def _max_sp(f: BrooksSum) -> int:
    return max((sp_word(v) for v in f.weight), default=0)


def _top_speed_set(f: BrooksSum) -> list[Word]:
    top = _max_sp(f)
    return sorted((v for v in f.weight if sp_word(v) == top), key=word_sort_key)


def _is_edge_column(v: Word) -> bool:
    """One skeleton letter carrying a single boundary exponent (b^m s or s b^m)."""
    form = b_form(v)
    return len(form.s) == 1 and form.kind() in (Kind.B_LEFT, Kind.RIGHT_B)


def _reduced_as_given(top: list[Word]) -> bool:
    """Does the top-speed set already force speed = max support speed?

    True when it holds a b-and-b key, or a b-left/right-b key of b-length
    at least 2, or nothing but b-truncated keys.
    """
    forms = [b_form(v) for v in top]
    if any(f.kind() is Kind.B_AND_B for f in forms):
        return True
    if any(f.kind() in (Kind.B_LEFT, Kind.RIGHT_B) and len(f.s) >= 2 for f in forms):
        return True
    return all(f.kind() is Kind.B_TRUNCATED for f in forms)


def _absorb_columns(nf: BrooksSum, alphabet: Alphabet) -> tuple[Fraction, BrooksSum, RewriteTrace]:
    """Walk every edge-column key to exponent 1 and convert b*a^-1 into rot.

    Keys b^m s (and the flipped s b^m) retarget to phi(b s); the a^-1 column
    funnels to the phi(ab) class instead, which then dissolves by definition
    of rot.  Everything else passes through untouched.
    """
    rewriter = _Rewriter(alphabet)
    for v, c in nf.weight.items():
        if tau(v) is None or not _is_edge_column(v):
            rewriter.emit(v, c)
            continue
        form = b_form(v)
        if form.kind() is Kind.RIGHT_B:
            v, c = inverse(v), -c
            form = b_form(v)
        target = -1 if form.s[0] == -A else 1
        if form.m0 == target:
            rewriter.emit(v, c)
        else:
            rewriter.retarget(RelationKind.LEFT, (form.s[0],), form.m0, target, c)
    mid, trace = rewriter.result()
    lam = mid.coefficient((A, B))
    residue = mid - rot(alphabet).scale(lam)
    ok, violation = is_normal_form(residue, alphabet)
    assert ok, violation
    return lam, residue, trace


def speed_decompose(
    f: BrooksSum, alphabet: Alphabet
) -> tuple[Fraction, BrooksSum, RewriteTrace]:
    """An equivalent lambda*rot + g with g in normal form and speed reduced.

    The trace replays the input into rot.scale(lambda) + g exactly.  When the
    top-speed set of the normal form is already conclusive the rot part is 0;
    otherwise the column rewrite runs, and in the borderline case (top-speed
    keys of both column and b-truncated shape) its result is kept only if it
    strictly lowers the top speed.
    """
    nf, trace = normal_form(f, alphabet)
    if nf.is_zero():
        return Fraction(0), nf, trace
    top = _top_speed_set(nf)
    if sp_word(top[0]) == 0 or _reduced_as_given(top):
        return Fraction(0), nf, trace
    lam, residue, extra = _absorb_columns(nf, alphabet)
    if all(_is_edge_column(v) for v in top) or _max_sp(residue) < _max_sp(nf):
        return lam, residue, trace + extra
    return Fraction(0), nf, trace


def speed(f: BrooksSum, alphabet: Alphabet) -> SpeedReport:
    """Exact speed of T^-1 on [f]: the top word speed over the residue."""
    lam, residue, trace = speed_decompose(f, alphabet)
    value = _max_sp(residue)
    witness: Optional[Word] = None
    if value > 0:
        v = _top_speed_set(residue)[0]
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


def support_geometry(w: Word, n: int, alphabet: Alphabet) -> SupportGeometry:
    if tau(w) is None:
        raise ValueError("b-powers have no quadrant geometry")
    if n < 1:
        raise ValueError("n must be >= 1")
    form = b_form(w)
    rep = nrep(w, n, alphabet)

    left_len: dict[int, int] = {}
    for i, _, u in left_factors(form.m0, form.s[0], n, alphabet):
        assert left_len.setdefault(i, len(u)) == len(u)
    right_len: dict[int, int] = {}
    for j, _, u in right_factors(form.mk, form.s[-1], n, alphabet):
        assert right_len.setdefault(j, len(u)) == len(u)
    squares = {
        (i, j): li + len(rep.M) + rj for i, li in left_len.items() for j, rj in right_len.items()
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
        middle=rep.M,
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

    For x = T^-1 the representative is the explicit n-representative (so the
    whole series costs one pass); any other Nielsen word is iterated.  Each
    sample carries the best length certificate available: EXACT when the
    class length is pinned, otherwise the support norm as an UPPER bound.
    No convergence claim is made - the ratios are raw data.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if isinstance(x, NielsenGen):
        x = NielsenWord.from_gens([x])

    pure_tinv = x.gens == (NielsenGen.TINV,)
    if pure_tinv:
        base, _ = eliminate_b_powers(f, alphabet)

    samples = []
    g = f
    for n in range(1, n_max + 1):
        if pure_tinv:
            rep = n_representative_sum(base, n, alphabet)
        else:
            g = act(x, g, alphabet)
            rep = g
        cert = certified_reduced_length(rep, alphabet)
        if cert.status is LengthStatus.UNKNOWN:
            length, tag = norm(rep), BoundTag.UPPER
        else:
            assert cert.value is not None
            length, tag = cert.value, BoundTag.EXACT
        samples.append(GaugeSample(n, length, tag, Fraction(length, n)))
    return GaugeSeries(samples=tuple(samples))
