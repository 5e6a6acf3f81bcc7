"""Extension-relation rewriting: traces, retargeting, and normal forms.

The kernel of the passage from counting sums to bounded-distance classes is
spanned by the left/right extension relations

    l_w = #w - sum_{s != w_1^-1} #(sw)      r_w = #w - sum_{s != w_k^-1} #(ws)

(each evaluates to the indicator "starts with w" / "ends with w", hence is
bounded).  Every rewrite here is a chain of single steps, each consuming one
r/l pair anchored at a base word u; the step on Brooks sums

    phi(u b) = phi(u) - phi(u b^-1) - sum_{s in S_b, s != u_t^-1} phi(u s)
               - r_u + l_{u^-1}

and its exponent-shifting variants are exact identities of counting sums, so
a trace of (kind, base, coefficient) entries certifies
input - output = traced combination, symbolically and with zero tolerance.
A single walk serves both ends of a key: the side it moves (RIGHT for the
trailing exponent, LEFT for the leading one) is also the kind that leads
each relation pair it consumes.
The check is one pass over the trace into a single integer accumulator,
every coefficient scaled by the lcm of all denominators involved: it costs
O(steps x 2 rank) integer operations and stays an exact zero test.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import lcm
from typing import Iterable, Optional

from .counting import BrooksSum, Mode, as_counting, brooks_sum, counting_sum
from .freegroup import (
    B,
    Alphabet,
    Kind,
    Word,
    b_form,
    b_power,
    inverse,
    is_reduced,
    is_truncated,
    kind_of,
    tau,
    word_sort_key,
)


class RelationKind(Enum):
    LEFT = "LEFT"
    RIGHT = "RIGHT"


def _extensions(kind: RelationKind, w: Word, letters: list[int]) -> list[Word]:
    """The words s·w (LEFT) or w·s (RIGHT), s in letters, that l_w or r_w
    subtracts from #w."""
    if not w:
        raise ValueError("no extension relation at the identity")
    if not is_reduced(w):
        raise ValueError(f"relation base {w!r} is not reduced")
    if kind is RelationKind.LEFT:
        return [(s,) + w for s in letters if s != -w[0]]
    return [w + (s,) for s in letters if s != -w[-1]]


def extension_relation(kind: RelationKind, w: Word, alphabet: Alphabet) -> BrooksSum:
    """The relation l_w or r_w as a COUNTING-mode sum."""
    entries: dict[Word, int] = {w: 1}
    for u in _extensions(kind, w, alphabet.letters()):
        entries[u] = -1
    return counting_sum(entries)


def _denominator(coefficients: Iterable[Fraction]) -> int:
    """The lcm of the denominators: scaled by it, every coefficient is an integer."""
    return lcm(*{c.denominator for c in coefficients})


def _scaled_into(acc: dict[Word, int], weight: dict[Word, Fraction], den: int, sign: int) -> None:
    """acc += sign * den * weight, in integers."""
    for v, c in weight.items():
        acc[v] = acc.get(v, 0) + sign * c.numerator * (den // c.denominator)


@dataclass(frozen=True)
class TraceStep:
    kind: RelationKind
    base: Word
    coefficient: Fraction


@dataclass(frozen=True)
class RewriteTrace:
    steps: tuple[TraceStep, ...]

    def __add__(self, other: "RewriteTrace") -> "RewriteTrace":
        return RewriteTrace(self.steps + other.steps)

    def _add_combination(self, acc: dict[Word, int], den: int, alphabet: Alphabet) -> None:
        """acc += den * (traced combination), one relation at a time."""
        letters = alphabet.letters()
        for step in self.steps:
            c = step.coefficient
            n = c.numerator * (den // c.denominator)
            acc[step.base] = acc.get(step.base, 0) + n
            for u in _extensions(step.kind, step.base, letters):
                acc[u] = acc.get(u, 0) - n

    def combination(self, alphabet: Alphabet) -> BrooksSum:
        """The traced sum of relations, as a COUNTING sum."""
        den = _denominator(step.coefficient for step in self.steps)
        acc: dict[Word, int] = {}
        self._add_combination(acc, den, alphabet)
        return counting_sum({v: Fraction(n, den) for v, n in acc.items()})

    def certifies(self, before: BrooksSum, after: BrooksSum, alphabet: Alphabet) -> bool:
        """Exact symbolic check: before - after equals the traced combination.

        One pass over the trace into a single integer accumulator holding
        den * (after - before + combination), den the lcm of every
        denominator in before, after and the steps; the check holds exactly
        when every entry is zero.  Cost: O(steps x 2 rank) integer operations.
        """
        lhs, rhs = as_counting(before).weight, as_counting(after).weight
        den = _denominator(
            [*lhs.values(), *rhs.values(), *(step.coefficient for step in self.steps)]
        )
        acc: dict[Word, int] = {}
        _scaled_into(acc, rhs, den, 1)
        _scaled_into(acc, lhs, den, -1)
        self._add_combination(acc, den, alphabet)
        return not any(acc.values())


def _pair(base: Word, lead: RelationKind, c: Fraction) -> tuple[TraceStep, TraceStep]:
    """Trace entries (lead, base, -c) and (mirror, base^-1, +c).

    Rewriting one exponent step of a Brooks key consumes the relation pair
    r_base - l_{base^-1} (or the mirror) with a single coefficient; the pair
    keeps the certificate exact on both the word and its inverse.
    """
    other = RelationKind.LEFT if lead is RelationKind.RIGHT else RelationKind.RIGHT
    return (TraceStep(lead, base, -c), TraceStep(other, inverse(base), c))


def _attach(side: RelationKind, core: Word, block: Word) -> Word:
    """core·block for RIGHT, block·core for LEFT."""
    return core + block if side is RelationKind.RIGHT else block + core


class _Rewriter:
    """Accumulates a weight and a trace while single-stepping exponents."""

    def __init__(self, alphabet: Alphabet) -> None:
        self.alphabet = alphabet
        self.weight: dict[Word, Fraction] = {}
        self.steps: list[TraceStep] = []

    def emit(self, w: Word, c: Fraction) -> None:
        if c == 0:
            return
        if not w:
            raise AssertionError("rewriting emitted the identity")
        self.weight[w] = self.weight.get(w, Fraction(0)) + c

    def result(self) -> tuple[BrooksSum, RewriteTrace]:
        return brooks_sum(self.weight), RewriteTrace(tuple(self.steps))

    # -- single steps on the exponent at one end of the key -----------------

    def _strip(self, side: RelationKind, core: Word, m: int, c: Fraction) -> tuple[int, Fraction]:
        """One step of phi(core b^m) (RIGHT) or phi(b^m core) (LEFT) with |m|
        shrinking; returns the new exponent and carrier."""
        sgn = 1 if m > 0 else -1
        if abs(m) >= 2:
            base = _attach(side, core, b_power(m - sgn))
            self.steps.extend(_pair(base, side, c))
            for s in self.alphabet.s_b():
                self.emit(_attach(side, base, (s,)), -c)
            return m - sgn, c
        # crossing zero (RIGHT): phi(core b^sgn) = phi(core) - phi(core b^-sgn) - debris
        end = core[-1] if side is RelationKind.RIGHT else core[0]
        self.steps.extend(_pair(core, side, c))
        self.emit(core, c)
        for s in self.alphabet.s_b():
            if s != -end:
                self.emit(_attach(side, core, (s,)), -c)
        return -sgn, -c

    def _grow(self, side: RelationKind, core: Word, m: int, c: Fraction) -> tuple[int, Fraction]:
        sgn = 1 if m > 0 else -1
        base = _attach(side, core, b_power(m))
        self.steps.extend(_pair(base, side, -c))
        for s in self.alphabet.s_b():
            self.emit(_attach(side, base, (s,)), c)
        return m + sgn, c

    def retarget(
        self, side: RelationKind, core: Word, m_from: int, m_to: int, c: Fraction
    ) -> None:
        """Walk one b-exponent of a key to a new value, plus debris.

        RIGHT walks the trailing exponent, phi(core b^m_from) to
        +-phi(core b^m_to); LEFT walks the leading one, phi(b^m_from core) to
        +-phi(b^m_to core).  Each step consumes a relation pair led by the
        walked side's kind.  The core may be empty (pure b-powers) or any word
        ending (RIGHT) or starting (LEFT) in a non-b letter, possibly carrying
        its own exponent at the other end.  The carrier sign flips exactly
        when the walk crosses zero.
        """
        if m_from == 0 or m_to == 0:
            raise ValueError("exponents must be nonzero")
        m, coeff = m_from, c
        while m != m_to:
            if (m > 0) == (m_to > 0) and abs(m) < abs(m_to):
                m, coeff = self._grow(side, core, m, coeff)
            else:
                m, coeff = self._strip(side, core, m, coeff)
        self.emit(_attach(side, core, b_power(m_to)), coeff)


def retarget_power(
    side: RelationKind,
    x: Word,
    m_fixed: int,
    m_from: int,
    m_to: int,
    alphabet: Alphabet,
) -> tuple[BrooksSum, RewriteTrace]:
    """Move one b-exponent of a key to a new nonzero value.

    For RIGHT the input key is b^{m_fixed} x b^{m_from} and the result is
    +-phi(b^{m_fixed} x b^{m_to}) plus words b^{m_fixed}·(block ending in a
    non-b letter); LEFT is the mirror image.  The target carries coefficient
    -1 exactly when the walk crosses zero.
    """
    if not x or not is_truncated(x):
        raise ValueError("x must be a nonempty b-truncated word")
    if m_from == 0 or m_to == 0:
        raise ValueError("retargeted exponents must be nonzero")
    rewriter = _Rewriter(alphabet)
    rewriter.retarget(side, _attach(side, b_power(m_fixed), x), m_from, m_to, Fraction(1))
    return rewriter.result()


def eliminate_b_powers(f: BrooksSum, alphabet: Alphabet) -> tuple[BrooksSum, RewriteTrace]:
    """Equivalent sum whose only b-power key is b itself.

    Each canonical key b^m (m >= 2) unwinds along
    phi(b^m) ~ phi(b) - sum_{i=1..m-1} sum_{s in S_b} phi(b^i s).
    """
    if f.mode is not Mode.BROOKS:
        raise ValueError("b-power elimination applies to Brooks sums")
    rewriter = _Rewriter(alphabet)
    for v, c in f.weight.items():
        if tau(v) is None and len(v) >= 2:
            rewriter.retarget(RelationKind.RIGHT, (), len(v), 1, c)
        else:
            rewriter.emit(v, c)
    return rewriter.result()


# ---------------------------------------------------------------------------
# Normal form


def normal_form(f: BrooksSum, alphabet: Alphabet) -> tuple[BrooksSum, RewriteTrace]:
    """Rewrite into normal form, returning the certificate trace.

    Phases, in the fixed order whose side-products never revisit an earlier
    phase: (1) unwind b-power keys (debris: b-left); (2) merge b-and-b keys
    sharing a skeleton up to inversion, left exponent first (debris: b-left,
    right-b, b-truncated); (3) merge b-left/right-b keys presenting the same
    column — a right-b key y b^q is the column key b^{-q} y^{-1} in disguise
    (debris: b-truncated only).  The b-truncated inverse condition is vacuous
    under canonical key orientation.  Surviving targets are chosen by
    smallest boundary exponents, then (length, lex); the rewriting lemma does
    not dictate a choice, so determinism is fixed here.
    """
    if f.mode is not Mode.BROOKS:
        raise ValueError("normal form applies to Brooks sums")
    current, trace = eliminate_b_powers(f, alphabet)
    current, trace2 = _merge_boxes(current, alphabet)
    current, trace3 = _merge_columns(current, alphabet)
    trace = trace + trace2 + trace3

    ok, violation = is_normal_form(current, alphabet)
    assert ok, f"normal form postcondition violated: {violation}"
    return current, trace


def _merge_boxes(f: BrooksSum, alphabet: Alphabet) -> tuple[BrooksSum, RewriteTrace]:
    """Collapse each b-and-b skeleton class (up to inversion) to one key."""
    rewriter = _Rewriter(alphabet)
    families: dict[Word, list[tuple[int, int, Fraction]]] = {}
    for v, c in f.weight.items():
        if kind_of(v) is not Kind.B_AND_B:
            rewriter.emit(v, c)
            continue
        t = tau(v)
        assert t is not None
        skel = min(t, inverse(t), key=word_sort_key)
        if t != skel:
            v, c = inverse(v), -c
        form = b_form(v)
        families.setdefault(skel, []).append((form.m0, form.mk, c))
    for skel, members in sorted(families.items(), key=lambda kv: word_sort_key(kv[0])):
        p_t, q_t, _ = min(
            members,
            key=lambda pqc: (
                max(abs(pqc[0]), abs(pqc[1])),
                word_sort_key(b_power(pqc[0]) + skel + b_power(pqc[1])),
            ),
        )
        for p, q, c in members:
            inner = _Rewriter(alphabet)
            inner.retarget(RelationKind.LEFT, skel + b_power(q), p, p_t, c)
            rewriter.steps.extend(inner.steps)
            for w, cw in inner.weight.items():
                form = b_form(w)
                if form.kind() is Kind.B_AND_B and form.m0 == p_t and tau(w) == skel:
                    rewriter.retarget(RelationKind.RIGHT, b_power(p_t) + skel, form.mk, q_t, cw)
                else:
                    rewriter.emit(w, cw)
    return rewriter.result()


def _merge_columns(f: BrooksSum, alphabet: Alphabet) -> tuple[BrooksSum, RewriteTrace]:
    """Collapse each b-left column, absorbing right-b keys of the inverse row.

    A b-left key b^m x sits in column x; a right-b key y b^q equals
    -phi(b^{-q} y^-1), i.e. column y^-1.  Keys sharing a column violate the
    support conditions (same skeleton, or the mixed inverse condition), so
    each column retargets onto one surviving exponent.  Distinct columns,
    including mutually inverse ones, may coexist.
    """
    rewriter = _Rewriter(alphabet)
    columns: dict[Word, list[tuple[int, Fraction]]] = {}
    for v, c in f.weight.items():
        kind = kind_of(v)
        if kind not in (Kind.B_LEFT, Kind.RIGHT_B):
            rewriter.emit(v, c)
            continue
        if kind is Kind.RIGHT_B:
            v, c = inverse(v), -c
        t = tau(v)
        assert t is not None
        columns.setdefault(t, []).append((b_form(v).m0, c))
    for skel, members in sorted(columns.items(), key=lambda kv: word_sort_key(kv[0])):
        m_t = min(
            (m for m, _ in members),
            key=lambda m: (abs(m), word_sort_key(b_power(m) + skel)),
        )
        for m, c in members:
            rewriter.retarget(RelationKind.LEFT, skel, m, m_t, c)
    return rewriter.result()


@dataclass(frozen=True)
class NormalFormViolation:
    condition: int
    v: Word
    w: Optional[Word]


def is_normal_form(f: BrooksSum, alphabet: Alphabet) -> tuple[bool, Optional[NormalFormViolation]]:
    """Check the three support conditions over the canonical support.

    (1) a key with empty skeleton must be b itself; (2) distinct keys of one
    kind must have distinct skeletons; (3) for pairs of opposite kinds —
    both b-truncated, both b-and-b, or one b-left and one right-b — the
    skeleton of one inverse must differ from the other's skeleton.
    """
    if f.mode is not Mode.BROOKS:
        raise ValueError("normal form applies to Brooks sums")
    support = f.support()
    for v in support:
        if tau(v) is None and v != (B,):
            return False, NormalFormViolation(1, v, None)
    by_kind: dict[Kind, list[Word]] = {}
    for v in support:
        by_kind.setdefault(kind_of(v), []).append(v)
    for kind, words in by_kind.items():
        if kind is Kind.B_POWER:
            continue
        seen: dict[Word, Word] = {}
        for v in words:
            t = tau(v)
            assert t is not None
            if t in seen and seen[t] != v:
                return False, NormalFormViolation(2, seen[t], v)
            seen[t] = v
        if kind in (Kind.B_TRUNCATED, Kind.B_AND_B):
            for v in words:
                t_inv = tau(inverse(v))
                if t_inv in seen and seen[t_inv] != v:
                    return False, NormalFormViolation(3, v, seen[t_inv])
    for v in by_kind.get(Kind.B_LEFT, []):
        t_inv = tau(inverse(v))
        for w in by_kind.get(Kind.RIGHT_B, []):
            if tau(w) == t_inv:
                return False, NormalFormViolation(3, v, w)
    return True, None
