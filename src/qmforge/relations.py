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
each relation pair it consumes.  The keys of one column (one core, many
exponents) share one walk, so phi(b^m) costs O(m) steps, not O(m^2).
A rewrite is a sequence of passes over one accumulator, a _Rewriter seeded
with the input's weight: each pass takes the keys it rewrites out of the
accumulator and walks them, adding targets and debris back in place.  The
accumulator holds integer numerators over one denominator, the lcm of the
seed weights' denominators (walks only add and negate coefficients), and
every key in it is canonical from the moment it enters, so the result only
drops zeros and turns numerators back into fractions.
The check is one pass over the trace into a single integer accumulator,
every coefficient scaled by the lcm of all denominators involved: it costs
O(steps x 2 rank) integer operations and stays an exact zero test.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import lcm
from typing import Callable, Iterable, Optional

from .counting import BrooksSum, Mode, _check_key, check_sum, counting_sum
from .freegroup import (
    B,
    Alphabet,
    Kind,
    Word,
    b_form,
    b_power,
    inverse,
    is_canonical,
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


def _scaled_into(acc: dict[Word, int], f: BrooksSum, den: int, sign: int) -> None:
    """acc += sign * den * f as a counting sum, in integers: a Brooks key v
    adds its weight at v and subtracts it at v^-1."""
    brooks = f.mode is Mode.BROOKS
    for v, c in f.weight.items():
        n = sign * c.numerator * (den // c.denominator)
        acc[v] = acc.get(v, 0) + n
        if brooks:
            vinv = inverse(v)
            acc[vinv] = acc.get(vinv, 0) - n


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
        den = _denominator(
            [*before.weight.values(), *after.weight.values(), *(s.coefficient for s in self.steps)]
        )
        acc: dict[Word, int] = {}
        _scaled_into(acc, after, den, 1)
        _scaled_into(acc, before, den, -1)
        self._add_combination(acc, den, alphabet)
        return not any(acc.values())


_MIRROR = {RelationKind.LEFT: RelationKind.RIGHT, RelationKind.RIGHT: RelationKind.LEFT}


def _attach(side: RelationKind, core: Word, block: Word) -> Word:
    """core·block for RIGHT, block·core for LEFT."""
    return core + block if side is RelationKind.RIGHT else block + core


class _Rewriter:
    """Accumulates a weight and a trace while stepping exponents.

    Rewriting one exponent step of a Brooks key consumes the relation pair
    r_base - l_{base^-1} (or the mirror) with a single coefficient: trace
    entries (lead, base, -c) and (mirror, base^-1, +c), which keep the
    certificate exact on both the word and its inverse.  The weight maps
    canonical keys to integer numerators over den, the lcm of the seed
    weights' denominators; coefficients passed to and returned by take,
    emit and sweep are numerators too.  Until result() it may hold zeros.
    """

    def __init__(self, alphabet: Alphabet, weight: dict[Word, Fraction]) -> None:
        self.s_b = alphabet.s_b()
        self.den = _denominator(weight.values())
        self.weight: dict[Word, int] = {}
        self.steps: list[TraceStep] = []
        for v, c in weight.items():
            self.emit(v, c.numerator * (self.den // c.denominator))

    def take(self, pick: Callable[[Word], bool]) -> dict[Word, int]:
        """Remove the keys pick selects; return those of nonzero weight."""
        picked = [v for v in self.weight if pick(v)]
        taken = {v: self.weight.pop(v) for v in picked}
        return {v: n for v, n in taken.items() if n}

    def emit(self, w: Word, n: int) -> None:
        if n == 0:
            return
        if not w:
            raise ValueError("rewriting emitted the identity")
        if not is_canonical(w):
            w, n = inverse(w), -n
        self.weight[w] = self.weight.get(w, 0) + n

    def result(self) -> tuple[BrooksSum, RewriteTrace]:
        """The weight as a Brooks sum, zeros dropped, and the trace."""
        fractions: dict[int, Fraction] = {}
        out: dict[Word, Fraction] = {}
        for v, n in self.weight.items():
            if n:
                _check_key(v)
                out[v] = fractions.get(n) or fractions.setdefault(n, Fraction(n, self.den))
        return BrooksSum(out, Mode.BROOKS), RewriteTrace(tuple(self.steps))

    # -- exponent walks at one end of the key ---------------------------------

    def _run(self, side: RelationKind, core: Word, exponents: range, d: int) -> None:
        """The steps at the bases core·b^j (RIGHT) or b^j·core (LEFT), j in
        exponents in order, j != 0: each consumes the pair (side, base, -d),
        (mirror, base^-1, d) and leaves the debris -d·phi(base·s) (RIGHT) or
        -d·phi(s·base) (LEFT), s in S_b.

        A debris key's end letters are s and the base's outer end, which is
        the same for every j, so its orientation is settled once per s; only
        when the two letters are mutually inverse does it depend on j.
        """
        if not exponents:
            return
        mirror, inv_core = _MIRROR[side], inverse(core)
        right = side is RelationKind.RIGHT
        weight, steps = self.weight, self.steps
        d_step, neg_d_step = Fraction(d, self.den), Fraction(-d, self.den)
        outer = (core or b_power(exponents[0]))[0 if right else -1]
        plan: list[tuple[int, Optional[bool]]] = []
        for s in self.s_b:
            first, last = (outer, s) if right else (s, outer)
            plan.append((s, None if first == -last else is_canonical((first, last))))
        for j in exponents:
            base = _attach(side, core, b_power(j))
            inv_base = _attach(mirror, inv_core, b_power(-j))
            steps += (TraceStep(side, base, neg_d_step), TraceStep(mirror, inv_base, d_step))
            for s, canonical in plan:
                if canonical is None:
                    canonical = is_canonical(_attach(side, base, (s,)))
                if canonical:
                    w = base + (s,) if right else (s,) + base
                    weight[w] = weight.get(w, 0) - d
                else:
                    w = (-s,) + inv_base if right else inv_base + (-s,)
                    weight[w] = weight.get(w, 0) + d

    def _walk(self, side: RelationKind, core: Word, m: int, stop: int, c: int) -> int:
        """Walk c·phi(core b^m) (RIGHT) or c·phi(b^m core) (LEFT) to the
        exponent stop; return the carrier there.

        A strip unit, m to m - sgn with |m| shrinking, is the step at base
        exponent m - sgn with d = c; a grow unit, m to m + sgn, the step at
        base exponent m with d = -c.  Crossing zero negates the carrier.
        """
        sgn = 1 if m > 0 else -1
        if (stop > 0) != (m > 0):
            self._run(side, core, range(m - sgn, 0, -sgn), c)
            # RIGHT: phi(core b^sgn) = phi(core) - phi(core b^-sgn) - debris
            end = core[-1] if side is RelationKind.RIGHT else core[0]
            c_step = Fraction(c, self.den)
            self.steps += (
                TraceStep(side, core, -c_step),
                TraceStep(_MIRROR[side], inverse(core), c_step),
            )
            self.emit(core, c)
            for s in self.s_b:
                if s != -end:
                    self.emit(_attach(side, core, (s,)), -c)
            m, c, sgn = -sgn, -c, -sgn
        if abs(stop) < abs(m):
            self._run(side, core, range(m - sgn, stop - sgn, -sgn), c)
        else:
            self._run(side, core, range(m, stop, sgn), -c)
        return c

    def sweep(
        self, side: RelationKind, core: Word, members: Iterable[tuple[int, int]], m_to: int
    ) -> int:
        """Walk the keys c·phi(core b^m) (RIGHT) or c·phi(b^m core) (LEFT),
        one per member (m, c), to exponent m_to; return the target's
        coefficient, which is not emitted.

        Each side of m_to is walked once, from its most extreme exponent
        inwards, and a member joins the carrier when the walk reaches its
        exponent.  Steps are linear in the carrier, so weight and trace sum
        to those of the one-member walks; ranges where the carrier is zero
        are skipped, so no step has coefficient 0.
        """
        if m_to == 0:
            raise ValueError("exponents must be nonzero")
        at: dict[int, int] = {}
        for m, c in members:
            if m == 0:
                raise ValueError("exponents must be nonzero")
            at[m] = at.get(m, 0) + c
        total = at.pop(m_to, 0)
        for above in (True, False):
            stops = sorted((m for m in at if (m > m_to) == above), reverse=above)
            carrier = 0
            for m, stop in zip(stops, stops[1:] + [m_to]):
                carrier += at[m]
                if carrier:
                    carrier = self._walk(side, core, m, stop, carrier)
            total += carrier
        return total


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
    non-b letter); LEFT is the mirror image.  Each step consumes a relation
    pair led by the walked side's kind.  The target carries coefficient -1
    exactly when the walk crosses zero.
    """
    if not x or not is_truncated(x):
        raise ValueError("x must be a nonempty b-truncated word")
    if m_from == 0 or m_to == 0:
        raise ValueError("retargeted exponents must be nonzero")
    rewriter = _Rewriter(alphabet, {})
    core = _attach(side, b_power(m_fixed), x)
    target = _attach(side, core, b_power(m_to))
    rewriter.emit(target, rewriter.sweep(side, core, [(m_from, 1)], m_to))
    return rewriter.result()


def eliminate_b_powers(f: BrooksSum, alphabet: Alphabet) -> tuple[BrooksSum, RewriteTrace]:
    """Equivalent sum whose only b-power key is b itself.

    Each key b^m (m >= 2) unwinds along
    phi(b^m) ~ phi(b) - sum_{i=1..m-1} sum_{s in S_b} phi(b^i s),
    all of them in one walk down from the largest m; a key b^-m is read as
    -phi(b^m).
    """
    check_sum(f, alphabet)
    rewriter = _Rewriter(alphabet, f.weight)
    _unwind_b_powers(rewriter)
    return rewriter.result()


def _unwind_b_powers(rewriter: _Rewriter) -> None:
    """The pass of eliminate_b_powers: take the b-power keys, walk them to b."""
    powers = rewriter.take(lambda v: tau(v) is None)
    members = [(len(v), n if v[0] == B else -n) for v, n in powers.items()]
    rewriter.emit((B,), rewriter.sweep(RelationKind.RIGHT, (), members, 1))


# ---------------------------------------------------------------------------
# Normal form


def normal_form(f: BrooksSum, alphabet: Alphabet) -> tuple[BrooksSum, RewriteTrace]:
    """Rewrite into normal form, returning the certificate trace.

    Three passes over one accumulator seeded with f's weight, in the fixed
    order whose side-products never revisit an earlier pass: (1) unwind
    b-power keys (debris: b-left); (2) merge b-and-b keys sharing a skeleton
    up to inversion, left exponent first (debris: b-left, right-b,
    b-truncated); (3) merge b-left/right-b keys presenting the same column —
    a right-b key y b^q is the column key b^{-q} y^{-1} in disguise (debris:
    b-truncated only).  Each pass takes its keys out of the accumulator and
    adds its targets and debris back; every key enters the accumulator in
    canonical orientation, so the b-truncated inverse condition is vacuous.
    Surviving targets are chosen by smallest boundary exponents, then
    (length, lex); the rewriting lemma does not dictate a choice, so
    determinism is fixed here.
    """
    check_sum(f, alphabet)
    rewriter = _Rewriter(alphabet, f.weight)
    _unwind_b_powers(rewriter)
    _merge_boxes(rewriter)
    _merge_columns(rewriter)
    current, trace = rewriter.result()

    ok, violation = is_normal_form(current, alphabet)
    if not ok:
        raise ValueError(f"normal form postcondition violated: {violation}")
    return current, trace


def _merge_boxes(rewriter: _Rewriter) -> None:
    """Collapse each b-and-b skeleton class (up to inversion) to one key."""
    families: dict[Word, list[tuple[int, int, int]]] = {}
    for v, n in rewriter.take(lambda v: kind_of(v) is Kind.B_AND_B).items():
        t = tau(v)
        assert t is not None
        if not is_canonical(t):
            t, v, n = inverse(t), inverse(v), -n
        form = b_form(v)
        families.setdefault(t, []).append((form.m0, form.mk, n))
    for skel, members in sorted(families.items(), key=lambda kv: word_sort_key(kv[0])):
        p_t, q_t, _ = min(
            members,
            key=lambda pqc: (
                max(abs(pqc[0]), abs(pqc[1])),
                word_sort_key(b_power(pqc[0]) + skel + b_power(pqc[1])),
            ),
        )
        # The left walks of one right exponent q share the core skel b^q;
        # the right walks then all share the core b^p_t skel.
        by_q: dict[int, list[tuple[int, int]]] = {}
        for p, q, c in members:
            by_q.setdefault(q, []).append((p, c))
        rights = [
            (q, rewriter.sweep(RelationKind.LEFT, skel + b_power(q), lefts, p_t))
            for q, lefts in by_q.items()
        ]
        core = b_power(p_t) + skel
        rewriter.emit(core + b_power(q_t), rewriter.sweep(RelationKind.RIGHT, core, rights, q_t))


def _is_column(v: Word) -> bool:
    return kind_of(v) in (Kind.B_LEFT, Kind.RIGHT_B)


def _take_columns(rewriter: _Rewriter, pick: Callable[[Word], bool]) -> dict[Word, dict[int, int]]:
    """Take the b-left and right-b keys that pick selects out of the
    accumulator, as columns {x: {m: numerator of phi(b^m x)}}.

    A b-left key b^m x sits in column x; a right-b key y b^q equals
    -phi(b^{-q} y^-1), i.e. column y^-1.  The accumulator holds one
    orientation of each key, so every exponent of a column comes from
    exactly one key.
    """
    columns: dict[Word, dict[int, int]] = {}
    for v, n in rewriter.take(pick).items():
        if kind_of(v) is Kind.RIGHT_B:
            v, n = inverse(v), -n
        t = tau(v)
        assert t is not None
        m = len(v) - len(t) if v[0] == B else len(t) - len(v)  # v = b^m t
        columns.setdefault(t, {})[m] = n
    return columns


def _merge_columns(rewriter: _Rewriter) -> None:
    """Collapse each b-left column, absorbing right-b keys of the inverse row.

    Keys sharing a column violate the support conditions (same skeleton, or
    the mixed inverse condition), so each column retargets onto one
    surviving exponent.  Distinct columns, including mutually inverse ones,
    may coexist.
    """
    columns = _take_columns(rewriter, _is_column)
    for skel, members in sorted(columns.items(), key=lambda kv: word_sort_key(kv[0])):
        m_t = min(members, key=lambda m: (abs(m), word_sort_key(b_power(m) + skel)))
        target = b_power(m_t) + skel
        rewriter.emit(target, rewriter.sweep(RelationKind.LEFT, skel, members.items(), m_t))


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
    # Whether a violation exists does not depend on key order, only which one
    # is reported: so the support is sorted only when there is one to report.
    if _first_violation(f.weight) is None:
        return True, None
    return False, _first_violation(f.support())


def _first_violation(keys: Iterable[Word]) -> Optional[NormalFormViolation]:
    """is_normal_form's violation, the first one in the given key order.

    One pass over the keys: condition (1), and per kind a map from skeleton
    to its first key plus the kind's first repeated skeleton.  Kinds are then
    checked in the order in which they first occur.
    """
    first: dict[Kind, dict[Word, Word]] = {}
    repeats: dict[Kind, NormalFormViolation] = {}
    for v in keys:
        t = tau(v)
        if t is None:
            if v != (B,):
                return NormalFormViolation(1, v, None)
            continue
        kind = kind_of(v)
        seen = first.setdefault(kind, {})
        if t in seen:
            repeats.setdefault(kind, NormalFormViolation(2, seen[t], v))
        else:
            seen[t] = v
    for kind, seen in first.items():
        if kind in repeats:
            return repeats[kind]
        if kind in (Kind.B_TRUNCATED, Kind.B_AND_B):
            for t, v in seen.items():
                w = seen.get(inverse(t))
                if w is not None and w != v:
                    return NormalFormViolation(3, v, w)
    right_b = first.get(Kind.RIGHT_B, {})
    for t, v in first.get(Kind.B_LEFT, {}).items():
        w = right_b.get(inverse(t))
        if w is not None:
            return NormalFormViolation(3, v, w)
    return None
