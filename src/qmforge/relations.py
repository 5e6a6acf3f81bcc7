"""Extension-relation rewriting: traces and normal forms.

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
with the input's weight: each pass takes out only the keys it rewrites and
walks them, adding targets and debris back; every other key stays in place.
_Rewriter is counting.Accumulator (canonical keys, integer numerators over
one denominator; walks only add and negate coefficients) plus the trace and
the walks, so the result is the accumulator's sum and the trace.
The check is one pass over the trace into a single integer accumulator,
every coefficient scaled by the lcm of all denominators involved: it costs
O(steps x 2 rank) integer operations and stays an exact zero test.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterable, Optional

from .counting import (
    Accumulator,
    BrooksSum,
    Mode,
    _denominator,
    check_sum,
    counting_sum,
)
from .freegroup import (
    B,
    Alphabet,
    Word,
    b_form,
    b_power,
    inverse,
    is_canonical,
    is_reduced,
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
    alphabet.check_word(w)
    entries: dict[Word, int] = {w: 1}
    for u in _extensions(kind, w, alphabet.letters()):
        entries[u] = -1
    return counting_sum(entries)


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


@dataclass(frozen=True, slots=True)
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


# The most letters one _Rewriter may write: debris keys and trace bases of
# every walk, and act's T^-1 images, by the closed-form counts charged before
# each is written.  normal_form(phi(b^700)) at rank 2 charges 2.94 million
# (phi(b^500): 1.50 million at rank 2, 7.0 million at rank 4); no test or
# bench input charges over 0.2 million.  At m = 20,000 the first walk of
# phi(b^m a b^m) + phi(bab) alone would charge 2.4 billion.
REWRITE_LETTER_BUDGET = 3_000_000


class _Rewriter(Accumulator):
    """An accumulator that records a trace while stepping exponents.

    Rewriting one exponent step of a Brooks key consumes the relation pair
    r_base - l_{base^-1} (or the mirror) with a single coefficient: trace
    entries (lead, base, -c) and (mirror, base^-1, +c), which keep the
    certificate exact on both the word and its inverse.  Coefficients passed
    to and returned by the walks are numerators over den, as for take and
    emit.  Each walk charges the letters it will write before writing them.
    """

    def __init__(self, alphabet: Alphabet, weight: dict[Word, Fraction]) -> None:
        super().__init__(weight)
        self.s_b = alphabet.s_b()
        self.steps: list[TraceStep] = []
        self.letters = 0

    def charge(self, letters: int) -> None:
        """Count letters about to be written against REWRITE_LETTER_BUDGET."""
        self.letters += letters
        if self.letters > REWRITE_LETTER_BUDGET:
            raise ValueError(
                f"the rewrite would write up to {self.letters} letters, over the budget "
                f"REWRITE_LETTER_BUDGET = {REWRITE_LETTER_BUDGET}"
            )

    def group(self, label: Callable[[Word], Optional[Word]]) -> dict[Word, list[tuple[Word, int]]]:
        """The keys of nonzero weight that label files under a group, as
        (key, numerator), by group and in key order.  Unlike take, this leaves
        every key in place: a pass removes only the keys it rewrites."""
        groups: dict[Word, list[tuple[Word, int]]] = {}
        for v, n in self.weight.items():
            if n:
                g = label(v)
                if g is not None:
                    groups.setdefault(g, []).append((v, n))
        return groups

    def result(self) -> tuple[BrooksSum, RewriteTrace]:
        """The weight as a Brooks sum, zeros dropped, and the trace."""
        return self.as_sum(), RewriteTrace(tuple(self.steps))

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
        # Per step: two trace bases of length |base| and one debris key per s, one longer.
        n, k = len(exponents), len(self.s_b)
        bases = n * len(core) + n * (abs(exponents[0]) + abs(exponents[-1])) // 2
        self.charge((2 + k) * bases + k * n)
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
            self.charge((3 + len(self.s_b)) * len(core) + len(self.s_b))
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
        one per member (m, c), to exponent m_to, all nonzero in every caller;
        return the target's coefficient, which is not emitted.

        Each side of m_to is walked once, from its most extreme exponent
        inwards, and a member joins the carrier when the walk reaches its
        exponent.  Steps are linear in the carrier, so weight and trace sum
        to those of the one-member walks; ranges where the carrier is zero
        are skipped, so no step has coefficient 0.
        """
        at: dict[int, int] = {}
        for m, c in members:
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
    """The pass of eliminate_b_powers: take the b-power keys other than b,
    walk them to b.  b itself stays where it is."""
    powers = rewriter.take(lambda v: v[0] == B and len(v) > 1 and tau(v) is None)
    if powers:
        members = [(len(v), n) for v, n in powers.items()]  # canonical: v = b^len(v)
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
    b-truncated only).  Each pass takes out of the accumulator only the keys
    it rewrites, leaving b, each box family of one key and each column of one
    key at its survivor in place, and adds its targets and debris back; every
    key enters the accumulator in
    canonical orientation, so the b-truncated inverse condition is vacuous.
    Surviving targets are chosen by smallest boundary exponents, then
    (length, lex); the rewriting lemma does not dictate a choice, so
    determinism is fixed here.

    A canonical normal form (canonical keys, nonzero Fraction weights) comes
    back as given, with the empty trace: its only b-power key is b, and each
    box family and column holds one key, its own survivor, so every pass
    would leave it in place without a step.  Weights are never mutated
    after construction, so handing back f itself is safe.
    """
    if check_sum(f, alphabet) and _first_violation(f.weight) is None:
        return f, RewriteTrace(())
    rewriter = _Rewriter(alphabet, f.weight)
    _unwind_b_powers(rewriter)
    _merge_boxes(rewriter)
    _merge_columns(rewriter)
    current, trace = rewriter.result()
    if (violation := _first_violation(current.weight)) is not None:
        raise ValueError(f"normal form postcondition violated: {violation}")
    return current, trace


def _merge_boxes(rewriter: _Rewriter) -> None:
    """Collapse each b-and-b skeleton class (up to inversion) to one key.  A
    class of one key is its own survivor and stays where it is."""
    families = rewriter.group(_box_skeleton)
    walked = [kv for kv in families.items() if len(kv[1]) > 1]
    for skel, keys in sorted(walked, key=lambda kv: word_sort_key(kv[0])):
        members = []
        for v, n in keys:
            del rewriter.weight[v]
            if tau(v) != skel:
                v, n = inverse(v), -n
            form = b_form(v)
            members.append((form.m0, form.mk, n))
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


def _box_skeleton(v: Word) -> Optional[Word]:
    """The skeleton of a b-and-b key, in its canonical orientation; None for
    a key of any other kind."""
    if abs(v[0]) != B or abs(v[-1]) != B:
        return None
    t = tau(v)
    if t is None:  # a b-power
        return None
    return t if is_canonical(t) else inverse(t)


def _is_column(v: Word) -> bool:
    """Is v b-left or right-b: does exactly one of its ends carry b?"""
    return (abs(v[0]) == B) != (abs(v[-1]) == B)


def _smallest_exponent(skel: Word, members: dict[int, int]) -> int:
    """normal_form's survivor: the smallest |m|, then (length, lex) of b^m skel."""
    return min(members, key=lambda m: (abs(m), word_sort_key(b_power(m) + skel)))


def _merge_columns(
    rewriter: _Rewriter,
    pick: Callable[[Word], bool] = _is_column,
    survivor: Callable[[Word, dict[int, int]], int] = _smallest_exponent,
) -> None:
    """Walk each column of the keys pick selects onto the exponent
    survivor(skel, {m: numerator of phi(b^m skel)}) names.  A column whose
    one key already sits there stays where it is.

    A b-left key b^m x sits in column x; a right-b key y b^q equals
    -phi(b^{-q} y^-1), i.e. column y^-1.  The accumulator holds one
    orientation of each key, so every exponent of a column comes from one
    key.  normal_form keeps one exponent per column, as keys sharing one
    violate the support conditions.
    """
    walks = []
    for skel, keys in rewriter.group(lambda v: _column_skeleton(v) if pick(v) else None).items():
        members: dict[int, int] = {}
        for v, n in keys:
            if v[0] != B and v[0] != -B:
                v, n = inverse(v), -n
            m = len(v) - len(skel)  # v = b^(+-m) skel
            members[m if v[0] == B else -m] = n
        m_t = survivor(skel, members)
        if len(members) > 1 or m_t not in members:
            walks.append((skel, keys, members, m_t))
    for skel, keys, members, m_t in sorted(walks, key=lambda walk: word_sort_key(walk[0])):
        for v, _ in keys:
            del rewriter.weight[v]
        target = b_power(m_t) + skel
        rewriter.emit(target, rewriter.sweep(RelationKind.LEFT, skel, members.items(), m_t))


def _column_skeleton(v: Word) -> Word:
    """The column of a b-left or right-b key: tau(v), or tau(v)^-1 for right-b."""
    t = tau(v)
    assert t is not None
    return t if v[0] == B or v[0] == -B else inverse(t)


@dataclass(frozen=True)
class NormalFormViolation:
    condition: int
    v: Word
    w: Optional[Word]


def is_normal_form(f: BrooksSum, alphabet: Alphabet) -> tuple[bool, Optional[NormalFormViolation]]:
    """Check f with check_sum, then the three support conditions; name the
    first violation in (length, lex) order of the support.

    (1) a key with empty skeleton must be b itself; (2) distinct keys of one
    kind must have distinct skeletons; (3) for pairs of opposite kinds —
    both b-truncated, both b-and-b, or one b-left and one right-b — the
    skeleton of one inverse must differ from the other's skeleton.
    """
    check_sum(f, alphabet)
    # Whether a violation exists does not depend on key order, only which one
    # is met first: so the support is sorted only when there is one to name.
    if _first_violation(f.weight) is None:
        return True, None
    return False, _first_violation(f.support())


def _first_violation(keys: Iterable[Word]) -> Optional[NormalFormViolation]:
    """The first violation met walking the keys in the given order: (1);
    then per kind, kinds in the order of their first keys, its first
    repeated skeleton (2), else its first pair (3), a b-truncated pair met
    at its canonical key; the b-left/right-b pairs last.  One scan files
    each key by its ends (b at the left end adds 1, at the right end 2)
    under its skeleton.  Of a b-truncated key and its inverse only one is
    canonical, so only turned b-truncated keys are inverted.
    """
    groups: dict[int, dict[Word, Word]] = {}
    repeats: dict[int, NormalFormViolation] = {}
    turned: dict[Word, Word] = {}  # a turned b-truncated key under its inverse
    for v in keys:
        ends = (abs(v[0]) == B) + 2 * (abs(v[-1]) == B)
        if ends:
            t = tau(v)
            if t is None:
                if v != (B,):
                    return NormalFormViolation(1, v, None)
                continue
        else:
            t = v
            if not is_canonical(v):
                turned[inverse(v)] = v
        first = groups.setdefault(ends, {}).setdefault(t, v)
        if first is not v:
            repeats.setdefault(ends, NormalFormViolation(2, first, v))
    for ends, group in groups.items():
        if ends in repeats:
            return repeats[ends]
        if ends == 3 or ends == 0 and turned:
            for t, v in group.items():
                if (w := (turned.get(t) if ends == 0 else group.get(inverse(t)))) is not None:
                    return NormalFormViolation(3, v, w)
    right_b = groups.get(2, {})
    for t, v in groups.get(1, {}).items():
        if (w := right_b.get(inverse(t))) is not None:
            return NormalFormViolation(3, v, w)
    return None
