"""The Out(F_n)-action on Brooks sums.

Permutation/flip generators act by relabelling keys (phi_w composed with
X^-1 is phi_{Xw}).  The interesting generator is T^-1 (a -> ab^-1): its
action on a single key phi_w is again a finite Brooks sum, with support
described by a left table x middle word x right table product.  The one-step
tables here carry signs; the product form

    phi_w . T = sum over (l, c_l), (r, c_r) of c_l c_r phi(l . M . r)

is exact as a function identity, not merely up to bounded error, and the
differential tests drive every row against a brute-force counter.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .counting import BrooksSum, Mode, brooks_sum
from .freegroup import (
    A,
    B,
    Alphabet,
    NielsenGen,
    Word,
    apply_nielsen,
    b_form,
    b_power,
    multiply,
    tau,
)
from .relations import eliminate_b_powers


@dataclass(frozen=True)
class NielsenWord:
    """A word in the generators {P1, P2, H, TINV}; T is stored expanded."""

    gens: tuple[NielsenGen, ...]

    @staticmethod
    def from_gens(gens: Iterable[NielsenGen]) -> "NielsenWord":
        out: list[NielsenGen] = []
        for g in gens:
            if g is NielsenGen.T:
                # T = P1 H P1 T^-1 P1 H P1
                out.extend(
                    [
                        NielsenGen.P1,
                        NielsenGen.H,
                        NielsenGen.P1,
                        NielsenGen.TINV,
                        NielsenGen.P1,
                        NielsenGen.H,
                        NielsenGen.P1,
                    ]
                )
            else:
                out.append(g)
        return NielsenWord(tuple(out))

    @staticmethod
    def parse(text: str) -> "NielsenWord":
        names = {g.value: g for g in NielsenGen}
        gens = []
        for token in text.replace("*", " ").split():
            if token not in names:
                raise ValueError(f"unknown Nielsen generator {token!r}")
            gens.append(names[token])
        return NielsenWord.from_gens(gens)

    def word(self, w: Word, alphabet: Alphabet) -> Word:
        for g in self.gens:
            w = apply_nielsen(g, w, alphabet)
        return w


def act_perm_flip(gen: NielsenGen, f: BrooksSum, alphabet: Alphabet) -> BrooksSum:
    """Apply P1, P2 or H: every key relabels and the sum re-canonicalizes."""
    if gen not in (NielsenGen.P1, NielsenGen.P2, NielsenGen.H):
        raise ValueError(f"{gen} is not a permutation/flip generator")
    if f.mode is not Mode.BROOKS:
        raise ValueError("the action is defined on Brooks sums")
    entries: dict[Word, Fraction] = {}
    for v, c in f.weight.items():
        u = apply_nielsen(gen, v, alphabet)
        entries[u] = entries.get(u, Fraction(0)) + c
    return brooks_sum(entries)


# ---------------------------------------------------------------------------
# The one-step support calculus for T^-1


def _middle(w: Word, alphabet: Alphabet) -> Word:
    t = tau(w)
    assert t is not None
    m = tau(apply_nielsen(NielsenGen.TINV, t, alphabet))
    assert m is not None
    return m


def _left_table(m0: int, s1: int, alphabet: Alphabet) -> tuple[tuple[Word, int], ...]:
    del alphabet
    if m0 == 0:
        return (((), 1),)
    if m0 > 0:
        if s1 != -A:
            return ((b_power(m0), 1), ((A,) + b_power(m0 - 1), 1))
        return ((b_power(m0 + 1), 1), ((A,) + b_power(m0), 1))
    if s1 != -A:
        return ((b_power(m0), 1), ((A,) + b_power(m0), -1))
    if m0 == -1:
        return (((), 1), (b_power(1), -1))
    return ((b_power(m0 + 1), 1), ((A,) + b_power(m0 + 1), -1))


def _right_table(mk: int, sk: int, alphabet: Alphabet) -> tuple[tuple[Word, int], ...]:
    del alphabet
    if mk == 0:
        return (((), 1),)
    if mk > 0:
        if sk == A:
            if mk == 1:
                return (((), 1), (b_power(-1), -1))
            return ((b_power(mk - 1), 1), (b_power(mk - 1) + (-A,), -1))
        return ((b_power(mk), 1), (b_power(mk) + (-A,), -1))
    if sk == A:
        return ((b_power(mk - 1), 1), (b_power(mk) + (-A,), 1))
    return ((b_power(mk), 1), (b_power(mk + 1) + (-A,), 1))


@dataclass(frozen=True)
class W1Support:
    """Signed decomposition of phi_w . T: left x middle x right."""

    base: Word
    left: tuple[tuple[Word, int], ...]
    middle: Word
    right: tuple[tuple[Word, int], ...]

    def weight(self) -> dict[Word, Fraction]:
        out: dict[Word, Fraction] = {}
        for l, cl in self.left:
            for r, cr in self.right:
                u = multiply(l, self.middle, r)
                assert len(u) == len(l) + len(self.middle) + len(r), (l, self.middle, r)
                out[u] = out.get(u, Fraction(0)) + cl * cr
        return out

    def as_sum(self) -> BrooksSum:
        return brooks_sum(self.weight())


def w1_support(w: Word, alphabet: Alphabet) -> W1Support:
    """The signed one-step support of phi_w . T for a non-b-power key."""
    if tau(w) is None:
        raise ValueError("b-powers have no one-step table; eliminate them first")
    form = b_form(w)
    return W1Support(
        base=w,
        left=_left_table(form.m0, form.s[0], alphabet),
        middle=_middle(w, alphabet),
        right=_right_table(form.mk, form.s[-1], alphabet),
    )


def wstar_n(w: Word, n: int, alphabet: Alphabet) -> dict[Word, Fraction]:
    """Signed support of phi_w . T^n via the one-step recursion."""
    if tau(w) is None:
        raise ValueError("b-powers have no one-step table; eliminate them first")
    if n < 1:
        raise ValueError("n must be >= 1")
    weight: dict[Word, Fraction] = {w: Fraction(1)}
    for _ in range(n):
        nxt: dict[Word, Fraction] = {}
        for u, c in weight.items():
            for v, cv in w1_support(u, alphabet).weight().items():
                nxt[v] = nxt.get(v, Fraction(0)) + c * cv
        weight = {u: c for u, c in nxt.items() if c != 0}
    return weight


# ---------------------------------------------------------------------------
# n-representatives


@dataclass(frozen=True)
class NRep:
    """The four-quadrant support decomposition of the n-representative."""

    base: Word
    n: int
    Lplus: tuple[Word, ...]
    Lminus: tuple[Word, ...]
    M: Word
    Rplus: tuple[Word, ...]
    Rminus: tuple[Word, ...]

    def plus_words(self) -> list[Word]:
        return [multiply(l, self.M, r) for l in self.Lplus for r in self.Rplus] + [
            multiply(l, self.M, r) for l in self.Lminus for r in self.Rminus
        ]

    def minus_words(self) -> list[Word]:
        return [multiply(l, self.M, r) for l in self.Lplus for r in self.Rminus] + [
            multiply(l, self.M, r) for l in self.Lminus for r in self.Rplus
        ]

    def as_sum(self) -> BrooksSum:
        entries: dict[Word, Fraction] = {}
        for u in self.plus_words():
            entries[u] = entries.get(u, Fraction(0)) + 1
        for u in self.minus_words():
            entries[u] = entries.get(u, Fraction(0)) - 1
        return brooks_sum(entries)


def _middle_n(w: Word, n: int, alphabet: Alphabet) -> Word:
    m = tau(w)
    assert m is not None
    for _ in range(n):
        m = tau(apply_nielsen(NielsenGen.TINV, m, alphabet))
        assert m is not None
    return m


def left_factors(m0: int, s1: int, n: int, alphabet: Alphabet) -> list[tuple[int, int, Word]]:
    """Indexed left factors dL_0 .. dL_n as (index, sign, word) rows.

    Index 0 is always b^{m0} with sign +1; all words sharing an index have
    the same length, which is what makes the square lengths well defined.
    """
    if m0 == 0:
        return [(0, 1, ())]
    s_b = alphabet.s_b()
    rows: list[tuple[int, int, Word]] = [(0, 1, b_power(m0))]
    if m0 > 0 and s1 != -A:
        rows.extend((i, 1, (A,) + b_power(m0 - i)) for i in range(1, n + 1))
    elif m0 > 0:
        rows.extend(
            (i, -1, (s,) + b_power(m0 + i - 1)) for i in range(1, n + 1) for s in s_b if s != A
        )
    elif s1 != -A:
        rows.extend((i, -1, (A,) + b_power(m0 - i + 1)) for i in range(1, n + 1))
    else:
        rows.extend((i, 1, (s,) + b_power(m0 + i)) for i in range(1, n + 1) for s in s_b if s != A)
    return rows


def right_factors(mk: int, sk: int, n: int, alphabet: Alphabet) -> list[tuple[int, int, Word]]:
    """Indexed right factors dR_0 .. dR_n, mirroring left_factors."""
    if mk == 0:
        return [(0, 1, ())]
    s_b = alphabet.s_b()
    rows: list[tuple[int, int, Word]] = [(0, 1, b_power(mk))]
    if mk > 0 and sk == A:
        rows.extend(
            (i, 1, b_power(mk - i) + (s,)) for i in range(1, n + 1) for s in s_b if s != -A
        )
    elif mk > 0:
        rows.extend((i, -1, b_power(mk + i - 1) + (-A,)) for i in range(1, n + 1))
    elif sk == A:
        rows.extend(
            (i, -1, b_power(mk - i + 1) + (s,)) for i in range(1, n + 1) for s in s_b if s != -A
        )
    else:
        rows.extend((i, 1, b_power(mk + i) + (-A,)) for i in range(1, n + 1))
    return rows


def nrep(w: Word, n: int, alphabet: Alphabet) -> NRep:
    """Quadrant tables of the n-representative of phi_w (w not a b-power)."""
    if tau(w) is None:
        raise ValueError("b-powers have no quadrant tables")
    if n < 1:
        raise ValueError("n must be >= 1")
    form = b_form(w)
    lefts = left_factors(form.m0, form.s[0], n, alphabet)
    rights = right_factors(form.mk, form.s[-1], n, alphabet)
    return NRep(
        base=w,
        n=n,
        Lplus=tuple(u for _, sign, u in lefts if sign > 0),
        Lminus=tuple(u for _, sign, u in lefts if sign < 0),
        M=_middle_n(w, n, alphabet),
        Rplus=tuple(u for _, sign, u in rights if sign > 0),
        Rminus=tuple(u for _, sign, u in rights if sign < 0),
    )


def n_representative(w: Word, n: int, alphabet: Alphabet) -> BrooksSum:
    """The n-representative of phi_w; for w = b it is n phi_a + phi_b."""
    if not w:
        raise ValueError("no representative of the identity")
    if tau(w) is None:
        if len(w) != 1:
            raise ValueError("eliminate b-powers before taking representatives")
        sgn = 1 if w[0] > 0 else -1
        return brooks_sum({(A,): sgn * n, (B,): sgn})
    return nrep(w, n, alphabet).as_sum()


def n_representative_sum(f: BrooksSum, n: int, alphabet: Alphabet) -> BrooksSum:
    """Key-by-key n-representative of a sum whose only b-power key is b."""
    if f.mode is not Mode.BROOKS:
        raise ValueError("representatives are defined for Brooks sums")
    entries: dict[Word, Fraction] = {}
    for v, c in f.weight.items():
        for u, cu in n_representative(v, n, alphabet).weight.items():
            entries[u] = entries.get(u, Fraction(0)) + c * cu
    return brooks_sum(entries)


# ---------------------------------------------------------------------------
# Applying Nielsen words


def _act_tinv(f: BrooksSum, alphabet: Alphabet) -> BrooksSum:
    g, _ = eliminate_b_powers(f, alphabet)
    entries: dict[Word, Fraction] = {}

    def add(u: Word, c: Fraction) -> None:
        entries[u] = entries.get(u, Fraction(0)) + c

    for v, c in g.weight.items():
        if tau(v) is None:
            # T^-1 phi_b = phi_a + phi_b (the key is b after elimination)
            sgn = 1 if v[0] > 0 else -1
            add((A,), sgn * c)
            add((B,), sgn * c)
        else:
            for u, cu in w1_support(v, alphabet).weight().items():
                add(u, c * cu)
    return brooks_sum(entries)


def act(x: NielsenWord | NielsenGen, f: BrooksSum, alphabet: Alphabet) -> BrooksSum:
    """Representative of x[f] = [f . x^-1], generator by generator.

    Generators apply in sequence order, matching NielsenWord.word: the word
    [g1, g2] acts as g2[g1[f]].
    """
    if isinstance(x, NielsenGen):
        x = NielsenWord.from_gens([x])
    out = f
    for gen in x.gens:
        if gen is NielsenGen.TINV:
            out = _act_tinv(out, alphabet)
        else:
            out = act_perm_flip(gen, out, alphabet)
    return out
