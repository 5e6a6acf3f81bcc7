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
from typing import Callable, Iterable

from .counting import BrooksSum, brooks_sum, check_sum
from .freegroup import (
    A,
    B,
    Alphabet,
    NielsenGen,
    Word,
    apply_nielsen,
    b_form,
    b_power,
    inverse,
    multiply,
    tau,
    word_str,
)
from .relations import _Rewriter, _unwind_b_powers


@dataclass(frozen=True)
class NielsenWord:
    """A word in the generators {P1, P2, H, TINV}; T is stored expanded."""

    gens: tuple[NielsenGen, ...]

    def __post_init__(self) -> None:
        if NielsenGen.T in self.gens:
            raise ValueError("NielsenWord holds T unexpanded; build it with from_gens or parse")

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


def _relabel(
    gen: NielsenGen, weight: dict[Word, Fraction], alphabet: Alphabet
) -> dict[Word, Fraction]:
    """P1, P2 or H on a raw weight: every key relabels, colliding keys merge."""
    out: dict[Word, Fraction] = {}
    for v, c in weight.items():
        u = apply_nielsen(gen, v, alphabet)
        out[u] = out.get(u, Fraction(0)) + c
    return out


# ---------------------------------------------------------------------------
# The T^-1 support calculus
#
# Both the one-step support and the n-representative of phi_w are products
# l . M . r: rows l read off the left end (m0, s1) of w = b^m0 s1 ... sk b^mk,
# a middle word M, and rows r read off the right end (mk, sk).  Only the left
# rows are written down.  w^-1 starts with (-mk, -sk) and T is an
# automorphism, so inverting the product l . M . r for w^-1 gives the one for
# w: the right rows of w are the left rows of (-mk, -sk), each word inverted.

Rows = tuple[tuple[Word, int], ...]


@dataclass(frozen=True)
class SupportProduct:
    """The signed sum over (l, c_l) in left, (r, c_r) in right of c_l c_r phi(l . middle . r)."""

    base: Word
    left: Rows
    middle: Word
    right: Rows

    def weight(self) -> dict[Word, Fraction]:
        out: dict[Word, Fraction] = {}
        for l, cl in self.left:
            for r, cr in self.right:
                u = multiply(l, self.middle, r)
                if len(u) != len(l) + len(self.middle) + len(r):
                    raise ValueError(f"support of {word_str(self.base)} cancels to {word_str(u)}")
                out[u] = out.get(u, Fraction(0)) + cl * cr
        return out

    def as_sum(self) -> BrooksSum:
        return brooks_sum(self.weight())


def _middle_n(w: Word, n: int, alphabet: Alphabet) -> Word:
    m = tau(w)
    assert m is not None
    for _ in range(n):
        m = tau(apply_nielsen(NielsenGen.TINV, m, alphabet))
        assert m is not None
    return m


def _product(w: Word, middle: Word, rows: Callable[[int, int], Rows]) -> SupportProduct:
    """Left rows rows(m0, s1), right rows rows(-mk, -sk) with every word inverted."""
    form = b_form(w)
    return SupportProduct(
        base=w,
        left=rows(form.m0, form.s[0]),
        middle=middle,
        right=tuple((inverse(u), c) for u, c in rows(-form.mk, -form.s[-1])),
    )


def _left_table(m0: int, s1: int) -> Rows:
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


def w1_support(w: Word, alphabet: Alphabet) -> SupportProduct:
    """The signed one-step support of phi_w . T for a non-b-power key."""
    if tau(w) is None:
        raise ValueError("b-powers have no one-step table; eliminate them first")
    return _product(w, _middle_n(w, 1, alphabet), _left_table)


def wstar_n(w: Word, n: int, alphabet: Alphabet) -> dict[Word, Fraction]:
    """Signed support of phi_w . T^n via the one-step recursion."""
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


def left_factor_count(m0: int, s1: int, n: int, alphabet: Alphabet) -> int:
    """len(left_factors(m0, s1, n, alphabet)), in closed form."""
    if m0 == 0:
        return 1
    return 1 + n * (2 * alphabet.rank - 3 if s1 == -A else 1)


def nrep(w: Word, n: int, alphabet: Alphabet) -> SupportProduct:
    """The support product of the n-representative of phi_w (w not a b-power)."""
    if tau(w) is None:
        raise ValueError("b-powers have no quadrant tables")
    if n < 1:
        raise ValueError("n must be >= 1")

    def rows(m: int, s: int) -> Rows:
        return tuple((u, sign) for _, sign, u in left_factors(m, s, n, alphabet))

    return _product(w, _middle_n(w, n, alphabet), rows)


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
    check_sum(f, alphabet)
    entries: dict[Word, Fraction] = {}
    for v, c in f.weight.items():
        for u, cu in n_representative(v, n, alphabet).weight.items():
            entries[u] = entries.get(u, Fraction(0)) + c * cu
    return brooks_sum(entries)


def n_representative_letters(f: BrooksSum, n: int, alphabet: Alphabet) -> int:
    """A closed-form bound on the letters n_representative_sum(f, n) writes,
    f's only b-power key being b (two support words).

    A key w has left_factor_count(m0, s1) * left_factor_count(-mk, -sk)
    support words, each of length at most (|w| + 2)(n + 1).  Its middle word
    takes n steps of T^-1, which keeps the number of a-letters, so each step
    adds at most |w| letters.
    """
    total = 0
    for v in f.weight:
        if tau(v) is None:
            words = 2
        else:
            form = b_form(v)
            words = left_factor_count(form.m0, form.s[0], n, alphabet)
            words *= left_factor_count(-form.mk, -form.s[-1], n, alphabet)
        total += (n + 1) * ((len(v) + 2) * words + len(v) * (n + 1))
    return total


# ---------------------------------------------------------------------------
# Applying Nielsen words


def _act_tinv(weight: dict[Word, Fraction], alphabet: Alphabet) -> dict[Word, Fraction]:
    """T^-1 on a raw weight: unwind the b-power keys to b, then expand each
    key by its one-step support.  The weight's keys may take either
    orientation; the unwound sum comes back from the rewriter canonical, and
    its expansion is raw again."""
    rewriter = _Rewriter(alphabet, weight)
    _unwind_b_powers(rewriter)
    unwound, _ = rewriter.result()
    entries: dict[Word, Fraction] = {}
    for v, c in unwound.weight.items():
        # T^-1 phi_b = phi_a + phi_b; b is the only b-power key after the unwinding.
        images = {(A,): 1, (B,): 1} if tau(v) is None else w1_support(v, alphabet).weight()
        for u, cu in images.items():
            entries[u] = entries.get(u, Fraction(0)) + c * cu
    return entries


def act(x: NielsenWord | NielsenGen, f: BrooksSum, alphabet: Alphabet) -> BrooksSum:
    """Representative of x[f] = [f . x^-1], generator by generator.

    Generators apply in sequence order, matching NielsenWord.word: the word
    [g1, g2] acts as g2[g1[f]].  f is checked once; the steps pass raw
    weights along, and brooks_sum canonicalizes the last one, so every
    word, the empty one included, returns a canonical sum.
    """
    check_sum(f, alphabet)
    if isinstance(x, NielsenGen):
        x = NielsenWord.from_gens([x])
    weight = f.weight
    for gen in x.gens:
        if gen is NielsenGen.TINV:
            weight = _act_tinv(weight, alphabet)
        else:
            weight = _relabel(gen, weight, alphabet)
    return brooks_sum(weight)
