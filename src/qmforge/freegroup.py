"""Reduced words over a free group basis.

Elements of the free group F_n on generators a, b, c, ... are represented as
tuples of nonzero ints: the generator with 1-based index i is +i, its inverse
is -i.  A word is *reduced* when no adjacent pair multiplies to the identity.
The empty tuple is the identity e.

Letter order everywhere (sorting, ball enumeration, canonical key selection)
is a < a' < b < b' < c < c' < ..., i.e. by generator index first and sign
second.  `word_sort_key` realizes (length, lex) in that order.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Optional

Word = tuple[int, ...]

EMPTY: Word = ()

_LETTER_NAMES = "abcdefghijklmnopqrstuvwxyz"


@dataclass(frozen=True)
class Alphabet:
    """A free group basis of a given rank (>= 2).

    The distinguished generators are a = index 1 and b = index 2; the letter
    set S-bar consists of all 2n letters, and S_b of all letters other than
    b and b'.
    """

    rank: int

    def __post_init__(self) -> None:
        if not 2 <= self.rank <= len(_LETTER_NAMES):
            raise ValueError(f"rank must be between 2 and {len(_LETTER_NAMES)}, got {self.rank}")

    def letters(self) -> list[int]:
        """All 2n letters in canonical order a, a', b, b', ..."""
        out: list[int] = []
        for i in range(1, self.rank + 1):
            out.extend((i, -i))
        return out

    def s_b(self) -> list[int]:
        """S_b: every letter except b and b' (index 2)."""
        return [x for x in self.letters() if abs(x) != 2]


A = 1
B = 2


def letter_key(x: int) -> tuple[int, int]:
    return (abs(x), 0 if x > 0 else 1)


def word_sort_key(w: Word) -> tuple[int, tuple[tuple[int, int], ...]]:
    """(length, lex) key; the global canonical order on reduced words."""
    return (len(w), tuple(letter_key(x) for x in w))


def is_reduced(w: Word) -> bool:
    return all(w[i] != -w[i + 1] for i in range(len(w) - 1))


def free_reduce(letters: list[int] | Word) -> Word:
    """Reduce an arbitrary letter sequence by cancelling adjacent inverses."""
    stack: list[int] = []
    for x in letters:
        if x == 0:
            raise ValueError("0 is not a letter")
        if stack and stack[-1] == -x:
            stack.pop()
        else:
            stack.append(x)
    return tuple(stack)


def multiply(*words: Word) -> Word:
    """Reduced product of reduced words."""
    return free_reduce([x for w in words for x in w])


def inverse(w: Word) -> Word:
    return tuple(-x for x in reversed(w))


def power(w: Word, k: int) -> Word:
    if k < 0:
        return power(inverse(w), -k)
    return multiply(*([w] * k)) if k else EMPTY


def b_power(m: int) -> Word:
    """The word b^m (m may be negative or zero)."""
    return (B,) * m if m >= 0 else (-B,) * (-m)


def parse_word(text: str, alphabet: Alphabet) -> Word:
    """Parse `aba'` / `ab^-1a` / `e` into a reduced word.

    Inverses are written with a trailing apostrophe or `^-1`.  Whitespace is a
    syntax error.  The letter sequence is freely reduced.
    """
    if text == "e":
        return EMPTY
    if not text:
        raise ValueError("empty word literal (use 'e' for the identity)")
    letters: list[int] = []
    i = 0
    while i < len(text):
        ch = text[i]
        idx = _LETTER_NAMES.find(ch)
        if idx < 0:
            raise ValueError(f"bad character {ch!r} at position {i} in word {text!r}")
        gen = idx + 1
        if gen > alphabet.rank:
            raise ValueError(f"letter {ch!r} exceeds rank {alphabet.rank}")
        i += 1
        sign = 1
        if i < len(text) and text[i] == "'":
            sign = -1
            i += 1
        elif text.startswith("^-1", i):
            sign = -1
            i += 3
        letters.append(sign * gen)
    return free_reduce(letters)


def word_str(w: Word) -> str:
    """Canonical print form; inverses use the apostrophe (`aba'`)."""
    if not w:
        return "e"
    return "".join(_LETTER_NAMES[abs(x) - 1] + ("" if x > 0 else "'") for x in w)


# ---------------------------------------------------------------------------
# Cayley balls


def _check_radius(radius: int) -> None:
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")


def ball_size(rank: int, radius: int) -> int:
    """Closed-form number of reduced words of length <= radius."""
    _check_radius(radius)
    q = 2 * rank - 1
    return 1 + 2 * rank * (q**radius - 1) // (q - 1)


def sphere(alphabet: Alphabet, radius: int) -> Iterator[Word]:
    """All reduced words of exactly the given length, in lex order."""
    _check_radius(radius)
    order = alphabet.letters()

    def extend(w: Word, remaining: int) -> Iterator[Word]:
        if remaining == 0:
            yield w
            return
        for x in order:
            if not w or x != -w[-1]:
                yield from extend(w + (x,), remaining - 1)

    return extend(EMPTY, radius)


def ball(alphabet: Alphabet, radius: int) -> Iterator[Word]:
    """All reduced words of length <= radius, level by level, lex in level."""
    _check_radius(radius)
    return (w for r in range(radius + 1) for w in sphere(alphabet, r))


# ---------------------------------------------------------------------------
# b-block structure


class Kind(Enum):
    B_TRUNCATED = "b-truncated"
    B_LEFT = "b-left"
    RIGHT_B = "right-b"
    B_AND_B = "b-and-b"
    B_POWER = "b-power"


@dataclass(frozen=True)
class BForm:
    """The factorization w = b^{m_0} s_1 b^{m_1} ... s_k b^{m_k}.

    `s` holds the k skeleton letters (all in S_b); `m` holds the k+1 signed
    b-exponents.  Interior exponents m_1..m_{k-1} may vanish only when the
    neighbouring skeleton letters do not cancel; boundary exponents m_0, m_k
    determine the kind.  k = 0 encodes a pure b-power (m_0 != 0).
    """

    m: tuple[int, ...]
    s: tuple[int, ...]

    @property
    def m0(self) -> int:
        return self.m[0]

    @property
    def mk(self) -> int:
        return self.m[-1]

    def kind(self) -> Kind:
        if not self.s:
            return Kind.B_POWER
        if self.m0 == 0 and self.mk == 0:
            return Kind.B_TRUNCATED
        if self.m0 != 0 and self.mk == 0:
            return Kind.B_LEFT
        if self.m0 == 0:
            return Kind.RIGHT_B
        return Kind.B_AND_B

    def word(self) -> Word:
        parts: list[Word] = [b_power(self.m[0])]
        for i, letter in enumerate(self.s):
            parts.append((letter,))
            parts.append(b_power(self.m[i + 1]))
        return multiply(*parts)


def b_form(w: Word) -> BForm:
    """Factor a nonempty reduced word through its b-power blocks."""
    if not w:
        raise ValueError("the identity has no b-form")
    m: list[int] = [0]
    s: list[int] = []
    for x in w:
        if abs(x) == B:
            m[-1] += 1 if x > 0 else -1
        else:
            s.append(x)
            m.append(0)
    return BForm(tuple(m), tuple(s))


def kind_of(w: Word) -> Kind:
    return b_form(w).kind()


def tau(w: Word, s_index: int = B) -> Optional[Word]:
    """Strip the maximal s^{+-1} prefix and suffix; None when nothing is left.

    None (the empty set marker) is distinct from the identity word: tau_b of a
    pure b-power is None, never e.
    """
    lo, hi = 0, len(w)
    while lo < hi and abs(w[lo]) == s_index:
        lo += 1
    while hi > lo and abs(w[hi - 1]) == s_index:
        hi -= 1
    if lo == hi:
        return None
    return w[lo:hi]


def is_truncated(w: Word, s_index: int = B) -> bool:
    """True when w carries no s-power on either end (and survives tau)."""
    return tau(w, s_index) == w


# ---------------------------------------------------------------------------
# Nielsen transformations at the word level


class NielsenGen(Enum):
    """Elementary Nielsen transformations (generators of Out(F_n)).

    P1 swaps a and b; P2 cyclically permutes the generators; H inverts a;
    T maps a to ab; TINV maps a to ab'.  All fix the remaining generators.
    """

    P1 = "P1"
    P2 = "P2"
    H = "H"
    T = "T"
    TINV = "Tinv"


def _gen_image(gen: NielsenGen, i: int, rank: int) -> Word:
    if gen is NielsenGen.P1:
        if i == 1:
            return (2,)
        if i == 2:
            return (1,)
        return (i,)
    if gen is NielsenGen.P2:
        return (i % rank + 1,)
    if gen is NielsenGen.H:
        return (-1,) if i == 1 else (i,)
    if gen is NielsenGen.T:
        return (1, 2) if i == 1 else (i,)
    if gen is NielsenGen.TINV:
        return (1, -2) if i == 1 else (i,)
    raise ValueError(gen)


def apply_nielsen(gen: NielsenGen, w: Word, alphabet: Alphabet) -> Word:
    """Image of a word under one elementary Nielsen transformation."""
    letters: list[int] = []
    for x in w:
        img = _gen_image(gen, abs(x), alphabet.rank)
        letters.extend(img if x > 0 else inverse(img))
    return free_reduce(letters)
