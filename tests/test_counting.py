from __future__ import annotations

import random
from fractions import Fraction

import pytest

from qmforge.counting import (
    LengthStatus,
    Mode,
    as_counting,
    brooks_sum,
    certified_reduced_length,
    count_subword,
    count_term,
    counting_sum,
    evaluate,
    format_sum,
    is_unbalanced,
    left_brothers,
    norm,
    phi,
    right_brothers,
    zero,
)
from qmforge.freegroup import Alphabet, ball, inverse, parse_word
from qmforge.relations import RelationKind, extension_relation

from _corpus import random_brooks_sum

AL = Alphabet(2)


def w(text):
    return parse_word(text, AL)


# -- subword counting ---------------------------------------------------------


def test_count_subword_frozen_values():
    aba = w("aba")
    assert count_subword(aba, w("abaaa")) == 1
    assert count_subword(aba, w("abaaab'b'b'b'aaba")) == 2
    assert count_subword(aba, w("aaababa")) == 2


def test_count_subword_counts_overlaps():
    assert count_subword(w("aa"), w("aaaa")) == 3
    assert count_subword(w("aba"), w("ababa")) == 2


def test_count_subword_rejects_empty_pattern():
    with pytest.raises(ValueError):
        count_subword(w("e"), w("ab"))


def test_count_subword_is_zero_without_occurrence():
    assert count_subword(w("ab"), w("ba")) == 0
    assert count_subword(w("aaa"), w("aa")) == 0


# -- formal sums --------------------------------------------------------------


def test_brooks_sum_canonical_orientation():
    """Each class keeps its (length, lex)-smaller representative."""
    f = brooks_sum({w("ba"): 1})
    assert f.weight == {w("a'b'"): Fraction(-1)}
    g = brooks_sum({w("b'a'"): 2})
    assert g.weight == {w("ab"): Fraction(-2)}
    assert brooks_sum({w("bbbaaaaa"): 1}).weight == {w("a'a'a'a'a'b'b'b'"): Fraction(-1)}


def test_phi_of_inverse_is_negation():
    for v in ball(AL, 4):
        if not v:
            continue
        assert phi(inverse(v)) == phi(v).scale(-1)


def test_sum_arithmetic_is_exact():
    f = phi(w("ab")).scale(Fraction(1, 3)) + phi(w("b"))
    g = f - phi(w("b"))
    assert g == phi(w("ab")).scale(Fraction(1, 3))
    assert (f - f).is_zero()
    with pytest.raises(ValueError):
        phi(w("a")) + count_term(w("a"))  # modes must match


def test_evaluate_brooks_vs_counting_expansion():
    rng = random.Random(11)
    f = brooks_sum({w("ab"): 2, w("ba'"): -1, w("aba"): 3})
    g = as_counting(f)
    for v in ball(AL, 5):
        assert evaluate(f, v) == evaluate(g, v)


def test_evaluate_examples():
    f = counting_sum({w("aa"): 5, w("ab"): -3, w("b"): 1})
    assert evaluate(f, w("aab")) == 5 - 3 + 1
    assert evaluate(phi(w("ab")), w("ab")) == 1
    assert evaluate(phi(w("ab")), w("b'a'")) == -1


def test_norm_is_top_key_length():
    assert norm(zero()) == 0
    assert norm(phi(w("a"))) == 1
    assert norm(brooks_sum({w("ab"): 1, w("aba"): Fraction(1, 2)})) == 3


def test_format_sum_round_trip_shapes():
    assert format_sum(zero()) == "0"
    assert format_sum(phi(w("ab'"))) == "phi(ab')"
    assert format_sum(phi(w("ab")).scale(-1)) == "-phi(ab)"
    f = counting_sum({w("aa"): 5, w("ab"): -3, w("b"): 1})
    assert format_sum(f) == "#(b) + 5*#(aa) - 3*#(ab)"


# -- unbalancedness and certified length --------------------------------------


def test_unbalanced_example():
    f = counting_sum({w("aa"): 5, w("ab"): -3, w("b"): 1})
    flag, witness = is_unbalanced(f, AL)
    assert flag and witness is not None
    assert norm(f) == 2


def test_balanced_seven_term_example():
    f = counting_sum(
        {w("a"): 1, w("b'"): 4, w("ab"): 5, w("a'b"): -2, w("ba"): -2, w("bb"): 1, w("b'a"): 1}
    )
    flag, witness = is_unbalanced(f, AL)
    assert not flag and witness is None


def test_certified_length_short_sums_are_exact():
    cert = certified_reduced_length(phi(w("a")) + phi(w("b")).scale(3), AL)
    assert cert.status is LengthStatus.EXACT and cert.value == 1


def test_certified_length_unbalanced_is_exact():
    f = counting_sum({w("aa"): 5, w("ab"): -3, w("b"): 1})
    cert = certified_reduced_length(f, AL)
    assert cert.status is LengthStatus.EXACT and cert.value == 2


def test_certified_length_of_a_single_long_key_is_unbalanced():
    f = brooks_sum({w("aba"): 1, w("b"): 1})
    cert = certified_reduced_length(f, AL)
    assert cert.status is LengthStatus.EXACT and cert.value == 3
    assert cert.certificate == "unbalanced"


def test_certified_length_unknown_when_no_certificate_applies():
    # phi(ab) + phi(ba) is balanced, and balance leaves no other certificate
    f = brooks_sum({w("ab"): 1, w("ba"): 1})
    cert = certified_reduced_length(f, AL)
    assert cert.status in (LengthStatus.UNKNOWN, LengthStatus.EXACT)
    if cert.status is LengthStatus.UNKNOWN:
        assert cert.value is None


def _raw_and_smoothed_sums(rank):
    """Random counting sums, each followed by a relation-smoothed copy.

    Subtracting extension relations smooths the top level, so that balanced
    sums (status UNKNOWN) occur as well as unbalanced ones.
    """
    alphabet = Alphabet(rank)
    rng = random.Random(41 + rank)
    for _ in range(200):
        f = as_counting(random_brooks_sum(rng, alphabet, max_keys=4, max_len=4))
        smoothed = f
        for v, c in f.weight.items():
            kind = rng.choice(list(RelationKind))
            smoothed = smoothed - extension_relation(kind, v, alphabet).scale(c)
        yield f
        yield smoothed


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_certified_length_is_exact_or_unknown(rank):
    """Every certificate pins the length exactly, or admits it does not know."""
    alphabet = Alphabet(rank)
    seen = set()
    for g in _raw_and_smoothed_sums(rank):
        cert = certified_reduced_length(g, alphabet)
        seen.add(cert.status)
        assert cert.certificate in ("norm at most 1", "unbalanced", "no certificate applies"), (
            g.weight,
            cert,
        )
        if cert.status is LengthStatus.EXACT:
            top = norm(as_counting(g))
            assert cert.value == top, (g.weight, cert)
            assert cert.witness is None or len(cert.witness) == top, (g.weight, cert)
        else:
            assert cert.certificate == "no certificate applies" and cert.value is None, cert
    assert seen == {LengthStatus.EXACT, LengthStatus.UNKNOWN}


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_balanced_top_level_covers_every_index(rank):
    """Why no s-truncated end certificate exists beyond unbalancedness.

    In a balanced sum of norm >= 2, every letter index starts or ends some key
    of maximal length, so n_s equals the norm for every s and every s-truncated
    end E_s = {v : |v| > n_s} is empty.
    """
    alphabet = Alphabet(rank)
    balanced = 0
    for g in _raw_and_smoothed_sums(rank):
        top = norm(g)
        if top < 2 or is_unbalanced(g, alphabet)[0]:
            continue
        balanced += 1
        ends = {abs(x) for v in g.weight if len(v) == top for x in (v[0], v[-1])}
        assert ends == set(range(1, rank + 1)), g.weight
    assert balanced >= 100


def test_brothers_vary_one_letter():
    rbs = right_brothers(w("ab"), AL)
    assert rbs == [w("aa"), w("ab'")]
    lbs = left_brothers(w("ab"), AL)
    assert lbs == [w("a'b"), w("bb")]
    for v in rbs:
        assert len(v) == 2 and v[0] == w("ab")[0]
