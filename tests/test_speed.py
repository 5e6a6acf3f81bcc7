from __future__ import annotations

import random
from fractions import Fraction

import pytest

from qmforge.counting import brooks_sum, format_sum, phi, zero
from qmforge.freegroup import Alphabet, NielsenGen, ball, inverse, parse_word
from qmforge.relations import RelationKind, extension_relation, normal_form
from qmforge.speed import (
    BoundTag,
    empirical_speed,
    in_O,
    rot,
    sp_word,
    speed,
    support_geometry,
)

from _corpus import random_brooks_sum

AL = Alphabet(2)


def w(text):
    return parse_word(text, AL)


# -- the combinatorial speed of a single word --------------------------------------


def test_sp_frozen_values():
    assert sp_word(w("aba'bbbbbbba")) == 0
    assert sp_word(w("bbbaaaaa")) == 5
    assert sp_word(w("babaab'b'")) == 4
    assert sp_word(w("aba")) == 1
    assert sp_word(w("aa")) == 1
    assert sp_word(w("abba'")) == 0
    assert sp_word(w("baab'")) == 3


def test_sp_of_single_letters_and_b():
    for t in ("a", "a'", "b", "b'"):
        assert sp_word(w(t)) == 0


def test_sp_rejects_long_b_powers_and_identity():
    with pytest.raises(ValueError):
        sp_word(w("bb"))
    with pytest.raises(ValueError):
        sp_word(w("e"))


def test_sp_is_inversion_invariant():
    for v in ball(AL, 6):
        if not v or all(abs(x) == 2 for x in v):
            continue
        assert sp_word(v) == sp_word(inverse(v)), v


def test_zero_speed_words_are_exactly_the_core_set():
    """On a ball, sp(w) = 0 for a b-truncated word iff w lies in the
    T^-1-invariant core O (minus the b letters, which are not truncated)."""
    for v in ball(AL, 5):
        if not v:
            continue
        if all(abs(x) == 2 for x in v) and len(v) >= 2:
            continue  # long b-powers carry no sp
        from qmforge.freegroup import b_form

        form = b_form(v)
        if form.m0 == 0 and form.mk == 0 and form.s:
            assert (sp_word(v) == 0) == in_O(v), v


# -- the rotation class -------------------------------------------------------------


def test_rot_canonical_storage():
    assert rot(AL) == brooks_sum({w("ab"): 1, w("a'b'"): 1})
    al3 = Alphabet(3)
    r3 = rot(al3)
    assert r3.coefficient(parse_word("ab", al3)) == 1
    assert r3.coefficient(parse_word("bc", al3)) == -1


# -- the decomposition --------------------------------------------------------------


def test_rot_has_unit_coefficient_and_no_residue():
    report = speed(rot(AL), AL)
    assert report.rot_coefficient == 1
    assert report.residue.is_zero()
    assert report.value == 0 and report.witness is None


def test_phi_ab_decomposes_through_rot():
    # phi(ab) alone grows: only the rot combination cancels the drift
    report = speed(phi(w("ab")), AL)
    assert report.rot_coefficient == 1
    assert report.residue == brooks_sum({w("ba"): 1})
    assert report.value == 1 and report.witness == w("ba")


def test_phi_b_cubed_has_zero_rot_coefficient():
    report = speed(phi(w("bbb")), AL)
    assert report.rot_coefficient == 0
    assert format_sum(report.residue) == (
        "phi(b) + 2*phi(ab') + 2*phi(a'b') + phi(aba) + phi(aba') - phi(ab'a) + phi(a'ba)"
    )
    assert report.value == 1 and report.witness == w("ab'")


def test_lambda_reads_off_cancelling_combinations():
    f = brooks_sum({w("ba'"): 1, w("ba"): -1, w("a'"): -1, w("a'a'"): 1})
    report = speed(f, AL)
    assert report.rot_coefficient == 1
    assert report.residue.is_zero() and report.value == 0


def test_lambda_with_leftover_homomorphism_part():
    f = brooks_sum({w("ba'"): 1, w("ba"): -1, w("aa"): -1})
    report = speed(f, AL)
    assert report.rot_coefficient == 1
    assert report.residue == phi(w("a")).scale(-1)
    assert report.value == 0


def test_phi_b_squared_decomposition_is_frozen():
    report = speed(phi(w("bb")), AL)
    assert report.rot_coefficient == -1
    assert format_sum(report.residue) == "phi(a) + phi(b) - phi(aa) + 2*phi(a'b')"
    assert report.value == 1 and report.witness == w("a'a'")


def test_speed_of_b_powers_is_one():
    for m in (2, 3, 4):
        assert speed(phi((2,) * m), AL).value == 1


def test_speed_of_big_fish():
    report = speed(phi(w("bbbaaaaa")), AL)
    assert report.value == 5
    assert report.witness == w("bbbaaaaa")
    assert report.rot_coefficient == 0


def test_speed_witness_reports_positive_orientation():
    # phi(b^3 a^5) is stored on the inverse key with a negative weight, so
    # the witness must come back in the original orientation
    f = phi(w("bbbaaaaa")).scale(-1)
    report = speed(f, AL)
    assert report.value == 5 and report.witness == w("a'a'a'a'a'b'b'b'")


def test_decomposition_is_always_certified():
    rng = random.Random(17)
    for _ in range(40):
        f = random_brooks_sum(rng, AL)
        lam, value, witness, residue, trace = _unpack(speed(f, AL))
        target = rot(AL).scale(lam) + residue
        assert trace.certifies(f, target, AL), f.weight


def _unpack(report):
    return (
        report.rot_coefficient,
        report.value,
        report.witness,
        report.residue,
        report.trace,
    )


def test_speed_is_invariant_under_added_relations():
    """Reading an extension relation's weights as Brooks keys gives the
    bounded combination l_w - r_{w^-1}; adding it never moves the speed."""
    from _corpus import random_reduced_word

    rng = random.Random(19)
    for _ in range(20):
        f = random_brooks_sum(rng, AL, max_keys=4)
        base = speed(f, AL)
        word = random_reduced_word(rng, AL, rng.randint(1, 4))
        kind = rng.choice(list(RelationKind))
        rel = extension_relation(kind, word, AL)
        g = f + brooks_sum(dict(rel.weight)).scale(rng.randint(1, 3))
        assert speed(g, AL).value == base.value, (f.weight, word, kind)


def test_speed_error_on_zero_class():
    report = speed(zero(), AL)
    assert report.value == 0 and report.rot_coefficient == 0


# -- support geometry ---------------------------------------------------------------


def test_support_geometry_frozen_grid():
    geo = support_geometry(w("babb"), 8, AL)
    assert geo.square_lengths[(0, 0)] == 4
    assert geo.square_lengths[(8, 8)] == 16
    assert geo.n_b == 11
    assert geo.support_norm == 16
    assert geo.e_b_nonempty


def test_support_geometry_of_truncated_words():
    geo = support_geometry(w("aba"), 3, AL)
    assert geo.n_b == 0
    assert list(geo.square_lengths) == [(0, 0)]
    assert geo.e_b_nonempty  # every support word is longer than the empty max


def test_support_geometry_rejects_b_powers():
    with pytest.raises(ValueError):
        support_geometry(w("bb"), 3, AL)


# -- empirical gauge series ----------------------------------------------------------


def test_empirical_speed_window_matches_sp():
    """Past n = 2N the certified lengths grow by exactly sp(w) per step."""
    from qmforge.freegroup import b_form

    for text, expected in (("bbbaaaaa", 5), ("babaab'b'", 4), ("aba'bbbbbbba", 0)):
        word = w(text)
        form = b_form(word)
        big_n = max(abs(form.m0), abs(form.mk))
        series = empirical_speed(phi(word), NielsenGen.TINV, 2 * big_n + 6, AL)
        window = [s for s in series.samples if s.n > 2 * big_n]
        assert all(s.tag is BoundTag.EXACT for s in window), series
        diffs = [b.length - a.length for a, b in zip(window, window[1:])]
        assert diffs == [expected] * (len(window) - 1), (text, diffs)


def test_empirical_speed_rejects_bad_gauges():
    with pytest.raises(ValueError):
        empirical_speed(phi(w("ab")), NielsenGen.TINV, 0, AL)


def test_empirical_speed_iterates_general_words():
    from qmforge.action import NielsenWord

    series = empirical_speed(phi(w("ab")), NielsenWord.parse("P1"), 2, AL)
    assert len(series.samples) == 2


# -- interaction with normal form -----------------------------------------------------


def test_speed_agrees_between_f_and_normal_form():
    rng = random.Random(31)
    for _ in range(15):
        f = random_brooks_sum(rng, AL, max_keys=4, max_len=4)
        nf, _ = normal_form(f, AL)
        assert speed(f, AL).value == speed(nf, AL).value
