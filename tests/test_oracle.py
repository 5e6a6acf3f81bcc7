from __future__ import annotations

import random
from fractions import Fraction

import pytest

from qmforge.action import n_representative
from qmforge.counting import as_counting, brooks_sum, counting_sum, evaluate, phi, zero
from qmforge.freegroup import Alphabet, ball, multiply, parse_word
from qmforge.oracle import (
    PASS,
    Verdict,
    brute_evaluate,
    count_subword_scan,
    defect_and_homogenize,
    empirical_equiv,
    exact_identity_check,
    sup_on_ball,
    sup_profile,
)
from qmforge.counting import count_subword

from _corpus import random_brooks_sum, random_reduced_word

AL = Alphabet(2)


def w(text):
    return parse_word(text, AL)


def test_scan_counter_agrees_with_primary_counter():
    patterns = [w(t) for t in ("a", "ab", "aba", "ba'", "bb", "aab'")]
    for v in patterns:
        for u in ball(AL, 6):
            assert count_subword_scan(v, u) == count_subword(v, u), (v, u)


def test_brute_evaluate_matches_evaluate():
    rng = random.Random(5)
    for _ in range(20):
        f = random_brooks_sum(rng, AL)
        for u in ball(AL, 4):
            assert brute_evaluate(f, u) == evaluate(f, u)


def _long_key_sums(rng, alphabet):
    """Counting and Brooks sums whose keys reach length 7, longer than many ball words."""
    sums = []
    for make in (counting_sum, brooks_sum) * 4:
        keys = {
            random_reduced_word(rng, alphabet, rng.randint(1, 7)): Fraction(
                rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 4)
            )
            for _ in range(rng.randint(1, 8))
        }
        sums.append(make(keys))
    return sums


# (rank, ball radius, base word of the n-representatives)
DIFFERENTIAL_CASES = [(2, 6, "a'bab"), (3, 4, "cab"), (4, 3, "dab'cb")]


@pytest.mark.parametrize("rank,radius,base", DIFFERENTIAL_CASES)
def test_evaluate_matches_brute_evaluate_at_ranks_2_to_4(rank, radius, base):
    alphabet = Alphabet(rank)
    sums = _long_key_sums(random.Random(rank), alphabet)
    sums += [counting_sum({parse_word("aa", alphabet): 1}), phi(parse_word("aa", alphabet))]
    sums += [
        as_counting(n_representative(parse_word(base, alphabet), n, alphabet))
        for n in (1, 2, 4, 8)
    ]
    rng = random.Random(-rank)
    words = list(ball(alphabet, radius))
    for f in sums:
        # products of keys are longer than the ball and hold every key length
        keys = list(f.weight)
        products = [multiply(*rng.choices(keys, k=3)) for _ in range(30)]
        for u in words + products:
            assert evaluate(f, u) == brute_evaluate(f, u), (f, u)


def test_sup_on_ball_reports_first_maximizer():
    rep = sup_on_ball(phi(w("ab")), 4, AL)
    assert rep.sup == 2
    assert rep.argmax == w("abab")
    assert rep.count == sum(1 for _ in ball(AL, 4))


def test_sup_profile_is_consistent_with_individual_sups():
    f = brooks_sum({w("ab"): 1, w("ba'"): -2})
    profile = sup_profile(f, (2, 3, 4), AL)
    for rep in profile:
        assert rep.sup == sup_on_ball(f, rep.radius, AL).sup


def test_every_scan_checks_its_word_count_against_the_closed_form(monkeypatch):
    """A ball that lost a word is caught by every sup scan, empirical_equiv too."""
    from qmforge import oracle

    short = lambda alphabet, radius: list(ball(alphabet, radius))[:-1]
    monkeypatch.setattr(oracle, "cached_ball", short)
    f = phi(w("ab"))
    message = "the ball of radius 5 has 484 words, not the closed form's"
    with pytest.raises(ValueError, match=message):
        sup_on_ball(f, 5, AL)
    with pytest.raises(ValueError, match=message):
        sup_profile(f, (4, 5), AL)
    with pytest.raises(ValueError, match=message):
        empirical_equiv(f, f, AL, radii=(3, 4, 5))


def test_exact_identity_check_passes_and_finds_counterexamples():
    f = phi(w("ab"))
    assert exact_identity_check(f, f, 4, AL) == PASS
    bad = exact_identity_check(f, phi(w("ba")), 4, AL)
    assert bad != PASS and evaluate(f, bad) != evaluate(phi(w("ba")), bad)


def test_exact_identity_check_with_transform():
    # phi(v)(u^-1) = -phi(v)(u), checked through the transform hook
    from qmforge.freegroup import inverse

    f = phi(w("aba"))
    assert exact_identity_check(f, f.scale(-1), 4, AL, transform=inverse) == PASS


def test_empirical_equiv_equal_functions_is_likely_equiv():
    f = phi(w("ab"))
    rep = empirical_equiv(f, f, AL, radii=(3, 4, 5))
    assert rep.verdict is Verdict.LIKELY_EQUIV and rep.sups == (0, 0, 0)


def test_empirical_equiv_bounded_perturbation_is_likely_equiv():
    f = phi(w("ab"))
    bumped = lambda u: brute_evaluate(f, u) + (1 if u == w("ab") else 0)
    rep = empirical_equiv(f, bumped, AL, radii=(3, 4, 5))
    assert rep.verdict is Verdict.LIKELY_EQUIV and rep.sups == (1, 1, 1)


def test_empirical_equiv_detects_divergence():
    f = counting_sum({w("b"): 1})
    g = counting_sum({w("a"): 1})
    rep = empirical_equiv(f, g, AL, radii=(3, 4, 5, 6))
    assert rep.verdict is Verdict.DIVERGING
    assert all(rep.sups[i] < rep.sups[i + 1] for i in range(len(rep.sups) - 1))


def test_empirical_equiv_is_inconclusive_on_a_sup_that_steps_once():
    """phi(ab) against 0: the sups 1, 1, 2, 2 neither settle over the last
    three radii nor rise at every one."""
    rep = empirical_equiv(phi(w("ab")), zero(), AL, radii=(2, 3, 4, 5))
    assert rep.verdict is Verdict.INCONCLUSIVE and rep.sups == (1, 1, 2, 2)


def test_empirical_equiv_rejects_bad_radii():
    f = phi(w("a"))
    with pytest.raises(ValueError):
        empirical_equiv(f, f, AL, radii=(3, 3, 4))
    with pytest.raises(ValueError):
        empirical_equiv(f, f, AL, radii=(3, 4))


def test_defect_estimate_of_single_brooks_term():
    defect, hom = defect_and_homogenize(phi(w("ab")), 3, w("ab"), 8, AL)
    assert defect >= 1  # phi(ab) is not a homomorphism
    assert hom == 1  # (#ab - #b'a')((ab)^k) = k


def test_homogenization_vanishes_off_the_support_direction():
    _, hom = defect_and_homogenize(phi(w("ab")), 2, w("a"), 10, AL)
    assert hom == 0


def test_length_one_sums_are_homomorphisms():
    f = brooks_sum({w("a"): 2, w("b"): -1})
    defect, _ = defect_and_homogenize(f, 3, w("a"), 4, AL)
    assert defect == 0


def test_defect_rejects_bad_arguments():
    with pytest.raises(ValueError):
        defect_and_homogenize(phi(w("a")), 0, w("a"), 1, AL)
    with pytest.raises(ValueError):
        defect_and_homogenize(phi(w("a")), 1, w("a"), 0, AL)
