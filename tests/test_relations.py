from __future__ import annotations

import random
from fractions import Fraction

import pytest

from qmforge.counting import as_counting, brooks_sum, counting_sum, evaluate, phi, zero
from qmforge.freegroup import Alphabet, b_power, ball, inverse, parse_word
from qmforge.oracle import Verdict, empirical_equiv, sup_on_ball
from qmforge.relations import (
    RelationKind,
    RewriteTrace,
    TraceStep,
    eliminate_b_powers,
    extension_relation,
    is_normal_form,
    normal_form,
    retarget_power,
)

from _corpus import random_brooks_sum

AL = Alphabet(2)


def w(text):
    return parse_word(text, AL)


# -- the relations themselves --------------------------------------------------


def test_extension_relations_are_end_indicators():
    """l_w(v) = [w is a prefix of v]; r_w(v) = [w is a suffix of v]."""
    for base in (w("a"), w("ab"), w("ba'"), w("bb")):
        rel_l = extension_relation(RelationKind.LEFT, base, AL)
        rel_r = extension_relation(RelationKind.RIGHT, base, AL)
        for v in ball(AL, 4):
            assert evaluate(rel_l, v) == (1 if v[: len(base)] == base else 0), (base, v)
            assert evaluate(rel_r, v) == (1 if v[len(v) - len(base) :] == base else 0), (base, v)


def test_extension_relation_rejects_identity():
    with pytest.raises(ValueError):
        extension_relation(RelationKind.LEFT, w("e"), AL)


# -- exponent retargeting --------------------------------------------------------


def test_retarget_right_single_step_down():
    """phi(ab^2) rewrites to phi(ab) plus short truncated corrections."""
    moved, trace = retarget_power(RelationKind.RIGHT, w("a"), 0, 2, 1, AL)
    assert moved.coefficient(w("ab")) == 1
    assert trace.certifies(phi(w("abb")), moved, AL)


def test_retarget_crossing_zero_flips_sign():
    moved, trace = retarget_power(RelationKind.RIGHT, w("a"), 0, 1, -1, AL)
    assert moved.coefficient(w("ab'")) == -1
    assert trace.certifies(phi(w("ab")), moved, AL)


def _mirror_cases():
    for rank in (2, 3, 4):
        alphabet = Alphabet(rank)
        texts = ["a", "a'", "aba", "ab'a'"] + (["ac", "c'a"] if rank >= 3 else [])
        for text in texts:
            for m_fixed in range(-3, 4):
                for m_from in (-4, -2, -1, 1, 2, 5):
                    for m_to in (-3, -1, 1, 2, 4):
                        yield alphabet, parse_word(text, alphabet), m_fixed, m_from, m_to


def test_retarget_left_mirrors_right():
    """Walking the leading exponent of a key's inverse is the RIGHT walk seen
    through inversion, at ranks 2-4: the negated sum, and the same steps in
    the same order with the relation kinds swapped and the bases inverted."""
    other = {RelationKind.LEFT: RelationKind.RIGHT, RelationKind.RIGHT: RelationKind.LEFT}
    for alphabet, x, m_fixed, m_from, m_to in _mirror_cases():
        case = (alphabet.rank, x, m_fixed, m_from, m_to)
        moved_r, trace_r = retarget_power(RelationKind.RIGHT, x, m_fixed, m_from, m_to, alphabet)
        moved_l, trace_l = retarget_power(
            RelationKind.LEFT, inverse(x), -m_fixed, -m_from, -m_to, alphabet
        )
        assert moved_l == moved_r.scale(-1), case
        mirrored = [TraceStep(other[s.kind], inverse(s.base), s.coefficient) for s in trace_r.steps]
        assert list(trace_l.steps) == mirrored, case
        key = b_power(m_fixed) + x + b_power(m_from)
        assert trace_r.certifies(phi(key), moved_r, alphabet), case
        assert trace_l.certifies(phi(inverse(key)), moved_l, alphabet), case


def test_retarget_rejects_bad_input():
    with pytest.raises(ValueError):
        retarget_power(RelationKind.RIGHT, w("b"), 0, 1, 2, AL)  # x not truncated
    with pytest.raises(ValueError):
        retarget_power(RelationKind.RIGHT, w("a"), 0, 0, 2, AL)  # zero exponent


# -- b-power elimination ---------------------------------------------------------


def test_eliminate_b_powers_on_phi_b_squared():
    from qmforge.freegroup import b_form

    out, trace = eliminate_b_powers(phi(w("bb")), AL)
    # the only pure b-power allowed to survive is b itself
    assert all(b_form(v).s or v == w("b") for v in out.support())
    assert trace.certifies(phi(w("bb")), out, AL)
    # the symbolic certificate pins the pointwise semantics on the whole ball
    combination = trace.combination(AL)
    for v in ball(AL, 5):
        lhs = evaluate(as_counting(phi(w("bb"))), v)
        assert lhs == evaluate(as_counting(out), v) + evaluate(combination, v)


def test_eliminate_b_powers_leaves_clean_sums_alone():
    f = brooks_sum({w("ab"): 1, w("aba"): -2})
    out, trace = eliminate_b_powers(f, AL)
    assert out == f and trace.steps == ()


# -- normal form ------------------------------------------------------------------


def test_normal_form_of_phi_bb_is_frozen():
    from qmforge.counting import format_sum

    nf, trace = normal_form(phi(w("bb")), AL)
    assert format_sum(nf) == "phi(b) + phi(ab') + phi(a'b')"
    assert trace.certifies(phi(w("bb")), nf, AL)
    ok, violation = is_normal_form(nf, AL)
    assert ok, violation


def test_normal_form_merges_rot_pair():
    # phi(ab) + phi(a'b') is rot's canonical storage and already normal
    f = brooks_sum({w("ab"): 1, w("a'b'"): 1})
    nf, trace = normal_form(f, AL)
    assert nf == f and trace.steps == ()


def test_normal_form_is_idempotent():
    rng = random.Random(23)
    for _ in range(25):
        f = random_brooks_sum(rng, AL)
        nf, trace = normal_form(f, AL)
        assert trace.certifies(f, nf, AL)
        nf2, trace2 = normal_form(nf, AL)
        assert nf2 == nf
        assert trace2.steps == ()


def test_normal_form_differential_against_oracle():
    rng = random.Random(29)
    for _ in range(8):
        f = random_brooks_sum(rng, AL, max_keys=4, max_len=4, max_coeff=3)
        nf, _ = normal_form(f, AL)
        rep = empirical_equiv(f, nf, AL, radii=(3, 4, 5))
        assert rep.verdict is Verdict.LIKELY_EQUIV, (f.weight, nf.weight, rep)


def test_normal_form_requires_brooks_mode():
    from qmforge.counting import counting_sum

    with pytest.raises(ValueError):
        normal_form(counting_sum({w("ab"): 1}), AL)


def test_zero_is_already_normal():
    nf, trace = normal_form(zero(), AL)
    assert nf.is_zero() and trace.steps == ()
    ok, _ = is_normal_form(zero(), AL)
    assert ok


def test_is_normal_form_flags_violations():
    # two right-b keys with the same skeleton
    f = brooks_sum({w("ab"): 1, w("abb"): 1})
    ok, violation = is_normal_form(f, AL)
    assert not ok and violation is not None and violation.condition == 2
    # a bare b-power other than b
    g = phi(w("bb"))
    ok, violation = is_normal_form(g, AL)
    assert not ok and violation is not None and violation.condition == 1


def test_normal_form_bounds_difference_by_relations():
    """The rewrite changes the function by a finite relation combination,
    so f and normal_form(f) differ by a bounded function."""
    f = brooks_sum({w("babb"): 2, w("aab"): -1})
    nf, trace = normal_form(f, AL)
    assert trace.certifies(f, nf, AL)
    diff = as_counting(f) - as_counting(nf)
    sup3 = sup_on_ball(diff, 3, AL).sup
    sup5 = sup_on_ball(diff, 5, AL).sup
    assert sup5 == sup3 or sup5 <= sup3 + 2  # saturates once the ball covers supports


# -- certificate checks -------------------------------------------------------------

FRACTIONS = (Fraction(1, 2), Fraction(5, 3), Fraction(1, 6), Fraction(-7, 4), Fraction(3))


def _fractional_sums(rank):
    """Random sums at one rank, each key reweighted by a fraction (1/2, 5/3
    and 1/6 all occur in one sum), plus a b-power key so that the rewrite
    leaves a nonempty trace."""
    alphabet = Alphabet(rank)
    rng = random.Random(31 + rank)
    b3 = parse_word("bbb", alphabet)
    for _ in range(12):
        f = random_brooks_sum(rng, alphabet, max_keys=4, max_len=4, max_coeff=3)
        entries = {
            v: c * FRACTIONS[i % len(FRACTIONS)] for i, (v, c) in enumerate(f.weight.items())
        }
        entries[b3] = entries.get(b3, Fraction(0)) + Fraction(1, 6)
        yield alphabet, brooks_sum(entries)
    yield alphabet, brooks_sum({
        parse_word("bbab", alphabet): Fraction(1, 2),
        parse_word("b'ab'b'", alphabet): Fraction(5, 3),
        parse_word("bb", alphabet): Fraction(1, 6),
    })


def _reference_certifies(trace, before, after, alphabet):
    return (as_counting(before) - as_counting(after) - trace.combination(alphabet)).is_zero()


def _mutants(trace, rng):
    """One coefficient perturbed, one step dropped, one step's kind flipped."""
    steps = trace.steps
    i = rng.randrange(len(steps))
    kind, base, c = steps[i].kind, steps[i].base, steps[i].coefficient
    flipped = RelationKind.LEFT if kind is RelationKind.RIGHT else RelationKind.RIGHT
    for label, replacement in (
        ("perturbed", (TraceStep(kind, base, c + Fraction(1, 7)),)),
        ("dropped", ()),
        ("flipped", (TraceStep(flipped, base, c),)),
    ):
        yield label, RewriteTrace(steps[:i] + replacement + steps[i + 1 :])


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_certifies_agrees_with_reference_and_rejects_tampering(rank):
    rng = random.Random(37 + rank)
    for alphabet, f in _fractional_sums(rank):
        nf, trace = normal_form(f, alphabet)
        assert trace.steps, f.weight
        assert trace.certifies(f, nf, alphabet)
        assert _reference_certifies(trace, f, nf, alphabet)
        for label, bad in _mutants(trace, rng):
            assert not bad.certifies(f, nf, alphabet), (label, f.weight)
            assert not _reference_certifies(bad, f, nf, alphabet), (label, f.weight)
        wrong = nf + phi(parse_word("a", alphabet)).scale(Fraction(1, 6))
        assert not trace.certifies(f, wrong, alphabet)
        assert not trace.certifies(f, nf.scale(2), alphabet)


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_combination_equals_relation_by_relation_sum(rank):
    for alphabet, f in _fractional_sums(rank):
        _, trace = normal_form(f, alphabet)
        total = counting_sum({})
        for step in trace.steps:
            relation = extension_relation(step.kind, step.base, alphabet)
            total = total + relation.scale(step.coefficient)
        assert trace.combination(alphabet) == total


def test_certifies_rejects_empty_and_unreduced_bases():
    f = phi(w("ab"))
    for base in ((), (1, -1), (2, 1, -1)):
        for kind in RelationKind:
            trace = RewriteTrace((TraceStep(kind, base, Fraction(1, 2)),))
            with pytest.raises(ValueError):
                trace.certifies(f, f, AL)
            with pytest.raises(ValueError):
                trace.combination(AL)
    with pytest.raises(ValueError, match="no extension relation at the identity"):
        RewriteTrace((TraceStep(RelationKind.RIGHT, (), Fraction(1)),)).certifies(f, f, AL)
