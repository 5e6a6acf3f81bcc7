"""Randomized law checks; the seeded suites elsewhere pin concrete values.

The word laws run at rank 2; the class laws of normal_form, speed, act and
exclude_fixpoint run on small random Brooks sums at ranks 2-4, with integer
coefficients or, for the scaling law, rational ones.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qmforge.action import NielsenWord, act
from qmforge.counting import BrooksSum, Mode, brooks_sum, count_subword, evaluate, norm, phi
from qmforge.fixpoints import exclude_fixpoint, verify_witness
from qmforge.freegroup import Alphabet, NielsenGen, b_power, free_reduce, inverse, multiply
from qmforge.oracle import count_subword_scan
from qmforge.relations import RelationKind, TraceStep, extension_relation, normal_form
from qmforge.speed import speed

AL = Alphabet(2)

letters = st.sampled_from([1, -1, 2, -2])
raw_words = st.lists(letters, min_size=0, max_size=10).map(tuple)
words = raw_words.map(free_reduce)
nonempty_words = words.filter(lambda v: len(v) >= 1)


@given(words, words, words)
def test_multiplication_is_associative(u, v, x):
    assert multiply(multiply(u, v), x) == multiply(u, multiply(v, x))


@given(words)
def test_inverse_cancels(v):
    assert multiply(v, inverse(v)) == ()
    assert multiply(inverse(v), v) == ()
    assert inverse(inverse(v)) == v


@given(raw_words)
def test_reduction_is_idempotent(v):
    assert free_reduce(free_reduce(v)) == free_reduce(v)


@given(nonempty_words, words)
def test_the_two_counters_agree(pattern, text):
    assert count_subword(pattern, text) == count_subword_scan(pattern, text)


@given(nonempty_words, words)
def test_counting_respects_inversion(pattern, text):
    assert count_subword(pattern, text) == count_subword(inverse(pattern), inverse(text))


@given(nonempty_words, words)
def test_phi_is_odd(v, x):
    assert evaluate(phi(v), inverse(x)) == -evaluate(phi(v), x)


@settings(max_examples=50)
@given(nonempty_words, nonempty_words)
def test_support_norm_is_ultrametric(u, v):
    f, g = phi(u), phi(v)
    assert norm(f + g) <= max(norm(f), norm(g))
    if norm(f) != norm(g):
        assert norm(f + g) == max(norm(f), norm(g))


# -- class laws at ranks 2-4 ------------------------------------------------------


def _sum_keys(draw, alphabet):
    """At most 5 keys of length at most 5, sometimes with a b^2..b^6 key."""
    letters = st.lists(st.sampled_from(alphabet.letters()), min_size=1, max_size=5)
    keys = draw(st.lists(letters.map(free_reduce).filter(bool), min_size=1, max_size=4))
    if draw(st.booleans()):
        keys.append(b_power(draw(st.integers(2, 6))))
    return keys


@st.composite
def turned_sums(draw):
    """(alphabet, f, g): f a canonical Brooks sum on _sum_keys; g the same
    sum hand-built with a random subset of its keys turned (v -> v^-1,
    c -> -c)."""
    alphabet = Alphabet(draw(st.sampled_from([2, 3, 4])))
    coefficient = st.integers(-3, 3).filter(bool)
    f = brooks_sum({v: draw(coefficient) for v in _sum_keys(draw, alphabet)})
    turned = draw(st.lists(st.booleans(), min_size=len(f.weight), max_size=len(f.weight)))
    g = BrooksSum(
        {(inverse(v) if t else v): (-c if t else c) for (v, c), t in zip(f.weight.items(), turned)},
        Mode.BROOKS,
    )
    return alphabet, f, g


CLASS_LAWS = settings(max_examples=40, deadline=None)


@CLASS_LAWS
@given(turned_sums())
def test_turning_keys_changes_no_answer(case):
    alphabet, f, g = case
    assert normal_form(g, alphabet)[0] == normal_form(f, alphabet)[0]
    for x in (NielsenWord(()), NielsenGen.P1, NielsenGen.TINV):
        assert act(x, g, alphabet) == act(x, f, alphabet)
    want, got = speed(f, alphabet), speed(g, alphabet)
    assert (got.value, got.witness, got.rot_coefficient, got.residue) == (
        want.value,
        want.witness,
        want.rot_coefficient,
        want.residue,
    )


@CLASS_LAWS
@given(turned_sums())
def test_normal_form_is_idempotent_and_ignores_key_order(case):
    alphabet, f, _ = case
    nf, _ = normal_form(f, alphabet)
    assert normal_form(nf, alphabet)[0] == nf
    backwards = BrooksSum(dict(reversed(f.weight.items())), Mode.BROOKS)
    assert normal_form(backwards, alphabet)[0] == nf


@CLASS_LAWS
@given(turned_sums())
def test_every_normal_form_trace_certifies(case):
    alphabet, f, g = case
    for h in (f, g):
        nf, trace = normal_form(h, alphabet)
        assert trace.certifies(h, nf, alphabet)


@CLASS_LAWS
@given(turned_sums())
def test_every_witness_verifies(case):
    alphabet, f, g = case
    assume(not normal_form(f, alphabet)[0].is_zero())
    for h in (f, g):
        assert verify_witness(h, exclude_fixpoint(h, alphabet), alphabet)


@CLASS_LAWS
@given(turned_sums(), st.data())
def test_speed_ignores_added_relations_and_t_tinv(case, data):
    """Read as Brooks keys, an extension relation's weights give the bounded
    l_w - r_{w^-1}, so adding it keeps the class; so does acting by T·Tinv."""
    alphabet, f, g = case
    value = speed(f, alphabet).value
    bases = st.lists(st.sampled_from(alphabet.letters()), min_size=1, max_size=4)
    for _ in range(data.draw(st.integers(1, 3))):
        kind = data.draw(st.sampled_from(list(RelationKind)))
        base = data.draw(bases.map(free_reduce).filter(bool))
        rel = brooks_sum(dict(extension_relation(kind, base, alphabet).weight))
        g = g + rel.scale(data.draw(st.integers(-3, 3)))
    assert speed(g, alphabet).value == value
    t_tinv = NielsenWord.from_gens([NielsenGen.T, NielsenGen.TINV])
    assert speed(act(t_tinv, f, alphabet), alphabet).value == value


def _rationals(numerator):
    return st.builds(Fraction, numerator.filter(bool), st.integers(1, 7))


@st.composite
def scaled_sums(draw):
    """(alphabet, f, q): f a Brooks sum on _sum_keys whose coefficients have
    denominators 1-7, and a rational q != 0."""
    alphabet = Alphabet(draw(st.sampled_from([2, 3, 4])))
    coefficient = _rationals(st.integers(-3, 3))
    f = brooks_sum({v: draw(coefficient) for v in _sum_keys(draw, alphabet)})
    return alphabet, f, draw(_rationals(st.integers(-7, 7)))


@CLASS_LAWS
@given(scaled_sums())
def test_rewriting_commutes_with_rational_scaling(case):
    """normal_form, its trace, speed and act(TINV) are linear in f: scaling f
    by q scales every coefficient they return by q."""
    alphabet, f, q = case
    qf = f.scale(q)
    nf, trace = normal_form(f, alphabet)
    nf_q, trace_q = normal_form(qf, alphabet)
    assert nf_q == nf.scale(q)
    assert trace_q.steps == tuple(
        TraceStep(step.kind, step.base, step.coefficient * q) for step in trace.steps
    )
    assert trace_q.certifies(qf, nf_q, alphabet)
    report, report_q = speed(f, alphabet), speed(qf, alphabet)
    assert report_q.value == report.value
    assert report_q.rot_coefficient == report.rot_coefficient * q
    assert report_q.residue == report.residue.scale(q)
    assert act(NielsenGen.TINV, qf, alphabet) == act(NielsenGen.TINV, f, alphabet).scale(q)
