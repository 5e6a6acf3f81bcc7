from __future__ import annotations

import random

import pytest

from qmforge.action import NielsenWord
from qmforge.freegroup import (
    A,
    B,
    Alphabet,
    BForm,
    Kind,
    NielsenGen,
    apply_nielsen,
    b_form,
    ball,
    ball_size,
    free_reduce,
    inverse,
    kind_of,
    multiply,
    parse_word,
    power,
    sphere,
    tau,
    word_sort_key,
    word_str,
)

AL = Alphabet(2)
AL3 = Alphabet(3)


def w(text, alphabet=AL):
    return parse_word(text, alphabet)


def test_free_reduce_cancels_adjacent_inverses():
    assert free_reduce([A, -A]) == ()
    assert free_reduce([A, B, -B, -A]) == ()
    assert free_reduce([A, B, -B, A]) == (A, A)
    assert free_reduce([B, A, -A, -B, A]) == (A,)


def test_multiply_and_inverse_group_laws():
    rng = random.Random(7)
    words = [tuple(rng.choice([A, -A, B, -B]) for _ in range(rng.randint(0, 6))) for _ in range(40)]
    words = [free_reduce(v) for v in words]
    for u in words:
        assert multiply(u, inverse(u)) == ()
        assert multiply((), u) == u
        for v in words[:10]:
            assert inverse(multiply(u, v)) == multiply(inverse(v), inverse(u))


def test_power():
    assert power(w("ab"), 3) == w("ababab")
    assert power(w("ab"), -2) == w("b'a'b'a'")
    assert power(w("ab"), 0) == ()


def test_parse_word_round_trip():
    for text in ("e", "a", "b'", "abba'", "b^-1a", "aab'b'a"):
        v = w(text)
        assert parse_word(word_str(v), AL) == v
    assert w("b^-1a") == w("b'a")
    assert word_str(()) == "e"


def test_parse_word_rejects_garbage():
    with pytest.raises(ValueError):
        parse_word("ax", AL)
    with pytest.raises(ValueError):
        parse_word("c", AL)  # letter beyond rank
    with pytest.raises(ValueError):
        parse_word("a^2", AL)
    assert parse_word("c", AL3) == (3,)


def test_ball_sizes_match_closed_form():
    for rank in (2, 3):
        alphabet = Alphabet(rank)
        for radius in range(5):
            assert len(list(ball(alphabet, radius))) == ball_size(rank, radius)
    assert ball_size(2, 6) == 1457
    assert ball_size(2, 7) == 4373


def test_negative_radius_is_rejected_before_enumeration():
    for make in (lambda: ball(AL, -1), lambda: sphere(AL, -1), lambda: ball_size(2, -1)):
        with pytest.raises(ValueError, match="radius must be >= 0, got -1"):
            make()


def test_sphere_words_are_reduced_and_distinct():
    seen = set()
    for v in sphere(AL, 4):
        assert len(v) == 4
        assert free_reduce(v) == v
        seen.add(v)
    assert len(seen) == 4 * 3**3


def test_word_sort_key_orders_by_length_then_letters():
    ordering = sorted([w("b"), w("a'"), w("aa"), w("a"), w("b'")], key=word_sort_key)
    assert ordering == [w("a"), w("a'"), w("b"), w("b'"), w("aa")]


# -- b-representation ---------------------------------------------------------


def test_b_form_splits_boundary_exponents():
    form = b_form(w("bbaab'"))
    assert (form.m0, form.mk) == (2, -1)
    assert form.s == (A, A)
    assert form.kind() is Kind.B_AND_B
    assert form.word() == w("bbaab'")


def test_b_form_kinds():
    assert kind_of(w("aba")) is Kind.B_TRUNCATED
    assert kind_of(w("ba")) is Kind.B_LEFT
    assert kind_of(w("ab")) is Kind.RIGHT_B
    assert kind_of(w("bab'")) is Kind.B_AND_B
    assert kind_of(w("bb")) is Kind.B_POWER


def test_b_form_round_trips_on_a_ball():
    for v in ball(AL, 5):
        if not v or tau(v) is None:
            continue
        form = b_form(v)
        assert form.word() == v
        assert len(form.s) == sum(1 for x in v if abs(x) != B)


def test_tau_strips_boundary_powers():
    assert tau(w("bbaab'")) == w("aa")
    assert tau(w("aba")) == w("aba")
    assert tau(w("bbb")) is None
    assert tau(w("b")) is None


# -- Nielsen transformations --------------------------------------------------


def test_nielsen_generator_images():
    assert apply_nielsen(NielsenGen.P1, w("ab"), AL) == w("ba")
    assert apply_nielsen(NielsenGen.H, w("ab"), AL) == w("a'b")
    assert apply_nielsen(NielsenGen.P2, w("ab"), AL3) == w("bc", AL3)
    assert apply_nielsen(NielsenGen.T, w("a"), AL) == w("ab")
    assert apply_nielsen(NielsenGen.TINV, w("a"), AL) == w("ab'")
    assert apply_nielsen(NielsenGen.TINV, w("b"), AL) == w("b")
    assert apply_nielsen(NielsenGen.T, w("ab'"), AL) == w("a")


def test_t_and_tinv_are_mutually_inverse():
    for v in ball(AL, 4):
        assert apply_nielsen(NielsenGen.T, apply_nielsen(NielsenGen.TINV, v, AL), AL) == v


def test_apply_nielsen_word_composes_left_to_right():
    gens = (NielsenGen.P1, NielsenGen.TINV)
    for v in ball(AL, 3):
        step = apply_nielsen(NielsenGen.P1, v, AL)
        assert NielsenWord(gens).word(v, AL) == apply_nielsen(NielsenGen.TINV, step, AL)


def test_nielsen_images_are_automorphic():
    """Images must respect products: X(uv) = X(u)X(v) after reduction."""
    rng = random.Random(3)
    vs = [random_word(rng, 5) for _ in range(25)]
    for gen in NielsenGen:
        for u in vs[:8]:
            for v in vs[8:16]:
                lhs = apply_nielsen(gen, multiply(u, v), AL)
                rhs = multiply(apply_nielsen(gen, u, AL), apply_nielsen(gen, v, AL))
                assert lhs == rhs


def random_word(rng, max_len):
    out = []
    for _ in range(rng.randint(0, max_len)):
        x = rng.choice([A, -A, B, -B])
        if out and x == -out[-1]:
            continue
        out.append(x)
    return tuple(out)
