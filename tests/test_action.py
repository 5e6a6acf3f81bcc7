from __future__ import annotations

from fractions import Fraction

import pytest

from qmforge.action import (
    NielsenWord,
    SupportProduct,
    _middle_n,
    act,
    left_factor_count,
    left_factors,
    n_representative,
    n_representative_letters,
    n_representative_sum,
    nrep,
    w1_support,
    wstar_n,
)
from qmforge.counting import BrooksSum, Mode, brooks_sum, evaluate, format_sum, norm, phi
from qmforge.freegroup import (
    B,
    Alphabet,
    NielsenGen,
    apply_nielsen,
    ball,
    multiply,
    parse_word,
    tau,
)

from _corpus import corpus
from _optimized import run_optimized

AL = Alphabet(2)
AL3 = Alphabet(3)
AL4 = Alphabet(4)


def w(text, alphabet=AL):
    return parse_word(text, alphabet)


def _pointwise_equal(f, g, radius, alphabet=AL):
    from qmforge.counting import as_counting

    cf, cg = as_counting(f), as_counting(g)
    return all(evaluate(cf, v) == evaluate(cg, v) for v in ball(alphabet, radius))


# -- permutation and flip actions ------------------------------------------------


def test_perm_flip_actions_are_pointwise_exact():
    """x[phi_w](v) = phi_w(x^-1 v) for letter permutations and the flip."""
    for gen in (NielsenGen.P1, NielsenGen.H):
        for base in (w("ab"), w("aba"), w("ba'b"), w("b")):
            f = phi(base)
            g = act(gen, f, AL)
            for v in ball(AL, 4):
                pre = apply_nielsen(gen, v, AL)  # P1, H are involutions
                assert evaluate(g, pre) == evaluate(f, v), (gen, base, v)


def test_p2_cycles_letters_at_rank_three():
    f = phi(w("ca", AL3))
    g = act(NielsenGen.P2, f, AL3)
    # P2: a -> b -> c -> a, so the class of phi(ca) moves to phi(ab)
    assert g == phi(w("ab", AL3))


def test_act_refuses_a_generator_its_relabelling_does_not_know():
    """A NielsenWord built directly cannot hold T, which from_gens would expand."""
    with pytest.raises(ValueError, match="T unexpanded; build it with from_gens or parse"):
        act(NielsenWord((NielsenGen.T,)), phi(w("ab")), AL)


def test_act_of_flip_on_rot():
    from qmforge.speed import rot

    moved = act(NielsenGen.H, rot(AL), AL)
    assert moved == brooks_sum({w("a'b"): 1, w("ab'"): 1})
    # H is an involution on classes
    assert act(NielsenGen.H, moved, AL) == rot(AL)


# -- the one-step T^-1 support table ----------------------------------------------


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_tinv_one_step_is_pointwise_exact_on_corpus(rank):
    """Both ends of the one-step table, the right end derived by inversion."""
    from qmforge.freegroup import tau

    alphabet = Alphabet(rank)
    if rank == 2:
        words, radius = [v for v in corpus(AL) if tau(v) is not None][:20], 5
    else:
        keys = ball(alphabet, 3 if rank == 3 else 2)
        words, radius = [v for v in keys if v and tau(v) is not None], 3
    for base in words:
        f = phi(base)
        g = act(NielsenGen.TINV, f, alphabet)
        for v in ball(alphabet, radius):
            # T^-1[f](v) = f(T(v)): acting by x evaluates against x^-1
            pre = apply_nielsen(NielsenGen.T, v, alphabet)
            assert evaluate(g, v) == evaluate(f, pre), (base, v)


def test_support_product_rejects_cancellation():
    # a . a'b . e reduces to b, shorter than the three factors together
    product = SupportProduct(
        base=w("a'b"), left=((w("a"), 1),), middle=w("a'b"), right=(((), 1),)
    )
    with pytest.raises(ValueError, match="support of a'b cancels to b"):
        product.weight()


def test_cancelling_support_exits_3_naming_action_under_python_O():
    script = (
        "import qmforge.action as action\n"
        "from qmforge.cli import main\n"
        "from qmforge.freegroup import Alphabet, parse_word\n"
        "al = Alphabet(2)\n"
        "bad = action.SupportProduct(\n"
        "    base=parse_word(\"a'b\", al), left=((parse_word('a', al), 1),),\n"
        "    middle=parse_word(\"a'b\", al), right=(((), 1),))\n"
        "action.w1_support = lambda w, alphabet: bad\n"
        "raise SystemExit(main(['act', 'Tinv', 'phi(ab)']))\n"
    )
    proc = run_optimized(script)
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr.strip() == "qmforge: contract violation in action: support of a'b cancels to b"


def test_w1_support_rejects_b_powers():
    with pytest.raises(ValueError):
        w1_support(w("bb"), AL)


def test_wstar_iterates_the_one_step_table():
    base = w("ba")
    two_step = wstar_n(base, 2, AL)
    once = wstar_n(base, 1, AL)
    again: dict = {}
    for u, c in once.items():
        for v, cv in w1_support(u, AL).weight().items():
            again[v] = again.get(v, Fraction(0)) + c * cv
    again = {u: c for u, c in again.items() if c != 0}
    assert two_step == again


def test_nielsen_word_parse_and_t_expansion():
    nw = NielsenWord.parse("T")
    assert nw.gens == (
        NielsenGen.P1,
        NielsenGen.H,
        NielsenGen.P1,
        NielsenGen.TINV,
        NielsenGen.P1,
        NielsenGen.H,
        NielsenGen.P1,
    )
    for v in ball(AL, 4):
        assert nw.word(v, AL) == apply_nielsen(NielsenGen.T, v, AL)
    with pytest.raises(ValueError):
        NielsenWord.parse("Q")


# -- n-representatives -------------------------------------------------------------


def test_n_representative_of_phi_ba_is_frozen():
    rep = n_representative(w("ba"), 3, AL)
    assert format_sum(rep) == "phi(aa) - phi(a'b') + phi(ab'a) + phi(ab'b'a)"


def test_n_representative_at_rank_three_is_frozen():
    # cabb ends in (mk, sk) = (2, a): its right factors carry c and c'
    rep = n_representative(w("cabb", AL3), 2, AL3)
    assert format_sum(rep) == (
        "-phi(a'a'c') + phi(cac) + phi(cac') - phi(a'b'a'c') - phi(b'b'a'c')"
        " + phi(cabc) + phi(cabc')"
    )


def test_n_representative_middle_stretches_a_runs():
    r = nrep(w("a'a'"), 4, AL)
    assert r.middle == w("a'bbbba'")
    r2 = nrep(w("aba'"), 2, AL)
    assert r2.middle == w("aba'")  # aba' is T-invariant, so nothing stretches


def test_n_representative_of_b_is_a_homomorphism_ray():
    for n in (1, 2, 5):
        rep = n_representative(w("b"), n, AL)
        assert rep == brooks_sum({w("a"): n, w("b"): 1})


def test_n_representative_rejects_long_b_powers():
    with pytest.raises(ValueError):
        n_representative(w("bb"), 2, AL)
    with pytest.raises(ValueError):
        n_representative_sum(phi(w("b'b'")), 2, AL)
    with pytest.raises(ValueError):
        n_representative(w("ba"), 0, AL)


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_nrep_letter_bound_holds_on_a_ball(rank):
    """left_factor_count counts left_factors' rows, and n_representative_letters
    bounds the letters of every support word and of every middle word nrep builds."""
    alphabet = Alphabet(rank)
    for n in (1, 2, 5):
        for m in range(-3, 4):
            for s in alphabet.letters():
                if abs(s) != B:
                    want = len(left_factors(m, s, n, alphabet))
                    assert left_factor_count(m, s, n, alphabet) == want
        for v in ball(alphabet, 3):
            if tau(v) is None:
                continue
            rep = nrep(v, n, alphabet)
            words = [multiply(l, rep.middle, r) for l, _ in rep.left for r, _ in rep.right]
            middles = sum(len(_middle_n(v, k, alphabet)) for k in range(1, n + 1))
            bound = n_representative_letters(phi(v), n, alphabet)
            assert sum(map(len, words)) + middles <= bound, (v, n)


def test_factor_rows_have_uniform_length_per_index():
    for m0, s1 in ((2, 1), (2, -1), (-3, 1), (-1, -1), (0, 1)):
        rows = left_factors(m0, s1, 4, AL)
        by_index: dict = {}
        for i, sign, word in rows:
            by_index.setdefault(i, set()).add(len(word))
            assert sign in (1, -1)
        assert all(len(lengths) == 1 for lengths in by_index.values())


def test_n_representative_norm_frozen_example():
    rep = n_representative_sum(phi(w("babb")), 8, AL)
    assert norm(rep) == 16


def test_n_representative_is_equivalent_to_the_exact_transport():
    """(phi_w)_n is a class representative: it differs from the exact signed
    support of phi_w . T^n by a bounded function, not necessarily pointwise."""
    from qmforge.oracle import Verdict, empirical_equiv

    for base in (w("ba"), w("ab"), w("bab'")):
        for n in (1, 2):
            rep = n_representative(base, n, AL)
            star = brooks_sum(dict(wstar_n(base, n, AL)))
            verdict = empirical_equiv(rep, star, AL, radii=(3, 4, 5)).verdict
            assert verdict is Verdict.LIKELY_EQUIV, (base, n)


# -- the action on classes ---------------------------------------------------------


def test_act_tinv_on_phi_b():
    assert act(NielsenGen.TINV, phi(w("b")), AL) == brooks_sum({w("a"): 1, w("b"): 1})


def test_act_tinv_fixes_phi_a():
    assert act(NielsenGen.TINV, phi(w("a")), AL) == phi(w("a"))


def test_act_composes_left_to_right():
    f = phi(w("ab"))
    xy = NielsenWord.from_gens([NielsenGen.P1, NielsenGen.H])
    assert act(xy, f, AL) == act(NielsenGen.H, act(NielsenGen.P1, f, AL), AL)


def test_act_empty_word_is_identity():
    f = phi(w("aba"))
    assert act(NielsenWord(()), f, AL) == f
    # a hand-built turned key comes back as its canonical twin
    turned = BrooksSum({w("b'a"): Fraction(1)}, Mode.BROOKS)
    assert act(NielsenWord(()), turned, AL) == -phi(w("a'b"))


def test_act_checks_its_input_once(monkeypatch):
    """The steps of a Nielsen word run unchecked: a five-generator word
    checks the sum once, in act itself."""
    import importlib

    calls = []
    for name in ("qmforge.action", "qmforge.relations"):
        module = importlib.import_module(name)
        original = module.check_sum

        def counted(f, alphabet, original=original):
            calls.append(f)
            return original(f, alphabet)

        monkeypatch.setattr(module, "check_sum", counted)
    f = phi(w("bba'b")) + phi(w("bbb"))
    x = NielsenWord.parse("P1*Tinv*H*P2*Tinv")
    act(x, f, AL)
    assert calls == [f]


def test_act_handles_b_power_keys():
    from qmforge.counting import as_counting
    from qmforge.oracle import Verdict, empirical_equiv

    f = phi(w("bb"))
    g = act(NielsenGen.TINV, f, AL)
    # the pre-action rewrite changes f by a bounded function only, so the
    # result stays a bounded distance from the exact transport
    cf = as_counting(f)
    transported = lambda v: evaluate(cf, apply_nielsen(NielsenGen.T, v, AL))
    rep = empirical_equiv(g, transported, AL, radii=(3, 4, 5))
    assert rep.verdict is Verdict.LIKELY_EQUIV
