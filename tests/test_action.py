from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

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
    A,
    B,
    Alphabet,
    NielsenGen,
    apply_nielsen,
    ball,
    inverse,
    multiply,
    parse_word,
    tau,
)

from _corpus import corpus, random_brooks_sum, random_reduced_word
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
    assert NielsenWord.parse(" P1 * H ") == NielsenWord((NielsenGen.P1, NielsenGen.H))


def test_nielsen_word_parse_reads_the_whole_text_e_as_the_identity():
    assert NielsenWord.parse("e") == NielsenWord.parse("") == NielsenWord(())
    for text in ("e*P1", "P1*e", "e e", "E"):
        with pytest.raises(ValueError, match="unknown Nielsen generator"):
            NielsenWord.parse(text)


@pytest.mark.parametrize("text", ["*", "P1*", "*P1", "P1**H"])
def test_nielsen_word_parse_refuses_an_empty_generator(text):
    """Each `*` stands between two generators: none of these is the identity
    or P1 or P1*H with the empty generator dropped."""
    with pytest.raises(ValueError) as refused:
        NielsenWord.parse(text)
    assert str(refused.value) == f"empty Nielsen generator in {text!r}"


@pytest.mark.parametrize(
    "text, part", [("P1 H", "P1 H"), ("P1*H Tinv", "H Tinv"), ("P1\tH", "P1\tH"), (" P1 H ", "P1 H")]
)
def test_nielsen_word_parse_refuses_whitespace_inside_a_generator(text, part):
    """Spaces may surround a generator but not split one `*`-part into two:
    `P1 H` is not P1*H."""
    with pytest.raises(ValueError) as refused:
        NielsenWord.parse(text)
    assert str(refused.value) == f"unknown Nielsen generator {part!r}"


def test_nielsen_word_text_parses_back_to_the_word():
    """str(x) is the text parse reads: `e` for the identity, T written out
    as the seven generators it is stored as."""
    assert str(NielsenWord(())) == "e"
    assert str(NielsenWord.parse("T")) == "P1*H*P1*Tinv*P1*H*P1"
    rng = random.Random(25)
    gens = list(NielsenGen)
    for _ in range(200):
        x = NielsenWord.from_gens(rng.choice(gens) for _ in range(rng.randint(0, 6)))
        assert NielsenWord.parse(str(x)) == x


# -- letter images -----------------------------------------------------------------


def _fold(x, v, alphabet):
    """x's generators applied to v one by one, each a pass of apply_nielsen."""
    for gen in x.gens:
        v = apply_nielsen(gen, v, alphabet)
    return v


@pytest.mark.parametrize("rank,radius", [(2, 5), (3, 3), (4, 3)])
def test_images_and_word_match_the_generator_by_generator_fold(rank, radius):
    """images(alphabet) is the fold on each signed letter, and word the fold on
    every word of a ball, for Nielsen words of 0-8 generators drawn with T."""
    alphabet = Alphabet(rank)
    rng = random.Random(2800 + rank)
    gens = list(NielsenGen)
    words = list(ball(alphabet, radius))
    for _ in range(12):
        x = NielsenWord.from_gens(rng.choice(gens) for _ in range(rng.randint(0, 8)))
        assert x.images(alphabet) == {y: _fold(x, (y,), alphabet) for y in alphabet.letters()}
        for v in words:
            assert x.word(v, alphabet) == _fold(x, v, alphabet), (x, v)


def test_the_identity_word_checks_its_letters():
    """The empty Nielsen word refuses a letter outside the alphabet, as P1 does,
    rather than handing the word back unread."""
    for x in (NielsenWord(()), NielsenWord.parse("P1")):
        with pytest.raises(ValueError, match="^letter 5 is not in the alphabet of rank 2$"):
            x.word((5,), AL)


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_t_tinv_has_the_identity_letter_map(rank):
    alphabet = Alphabet(rank)
    identity = {x: (x,) for x in alphabet.letters()}
    for gens in ([NielsenGen.T, NielsenGen.TINV], [NielsenGen.TINV, NielsenGen.T]):
        assert NielsenWord.from_gens(gens).images(alphabet) == identity


def test_h_tinv_h_tinv_is_conjugation_by_b():
    images = NielsenWord.parse("H*Tinv*H*Tinv").images(AL)
    assert images == {x: multiply((B,), (x,), (-B,)) for x in AL.letters()}


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


def test_n_representatives_of_b_refuse_n_below_1_under_python_O():
    """b's closed form n phi_a + phi_b is refused at n <= 0 too, for the key
    and for a sum holding it, at ranks 2-4 even with asserts stripped."""
    script = (
        "from qmforge.action import n_representative, n_representative_sum\n"
        "from qmforge.counting import phi\n"
        "from qmforge.freegroup import B, Alphabet\n"
        "for rank in (2, 3, 4):\n"
        "    al = Alphabet(rank)\n"
        "    for key in ((B,), (-B,)):\n"
        "        for n in (0, -1):\n"
        "            for call in (lambda: n_representative(key, n, al),\n"
        "                         lambda: n_representative_sum(phi(key), n, al)):\n"
        "                try:\n"
        "                    print('admitted', rank, key, n, call())\n"
        "                except ValueError as exc:\n"
        "                    print(exc)\n"
    )
    proc = run_optimized(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["n must be >= 1"] * 24


def _reference_n_representative_sum(f, n, alphabet):
    """n_representative_sum built key by key: each key's representative as its
    own sum (b^+-1's closed form, or nrep(v, n).as_sum() with v as given),
    merged in Fractions, then brooks_sum."""
    entries = {}
    for v, c in f.weight.items():
        if tau(v) is None:
            if len(v) != 1:
                raise ValueError("eliminate b-powers before taking representatives")
            sgn = 1 if v[0] > 0 else -1
            rep = brooks_sum({(A,): sgn * n, (B,): sgn})
        else:
            rep = nrep(v, n, alphabet).as_sum()
        for u, cu in rep.weight.items():
            entries[u] = entries.get(u, Fraction(0)) + c * cu
    return brooks_sum(entries)


@pytest.mark.parametrize("rank,radius", [(2, 4), (3, 3), (4, 2)])
def test_n_representative_sum_matches_the_key_by_key_construction(rank, radius):
    """Every ball word in both orientations (the ball holds both), and random
    sums with b-powers eliminated, as given and with every key turned."""
    import random

    from qmforge.relations import eliminate_b_powers

    alphabet = Alphabet(rank)
    for n in (1, 2, 3):
        for v in ball(alphabet, radius):
            if not v:
                continue
            if tau(v) is None and len(v) > 1:
                with pytest.raises(ValueError):
                    n_representative(v, n, alphabet)
                continue
            key = BrooksSum({v: Fraction(1)}, Mode.BROOKS)
            want = _reference_n_representative_sum(key, n, alphabet)
            assert n_representative(v, n, alphabet) == want, (v, n)
        rng = random.Random(1919 + rank)
        for _ in range(40):
            g = eliminate_b_powers(random_brooks_sum(rng, alphabet), alphabet)[0]
            turned = BrooksSum({inverse(v): -c for v, c in g.weight.items()}, Mode.BROOKS)
            for f in (g, turned):
                want = _reference_n_representative_sum(f, n, alphabet)
                assert n_representative_sum(f, n, alphabet) == want, (f.weight, n)


def test_n_representative_refusals_name_the_check_that_fires():
    """The identity is refused by the key check, a longer b-power by nrep,
    and a b^2 key of weight 0 is read as absent."""
    with pytest.raises(ValueError, match="^the identity cannot carry weight$"):
        n_representative((), 2, AL)
    with pytest.raises(ValueError, match="^b-powers have no quadrant tables$"):
        n_representative(w("bb"), 2, AL)
    with pytest.raises(ValueError, match="^b-powers have no quadrant tables$"):
        n_representative_sum(phi(w("bb")), 2, AL)
    with_zero = BrooksSum({w("bb"): Fraction(0), w("ba"): Fraction(3)}, Mode.BROOKS)
    without = phi(w("ba")).scale(3)
    assert n_representative_sum(with_zero, 2, AL) == n_representative_sum(without, 2, AL)


def test_every_word_entry_refuses_an_unreduced_word_under_python_O():
    """nrep and w1_support check their word before anything reads it, so
    those built on them refuse an unreduced word too, with asserts stripped."""
    script = (
        "from qmforge.action import n_representative, nrep, w1_support, wstar_n\n"
        "from qmforge.freegroup import Alphabet\n"
        "from qmforge.speed import support_geometry\n"
        "for rank in (2, 3, 4):\n"
        "    al = Alphabet(rank)\n"
        "    for word in ((1, -1, 2), (1, 2, -2, 1)):\n"
        "        for call in (lambda: nrep(word, 2, al), lambda: w1_support(word, al),\n"
        "                     lambda: wstar_n(word, 2, al), lambda: support_geometry(word, 2, al),\n"
        "                     lambda: n_representative(word, 2, al)):\n"
        "            try:\n"
        "                print('admitted', call())\n"
        "            except ValueError as exc:\n"
        "                print(exc)\n"
    )
    proc = run_optimized(script)
    assert proc.returncode == 0, proc.stderr
    want = ["key (1, -1, 2) is not reduced"] * 5 + ["key (1, 2, -2, 1) is not reduced"] * 5
    assert proc.stdout.splitlines() == want * 3


def test_nrep_names_a_letter_outside_the_alphabet_before_n():
    """The word is checked first, letters included; n < 1 is refused after it."""
    with pytest.raises(ValueError, match="^letter 9 is not in the alphabet of rank 2$"):
        nrep((1, 9), 0, Alphabet(2))
    with pytest.raises(ValueError, match="^n must be >= 1$"):
        nrep((1, 2), 0, Alphabet(2))


def test_word_entries_refuse_a_letter_outside_the_alphabet_at_entry(monkeypatch):
    """nrep, w1_support and support_geometry refuse the letter c at rank 2
    before any table or letter map of T^-n is built."""
    import qmforge.action as action
    from qmforge.speed import support_geometry

    def refuse(*args):
        raise AssertionError("a T^-n letter map was built for an unchecked word")

    monkeypatch.setattr(action, "_middle_n", refuse)
    monkeypatch.setattr(action, "left_factors", refuse)
    monkeypatch.setattr(action, "_left_table", refuse)
    for call in (lambda v: nrep(v, 2, AL), lambda v: w1_support(v, AL),
                 lambda v: support_geometry(v, 2, AL)):
        for v in ((1, 3), (3, 2, 1), (2, 1, -3)):
            with pytest.raises(ValueError, match="^letter -?3 is not in the alphabet of rank 2$"):
                call(v)


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


def _reference_middle(v, n, alphabet):
    """The middle word as n steps of T^-1, the b-ends stripped before and after each."""
    m = tau(v)
    for _ in range(n):
        m = tau(apply_nielsen(NielsenGen.TINV, m, alphabet))
    return m


@pytest.mark.parametrize("rank,radius", [(2, 5), (3, 4), (4, 3)])
def test_middle_n_matches_the_step_by_step_reference(rank, radius):
    alphabet = Alphabet(rank)
    for v in ball(alphabet, radius):
        if tau(v) is not None:
            for n in (1, 2, 5, 16):
                assert _middle_n(v, n, alphabet) == _reference_middle(v, n, alphabet), (v, n)


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


def test_act_turns_each_key_canonical_once_per_run_of_permutations(monkeypatch):
    """A run of P1, P2 and H is one pass: each key is emitted once on entry
    and once with its image under the whole run.  By the empty word a
    canonical sum comes back as given, with no pass."""
    from qmforge.counting import Accumulator

    emitted = []
    emit = Accumulator.emit

    def counted(self, v, n):
        emitted.append(v)
        emit(self, v, n)

    f = brooks_sum({w("ab'c", AL3): 2, w("ca", AL3): Fraction(-1, 2), w("bbc'", AL3): 3})
    x = NielsenWord.parse("P1*H*P2*H*P1")
    want = brooks_sum({x.word(v, AL3): c for v, c in f.weight.items()})
    monkeypatch.setattr(Accumulator, "emit", counted)
    assert act(x, f, AL3) == want
    assert len(emitted) == 2 * len(f.weight)
    emitted.clear()
    assert act(NielsenWord(()), f, AL3) is f and emitted == []


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


def _reference_act(x, f, alphabet):
    """act written key by key: every generator relabels (P1, P2, H) or
    expands (T^-1, after eliminate_b_powers) each key into a raw weight,
    and brooks_sum merges it."""
    from qmforge.relations import eliminate_b_powers

    for gen in x.gens:
        if gen is NielsenGen.TINV:
            f, _ = eliminate_b_powers(f, alphabet)
        raw = {}
        for v, c in f.weight.items():
            if gen is not NielsenGen.TINV:
                image = {apply_nielsen(gen, v, alphabet): 1}
            elif tau(v) is None:
                image = {(A,): 1, (B,): 1}
            else:
                image = w1_support(v, alphabet).weight()
            for u, cu in image.items():
                raw[u] = raw.get(u, Fraction(0)) + c * cu
        f = brooks_sum(raw)
    return brooks_sum(dict(f.weight))


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_act_matches_a_key_by_key_reference(rank):
    """Turned keys, b-power keys, denominators 1-7, and Nielsen words of 0-4
    generators drawn with T among them."""
    import random

    alphabet = Alphabet(rank)
    rng = random.Random(1500 + rank)
    gens = [NielsenGen.P1, NielsenGen.P2, NielsenGen.H, NielsenGen.TINV, NielsenGen.T]
    for _ in range(60):
        weight = {}
        for _ in range(rng.randint(1, 4)):
            if rng.random() < 0.3:
                v = (rng.choice([B, -B]),) * rng.randint(1, 4)
            else:
                v = random_reduced_word(rng, alphabet, rng.randint(1, 4))
            weight[v] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 7))
        f = BrooksSum(weight, Mode.BROOKS)  # keys as drawn, either orientation
        x = NielsenWord.from_gens(rng.choice(gens) for _ in range(rng.randint(0, 4)))
        assert act(x, f, alphabet) == _reference_act(x, f, alphabet), (f.weight, x)


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_act_obeys_the_laws_of_out_fn_as_sums(rank):
    """P1 and H are involutions and P2 has order rank, so P1*P1, H*H and
    P2^rank act as the identity; and the concatenation X*Y acts as X, then Y.
    Exact as sums on 100 seeded sums, X and Y of 0-3 generators with T and
    Tinv among them."""
    alphabet = Alphabet(rank)
    rng = random.Random(2810 + rank)
    gens = list(NielsenGen)
    identities = [NielsenWord.parse(t) for t in ("P1*P1", "H*H", "*".join(["P2"] * rank))]
    for _ in range(100):
        f = random_brooks_sum(rng, alphabet, max_keys=4, max_len=4)
        for e in identities:
            assert act(e, f, alphabet) == f, (e, f.weight)
        x, y = (NielsenWord.from_gens(rng.choice(gens) for _ in range(rng.randint(0, 3))) for _ in "xy")
        xy = NielsenWord(x.gens + y.gens)
        assert act(xy, f, alphabet) == act(y, act(x, f, alphabet), alphabet), (x, y, f.weight)


def _conjugator(images, alphabet):
    """The nonempty word g of length at most 2 with images x -> g x g^-1, or None."""
    for g in ball(alphabet, 2):
        if g and all(images[x] == multiply(g, (x,), inverse(g)) for x in alphabet.letters()):
            return g
    return None


def test_inner_nielsen_words_fix_every_class():
    """An inner automorphism moves a sum by a bounded function only.  The
    Nielsen words of 1-6 generators at rank 2 whose letter map is conjugation
    are found from their images; under 8 of them, 3 seeded sums with keys of
    length at most 2 each stay equivalent by the oracle, on radii from the
    longest key + 1 to + 4."""
    from qmforge.oracle import Verdict, empirical_equiv

    gens = (NielsenGen.P1, NielsenGen.H, NielsenGen.TINV)
    words = (NielsenWord(t) for n in range(1, 7) for t in product(gens, repeat=n))
    inner = [x for x in words if NielsenGen.TINV in x.gens and _conjugator(x.images(AL), AL)]
    assert NielsenWord.parse("H*Tinv*H*Tinv") in inner
    rng = random.Random(2820)
    for x in rng.sample(inner, 8):
        for _ in range(3):
            f = random_brooks_sum(rng, AL, max_keys=3, max_len=2)
            longest = max(map(len, f.weight), default=0)
            radii = tuple(range(longest + 1, longest + 5))
            rep = empirical_equiv(f, act(x, f, AL), AL, radii=radii)
            assert rep.verdict is Verdict.LIKELY_EQUIV, (x, f.weight, rep.sups)


# -- the letter budget -----------------------------------------------------------


@pytest.mark.parametrize("rank,radius", [(2, 7), (3, 5), (4, 4)])
def test_the_act_charge_covers_each_one_step_support(rank, radius):
    """act charges a T^-1 pass 8|v| + 8 letters per key v: w1_support(v) has
    at most 4 words, each of length at most 2|v| + 2."""
    alphabet = Alphabet(rank)
    for v in ball(alphabet, radius):
        if v and tau(v) is not None:
            words = w1_support(v, alphabet).weight()
            assert len(words) <= 4 and max(map(len, words)) <= 2 * len(v) + 2, v


def test_act_over_the_rewrite_budget_is_refused_before_the_pass(monkeypatch):
    """With the budget one letter short of the first T^-1 pass's charge
    (8 * 2 + 8 for phi(ab)), act refuses before it builds an image."""
    from qmforge import action, relations

    def refuse(*args):
        raise AssertionError(f"the pass started before the budget check: {args}")

    monkeypatch.setattr(relations, "REWRITE_LETTER_BUDGET", 23)
    monkeypatch.setattr(action, "w1_support", refuse)
    refusal = r"up to 24 letters, over the budget REWRITE_LETTER_BUDGET = 23$"
    with pytest.raises(ValueError, match=refusal):
        act(NielsenWord.parse("P1*Tinv"), phi(w("ab")), AL)
