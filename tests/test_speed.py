from __future__ import annotations

import random
from fractions import Fraction

import pytest

from qmforge.action import n_representative_sum
from qmforge.cli import parse_expression
from qmforge.counting import (
    LengthStatus,
    as_counting,
    brooks_sum,
    certified_reduced_length,
    format_sum,
    norm,
    phi,
    zero,
)
from qmforge.freegroup import (
    A,
    B,
    Alphabet,
    Kind,
    NielsenGen,
    b_form,
    b_power,
    ball,
    inverse,
    parse_word,
)
from qmforge.relations import (
    RelationKind,
    _merge_columns,
    _Rewriter,
    eliminate_b_powers,
    extension_relation,
    normal_form,
)
from qmforge.speed import (
    BoundTag,
    _absorb_columns,
    _is_edge_column,
    _reduced_as_given,
    _top_speeds,
    empirical_speed,
    in_O,
    rot,
    sp_word,
    speed,
    support_geometry,
)

from _corpus import corpus, random_brooks_sum, random_reduced_word
from _optimized import run_optimized

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


def _reference_sp_word(v):
    form = b_form(v)
    if not form.s:
        if len(v) == 1:
            return 0
        raise ValueError("phi of a proper b-power is not speed reduced; decompose first")
    s = form.s
    plus = sum(1 for j in range(len(s) - 1) if s[j] != A and s[j + 1] == -A)
    minus = sum(1 for j in range(len(s) - 1) if s[j] == A and s[j + 1] != -A)
    offset = {Kind.B_TRUNCATED: 0, Kind.B_LEFT: 1, Kind.RIGHT_B: 1, Kind.B_AND_B: 2}
    return plus + minus + offset[form.kind()]


def _reference_in_O(v):
    form = b_form(v)
    if not form.s:
        return len(v) == 1
    if form.kind() is not Kind.B_TRUNCATED:
        return False
    s = form.s
    return all((s[j] == A) == (s[j + 1] == -A) for j in range(len(s) - 1))


def _reference_is_edge_column(v):
    form = b_form(v)
    return len(form.s) == 1 and form.kind() in (Kind.B_LEFT, Kind.RIGHT_B)


def _reference_reduced_as_given(top):
    forms = [b_form(v) for v in top]
    if any(f.kind() is Kind.B_AND_B for f in forms):
        return True
    if any(f.kind() in (Kind.B_LEFT, Kind.RIGHT_B) and len(f.s) >= 2 for f in forms):
        return True
    return all(f.kind() is Kind.B_TRUNCATED for f in forms)


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_per_key_reads_match_their_b_form_definitions(rank):
    """sp_word, in_O and _is_edge_column over the ball of radius 5, and
    _reduced_as_given on random top sets drawn from a few kinds, against
    definitions that read a full b_form."""
    alphabet = Alphabet(rank)
    by_kind = {}
    for v in ball(alphabet, 5):
        if not v:
            continue
        try:
            want = _reference_sp_word(v)
        except ValueError:
            with pytest.raises(ValueError, match="proper b-power"):
                sp_word(v)
        else:
            assert sp_word(v) == want, v
        assert in_O(v) == _reference_in_O(v), v
        assert _is_edge_column(v) == _reference_is_edge_column(v), v
        by_kind.setdefault(b_form(v).kind(), []).append(v)
    del by_kind[Kind.B_POWER]
    rng = random.Random(rank)
    outcomes = set()
    for _ in range(3000):
        kinds = rng.sample(sorted(by_kind, key=lambda k: k.value), rng.randint(1, 2))
        top = [rng.choice(by_kind[rng.choice(kinds)]) for _ in range(rng.randint(1, 4))]
        want = _reference_reduced_as_given(top)
        assert _reduced_as_given(top) == want, top
        outcomes.add(want)
    assert outcomes == {True, False}


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


def test_lambda_and_residue_belong_to_the_representative():
    # rho_u = phi(u) - sum_{s != u_k^-1} phi(us) is r_u - l_{u^-1}, a bounded
    # function, so f and f + 2 rho_a - 3 rho_acca are one class at rank 3.
    al = Alphabet(3)

    def rho(text):
        u = parse_word(text, al)
        out = phi(u)
        for s in al.letters():
            if s != -u[-1]:
                out = out - phi(u + (s,))
        bounded = extension_relation(RelationKind.RIGHT, u, al) - extension_relation(
            RelationKind.LEFT, inverse(u), al
        )
        assert as_counting(out) == bounded
        return out

    f = phi(parse_word("c", al)).scale(-5) - phi(parse_word("ab'b'", al)).scale(3)
    g = f + rho("a").scale(2) - rho("acca").scale(3)
    reports = [speed(f, al), speed(g, al)]
    assert [r.value for r in reports] == [1, 1]
    assert [r.rot_coefficient for r in reports] == [3, 0]
    assert reports[0].residue != reports[1].residue


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


def _edge_column_sums(alphabet, rng, count):
    """Sums of edge columns b^m s and s b^m beside a few random short keys,
    every weight with a denominator from 1 to 6."""
    s_b, exponents = alphabet.s_b(), [m for m in range(-4, 5) if m]
    for _ in range(count):
        entries = {}
        for _ in range(rng.randint(1, 5)):
            m, s = rng.choice(exponents), rng.choice(s_b)
            v = b_power(m) + (s,) if rng.random() < 0.5 else (s,) + b_power(m)
            entries[v] = Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 6))
        for _ in range(rng.randint(0, 2)):
            v = random_reduced_word(rng, alphabet, rng.randint(1, 3))
            entries[v] = Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 6))
        yield brooks_sum(entries)


def _reference_absorb(nf, alphabet):
    """Edge columns walked to exponent 1 (the a^-1 column to -1), then
    lambda*rot subtracted as a sum."""
    rewriter = _Rewriter(alphabet, nf.weight)
    _merge_columns(rewriter, _is_edge_column, lambda skel, _: -1 if skel == (-A,) else 1)
    mid, trace = rewriter.result()
    lam = mid.coefficient((A, B))
    return lam, mid - rot(alphabet).scale(lam), trace


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_absorbing_columns_equals_subtracting_lambda_rot(rank):
    """On sums whose normal form takes speed's absorbing branch, the column
    rewrite gives the reference's lambda, residue and trace, and speed keeps
    them exactly when its rule says so."""
    alphabet = Alphabet(rank)
    taken = fractional = 0
    for f in _edge_column_sums(alphabet, random.Random(71 + rank), 150):
        nf, nf_trace = normal_form(f, alphabet)
        value, top = _top_speeds(nf)
        if value == 0 or _reduced_as_given(top):
            continue
        taken += 1
        lam, residue, trace = _reference_absorb(nf, alphabet)
        fractional += lam.denominator > 1
        assert _absorb_columns(nf, alphabet) == (lam, residue, trace), f.weight
        report = speed(f, alphabet)
        if all(map(_is_edge_column, top)) or _top_speeds(residue)[0] < value:
            kept = (lam, residue, nf_trace + trace)
        else:
            kept = (0, nf, nf_trace)
        assert (report.rot_coefficient, report.residue, report.trace) == kept, f.weight
    assert taken >= 40 and fractional >= 10, (taken, fractional)


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_absorbing_columns_builds_no_sum(monkeypatch, rank):
    """The column rewrite emits rot's weights straight into its rewriter: on
    sums that take the absorbing branch it makes no brooks_sum call, and its
    lambda, residue and trace are the reference's."""
    import importlib

    calls = []
    for name in ("qmforge.counting", "qmforge.speed"):
        module = importlib.import_module(name)

        def counted(entries, original=module.brooks_sum):
            calls.append(entries)
            return original(entries)

        monkeypatch.setattr(module, "brooks_sum", counted)
    alphabet = Alphabet(rank)
    taken = 0
    for f in _edge_column_sums(alphabet, random.Random(27 + rank), 100):
        nf = normal_form(f, alphabet)[0]
        value, top = _top_speeds(nf)
        if value == 0 or _reduced_as_given(top):
            continue
        taken += 1
        expected = _reference_absorb(nf, alphabet)
        calls.clear()
        assert _absorb_columns(nf, alphabet) == expected, f.weight
        assert calls == [], f.weight
    assert taken >= 25, taken


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


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_zero_speed_and_zero_rot_leave_the_normal_form_as_residue(rank):
    """exclude_fixpoint reads f's normal form off speed's residue once speed
    and rot coefficient are both 0.  The corpus mixes edge columns (the keys
    the column rewrite moves) with keys of speed 0, and random sums."""
    alphabet = Alphabet(rank)
    words = [v for v in ball(alphabet, 4) if v]
    columns = [v for v in words if _is_edge_column(v)]
    slow = [
        v for v in words if len(v) <= 3 and (b_form(v).kind() is Kind.B_POWER or sp_word(v) == 0)
    ]
    rng = random.Random(f"residue/{rank}")
    hits = 0
    for i in range(600):
        if i % 2:
            keys = rng.sample(columns, rng.randint(1, 3)) + rng.sample(slow, rng.randint(0, 2))
            f = brooks_sum({v: rng.choice([-2, -1, 1, 2]) for v in keys})
        else:
            f = random_brooks_sum(rng, alphabet, max_keys=4, max_len=4)
        report = speed(f, alphabet)
        if report.value == 0 and report.rot_coefficient == 0:
            assert report.residue == normal_form(f, alphabet)[0], format_sum(f)
            hits += 1
    assert hits >= 30, hits


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


def test_support_geometry_frozen_grid_under_python_O():
    """The length grid is built outside any assert, so -O leaves it whole."""
    script = (
        "from qmforge.freegroup import Alphabet, parse_word\n"
        "from qmforge.speed import support_geometry\n"
        "al = Alphabet(2)\n"
        "geo = support_geometry(parse_word('babb', al), 8, al)\n"
        "print(sorted(geo.square_lengths.items()), geo.n_b, geo.support_norm, geo.e_b_nonempty)\n"
    )
    proc = run_optimized(script)
    assert proc.returncode == 0, proc.stderr
    geo = support_geometry(w("babb"), 8, AL)
    assert len(geo.square_lengths) == 81
    assert geo.square_lengths[(0, 0)] == 4 and geo.square_lengths[(8, 8)] == 16
    expected = f"{sorted(geo.square_lengths.items())} 11 16 True"
    assert proc.stdout.strip() == expected


def test_the_column_branch_checks_its_input_once(monkeypatch):
    """speed(phi(ba)) runs the column rewrite; its residue is built from keys
    normal_form has checked, so check_sum runs once, in normal_form."""
    import importlib

    speed_module = importlib.import_module("qmforge.speed")
    calls = []
    for name in ("qmforge.action", "qmforge.relations"):
        module = importlib.import_module(name)
        original = module.check_sum

        def counted(f, alphabet, original=original):
            calls.append(f)
            return original(f, alphabet)

        monkeypatch.setattr(module, "check_sum", counted)
    absorbed = []

    def traced(nf, alphabet):
        absorbed.append(nf)
        return _absorb_columns(nf, alphabet)

    monkeypatch.setattr(speed_module, "_absorb_columns", traced)
    f = phi(w("ba"))
    assert speed(f, AL).value == 1
    assert absorbed and calls == [f]


def test_violated_residue_exits_3_naming_speed_under_python_O():
    """speed(phi(ba)) runs the column rewrite, whose residue is checked again."""
    script = (
        "import importlib\n"
        "from qmforge.cli import main\n"
        "from qmforge.relations import NormalFormViolation\n"
        "speed = importlib.import_module('qmforge.speed')\n"
        "violation = NormalFormViolation(1, (2, 2), None)\n"
        "speed._first_violation = lambda keys: violation\n"
        "raise SystemExit(main(['speed', 'phi(ba)']))\n"
    )
    proc = run_optimized(script)
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr.strip() == (
        "qmforge: contract violation in speed: NormalFormViolation(condition=1, v=(2, 2), w=None)"
    )


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


def test_empirical_speed_tags_an_uncertified_length_as_upper():
    """phi(ab) - phi(ba) has norm 2 and no length certificate, and P1*P1 is the
    identity, so both samples are UPPER bounds of length 2."""
    from qmforge.action import NielsenWord

    series = empirical_speed(phi(w("ab")) - phi(w("ba")), NielsenWord.parse("P1*P1"), 2, AL)
    assert [(s.n, s.length, s.tag) for s in series.samples] == [
        (1, 2, BoundTag.UPPER),
        (2, 2, BoundTag.UPPER),
    ]


def _n_representative_lengths(f, n_max, alphabet):
    """The gauge of T^-1 read off the explicit n-representatives, as
    (length, tag) per n: the reference that act's iteration must match."""
    base, _ = eliminate_b_powers(f, alphabet)
    out = []
    for n in range(1, n_max + 1):
        rep = n_representative_sum(base, n, alphabet)
        cert = certified_reduced_length(rep, alphabet)
        if cert.status is LengthStatus.UNKNOWN:
            out.append((norm(rep), BoundTag.UPPER))
        else:
            out.append((cert.value, BoundTag.EXACT))
    return out


@pytest.mark.parametrize("rank,sums,n_max", [(2, 40, 8), (3, 30, 6), (4, 20, 5)])
def test_the_tinv_gauge_keeps_every_n_representative_certificate(rank, sums, n_max):
    """On the corpus keys and seeded sums, iterating act certifies every
    length the n-representative certifies, and no upper bound grows."""
    al = Alphabet(rank)
    rng = random.Random(100 + rank)
    fs = [phi(v) for v in corpus(al)] + [random_brooks_sum(rng, al, 5, 5) for _ in range(sums)]
    for f in (f for f in fs if f.weight):
        reference = _n_representative_lengths(f, n_max, al)
        series = empirical_speed(f, NielsenGen.TINV, n_max, al)
        for (length, tag), sample in zip(reference, series.samples, strict=True):
            if tag is BoundTag.EXACT:
                assert (sample.length, sample.tag) == (length, tag), (format_sum(f), sample)
            else:
                assert sample.length <= length, (format_sum(f), sample)


@pytest.mark.parametrize(
    "rank,text,length",
    [
        (2, "5*phi(aa) + 3*phi(ab') - 3*phi(abb) + 3*phi(a'b'b')", 3),
        (2, "2*phi(b) - 4*phi(ab) + phi(a'b')", 2),
        (3, "-3*phi(a) - 5*phi(ab) + 4*phi(bc)", 2),
    ],
)
def test_the_tinv_gauge_certifies_a_balanced_one_representative(rank, text, length):
    """At n = 1 the n-representative is balanced (an upper bound only), while
    act's one-step image is certifiably unbalanced at the same length."""
    al = Alphabet(rank)
    f = parse_expression(text, al)
    assert _n_representative_lengths(f, 1, al) == [(length, BoundTag.UPPER)]
    first = empirical_speed(f, NielsenGen.TINV, 1, al).samples[0]
    assert (first.length, first.tag) == (length, BoundTag.EXACT)


def test_the_tinv_gauge_is_charged_to_the_rewrite_budget(monkeypatch):
    """Each step is an act, charged 8|v| + 8 letters per key: 24, 40 and 80
    for phi(ab), so a budget of 79 admits two steps and refuses the third."""
    from qmforge import relations

    monkeypatch.setattr(relations, "REWRITE_LETTER_BUDGET", 79)
    assert len(empirical_speed(phi(w("ab")), NielsenGen.TINV, 2, AL).samples) == 2
    refusal = r"up to 80 letters, over the budget REWRITE_LETTER_BUDGET = 79$"
    with pytest.raises(ValueError, match=refusal):
        empirical_speed(phi(w("ab")), NielsenGen.TINV, 3, AL)


# -- interaction with normal form -----------------------------------------------------


def test_speed_agrees_between_f_and_normal_form():
    rng = random.Random(31)
    for _ in range(15):
        f = random_brooks_sum(rng, AL, max_keys=4, max_len=4)
        nf, _ = normal_form(f, AL)
        assert speed(f, AL).value == speed(nf, AL).value
