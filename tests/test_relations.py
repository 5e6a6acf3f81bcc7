from __future__ import annotations

import dataclasses
import hashlib
import importlib
import random
from fractions import Fraction
from math import lcm

import pytest

from qmforge.action import NielsenWord, act
from qmforge.counting import (
    BrooksSum,
    Mode,
    as_counting,
    brooks_sum,
    counting_sum,
    evaluate,
    format_sum,
    phi,
    zero,
)
from qmforge.fixpoints import exclude_fixpoint
from qmforge.freegroup import (
    A,
    B,
    Alphabet,
    Kind,
    b_form,
    b_power,
    ball,
    inverse,
    is_canonical,
    kind_of,
    parse_word,
    tau,
    word_sort_key,
)
from qmforge.oracle import Verdict, empirical_equiv, sup_on_ball
from qmforge.relations import (
    REWRITE_LETTER_BUDGET,
    NormalFormViolation,
    RelationKind,
    RewriteTrace,
    TraceStep,
    _attach,
    _merge_boxes,
    _merge_columns,
    _Rewriter,
    _unwind_b_powers,
    eliminate_b_powers,
    extension_relation,
    is_normal_form,
    normal_form,
)
from qmforge.speed import speed

from _corpus import random_brooks_sum, random_reduced_word
from _optimized import run_optimized

AL = Alphabet(2)
# The package exports a function named speed, which hides the module of that name.
speed_module = importlib.import_module("qmforge.speed")


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


def _retarget(side, x, m_fixed, m_from, m_to, alphabet):
    """phi(b^m_fixed x b^m_from) (RIGHT) or phi(b^m_from x b^m_fixed) (LEFT),
    its walked exponent moved to m_to by one sweep."""
    rewriter, members = _rewriter_for(alphabet, [(m_from, Fraction(1))])
    core = _attach(side, b_power(m_fixed), x)
    target = _attach(side, core, b_power(m_to))
    rewriter.emit(target, rewriter.sweep(side, core, members, m_to))
    return rewriter.result()


def test_retarget_right_single_step_down():
    """phi(ab^2) rewrites to phi(ab) plus short truncated corrections."""
    moved, trace = _retarget(RelationKind.RIGHT, w("a"), 0, 2, 1, AL)
    assert moved.coefficient(w("ab")) == 1
    assert trace.certifies(phi(w("abb")), moved, AL)


def test_retarget_crossing_zero_flips_sign():
    moved, trace = _retarget(RelationKind.RIGHT, w("a"), 0, 1, -1, AL)
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
        moved_r, trace_r = _retarget(RelationKind.RIGHT, x, m_fixed, m_from, m_to, alphabet)
        moved_l, trace_l = _retarget(
            RelationKind.LEFT, inverse(x), -m_fixed, -m_from, -m_to, alphabet
        )
        assert moved_l == moved_r.scale(-1), case
        mirrored = [TraceStep(other[s.kind], inverse(s.base), s.coefficient) for s in trace_r.steps]
        assert list(trace_l.steps) == mirrored, case
        key = b_power(m_fixed) + x + b_power(m_from)
        assert trace_r.certifies(phi(key), moved_r, alphabet), case
        assert trace_l.certifies(phi(inverse(key)), moved_l, alphabet), case


ENTRY_REFUSALS = "\n".join(
    f"extension_relation({kind}, {v!r}, Alphabet({rank})): "
    f"letter {v[-1]} is not in the alphabet of rank {rank}"
    for rank in (2, 3, 4)
    for kind in ("RelationKind.LEFT", "RelationKind.RIGHT")
    for v in ((rank + 1,), (A, -(rank + 1)), (0,))
)


def test_extension_relation_checks_its_word_under_python_O():
    """w is checked where it enters, at ranks 2-4, also with asserts
    stripped: a letter outside the alphabet is named as itself."""
    script = (
        "from qmforge.freegroup import Alphabet\n"
        "from qmforge.relations import RelationKind, extension_relation\n"
        f"for call in {ENTRY_REFUSALS.splitlines()!r}:\n"
        "    try:\n"
        "        eval(call.split(': ')[0])\n"
        "    except ValueError as exc:\n"
        "        print(call.split(': ')[0] + ': ' + str(exc))\n"
    )
    proc = run_optimized(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ENTRY_REFUSALS


def _sweep_cases(rng):
    """Random columns at ranks 2-4: members on both sides of the target,
    repeated exponents, a member at -m_t, and coefficients that cancel."""
    for rank in (2, 3, 4):
        alphabet = Alphabet(rank)
        for _ in range(40):
            side = rng.choice(list(RelationKind))
            x = tuple(rng.choice(alphabet.s_b()) for _ in range(rng.randint(1, 3)))
            if any(x[i] == -x[i + 1] for i in range(len(x) - 1)):
                continue
            m_t = rng.choice([m for m in range(-4, 5) if m])
            exponents = [m for m in range(-7, 8) if m]
            members = [
                (m, Fraction(rng.randint(-3, 3) or 1, rng.choice((1, 2))))
                for m in rng.sample(exponents, rng.randint(1, 6))
            ]
            members.append((-m_t, Fraction(rng.randint(1, 3))))
            m, c = rng.choice(members)
            members.append((m, -c))  # cancels that exponent's member...
            members.append((m, c))  # ...and restores it: a repeated exponent
            outer = sorted({m for m, _ in members if m > m_t})
            if len(outer) >= 2 and rng.random() < 0.5:
                # a member that zeroes the carrier leaving its exponent
                stop = rng.choice(outer[:-1])
                members.append((stop, -sum(c for m, c in members if m >= stop)))
            fixed = b_power(rng.randint(-2, 2))
            core = fixed + x if side is RelationKind.RIGHT else x + fixed
            yield alphabet, side, core, members, m_t
        # pure b-powers: the empty core of eliminate_b_powers
        yield alphabet, RelationKind.RIGHT, (), [(m, Fraction(1)) for m in (9, 4, 4, 2, 1)], 1


def _rewriter_for(alphabet, members):
    """An empty rewriter over the members' common denominator, and the
    members' coefficients as its integer numerators."""
    rewriter = _Rewriter(alphabet, {})
    rewriter.den = lcm(*(c.denominator for _, c in members))
    return rewriter, [(m, c.numerator * (rewriter.den // c.denominator)) for m, c in members]


def test_column_sweep_equals_the_sum_of_one_member_walks():
    for alphabet, side, core, members, m_t in _sweep_cases(random.Random(41)):
        case = (alphabet.rank, side, core, members, m_t)
        before = brooks_sum({})
        for m, c in members:
            before = before + phi(_attach(side, core, b_power(m))).scale(c)
        target = _attach(side, core, b_power(m_t))
        swept, numerators = _rewriter_for(alphabet, members)
        swept.emit(target, swept.sweep(side, core, numerators, m_t))
        each, _ = _rewriter_for(alphabet, members)
        for m, n in numerators:
            each.emit(target, each.sweep(side, core, [(m, n)], m_t))
        (after, trace), (after_each, trace_each) = swept.result(), each.result()
        assert after == after_each, case
        assert trace.combination(alphabet) == trace_each.combination(alphabet), case
        assert trace.certifies(before, after, alphabet), case
        assert trace_each.certifies(before, after_each, alphabet), case
        assert all(step.coefficient != 0 for step in trace.steps), case
        assert len(trace.steps) <= len(trace_each.steps), case


class _LetterCount(dict):
    """A weight that counts the letters of every key written into it."""

    letters = 0

    def __setitem__(self, key, value):
        self.letters += len(key)
        super().__setitem__(key, value)


def test_each_walk_charges_at_least_the_letters_it_writes():
    """The closed-form charge covers the trace bases and the debris keys
    actually written.  It is exact, except that a zero crossing charges one
    debris key per s in S_b where s = end^-1 writes none."""
    crossed = 0
    for alphabet, side, core, members, m_t in _sweep_cases(random.Random(43)):
        case = (alphabet.rank, side, core, members, m_t)
        rewriter, numerators = _rewriter_for(alphabet, members)
        rewriter.weight = _LetterCount()
        rewriter.sweep(side, core, numerators, m_t)
        written = rewriter.weight.letters + sum(len(step.base) for step in rewriter.steps)
        crossings = sum(len(step.base) == len(core) for step in rewriter.steps[::2])
        crossed += crossings
        assert written <= rewriter.letters <= written + crossings * (len(core) + 1), case
    assert crossed


def test_a_box_sum_over_the_rewrite_budget_is_refused_before_its_first_walk_writes(
    monkeypatch,
):
    """phi(b^m a b^m) + phi(bab) at m = 20,000: the first walk's charge,
    2.4 billion letters, is refused before a trace step or debris key exists."""
    charges = []
    real = _Rewriter.charge

    def charge(self, letters):
        charges.append((letters, list(self.steps), dict(self.weight)))
        real(self, letters)

    monkeypatch.setattr(_Rewriter, "charge", charge)
    m = 20_000
    f = phi(b_power(m) + (A,) + b_power(m)) + phi(w("bab"))
    with pytest.raises(ValueError) as exc:
        normal_form(f, AL)
    assert str(exc.value) == (
        "the rewrite would write up to 2399999994 letters, over the budget "
        f"REWRITE_LETTER_BUDGET = {REWRITE_LETTER_BUDGET}"
    )
    # the box pass took both keys out; nothing was written back
    assert charges == [(2399999994, [], {})]


def _one_step_sweep(alphabet, side, core, members, m_to):
    """The column walk one exponent unit at a time, with one strip or grow
    call per unit: the reference for the run-based sweep.  Returns the
    target's coefficient, the weight, the trace steps, and the step shapes
    it took."""
    mirror = RelationKind.LEFT if side is RelationKind.RIGHT else RelationKind.RIGHT
    weight, steps, shapes = {}, [], set()

    def emit(v, c):
        weight[v] = weight[v] + c if v in weight else c

    def pair(base, c):
        steps.extend((TraceStep(side, base, -c), TraceStep(mirror, inverse(base), c)))

    def strip(m, c):
        sgn = 1 if m > 0 else -1
        if abs(m) >= 2:
            base = _attach(side, core, b_power(m - sgn))
            pair(base, c)
            for s in alphabet.s_b():
                emit(_attach(side, base, (s,)), -c)
            shapes.add("strip")
            return m - sgn, c
        end = core[-1] if side is RelationKind.RIGHT else core[0]
        pair(core, c)
        emit(core, c)
        for s in alphabet.s_b():
            if s != -end:
                emit(_attach(side, core, (s,)), -c)
        shapes.add("cross")
        return -sgn, -c

    def grow(m, c):
        sgn = 1 if m > 0 else -1
        base = _attach(side, core, b_power(m))
        pair(base, -c)
        for s in alphabet.s_b():
            emit(_attach(side, base, (s,)), c)
        shapes.add("grow")
        return m + sgn, c

    at = {}
    for m, c in members:
        at[m] = at.get(m, 0) + c
    total = at.pop(m_to, 0)
    for above in (True, False):
        stops = sorted((m for m in at if (m > m_to) == above), reverse=above)
        carrier = 0
        for m, stop in zip(stops, stops[1:] + [m_to]):
            carrier += at[m]
            while carrier and m != stop:
                if (m > 0) == (m_to > 0) and abs(m) < abs(m_to):
                    m, carrier = grow(m, carrier)
                else:
                    m, carrier = strip(m, carrier)
        total += carrier
    return total, weight, steps, shapes


def test_run_walk_matches_the_one_step_walk():
    """The same target coefficient, the same weight once canonicalized, and
    the same trace, step by step, as the one-step walk, over strip runs,
    grow runs and zero crossings on both sides at ranks 2-4."""
    covered = set()
    for alphabet, side, core, members, m_t in _sweep_cases(random.Random(47)):
        case = (alphabet.rank, side, core, members, m_t)
        total, weight, steps, shapes = _one_step_sweep(alphabet, side, core, members, m_t)
        rewriter, numerators = _rewriter_for(alphabet, members)
        assert Fraction(rewriter.sweep(side, core, numerators, m_t), rewriter.den) == total, case
        after, trace = rewriter.result()
        assert after == brooks_sum(weight), case
        assert trace.steps == tuple(steps), case
        covered |= {(alphabet.rank, side, shape) for shape in shapes}
    for rank in (2, 3, 4):
        for side in RelationKind:
            for shape in ("strip", "grow", "cross"):
                assert (rank, side, shape) in covered, (rank, side, shape)


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_merge_columns_reads_the_leading_exponent(rank):
    """A lone column key is already its column's target: _merge_columns
    returns it unchanged, so its exponent read b^m x = b_form's m0, x."""
    alphabet = Alphabet(rank)
    for v in ball(alphabet, 5):
        if not v or kind_of(v) not in (Kind.B_LEFT, Kind.RIGHT_B):
            continue
        u = v if kind_of(v) is Kind.B_LEFT else inverse(v)
        assert b_power(b_form(u).m0) + tau(u) == u
        rewriter = _Rewriter(alphabet, phi(v).weight)
        _merge_columns(rewriter)
        after, trace = rewriter.result()
        assert after == phi(v) and trace.steps == (), v


CANCELLED_COLUMN_NORMAL_FORMS = {
    2: "phi(b) + phi(ab') - phi(a'b'b'b')",
    3: "phi(b) + phi(ab') - phi(bc) - phi(bc') - phi(a'b'b'b')",
    4: "phi(b) + phi(ab') - phi(bc) - phi(bc') - phi(bd) - phi(bd') - phi(a'b'b'b')",
}


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_a_column_exponent_cancelled_by_debris_is_no_target(rank):
    """phi(bb)'s debris -phi(ba) cancels the input key phi(ba), so column a
    holds only b^3 a, which stays as it is: 2 steps, for the b-power alone."""
    alphabet = Alphabet(rank)
    f = phi(w("bb")) + phi(w("ba")) + phi(w("bbba"))
    nf, trace = normal_form(f, alphabet)
    assert format_sum(nf) == CANCELLED_COLUMN_NORMAL_FORMS[rank]
    assert len(trace.steps) == 2 and trace.certifies(f, nf, alphabet)


def _debris_meeting_corpus(rng):
    """b-powers beside keys b^i s of their own debris columns, in either
    orientation, and random sums, at ranks 2-4."""
    for rank in (2, 3, 4):
        alphabet = Alphabet(rank)
        for _ in range(40):
            entries = {b_power(rng.randint(2, 6)): Fraction(rng.choice((-1, 1, 2)))}
            for _ in range(rng.randint(1, 4)):
                v = b_power(rng.randint(1, 5)) + (rng.choice(alphabet.s_b()),)
                entries[v if rng.random() < 0.5 else inverse(v)] = Fraction(rng.choice((-1, 1)))
            yield alphabet, brooks_sum(entries)
        for _ in range(40):
            yield alphabet, random_brooks_sum(rng, alphabet)


def test_normal_forms_of_a_seeded_corpus_are_pinned():
    digest = hashlib.sha256()
    for alphabet, f in _debris_meeting_corpus(random.Random(53)):
        nf, trace = normal_form(f, alphabet)
        assert trace.certifies(f, nf, alphabet), format_sum(f)
        digest.update(f"{alphabet.rank}|{format_sum(nf)}\n".encode())
    assert digest.hexdigest() == "fcc90118ab3a306a83086800c9b31eca1e58794c9feb7dde3cf73066b185c25c"


EXPONENTS = [m for m in range(-6, 7) if m]


def _frozen_trace_corpus(alphabet, rng):
    """300 classify-shaped sums (a third of them with fractional weights),
    then every rewrite shape with exponents up to 6: two two-member box
    families, b^p x b^q + b x' b and b^q xx b^p + b x'x' b, a column b^p x
    beside a right-b key x' b^q of its own column, and b^m beside a key of
    its own debris; x runs over S_b."""
    s_b = alphabet.s_b()
    for i in range(300):
        f = random_brooks_sum(rng, alphabet)
        if i % 3 == 0:
            f = brooks_sum({v: c / rng.randint(1, 6) for v, c in f.weight.items()})
        yield f
    for i, (p, q) in enumerate((p, q) for p in EXPONENTS for q in EXPONENTS):
        x = (s_b[i % len(s_b)],)
        xx, box = x + x, {b_power(p) + x + b_power(q): 1, (B,) + inverse(x) + (B,): -2}
        yield brooks_sum({**box, b_power(q) + xx + b_power(p): 1, (B,) + inverse(xx) + (B,): 1})
        yield brooks_sum({b_power(p) + x: Fraction(1, 2), inverse(x) + b_power(q): 3})
    for m in range(2, 7):
        for s in s_b:
            yield brooks_sum({b_power(m): 1, b_power(m - 1) + (s,): -1})


FROZEN_TRACE_DIGESTS = {
    2: "c451d89152583333594b1ac7fbb1754a479e7614459aed0bc2ce54569ffd2abf",
    3: "02accc052b2c1393b90e653e23636a03ee880013f936c70247f80d779194be57",
    4: "38e3eb7ad5b59f9774e93b7a228865b612bb0cfb3da931665cc18991a1a909aa",
}


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_normal_form_and_speed_traces_are_frozen(rank, monkeypatch):
    """normal_form's sum and every trace step, and speed's value, lambda,
    witness, residue and trace steps, on the corpus and its images under P1,
    H and Tinv, hash to a pinned digest.  The corpus reaches speed's
    absorbing branch at least 20 times."""
    alphabet = Alphabet(rank)
    absorbed = []
    absorb = speed_module._absorb_columns
    monkeypatch.setattr(
        speed_module, "_absorb_columns", lambda nf, al: absorbed.append(1) or absorb(nf, al)
    )
    digest = hashlib.sha256()

    def steps(trace):
        return ";".join(f"{s.kind.value},{s.base},{s.coefficient}" for s in trace.steps)

    words = [NielsenWord.parse(t) for t in ("P1", "H", "Tinv")]
    for f in _frozen_trace_corpus(alphabet, random.Random(97 + rank)):
        for g in (f, *(act(x, f, alphabet) for x in words)):
            nf, trace = normal_form(g, alphabet)
            report = speed(g, alphabet)
            digest.update(
                f"{format_sum(nf)}|{steps(trace)}|{report.value}|{report.rot_coefficient}|"
                f"{report.witness}|{format_sum(report.residue)}|{steps(report.trace)}\n".encode()
            )
    assert len(absorbed) >= 20, len(absorbed)
    assert digest.hexdigest() == FROZEN_TRACE_DIGESTS[rank]


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_phi_b_power_trace_grows_linearly(rank):
    """Each column of phi(b^m)'s debris b^i s is swept once, not once per key."""
    alphabet = Alphabet(rank)
    steps = {}
    for m in (10, 20, 40, 80):
        f = phi(b_power(m))
        nf, trace = normal_form(f, alphabet)
        assert trace.certifies(f, nf, alphabet), m
        steps[m] = len(trace.steps)
    for m in (10, 20, 40):
        assert steps[2 * m] <= 2 * steps[m] + 30, steps
    if rank == 2:
        assert steps[80] <= 6 * 80, steps


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_keys_outside_the_alphabet_are_rejected(rank):
    alphabet = Alphabet(rank)
    c = rank + 1
    message = f"letter {c} is not in the alphabet of rank {rank}"
    with pytest.raises(ValueError, match=message):
        normal_form(phi((2, 2, c)), alphabet)
    with pytest.raises(ValueError, match=message):
        speed(phi((2, c, 2)), alphabet)
    with pytest.raises(ValueError, match=message):
        exclude_fixpoint(phi((1, c)), alphabet)


# -- b-power elimination ---------------------------------------------------------


def test_eliminate_b_powers_on_phi_b_squared():
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


def _passes(f, alphabet):
    """normal_form's three passes, run whatever the input."""
    rewriter = _Rewriter(alphabet, f.weight)
    _unwind_b_powers(rewriter)
    _merge_boxes(rewriter)
    _merge_columns(rewriter)
    return rewriter.result()


def _canonical_normal_form(f, alphabet):
    """The input normal_form hands back as given."""
    canonical = all(type(c) is Fraction and c and is_canonical(v) for v, c in f.weight.items())
    return canonical and is_normal_form(f, alphabet)[0]


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_normal_form_returns_what_its_passes_return(rank):
    """On random sums, their normal forms and their images under six Nielsen
    words, each also with keys turned at random and with int weights:
    normal_form gives the passes' sum and trace, and that sum is a canonical
    normal form.  Where the input is one, the passes give it back with no
    step; normal_form is idempotent everywhere."""
    alphabet = Alphabet(rank)
    rng = random.Random(61 + rank)
    words = [NielsenWord.parse(t) for t in ("P1", "P2", "H", "Tinv", "P1*Tinv", "H*P2")]
    inputs = fired = 0
    for _ in range(30):
        f = random_brooks_sum(rng, alphabet)
        for g in (f, normal_form(f, alphabet)[0], *(act(x, f, alphabet) for x in words)):
            turned = {rng.choice((v, inverse(v))): c for v, c in g.weight.items()}
            whole = {v: int(c) for v, c in g.weight.items() if c.denominator == 1}
            for h in (g, BrooksSum(turned, Mode.BROOKS), BrooksSum(whole, Mode.BROOKS)):
                inputs += 1
                passed, trace = _passes(h, alphabet)
                got = normal_form(h, alphabet)
                assert got == (passed, trace) and _canonical_normal_form(got[0], alphabet), h.weight
                if _canonical_normal_form(h, alphabet):
                    fired += 1
                    assert passed == h and trace.steps == (), h.weight
                again, trace = normal_form(passed, alphabet)
                assert again == passed and trace.steps == (), h.weight
    assert inputs / 3 <= fired < inputs, (fired, inputs)


@pytest.mark.parametrize(
    "weight, expected",
    [
        ({(1, 2): 1}, "phi(ab)"),
        ({(1, 2): Fraction(0), (1,): Fraction(2)}, "2*phi(a)"),
        ({(-2, -1): Fraction(1)}, "-phi(ab)"),
    ],
    ids=["int-weight", "zero-weight", "turned-key"],
)
def test_a_normal_form_given_in_another_shape_comes_back_canonical(weight, expected):
    """Each input passes is_normal_form as given, yet normal_form rewrites it
    as the passes do: Fraction weights, no zero, canonical keys."""
    f = BrooksSum(weight, Mode.BROOKS)
    assert is_normal_form(f, AL)[0]
    nf, trace = normal_form(f, AL)
    assert format_sum(nf) == expected and trace.steps == ()
    assert _canonical_normal_form(nf, AL) and nf == _passes(f, AL)[0]


def test_is_normal_form_flags_violations():
    # two right-b keys with the same skeleton
    f = brooks_sum({w("ab"): 1, w("abb"): 1})
    ok, violation = is_normal_form(f, AL)
    assert not ok and violation is not None and violation.condition == 2
    # a bare b-power other than b
    g = phi(w("bb"))
    ok, violation = is_normal_form(g, AL)
    assert not ok and violation is not None and violation.condition == 1
    # a b-truncated key and its inverse (3), given in either order, beside a
    # b-truncated key whose inverse is absent
    for rank in (2, 3, 4):
        top = rank if rank > 2 else A
        v, other = (A, B, top), (top, -B, A, A)
        for pair in ((v, inverse(v)), (inverse(v), v)):
            h = BrooksSum({other: Fraction(1), **{u: Fraction(1) for u in pair}}, Mode.BROOKS)
            assert is_normal_form(h, Alphabet(rank)) == (False, NormalFormViolation(3, v, inverse(v)))


def _reference_is_normal_form(f, alphabet):
    """The support conditions checked pair by pair, in the order that
    is_normal_form reports them."""
    support = f.support()
    for v in support:
        if tau(v) is None and v != (B,):
            return False, NormalFormViolation(1, v, None)
    by_kind = {}
    for v in support:
        by_kind.setdefault(b_form(v).kind(), []).append(v)
    for kind, words in by_kind.items():
        if kind is Kind.B_POWER:
            continue
        seen = {}
        for v in words:
            t = tau(v)
            if t in seen and seen[t] != v:
                return False, NormalFormViolation(2, seen[t], v)
            seen[t] = v
        if kind in (Kind.B_TRUNCATED, Kind.B_AND_B):
            for v in words:
                t_inv = tau(inverse(v))
                if t_inv in seen and seen[t_inv] != v:
                    return False, NormalFormViolation(3, v, seen[t_inv])
    for v in by_kind.get(Kind.B_LEFT, []):
        t_inv = tau(inverse(v))
        for u in by_kind.get(Kind.RIGHT_B, []):
            if tau(u) == t_inv:
                return False, NormalFormViolation(3, v, u)
    return True, None


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_is_normal_form_agrees_with_the_pairwise_reference(rank):
    """Same (ok, violation) as the reference on random sums, their b-power
    eliminations, their normal forms, and their keys in random orientation
    as given: canonical orientation never puts a b-left and a right-b key on
    one column, so only the last reach that check.  Each violating sum is
    also checked with its keys inserted in reverse support order: the
    violation reported is still the first one in support order."""
    alphabet = Alphabet(rank)
    rng = random.Random(43 + rank)
    pair_rng = random.Random(47 + rank)
    violations = set()
    for i in range(400):
        f = random_brooks_sum(rng, alphabet, max_keys=8, max_len=5)
        if i % 2:
            # keys b^p x b^q on one skeleton and its inverse, so that
            # skeletons collide within a kind and across opposite kinds
            x = random_reduced_word(rng, Alphabet(rank), rng.randint(1, 3))
            if tau(x) == x:
                for _ in range(rng.randint(1, 4)):
                    y = rng.choice((x, inverse(x)))
                    key = b_power(rng.randint(-2, 2)) + y + b_power(rng.randint(-2, 2))
                    f = f + phi(key).scale(rng.randint(1, 3))
        turned = {rng.choice((v, inverse(v))): c for v, c in f.weight.items()}
        # b-truncated keys given beside their inverses, in random insertion
        # order, drawn apart from rng so that the corpus above stays as it is
        truncated = [v for v in turned if abs(v[0]) != B and abs(v[-1]) != B]
        extra = pair_rng.sample(truncated, min(len(truncated), pair_rng.randint(1, 2)))
        paired = [*turned.items(), *((inverse(v), Fraction(pair_rng.randint(1, 3))) for v in extra)]
        pair_rng.shuffle(paired)
        for g in (
            f,
            eliminate_b_powers(f, alphabet)[0],
            normal_form(f, alphabet)[0],
            BrooksSum(turned, Mode.BROOKS),
            BrooksSum(dict(paired), Mode.BROOKS),
        ):
            verdict = is_normal_form(g, alphabet)
            assert verdict == _reference_is_normal_form(g, alphabet), g.weight
            if not verdict[0]:
                violations.add((verdict[1].condition, b_form(verdict[1].v).kind()))
                reversed_keys = {v: g.weight[v] for v in reversed(g.support())}
                assert is_normal_form(BrooksSum(reversed_keys, g.mode), alphabet) == verdict
    for seen in ((1, Kind.B_POWER), (2, Kind.B_LEFT), (3, Kind.B_AND_B), (3, Kind.B_LEFT)):
        assert seen in violations, violations


def test_rewriter_rejects_the_identity():
    with pytest.raises(ValueError, match="rewriting emitted the identity"):
        _Rewriter(Alphabet(2), {}).emit((), Fraction(1))


def test_a_rewrite_scans_for_violations_twice(monkeypatch):
    """normal_form scans its input once, in the guard, and its output once,
    in the postcondition: the guard's scan also names the violation, in key
    order, so no second scan over the sorted support follows.  A normal form
    given as it is is scanned once."""
    relations = importlib.import_module("qmforge.relations")
    scan = relations._first_violation
    calls = []

    def counted(keys):
        calls.append(keys)
        return scan(keys)

    monkeypatch.setattr(relations, "_first_violation", counted)
    rng = random.Random(67)
    rewritten = 0
    for rank in (2, 3, 4):
        alphabet = Alphabet(rank)
        for _ in range(40):
            f = random_brooks_sum(rng, alphabet) + phi(b_power(rng.randint(2, 4)))
            given = is_normal_form(f, alphabet)[0]
            calls.clear()
            nf, trace = normal_form(f, alphabet)
            assert len(calls) == (1 if given else 2), f.weight
            rewritten += not given
            calls.clear()
            assert normal_form(nf, alphabet) == (nf, RewriteTrace(()))
            assert len(calls) == 1
    assert rewritten >= 100, rewritten


def test_is_normal_form_scans_once(monkeypatch):
    """is_normal_form scans the keys once, in the order given, and sorts
    nothing when they form a normal form; only a violating sum is scanned
    again, over its sorted support, to name the first violation there."""
    relations = importlib.import_module("qmforge.relations")
    scan, support = relations._first_violation, BrooksSum.support
    calls, sorts = [], []

    def counted(keys):
        calls.append(keys)
        return scan(keys)

    def counted_support(f):
        sorts.append(f)
        return support(f)

    def counted_sorted(*args, **kwargs):
        sorts.append(args)
        return sorted(*args, **kwargs)

    monkeypatch.setattr(relations, "_first_violation", counted)
    monkeypatch.setattr(BrooksSum, "support", counted_support)
    monkeypatch.setattr(relations, "sorted", counted_sorted, raising=False)
    rng = random.Random(25)
    verdicts = set()
    for rank in (2, 3, 4):
        alphabet = Alphabet(rank)
        for _ in range(40):
            f = random_brooks_sum(rng, alphabet) + phi(b_power(rng.randint(1, 3)))
            for g in (f, normal_form(f, alphabet)[0]):
                calls.clear()
                sorts.clear()
                ok, violation = is_normal_form(g, alphabet)
                assert calls[0] is g.weight, g.weight
                if ok:
                    assert len(calls) == 1 and sorts == [], g.weight
                else:
                    ordered = sorted(g.weight, key=word_sort_key)
                    assert len(calls) == 2 and calls[1] == ordered, g.weight
                    assert violation == scan(ordered), g.weight
                verdicts.add(ok)
    assert verdicts == {True, False}


def test_violated_normal_form_exits_3_naming_relations_under_python_O():
    script = (
        "import qmforge.relations as relations\n"
        "from qmforge.cli import main\n"
        "violation = relations.NormalFormViolation(2, (1, 2), (1, 2, 2))\n"
        "relations._first_violation = lambda keys: violation\n"
        "raise SystemExit(main(['normal-form', 'phi(bbab)']))\n"
    )
    proc = run_optimized(script)
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr.strip() == (
        "qmforge: contract violation in relations: normal form postcondition violated: "
        "NormalFormViolation(condition=2, v=(1, 2), w=(1, 2, 2))"
    )


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

def test_a_trace_step_keeps_its_fields_in_slots():
    """A TraceStep has no per-instance __dict__, refuses assignment, and
    compares and hashes by its three fields."""
    step = TraceStep(RelationKind.RIGHT, w("ab"), Fraction(1, 2))
    assert not hasattr(step, "__dict__")
    assert [f.name for f in dataclasses.fields(step)] == ["kind", "base", "coefficient"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        step.coefficient = Fraction(1)
    with pytest.raises((AttributeError, TypeError)):
        step.note = "extra"
    same = TraceStep(RelationKind.RIGHT, w("ab"), Fraction(1, 2))
    assert step == same and hash(step) == hash(same) == hash((step.kind, step.base, step.coefficient))
    assert len({step, same}) == 1
    for other in (
        TraceStep(RelationKind.LEFT, w("ab"), Fraction(1, 2)),
        TraceStep(RelationKind.RIGHT, w("ab'"), Fraction(1, 2)),
        TraceStep(RelationKind.RIGHT, w("ab"), Fraction(-1, 2)),
    ):
        assert step != other
    assert step != (step.kind, step.base, step.coefficient)


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
        # each side as given (BROOKS) or widened to COUNTING
        pairs = [(f, nf), (as_counting(f), nf), (f, as_counting(nf))]
        pairs.append((as_counting(f), as_counting(nf)))
        for before, after in pairs:
            assert trace.certifies(before, after, alphabet)
            assert _reference_certifies(trace, before, after, alphabet)
        for label, bad in _mutants(trace, rng):
            for before, after in pairs:
                case = (label, before.mode, after.mode, f.weight)
                assert not bad.certifies(before, after, alphabet), case
                assert not _reference_certifies(bad, before, after, alphabet), case
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
