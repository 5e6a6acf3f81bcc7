from __future__ import annotations

import hashlib
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from qmforge.action import NielsenWord, act
from qmforge.counting import brooks_sum, format_sum, phi, zero
from qmforge.fixpoints import (
    EvidenceKind,
    exclude_fixpoint,
    verify_witness,
)
from qmforge.freegroup import B, Alphabet, NielsenGen, parse_word, word_str
from qmforge.relations import normal_form
from qmforge.speed import rot

from _corpus import random_brooks_sum
from _optimized import run_optimized

AL = Alphabet(2)
AL3 = Alphabet(3)


def w(text, alphabet=AL):
    return parse_word(text, alphabet)


def test_positive_speed_needs_no_move():
    wit = exclude_fixpoint(phi(w("aba")), AL)
    assert wit.X.gens == ()
    assert wit.kind is EvidenceKind.POSITIVE_SPEED
    assert wit.report is not None and wit.report.value == 1
    assert verify_witness(phi(w("aba")), wit, AL)


def test_exclude_fixpoint_normalizes_its_input_once(monkeypatch):
    """speed reuses the normal form that the dispatch computed."""
    import importlib

    calls = []
    original = normal_form

    def counted(f, alphabet):
        calls.append(f)
        return original(f, alphabet)

    for name in ("qmforge.fixpoints", "qmforge.speed"):
        monkeypatch.setattr(importlib.import_module(name), "normal_form", counted)
    f = phi(w("ab"))
    wit = exclude_fixpoint(f, AL)
    assert wit.kind is EvidenceKind.POSITIVE_SPEED and wit.X.gens == ()
    assert calls == [f]


def test_truncated_class_moves_under_p1():
    f = phi(w("abba'"))
    wit = exclude_fixpoint(f, AL)
    assert wit.X.gens == (NielsenGen.P1,)
    assert wit.kind is EvidenceKind.POSITIVE_SPEED
    assert wit.report is not None and wit.report.value == 3
    assert verify_witness(f, wit, AL)


def test_homomorphism_class_moves_under_tinv():
    f = phi(w("b"))
    wit = exclude_fixpoint(f, AL)
    assert wit.X.gens == (NielsenGen.TINV,)
    assert wit.kind is EvidenceKind.HOM_COEFFICIENT_CHANGE
    assert wit.hom_before == {1: Fraction(0), 2: Fraction(1)}
    assert wit.hom_after == {1: Fraction(1), 2: Fraction(1)}
    assert verify_witness(f, wit, AL)


def test_rank_two_rot_line_needs_the_sign_flip():
    wit = exclude_fixpoint(rot(AL), AL)
    assert wit.X.gens == (NielsenGen.H,)
    assert wit.kind is EvidenceKind.ROT_SIGN_FLIP
    assert wit.rot_before == 1 and wit.rot_after == -1
    assert verify_witness(rot(AL), wit, AL)


def test_rank_three_rot_gains_speed_instead():
    wit = exclude_fixpoint(rot(AL3), AL3)
    assert wit.X.gens == (NielsenGen.H,)
    assert wit.kind is EvidenceKind.POSITIVE_SPEED
    assert wit.report is not None and wit.report.value == 1
    assert verify_witness(rot(AL3), wit, AL3)


def test_hom_class_off_b_cycles_onto_b_first():
    f = phi(w("a"))
    wit = exclude_fixpoint(f, AL)
    assert wit.X.gens == (NielsenGen.P2, NielsenGen.TINV)
    assert wit.kind is EvidenceKind.HOM_COEFFICIENT_CHANGE
    assert verify_witness(f, wit, AL)


def test_non_a_skeleton_cycles_at_rank_three():
    f = phi(w("cbc", AL3))
    wit = exclude_fixpoint(f, AL3)
    assert wit.X.gens == (NielsenGen.P2, NielsenGen.P2)
    assert wit.kind is EvidenceKind.POSITIVE_SPEED
    assert wit.report is not None and wit.report.value == 2
    assert verify_witness(f, wit, AL3)


def test_pure_c_power_cycles_at_rank_three():
    f = phi(w("cc", AL3))
    wit = exclude_fixpoint(f, AL3)
    assert wit.X.gens == (NielsenGen.P2, NielsenGen.P2)
    assert wit.kind is EvidenceKind.POSITIVE_SPEED
    assert wit.report is not None and wit.report.value == 1
    assert verify_witness(f, wit, AL3)


def test_mixed_skeleton_long_key_leaves_core_under_flip():
    f = phi(w("ca", AL3))
    wit = exclude_fixpoint(f, AL3)
    assert wit.X.gens == (NielsenGen.H,)
    assert wit.kind is EvidenceKind.POSITIVE_SPEED
    assert wit.witness_word == w("a'c'", AL3)  # canonical support key
    assert verify_witness(f, wit, AL3)


def test_failed_dispatch_move_exits_3_naming_fixpoints_under_python_O():
    """A move that does not gain speed breaks the dispatch's contract."""
    script = (
        "import dataclasses, importlib\n"
        "from qmforge.cli import main\n"
        "fixpoints = importlib.import_module('qmforge.fixpoints')\n"
        "speed = fixpoints.speed\n"
        "fixpoints.speed = lambda f, al: dataclasses.replace(speed(f, al), value=0)\n"
        "raise SystemExit(main(['--rank', '3', 'exclude-fixpoint', 'phi(ca)']))\n"
    )
    proc = run_optimized(script)
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr.strip() == (
        "qmforge: contract violation in fixpoints: "
        "mixed-skeleton word failed to leave O under H"
    )


def test_all_a_skeleton_swaps_letters():
    f = phi(w("aa"))
    wit = exclude_fixpoint(f, AL)
    assert wit.kind is EvidenceKind.POSITIVE_SPEED
    assert verify_witness(f, wit, AL)


def test_zero_class_is_rejected():
    with pytest.raises(ValueError):
        exclude_fixpoint(zero(), AL)
    f = phi(w("ab")) - phi(w("ab"))
    with pytest.raises(ValueError):
        exclude_fixpoint(f, AL)


def test_exclusion_terminates_and_verifies_on_random_classes():
    rng = random.Random(41)
    for _ in range(30):
        f = random_brooks_sum(rng, AL, max_keys=4, max_len=4)
        if normal_form(f, AL)[0].is_zero():
            continue
        wit = exclude_fixpoint(f, AL)
        assert verify_witness(f, wit, AL), (f.weight, wit)
        assert len(wit.X.gens) <= AL.rank + 2


def test_exclusion_handles_rank_three_random_classes():
    rng = random.Random(43)
    for _ in range(10):
        f = random_brooks_sum(rng, AL3, max_keys=3, max_len=3)
        if normal_form(f, AL3)[0].is_zero():
            continue
        wit = exclude_fixpoint(f, AL3)
        assert verify_witness(f, wit, AL3), (f.weight, wit)


def test_verify_witness_rejects_mismatched_evidence():
    f = phi(w("b"))
    wit = exclude_fixpoint(f, AL)
    # the witness for phi(b) does not verify against a different class
    assert not verify_witness(phi(w("a")), wit, AL)


def test_witness_against_acted_class():
    """The returned X genuinely moves the class: acting and re-deciding from
    the moved class gives evidence at X = e."""
    f = phi(w("abba'"))
    wit = exclude_fixpoint(f, AL)
    moved = act(wit.X, f, AL)
    again = exclude_fixpoint(moved, AL)
    assert again.X.gens == ()
    assert again.kind is EvidenceKind.POSITIVE_SPEED


# -- the witness corpus and tampered witnesses --------------------------------------


def _witness_corpus():
    """rot, phi of each generator and 120 seeded random sums per rank 2-4,
    zero classes dropped: every dispatch case and evidence kind occurs."""
    for rank in (2, 3, 4):
        alphabet = Alphabet(rank)
        rng = random.Random(f"witness/{rank}")
        yield alphabet, rot(alphabet)
        for i in range(1, rank + 1):
            yield alphabet, phi((i,))
        for _ in range(120):
            f = random_brooks_sum(rng, alphabet, max_keys=4, max_len=4)
            if not normal_form(f, alphabet)[0].is_zero():
                yield alphabet, f


def _witness_text(wit):
    rep = wit.report
    if rep is None:
        report = "-"
    else:
        key = "-" if rep.witness is None else word_str(rep.witness)
        residue, steps = format_sum(rep.residue), len(rep.trace.steps)
        report = f"{rep.value}|{rep.rot_coefficient}|{key}|{residue}|{steps}"
    hom = lambda v: "-" if v is None else ",".join(f"{i}:{c}" for i, c in sorted(v.items()))
    word = "-" if wit.witness_word is None else word_str(wit.witness_word)
    return (
        f"{'*'.join(g.value for g in wit.X.gens)}|{wit.kind.value}|{report}|"
        f"{hom(wit.hom_before)}|{hom(wit.hom_after)}|{wit.rot_before}|{wit.rot_after}|{word}"
    )


def test_witnesses_of_a_seeded_corpus_are_pinned():
    """One sha256 over (X, kind, evidence, witness_word) of 362 witnesses at
    ranks 2-4, each of which verifies."""
    digest = hashlib.sha256()
    count = 0
    for alphabet, f in _witness_corpus():
        wit = exclude_fixpoint(f, alphabet)
        assert verify_witness(f, wit, alphabet), format_sum(f)
        digest.update(f"{alphabet.rank}|{format_sum(f)}|{_witness_text(wit)}\n".encode())
        count += 1
    assert count == 362
    assert digest.hexdigest() == "121e0b06fad7c8730530652cfb107d599a4ae57390c2a3bbc87282d03193c9e0"


def _bumped(vec):
    return {**vec, B: vec[B] + 1}


# Per evidence kind: a class at rank 2 whose witness moves it (X != e), and each
# evidence field changed.
TAMPERED = {
    EvidenceKind.POSITIVE_SPEED: (
        phi(w("abba'")),
        [lambda wit: replace(wit, report=replace(wit.report, value=wit.report.value + 1))],
    ),
    EvidenceKind.HOM_COEFFICIENT_CHANGE: (
        phi(w("b")),
        [
            lambda wit: replace(wit, hom_before=_bumped(wit.hom_before)),
            lambda wit: replace(wit, hom_after=_bumped(wit.hom_after)),
        ],
    ),
    EvidenceKind.ROT_SIGN_FLIP: (
        rot(AL),
        [
            lambda wit: replace(wit, rot_before=wit.rot_before + 1),
            lambda wit: replace(wit, rot_after=wit.rot_after + 1),
        ],
    ),
}


@pytest.mark.parametrize("kind", list(EvidenceKind), ids=lambda k: k.value)
def test_verify_witness_rejects_a_changed_x_and_each_changed_evidence_field(kind):
    f, tamperings = TAMPERED[kind]
    wit = exclude_fixpoint(f, AL)
    assert wit.kind is kind and wit.X.gens != ()
    assert verify_witness(f, wit, AL)
    assert not verify_witness(f, replace(wit, X=NielsenWord(())), AL)
    for tamper in tamperings:
        assert not verify_witness(f, tamper(wit), AL)


def test_a_speed_witness_at_x_e_rejects_a_move():
    f = phi(w("aba"))
    wit = exclude_fixpoint(f, AL)
    assert wit.X.gens == ()
    assert not verify_witness(f, replace(wit, X=NielsenWord((NielsenGen.P1,))), AL)
