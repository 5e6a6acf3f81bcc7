from __future__ import annotations

import random
from fractions import Fraction

import pytest

from qmforge.action import NielsenWord, act
from qmforge.counting import brooks_sum, phi, zero
from qmforge.fixpoints import (
    EvidenceKind,
    exclude_fixpoint,
    verify_witness,
)
from qmforge.freegroup import Alphabet, NielsenGen, parse_word
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
