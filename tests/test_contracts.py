"""The Brooks-sum contract: every entry that takes a Brooks sum rejects a
malformed one with ValueError, at ranks 2-4 and under ``python -O``, and
accepts either orientation of a key, since phi(v^-1) = -phi(v)."""

from __future__ import annotations

from fractions import Fraction

import pytest

from qmforge.action import NielsenWord, act, n_representative_sum
from qmforge.counting import BrooksSum, Mode, counting_sum, phi
from qmforge.fixpoints import exclude_fixpoint
from qmforge.freegroup import A, B, Alphabet, NielsenGen
from qmforge.relations import eliminate_b_powers, normal_form
from qmforge.speed import empirical_speed, speed

from _optimized import run_optimized

RANKS = (2, 3, 4)


def _hand_built(key):
    return BrooksSum({key: Fraction(1)}, Mode.BROOKS)


# Each malformed kind: a sum at a given rank, and the message of the check that must fire.
MALFORMED = {
    "counting-mode": (lambda rank: counting_sum({(A, B): 1}), "expected a Brooks sum"),
    "identity-key": (lambda rank: _hand_built(()), "the identity cannot carry weight"),
    "unreduced-bb'b": (lambda rank: _hand_built((B, -B, B)), "is not reduced"),
    "unreduced-aa'b": (lambda rank: _hand_built((A, -A, B)), "is not reduced"),
    "letter-outside": (
        lambda rank: _hand_built((A, rank + 1)),
        "is not in the alphabet of rank",
    ),
    "letter-0": (lambda rank: _hand_built((A, 0)), "letter 0 is not in the alphabet"),
}

ENTRIES = {
    "normal_form": lambda f, al: normal_form(f, al),
    "eliminate_b_powers": lambda f, al: eliminate_b_powers(f, al),
    "speed": lambda f, al: speed(f, al),
    "act-Tinv": lambda f, al: act(NielsenGen.TINV, f, al),
    "act-P1": lambda f, al: act(NielsenGen.P1, f, al),
    "act-empty-word": lambda f, al: act(NielsenWord(()), f, al),
    "n_representative_sum": lambda f, al: n_representative_sum(f, 2, al),
    "exclude_fixpoint": lambda f, al: exclude_fixpoint(f, al),
    "empirical_speed": lambda f, al: empirical_speed(f, NielsenGen.TINV, 2, al),
}


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("kind", MALFORMED)
def test_every_entry_rejects_every_malformed_sum(kind, entry):
    build, message = MALFORMED[kind]
    for rank in RANKS:
        with pytest.raises(ValueError, match=message):
            ENTRIES[entry](build(rank), Alphabet(rank))


def test_the_contract_fires_under_python_O():
    proc = run_optimized(
        "from fractions import Fraction\n"
        "from qmforge.counting import BrooksSum, Mode\n"
        "from qmforge.freegroup import Alphabet, NielsenGen\n"
        "from qmforge.speed import empirical_speed\n"
        "f = BrooksSum({(2, -2, 2): Fraction(1)}, Mode.BROOKS)\n"
        "try:\n"
        "    empirical_speed(f, NielsenGen.TINV, 2, Alphabet(3))\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "key (2, -2, 2) is not reduced"


@pytest.mark.parametrize("rank", RANKS)
def test_a_turned_b_power_key_is_the_class_of_its_canonical_twin(rank):
    """phi(b'b') = -phi(bb): the hand-built turned key gets the normal form of
    -phi(bb) with a trace that certifies, and the same image under T^-1."""
    alphabet = Alphabet(rank)
    turned, canonical = _hand_built((-B, -B)), -phi((B, B))
    nf, trace = normal_form(turned, alphabet)
    assert nf == normal_form(canonical, alphabet)[0]
    assert trace.certifies(turned, nf, alphabet)
    assert act(NielsenGen.TINV, turned, alphabet) == act(NielsenGen.TINV, canonical, alphabet)
