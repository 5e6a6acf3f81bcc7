"""The Brooks-sum contract: every entry that takes a Brooks sum rejects a
malformed one with ValueError, at ranks 2-4 and under ``python -O``, and
accepts either orientation of a key, since phi(v^-1) = -phi(v)."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from qmforge.action import NielsenWord, act, n_representative_sum
from qmforge.counting import (
    BrooksSum,
    Mode,
    brooks_sum,
    check_sum,
    count_term,
    counting_sum,
    phi,
)
from qmforge.fixpoints import exclude_fixpoint
from qmforge.freegroup import A, B, Alphabet, NielsenGen, inverse, is_canonical, is_reduced
from qmforge.relations import eliminate_b_powers, is_normal_form, normal_form
from qmforge.speed import empirical_speed, speed

from _corpus import random_brooks_sum, random_reduced_word
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
    "is_normal_form": lambda f, al: is_normal_form(f, al),
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


def test_is_normal_form_checks_the_contract_under_python_O():
    """An unreduced key or a letter outside the rank is refused, not called
    a normal form, with asserts stripped."""
    proc = run_optimized(
        "from fractions import Fraction\n"
        "from qmforge.counting import BrooksSum, Mode\n"
        "from qmforge.freegroup import Alphabet\n"
        "from qmforge.relations import is_normal_form\n"
        "for key in ((1, -1, 2), (1, 5)):\n"
        "    try:\n"
        "        print(is_normal_form(BrooksSum({key: Fraction(1)}, Mode.BROOKS), Alphabet(2)))\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "key (1, -1, 2) is not reduced",
        "letter 5 is not in the alphabet of rank 2",
    ]


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


def _turn_some(rng, f):
    """f with about half its keys given as their inverse, a hand-built sum of the same class."""
    pairs = ((inverse(v), -c) if rng.random() < 0.5 else (v, c) for v, c in f.weight.items())
    return BrooksSum(dict(pairs), Mode.BROOKS)


def _contract_breaches(g, alphabet):
    """Every way g breaks the contract of a sum the library builds: Brooks
    mode, keys nonempty, reduced, canonical and in the alphabet, weights
    nonzero Fractions."""
    if g.mode is not Mode.BROOKS:
        return ["counting mode"]
    breaches = []
    for v, c in g.weight.items():
        if not (v and is_reduced(v) and is_canonical(v)):
            breaches.append(f"key {v} is empty, unreduced or turned")
        elif not all(1 <= abs(x) <= alphabet.rank for x in v):
            breaches.append(f"key {v} leaves the alphabet")
        if type(c) is not Fraction or c == 0:
            breaches.append(f"weight {c!r} of {v}")
    return breaches


NIELSEN_WORDS = [NielsenWord.parse(text) for text in ("P1", "P2", "H", "Tinv", "T", "P1*Tinv*H")]


@pytest.mark.parametrize("rank", RANKS)
def test_every_sum_the_library_builds_keeps_the_key_contract(rank):
    """Accumulator.as_sum checks no key: each was checked where it entered,
    or built reduced.  This holds every built sum to the contract, on random
    sums with some keys turned: brooks_sum over raw entries (one of weight 0),
    normal_form, eliminate_b_powers, act, n_representative_sum and speed."""
    alphabet = Alphabet(rank)
    rng = random.Random(1900 + rank)
    for _ in range(60):
        f = _turn_some(rng, random_brooks_sum(rng, alphabet))
        extra = random_reduced_word(rng, alphabet, rng.randint(1, 4))
        built = {"brooks_sum": brooks_sum({**f.weight, extra: f.weight.get(extra, 0)})}
        built["normal_form"] = normal_form(f, alphabet)[0]
        eliminated = built["eliminate_b_powers"] = eliminate_b_powers(f, alphabet)[0]
        for x in NIELSEN_WORDS:
            built[f"act {x.gens}"] = act(x, f, alphabet)
        for n in (1, 2, 3):
            rep = n_representative_sum(_turn_some(rng, eliminated), n, alphabet)
            built[f"n_representative_sum n={n}"] = rep
        built["speed residue"] = speed(f, alphabet).residue
        for name, g in built.items():
            assert _contract_breaches(g, alphabet) == [], (name, f.weight)


@pytest.mark.parametrize("rank", RANKS)
def test_check_sum_reports_whether_a_sum_keeps_the_key_contract(rank):
    """check_sum returns True exactly when the sum it accepts is as an
    Accumulator builds it: on random sums with some keys turned, some
    weights ints and some weights 0."""
    alphabet = Alphabet(rank)
    rng = random.Random(1950 + rank)
    seen = set()
    for _ in range(150):
        f = _turn_some(rng, random_brooks_sum(rng, alphabet))
        weight = {}
        for v, c in f.weight.items():
            weight[v] = rng.choice((c, int(c), 0)) if rng.random() < 0.2 else c
        g = BrooksSum(weight, Mode.BROOKS)
        kept = _contract_breaches(g, alphabet) == []
        assert check_sum(g, alphabet) is kept, g.weight
        seen.add(kept)
    assert seen == {True, False}


def test_the_key_contract_check_sees_each_breach():
    al = Alphabet(2)
    assert _contract_breaches(counting_sum({(A,): 1}), al) == ["counting mode"]
    bad = {(A, -A, B): Fraction(1), (-B, -A): Fraction(1), (A, 3): Fraction(1), (A, B): 1}
    assert len(_contract_breaches(BrooksSum(bad, Mode.BROOKS), al)) == 4


# The entries that take no alphabet check each key against the 26 named letters.
UNNAMED_LETTER_REFUSALS = {
    "phi((1, 0, 2))": "letter 0 is not in the alphabet of rank 26",
    "counting_sum({(0,): 1})": "letter 0 is not in the alphabet of rank 26",
    "phi((27,))": "letter 27 is not in the alphabet of rank 26",
    "phi((0,))": "letter 0 is not in the alphabet of rank 26",
    "brooks_sum({(1, 2): 1, (-27, 1): 0})": "letter -27 is not in the alphabet of rank 26",
    "count_term((26, 0))": "letter 0 is not in the alphabet of rank 26",
}


def test_the_entries_without_an_alphabet_refuse_an_unnamed_letter_also_under_python_O():
    """Before, phi((1, 0, 2)) and counting_sum({(0,): 1}) built sums whose
    str() raised KeyError, phi((27,)) raised KeyError and phi((0,)) called
    its key its own inverse."""
    script = (
        "from qmforge.counting import brooks_sum, count_term, counting_sum, phi\n"
        f"for call in {list(UNNAMED_LETTER_REFUSALS)!r}:\n"
        "    try:\n"
        "        print(call, eval(call))\n"
        "    except ValueError as exc:\n"
        "        print(call + ': ' + str(exc))\n"
    )
    expected = "\n".join(f"{call}: {message}" for call, message in UNNAMED_LETTER_REFUSALS.items())
    proc = run_optimized(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == expected
    for call, message in UNNAMED_LETTER_REFUSALS.items():
        with pytest.raises(ValueError, match=message):
            eval(call)
