"""The four benchmark workloads: seeded inputs, the job each input drives, and its checks.

Every workload is a closed loop with one client and one job in flight.  A
workload supplies

* ``inputs(seed)``: an endless iterator of distinct inputs made from the seed
  alone (the library only ever sees these generated inputs);
* ``warmup()``: a few small inputs, the same for every seed, run during set-up
  so that first-call costs are paid before the first timed job;
* ``job(lib, inp)``: the timed work, calling the library through ``lib`` so
  that a traced run can wrap each call;
* ``check(inp, answer)``: the untimed per-job correctness check;
* ``digest_line(inp, answer)``: the exact answer as text, hashed for the
  default-seed digest;
* ``oracle(inp, answer)``: the untimed, independent cross-check against the
  brute-force oracle, run on a seeded sample of the jobs ``oracle_fits``;
* ``tally(counters, answer)``: in a traced run, the per-layer counts that come
  from a job's answer rather than from one call.

Job sizes follow a fixed schedule of strata (rank, size class, ...) visited in
a fixed interleaved order, with the seed choosing the inputs inside each
stratum.  Any prefix of the stream therefore has about the same mix of small
and large jobs, so runs on different seeds, and a faster library that gets
further into the stream, measure comparable work.
"""

from __future__ import annotations

import functools
import hashlib
import io
import itertools
import json
import random
import subprocess
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Iterator, Optional

from qmforge import cli
from qmforge.action import NielsenWord, act, n_representative, n_representative_sum
from qmforge.counting import (
    BrooksSum,
    brooks_sum,
    certified_reduced_length,
    evaluate,
    format_sum,
    norm,
    phi,
)
from qmforge.fixpoints import EvidenceKind, exclude_fixpoint
from qmforge.freegroup import (
    Alphabet,
    Word,
    b_power,
    ball_size,
    inverse,
    kind_of,
    parse_word,
    sphere,
    tau,
    word_sort_key,
    word_str,
)
from qmforge.oracle import Verdict, brute_evaluate, empirical_equiv
from qmforge.relations import eliminate_b_powers, is_normal_form, normal_form
from qmforge.speed import speed

from layers import SUBCOMMANDS

DEFAULT_SEED = 1

ALPHABETS = {rank: Alphabet(rank) for rank in (2, 3, 4)}


class Distinct:
    """Fixed-size bitset of input hashes, so no input repeats within a run.

    Its memory does not grow with the number of jobs, so ``peak_rss_mb`` does
    not rise when a faster library gets through more inputs.  A hash collision
    only skips an input, deterministically for a given seed.
    """

    BITS = 1 << 25

    def __init__(self) -> None:
        self.bits = bytearray(self.BITS // 8)

    def add(self, key: Any) -> bool:
        """Mark ``key``; False when it (or a colliding key) was seen before.

        The hash is of ``repr(key)``, not ``hash(key)``, which for strings
        changes from one process to the next."""
        digest = hashlib.blake2b(repr(key).encode(), digest_size=8).digest()
        h = int.from_bytes(digest, "big") % self.BITS
        byte, mask = h >> 3, 1 << (h & 7)
        if self.bits[byte] & mask:
            return False
        self.bits[byte] |= mask
        return True


def _fixed_order(keys: list) -> list:
    """Interleave strata in one fixed order, independent of the run's seed."""
    keys = sorted(keys)
    random.Random(0).shuffle(keys)
    return keys


def _random_word(rng: random.Random, letters: list[int], length: int) -> Word:
    out: list[int] = []
    while len(out) < length:
        x = rng.choice(letters)
        if not out or x != -out[-1]:
            out.append(x)
    return tuple(out)


def _sum_key(rank: int, f: BrooksSum) -> tuple:
    return (rank, tuple(sorted(f.weight.items())))


def _witness_text(w: Optional[Word]) -> str:
    return word_str(w) if w is not None else "-"


def _nielsen_text(x: NielsenWord) -> str:
    return "*".join(g.value for g in x.gens) if x.gens else "e"


def _fits_oracle(rank: int, *sums: BrooksSum) -> bool:
    """The oracle's default radii (4..7) are affordable only at rank 2.  The
    sup of f minus its normal form can first be reached at radius norm + 2
    (3*phi(bab'b') - phi(bbab) + 3*phi(bba'b), of norm 4, reaches it at 6), and
    the verdict needs it settled on the last three radii, from 5 on: so keys
    of length at most 3."""
    return rank == 2 and all(norm(f) <= 3 for f in sums)


@dataclass(frozen=True)
class SumInput:
    rank: int
    f: BrooksSum


@dataclass
class Workload:
    name: str
    why: str
    inputs: Callable[[int], Iterator[Any]]
    warmup: Callable[[], list]
    job: Callable[[Any, Any], Any]
    check: Callable[[Any, Any], bool]
    digest_line: Callable[[Any, Any], str]
    oracle_fits: Callable[[Any, Any], bool]
    oracle: Callable[[Any, Any], bool]
    digest_jobs: int
    tally: Callable[[dict, Any], None] = lambda counters, answer: None
    # True when the first n inputs make whole passes over the strata; a timed
    # loop stops only there, so that every run measures the same mix.
    pass_end: Callable[[int], bool] = lambda n: True


# ---------------------------------------------------------------------------
# rewrite: long b-exponents, so L2 certificate work dominates

# Strata (rank, largest b-exponent), the cheap ones repeated so that the
# median job lies inside the run of (2, 4) jobs and the 95th percentile inside
# the (2, 16) jobs rather than on a boundary between strata.  The certificate
# grows with the exponents times the 2(rank - 1) letters each step emits, and
# `certifies` is quadratic in it, so higher ranks stop at smaller exponents.
REWRITE_STRATA = (
    *[(2, top) for top in (2, 2, 2, 4, 4, 4, 4, 4, 4, 4, 4, 6, 8, 10, 12, 16, 16)],
    *[(3, top) for top in (2, 2, 2, 4, 6, 8)],
    *[(4, top) for top in (2, 2, 4, 6)],
)


def rewrite_sum(rng: random.Random, alphabet: Alphabet, top: int, inverted: bool) -> BrooksSum:
    """Box keys b^p x b^q of one skeleton x, with (p, q) in (1, 1), (top, top),
    (top, 1) and (-top/2, top), and the power b^top.

    The exponents are fixed by the stratum, and ``inverted`` fixes whether x
    is the larger of x and its inverse (which turns the family around when the
    sum is canonicalized); the seed picks the two-letter skeleton and the
    coefficients.  The rewrite's cost depends on the exponent differences
    within the family, so this keeps each stratum's cost steady from seed to
    seed.  The walk from -top/2 crosses zero.
    """
    while True:
        x = _random_word(rng, alphabet.s_b(), 2)
        if (word_sort_key(inverse(x)) < word_sort_key(x)) == inverted:
            break
    entries: dict[Word, int] = {}
    for p, q in ((1, 1), (top, top), (top, 1), (-max(1, top // 2), top)):
        entries[b_power(p) + x + b_power(q)] = rng.choice((-3, -2, -1, 1, 2, 3))
    entries[b_power(top)] = rng.choice((-3, -2, -1, 1, 2, 3))
    return brooks_sum(entries)


def _rewrite_stream(seed: int, stream: str) -> Iterator[SumInput]:
    """The strata in a fixed order, the skeleton's orientation alternating
    from one pass over them to the next."""
    rng = random.Random(f"rewrite/{stream}/{seed}")
    seen = Distinct()
    strata = _fixed_order(list(REWRITE_STRATA))
    for cycle in itertools.count():
        for rank, top in strata:
            while True:
                f = rewrite_sum(rng, ALPHABETS[rank], top, inverted=cycle % 2 == 1)
                if seen.add(_sum_key(rank, f)):
                    break
            yield SumInput(rank, f)


def rewrite_job(lib, inp: SumInput):
    alphabet = ALPHABETS[inp.rank]
    nf, trace = lib.normal_form(inp.f, alphabet)
    certified = lib.certifies(trace, inp.f, nf, alphabet)
    return nf, certified, lib.speed(inp.f, alphabet)


def rewrite_check(inp: SumInput, answer) -> bool:
    nf, certified, report = answer
    return certified is True and is_normal_form(nf, ALPHABETS[inp.rank])[0] and report.value >= 0


def rewrite_digest(inp: SumInput, answer) -> str:
    nf, _, report = answer
    return (
        f"{format_sum(nf)}|{report.value}|{report.rot_coefficient}|{_witness_text(report.witness)}"
    )


def sum_oracle_fits(inp: SumInput, answer) -> bool:
    return _fits_oracle(inp.rank, inp.f, answer[0])


def sum_oracle(inp: SumInput, answer) -> bool:
    """The input and its normal form agree up to a bounded function."""
    return empirical_equiv(inp.f, answer[0], ALPHABETS[inp.rank]).verdict is Verdict.LIKELY_EQUIV


def _tally_speed(counters, report) -> None:
    if report is not None and report.rot_coefficient != 0:
        counters["speed.rot_branch"] += 1


def rewrite_tally(counters, answer) -> None:
    _tally_speed(counters, answer[2])


# ---------------------------------------------------------------------------
# classify: many small rewrites, then the L4 case dispatch and act


def classify_sum(rng: random.Random, alphabet: Alphabet) -> BrooksSum:
    """Same shape as the test corpus's random sums: <= 6 keys of length <= 5."""
    entries: dict[Word, Fraction] = {}
    for _ in range(rng.randint(1, 6)):
        w = _random_word(rng, alphabet.letters(), rng.randint(1, 5))
        c = rng.randint(-5, 5)
        if c:
            entries[w] = entries.get(w, Fraction(0)) + c
    return brooks_sum({k: v for k, v in entries.items() if v})


def _classify_stream(seed: int, stream: str) -> Iterator[SumInput]:
    rng = random.Random(f"classify/{stream}/{seed}")
    seen = Distinct()
    while True:
        for rank in ALPHABETS:
            while True:
                f = classify_sum(rng, ALPHABETS[rank])
                if not f.is_zero() and seen.add(_sum_key(rank, f)):
                    break
            yield SumInput(rank, f)


def classify_job(lib, inp: SumInput):
    alphabet = ALPHABETS[inp.rank]
    nf, _ = lib.normal_form(inp.f, alphabet)
    if nf.is_zero():
        return nf, None, None, None
    report = lib.speed(inp.f, alphabet)
    witness = lib.exclude_fixpoint(inp.f, alphabet)
    return nf, report, witness, lib.verify_witness(inp.f, witness, alphabet)


def classify_check(inp: SumInput, answer) -> bool:
    nf, report, witness, verified = answer
    if not is_normal_form(nf, ALPHABETS[inp.rank])[0]:
        return False
    return nf.is_zero() or (verified is True and report.value >= 0)


def classify_digest(inp: SumInput, answer) -> str:
    nf, report, witness, _ = answer
    if nf.is_zero():
        return "0"
    return (
        f"{format_sum(nf)}|{report.value}|{report.rot_coefficient}|"
        f"{_witness_text(report.witness)}|{_nielsen_text(witness.X)}|{witness.kind.value}"
    )


def classify_tally(counters, answer) -> None:
    _, report, witness, _ = answer
    _tally_speed(counters, report)
    if witness is not None:
        counters[f"fixpoints.evidence.{witness.kind.value}"] += 1
        counters["fixpoints.x_gens"] += len(witness.X.gens)


# ---------------------------------------------------------------------------
# transport: ball evaluation of n-representatives, L1 and L3 only

TRANSPORT_NS = range(1, 17)
TRANSPORT_LENGTHS = {2: 3, 3: 2}


def _late_sup(w: Word) -> bool:
    """Words where an a-square meets b, such as aab and b'a'a'.

    For these the sup of |rep - phi_w o T^n| is reached only at radius about
    |w| + n (it stays bounded, at 1), so the profile over |w|..|w|+2 is not yet
    constant.  Every other word in the pool settles by radius |w| for all n in
    TRANSPORT_NS, which was checked exhaustively over the pool.
    """
    for i in range(len(w) - 2):
        if (w[i] == w[i + 1] == 1 and abs(w[i + 2]) == 2) or (
            abs(w[i]) == 2 and w[i + 1] == w[i + 2] == -1
        ):
            return True
    return False


@dataclass(frozen=True)
class TransportInput:
    rank: int
    word: Word
    n: int

    @property
    def radii(self) -> tuple[int, int, int]:
        k = len(self.word)
        return (k, k + 1, k + 2)


def transport_pool() -> dict[tuple, list[TransportInput]]:
    """Base words of every b-boundary shape (the corpus strata) at ranks 2-3,
    in strata (rank, length, shape, size of the largest representative, n):
    words of one stratum cost about the same."""
    strata: dict[tuple, list[TransportInput]] = {}
    for rank, longest in TRANSPORT_LENGTHS.items():
        alphabet = ALPHABETS[rank]
        for length in range(1, longest + 1):
            for w in sphere(alphabet, length):
                if tau(w) is None or _late_sup(w):
                    continue
                keys = len(n_representative(w, TRANSPORT_NS[-1], alphabet).weight)
                for n in TRANSPORT_NS:
                    key = (rank, length, kind_of(w).value, keys, n)
                    strata.setdefault(key, []).append(TransportInput(rank, w, n))
    return strata


def _transport_stream(seed: int, stream: str) -> Iterator[TransportInput]:
    """Passes over the strata in a fixed order, the i-th pass taking the i-th
    word of each stratum in the seed's shuffle; a stratum drops out of the
    passes once its words are used up."""
    rng = random.Random(f"transport/{stream}/{seed}")
    strata = transport_pool()
    for members in strata.values():
        rng.shuffle(members)
    order = _fixed_order(list(strata))
    depth = max(len(m) for m in strata.values())
    for i in range(depth):
        for key in order:
            if i < len(strata[key]):
                yield strata[key][i]


@functools.lru_cache(maxsize=1)
def _transport_pass_ends() -> frozenset[int]:
    """Job counts that end a quarter of a pass.  A pass takes about 10 s, so
    stopping at quarters keeps a run from overshooting its time by much."""
    sizes = sorted(len(m) for m in transport_pool().values())
    ends, start = set(), 0
    for depth in range(sizes[-1]):
        size = sum(1 for s in sizes if s > depth)
        ends.update(start + round(size * k / 4) for k in range(1, 5))
        start += size
    return frozenset(ends)


def _transport_warmup() -> list[TransportInput]:
    """Rank-4 words, outside the pool, so warm-up never runs a timed input."""
    return [TransportInput(4, (1,), 1), TransportInput(4, (-2,), 2)]


@dataclass
class TransportAnswer:
    sups: tuple[Fraction, ...]
    rep: BrooksSum
    phi_w: BrooksSum
    words: list[Word]
    images: list[Word]
    rep_values: list[Fraction]
    phi_values: list[Fraction]


def transport_job(lib, inp: TransportInput) -> TransportAnswer:
    alphabet = ALPHABETS[inp.rank]
    rep = lib.as_counting(lib.n_representative(inp.word, inp.n, alphabet))
    phi_w = lib.as_counting(phi(inp.word))
    radii = inp.radii
    words = lib.ball(alphabet, radii[-1])
    images = lib.t_images(words, inp.n, alphabet)
    rep_values = lib.evaluate_all(rep, words)
    phi_values = lib.evaluate_all(phi_w, images)
    sups = [Fraction(0)] * len(radii)
    for v, x, y in zip(words, rep_values, phi_values):
        d = abs(x - y)
        for k, r in enumerate(radii):
            if len(v) <= r and d > sups[k]:
                sups[k] = d
    return TransportAnswer(tuple(sups), rep, phi_w, words, images, rep_values, phi_values)


def transport_check(inp: TransportInput, answer: TransportAnswer) -> bool:
    return (
        len(answer.words) == ball_size(inp.rank, inp.radii[-1])
        and len(set(answer.sups)) == 1
    )


def transport_digest(inp: TransportInput, answer: TransportAnswer) -> str:
    return f"{inp.rank}|{word_str(inp.word)}|{inp.n}|" + ",".join(map(str, answer.sups))


def transport_oracle(inp: TransportInput, answer: TransportAnswer) -> bool:
    return all(
        brute_evaluate(answer.rep, v) == x for v, x in zip(answer.words, answer.rep_values)
    ) and all(
        brute_evaluate(answer.phi_w, u) == y for u, y in zip(answer.images, answer.phi_values)
    )


# ---------------------------------------------------------------------------
# cli: one `python -m qmforge.cli ... --format json` process per job

# Every (suite, radius, rank) here passes; at rank 3 the `norm` suite's
# balanced example is unbalanced, so `norm` and `all` run only at rank 2, and
# `relations`/`transport` stop at the radius where they take under 0.2 s.
VERIFY_CASES = tuple(
    [(suite, radius, 2) for suite in ("counting", "norm", "relations", "transport", "rot", "all")
     for radius in range(1, 6)]
    + [("counting", radius, 3) for radius in range(1, 6)]
    + [("rot", radius, 3) for radius in range(1, 6)]
    + [("transport", radius, 3) for radius in range(1, 5)]
    + [("relations", radius, 3) for radius in range(1, 4)]
)


def _corrupt(rng: random.Random, text: str) -> str:
    """A syntax error planted in a well-formed expression (exit code 2)."""
    at = text.index("(") + 2
    return rng.choice((
        lambda: text[:-1],                          # missing ')'
        lambda: text + " +",                        # dangling operator
        lambda: text.replace("phi", "phx", 1).replace("#", "%", 1),
        lambda: text[:at] + " " + text[at:],        # whitespace inside a word
        lambda: text[:at] + "z" + text[at:],        # letter beyond the rank
        lambda: "2/0*" + text,                      # zero denominator
        lambda: text + " phi(b)",                   # missing operator
    ))()


_BAD_ARGS = {"ball": ["ball", "x"], "verify": ["verify", "nosuch"]}


@dataclass(frozen=True)
class CliInput:
    argv: tuple[str, ...]
    expect_rc: int


def _word_text(rng: random.Random, alphabet: Alphabet, longest: int) -> str:
    return word_str(_random_word(rng, alphabet.letters(), rng.randint(1, longest)))


def _expression(rng: random.Random, alphabet: Alphabet, counting: bool = False) -> str:
    terms = []
    for i in range(rng.randint(1, 3)):
        coef = rng.choice(("", "", "2*", "3*", "1/2*", "5/3*"))
        head = "#" if counting and rng.random() < 0.5 else "phi"
        body = f"{coef}{head}({_word_text(rng, alphabet, 4)})"
        terms.append(body if i == 0 else rng.choice((" + ", " - ")) + body)
    return "".join(terms)


def _nonzero_class(text: str, alphabet: Alphabet) -> bool:
    return not normal_form(cli.parse_expression(text, alphabet), alphabet)[0].is_zero()


def cli_argv(rng: random.Random, sub: str, verify_cases: list) -> list[str]:
    rank = rng.choice((2, 2, 3))
    alphabet = ALPHABETS[rank]
    if sub == "verify":
        suite, radius, rank = verify_cases.pop()
        return ["verify", suite, "--radius", str(radius), "--rank", str(rank)]
    if sub == "ball":
        return ["ball", str(rng.randint(0, 400)), "--rank", str(rng.randint(2, 26))]
    flags = ["--rank", str(rank)]
    if sub == "eval":
        return ["eval", _expression(rng, alphabet, counting=True), _word_text(rng, alphabet, 8), *flags]
    if sub in ("norm", "reduced"):
        return [sub, _expression(rng, alphabet, counting=True), *flags]
    if sub == "nrep":
        return ["nrep", _expression(rng, alphabet), str(rng.randint(1, 6)), *flags]
    if sub == "act":
        gens = [rng.choice(("P1", "P2", "H", "T", "Tinv")) for _ in range(rng.randint(1, 3))]
        return ["act", "*".join(gens), _expression(rng, alphabet), *flags]
    while True:
        text = _expression(rng, alphabet)
        if sub != "exclude-fixpoint" or _nonzero_class(text, alphabet):
            return [sub, text, *flags]


def _cli_stream(seed: int, stream: str) -> Iterator[CliInput]:
    """Subcommands in a fixed cycle; in cycle c, subcommand c mod 10 gets a
    malformed argument and must exit 2, so exactly one job in ten is malformed.

    `verify` runs its cases in one fixed order for every seed: they range
    from 1 ms to 200 ms, they set the 95th percentile, and a seed-dependent
    subset would move it from run to run."""
    rng = random.Random(f"cli/{stream}/{seed}")
    verify_cases = list(VERIFY_CASES)
    random.Random(0).shuffle(verify_cases)
    seen = Distinct()
    cycle = 0
    while verify_cases:
        for i, sub in enumerate(SUBCOMMANDS):
            malformed = i == cycle % len(SUBCOMMANDS)
            while True:
                if malformed and sub in _BAD_ARGS:
                    argv = [*_BAD_ARGS[sub], "--rank", str(rng.randint(2, 26))]
                elif malformed:
                    argv = cli_argv(rng, sub, verify_cases)
                    expr_at = 2 if sub == "act" else 1
                    argv[expr_at] = _corrupt(rng, argv[expr_at])
                else:
                    if sub == "verify" and not verify_cases:
                        return
                    argv = cli_argv(rng, sub, verify_cases)
                if seen.add(tuple(argv)):
                    break
            yield CliInput(tuple(argv) + ("--format", "json"), 2 if malformed else 0)
        cycle += 1


def probe_argvs(seed: int, repeats: int) -> dict[str, list[tuple[str, ...]]]:
    """``repeats`` well-formed argument lists per subcommand, from a stream of
    their own, for the traced run's command-line probes."""
    out: dict[str, list[tuple[str, ...]]] = {sub: [] for sub in SUBCOMMANDS}
    for inp in _cli_stream(seed, "probe"):
        bucket = out[inp.argv[0]]
        if inp.expect_rc == 0 and len(bucket) < repeats:
            bucket.append(inp.argv)
        if all(len(b) == repeats for b in out.values()):
            return out
    raise ValueError("the probe stream ran dry")


def run_cli(argv: tuple[str, ...], env: dict) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "qmforge.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )


def cli_job(lib, inp: CliInput):
    return lib.run_cli(inp.argv)


def _sum_json(f: BrooksSum) -> dict[str, Any]:
    return {
        "mode": f.mode.name.lower(),
        "terms": [{"word": word_str(v), "coefficient": str(f.weight[v])} for v in f.support()],
    }


def _vector_json(vec: dict[int, Fraction]) -> dict[str, str]:
    return {chr(ord("a") + i - 1): str(c) for i, c in sorted(vec.items())}


def expected_payload(argv: tuple[str, ...]) -> Optional[dict]:
    """The answer to a well-formed job, computed in-process from the library."""
    ns = cli.build_parser().parse_args(list(argv))
    alphabet = Alphabet(ns.rank)
    sub = ns.command
    if sub == "ball":
        return {"radius": ns.radius_arg, "size": ball_size(ns.rank, ns.radius_arg)}
    if sub == "verify":
        return None  # compared by suite names and verdicts in cli_payload_ok
    f = cli.parse_expression(ns.expr, alphabet)
    if sub == "eval":
        return {"value": str(evaluate(f, parse_word(ns.word, alphabet)))}
    if sub == "norm":
        return {"norm": norm(f)}
    if sub == "reduced":
        cert = certified_reduced_length(f, alphabet)
        return {
            "status": cert.status.value,
            "value": cert.value,
            "certificate": cert.certificate,
            "witness": word_str(cert.witness) if cert.witness is not None else None,
        }
    if sub == "nrep":
        rep = n_representative_sum(eliminate_b_powers(f, alphabet)[0], ns.n, alphabet)
        return {"n": ns.n, "representative": _sum_json(rep)}
    if sub == "normal-form":
        return {"normal_form": _sum_json(normal_form(f, alphabet)[0])}
    if sub == "speed":
        rep = speed(f, alphabet)
        return {
            "value": rep.value,
            "witness": word_str(rep.witness) if rep.witness is not None else None,
            "lambda": str(rep.rot_coefficient),
            "residue": _sum_json(rep.residue),
        }
    if sub == "act":
        return {"result": _sum_json(act(NielsenWord.parse(ns.xword), f, alphabet))}
    wit = exclude_fixpoint(f, alphabet)
    out: dict[str, Any] = {"X": _nielsen_text(wit.X), "kind": wit.kind.value}
    if wit.kind is EvidenceKind.POSITIVE_SPEED:
        out["speed"] = wit.report.value
        if wit.witness_word is not None:
            out["witness_word"] = word_str(wit.witness_word)
    elif wit.kind is EvidenceKind.HOM_COEFFICIENT_CHANGE:
        out["hom_before"] = _vector_json(wit.hom_before)
        out["hom_after"] = _vector_json(wit.hom_after)
    else:
        out["rot_before"] = str(wit.rot_before)
        out["rot_after"] = str(wit.rot_after)
    return out


def _payload(answer) -> Optional[dict]:
    try:
        return json.loads(answer.stdout)
    except ValueError:
        return None


def cli_check(inp: CliInput, answer) -> bool:
    if answer.returncode != inp.expect_rc:
        return False
    if inp.expect_rc != 0:
        return answer.stdout == ""
    got = _payload(answer)
    if got is None:
        return False
    if inp.argv[0] == "verify":
        suite = inp.argv[1]
        names = list(cli._SUITES) if suite == "all" else [suite]
        return got["ok"] is True and [s["name"] for s in got["suites"]] == names and all(
            s["ok"] is True for s in got["suites"]
        )
    if inp.argv[0] == "normal-form":
        got = {k: v for k, v in got.items() if k != "steps"}
    return got == expected_payload(inp.argv)


def cli_digest(inp: CliInput, answer) -> str:
    got = _payload(answer) if answer.returncode == 0 else None
    if isinstance(got, dict):
        # Leave out what is not an exact answer: a trace-step count, which a
        # change to the rewriter may alter, and the suites' prose.
        got.pop("steps", None)
        for suite in got.get("suites", ()):
            suite.pop("detail", None)
    return f"{' '.join(inp.argv)}|{answer.returncode}|{json.dumps(got, sort_keys=True)}"


def cli_oracle_fits(inp: CliInput, answer) -> bool:
    return inp.argv[0] == "eval" and inp.expect_rc == 0


def cli_oracle(inp: CliInput, answer) -> bool:
    """Cross-check an `eval` answer against the oracle's independent counter."""
    ns = cli.build_parser().parse_args(list(inp.argv))
    alphabet = Alphabet(ns.rank)
    f = cli.parse_expression(ns.expr, alphabet)
    want = brute_evaluate(f, parse_word(ns.word, alphabet))
    return _payload(answer) == {"value": str(want)}


def cli_main_in_process(argv: list[str]) -> tuple[int, str]:
    """Run ``qmforge.cli.main`` in this process, returning (exit code, stdout)."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


WORKLOADS: dict[str, Workload] = {
    "rewrite": Workload(
        name="rewrite",
        why=(
            "box keys b^p x b^q and powers b^m at ranks 2-4, exponents up to 16: has long "
            "b-exponents, so L2 certificates dominate and form the tail; lacks ball evaluation "
            "and process start"
        ),
        inputs=lambda seed: _rewrite_stream(seed, "timed"),
        warmup=lambda: [
            SumInput(rank, rewrite_sum(random.Random(0), ALPHABETS[rank], 3, inverted=False))
            for rank in ALPHABETS
        ],
        job=rewrite_job,
        check=rewrite_check,
        digest_line=rewrite_digest,
        oracle_fits=sum_oracle_fits,
        oracle=sum_oracle,
        digest_jobs=12,
        tally=rewrite_tally,
        pass_end=lambda n: n % (2 * len(REWRITE_STRATA)) == 0,
    ),
    "classify": Workload(
        name="classify",
        why=(
            "small random sums at ranks 2-4 (<= 6 keys, length <= 5): many small rewrites, "
            "act and the L4 case dispatch; lacks long b-exponents, ball evaluation and process start"
        ),
        inputs=lambda seed: _classify_stream(seed, "timed"),
        warmup=lambda: [i for i, _ in zip(_classify_stream(0, "warmup"), range(30))],
        job=classify_job,
        check=classify_check,
        digest_line=classify_digest,
        oracle_fits=sum_oracle_fits,
        oracle=sum_oracle,
        digest_jobs=200,
        tally=classify_tally,
        pass_end=lambda n: n % len(ALPHABETS) == 0,
    ),
    "transport": Workload(
        name="transport",
        why=(
            "n-representatives (n 1-16) of corpus-shaped words at ranks 2-3 over a Cayley ball: "
            "has ball evaluation (L1 evaluate, L3 nrep); lacks long b-exponents and process start"
        ),
        inputs=lambda seed: _transport_stream(seed, "timed"),
        warmup=_transport_warmup,
        job=transport_job,
        check=transport_check,
        digest_line=transport_digest,
        oracle_fits=lambda inp, answer: True,
        oracle=transport_oracle,
        pass_end=lambda n: n in _transport_pass_ends(),
        digest_jobs=24,
    ),
    # Implemented and covered by the quick-mode tests, but left out of
    # BENCHMARK.json: on a shared two-core machine the latency of a fresh
    # process drifts by about 20% between runs minutes apart, more than the
    # bounds allow.  The traced run of every workload still measures the
    # command line, through the cli.* probes.
    "cli": Workload(
        name="cli",
        why=(
            "one qmforge.cli process per job over all ten subcommands, 1 in 10 malformed: has "
            "process start, import, argparse and JSON output; lacks long exponents and big balls"
        ),
        inputs=lambda seed: _cli_stream(seed, "timed"),
        warmup=lambda: [CliInput(("ball", "1", "--format", "json"), 0)],
        job=cli_job,
        check=cli_check,
        digest_line=cli_digest,
        oracle_fits=cli_oracle_fits,
        oracle=cli_oracle,
        digest_jobs=10,
        pass_end=lambda n: n % len(SUBCOMMANDS) == 0,
    ),
}
