"""Command-line front end.

Expressions are linear combinations of phi(word), #(word) and rot with
exact rational coefficients; words use the same compact syntax as word_str
(letters, ' or ^-1 for inverses, no whitespace).  Any # term switches the
whole expression to counting mode.

Exit codes: 0 success, 2 parse error, 3 contract violation (the offending
module is named), 4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from typing import Any, Callable, Optional

from .action import NielsenWord, act, n_representative_letters, n_representative_sum, wstar_n
from .counting import (
    BrooksSum,
    as_counting,
    brooks_sum,
    certified_reduced_length,
    count_term,
    counting_sum,
    evaluate,
    format_sum,
    is_unbalanced,
    norm,
    phi,
)
from .fixpoints import EvidenceKind, exclude_fixpoint
from .freegroup import (
    Alphabet,
    NielsenGen,
    Word,
    ball,
    ball_size,
    parse_word,
    substitute,
    word_str,
)
from .oracle import PASS, exact_identity_check, sup_on_ball
from .relations import RelationKind, eliminate_b_powers, extension_relation, normal_form
from .speed import rot, speed


class ExpressionError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"syntax error at position {position}: {message}")
        self.position = position


# One term and the sign or operator before it.  All parts after the sign are
# optional, so a match never fails or backtracks, and the first part missing
# or wrong names the error.  A word runs to the first ')'; `space` is its rest
# from the first whitespace on.  \s is str.isspace and \d the digits int() reads.
_TERM = re.compile(
    r"""\s*(?P<sign>[-+]?)\s*
    (?:(?P<num>\d+)(?:/(?P<den>\d*))?\s*(?P<star>\*?)\s*)?
    (?:(?P<head>phi|\#)\s*(?P<open>\(?)(?P<body>[^)\s]*)(?P<space>[^)]*)(?P<close>\)?)
      |(?P<rot>rot))?""",
    re.VERBOSE,
)


def _integer(m: re.Match[str], group: str) -> int:
    """The decimal integer in a group of m; one longer than the interpreter's
    integer string-conversion limit is a syntax error at its first digit."""
    try:
        return int(m[group])
    except ValueError as exc:
        limit = sys.get_int_max_str_digits()
        raise ExpressionError(
            f"integer of {len(m[group])} digits, over the limit of {limit}", m.start(group)
        ) from exc


def parse_expression(text: str, alphabet: Alphabet) -> BrooksSum:
    """Read expr := ['-'] term (('+'|'-') term)*, one term per _TERM match."""
    # Raw weights; brooks_sum re-orients and merges the phi keys once.  A # key
    # stays even at weight 0, so any # term switches the result to counting mode.
    brooks: dict[Word, Fraction] = {}
    counting: dict[Word, Fraction] = {}
    if not text.strip():
        raise ExpressionError("empty expression", len(text))
    pos = 0
    while True:
        m = _TERM.match(text, pos)
        at = m.start("sign")
        if at == len(text):
            break
        if pos and not m["sign"]:
            raise ExpressionError(f"expected '+' or '-', found {text[at]!r}", at)
        if pos == 0 and m["sign"] == "+":
            raise ExpressionError("expected 'phi', '#' or 'rot'", at)
        coef = Fraction(-1 if m["sign"] == "-" else 1)
        if m["num"]:
            if m["den"] == "":
                raise ExpressionError("expected an integer", m.start("den"))
            den = _integer(m, "den") if m["den"] else 1
            if den == 0:
                raise ExpressionError("zero denominator", m.start("den"))
            if not m["star"]:
                raise ExpressionError("expected '*' after coefficient", m.start("star"))
            coef *= Fraction(_integer(m, "num"), den)
        if m["rot"]:
            for v, c in rot(alphabet).weight.items():
                brooks[v] = brooks.get(v, Fraction(0)) + coef * c
        elif m["head"]:
            if not m["open"]:
                raise ExpressionError("expected '('", m.start("open"))
            if not m["close"]:
                raise ExpressionError("missing ')'", m.end("open"))
            if m["space"]:
                raise ExpressionError("whitespace inside word", m.start("space"))
            try:
                word = parse_word(m["body"], alphabet)
            except ValueError as exc:
                raise ExpressionError(str(exc), m.start("body")) from exc
            if not word:
                raise ExpressionError("the identity cannot carry weight", m.start("body"))
            into = brooks if m["head"] == "phi" else counting
            into[word] = into.get(word, Fraction(0)) + coef
        else:
            raise ExpressionError("expected 'phi', '#' or 'rot'", m.end())
        pos = m.end()
    f = brooks_sum(brooks)
    if counting:
        return counting_sum(counting) + as_counting(f)
    return f


# ---------------------------------------------------------------------------
# Output helpers


def _sum_json(f: BrooksSum) -> dict[str, Any]:
    return {
        "mode": f.mode.name.lower(),
        "terms": [
            {"word": word_str(v), "coefficient": str(f.weight[v])} for v in f.support()
        ],
    }


def _vector_json(vec: dict[int, Fraction]) -> dict[str, str]:
    return {word_str((i,)): str(c) for i, c in sorted(vec.items())}


def _vector_text(vec: dict[int, Fraction]) -> str:
    return ", ".join(f"{word_str((i,))}: {c}" for i, c in sorted(vec.items()))


def _module_of(exc: BaseException) -> str:
    """Deepest qmforge module on the traceback - the contract that fired."""
    name = "cli"
    tb = exc.__traceback__
    while tb is not None:
        mod = tb.tb_frame.f_globals.get("__name__", "")
        if mod.startswith("qmforge."):
            name = mod.split(".", 1)[1]
        tb = tb.tb_next
    return name


# ---------------------------------------------------------------------------
# Commands.  Each takes the namespace, the alphabet and its positionals that
# main reads (see _READERS), and returns (exit code, text, json payload).

_Result = tuple[int, str, Any]


def _cmd_eval(ns: argparse.Namespace, alphabet: Alphabet, f: BrooksSum, w: Word) -> _Result:
    value = evaluate(f, w)
    return 0, str(value), {"value": str(value)}


def _cmd_norm(ns: argparse.Namespace, alphabet: Alphabet, f: BrooksSum) -> _Result:
    n = norm(f)
    return 0, str(n), {"norm": n}


def _cmd_reduced(ns: argparse.Namespace, alphabet: Alphabet, f: BrooksSum) -> _Result:
    cert = certified_reduced_length(f, alphabet)
    text = f"{cert.status.value} {cert.value if cert.value is not None else '-'}"
    text += f" ({cert.certificate})"
    if cert.witness is not None:
        text += f", witness {word_str(cert.witness)}"
    payload = {
        "status": cert.status.value,
        "value": cert.value,
        "certificate": cert.certificate,
        "witness": word_str(cert.witness) if cert.witness is not None else None,
    }
    return 0, text, payload


# The most letters `nrep` may write, by the closed-form bound of
# n_representative_letters: phi(bab'a'b) at n = 100 (10,201 support words) comes to
# about 7.3 million, phi(ab) at n = 1,800 to 19.5 million (1.6 s, 47 MB).
NREP_LETTER_BUDGET = 20_000_000


def _cmd_nrep(ns: argparse.Namespace, alphabet: Alphabet, f: BrooksSum) -> _Result:
    g, _ = eliminate_b_powers(f, alphabet)
    letters = n_representative_letters(g, max(ns.n, 0), alphabet)  # n < 1 is refused below
    if letters > NREP_LETTER_BUDGET:
        raise ValueError(
            f"nrep would write up to {letters} letters (n = {ns.n}), over the budget "
            f"NREP_LETTER_BUDGET = {NREP_LETTER_BUDGET}; give a smaller n"
        )
    rep = n_representative_sum(g, ns.n, alphabet)
    return 0, format_sum(rep), {"n": ns.n, "representative": _sum_json(rep)}


def _cmd_normal_form(ns: argparse.Namespace, alphabet: Alphabet, f: BrooksSum) -> _Result:
    nf, trace = normal_form(f, alphabet)
    return 0, format_sum(nf), {"normal_form": _sum_json(nf), "steps": len(trace.steps)}


def _cmd_speed(ns: argparse.Namespace, alphabet: Alphabet, f: BrooksSum) -> _Result:
    rep = speed(f, alphabet)
    text = f"value {rep.value}"
    if rep.witness is not None:
        text += f", witness {word_str(rep.witness)}"
    payload = {
        "value": rep.value,
        "witness": word_str(rep.witness) if rep.witness is not None else None,
        "lambda": str(rep.rot_coefficient),
        "residue": _sum_json(rep.residue),
    }
    return 0, text, payload


def _cmd_act(
    ns: argparse.Namespace, alphabet: Alphabet, x: NielsenWord, f: BrooksSum
) -> _Result:
    g = act(x, f, alphabet)
    return 0, format_sum(g), {"result": _sum_json(g)}


def _cmd_exclude(ns: argparse.Namespace, alphabet: Alphabet, f: BrooksSum) -> _Result:
    wit = exclude_fixpoint(f, alphabet)
    xs = str(wit.X)
    payload: dict[str, Any] = {"X": xs, "kind": wit.kind.value}
    if wit.kind is EvidenceKind.POSITIVE_SPEED:
        assert wit.report is not None
        text = f"X = {xs}, speed {wit.report.value}"
        payload["speed"] = wit.report.value
        if wit.witness_word is not None:
            payload["witness_word"] = word_str(wit.witness_word)
    elif wit.kind is EvidenceKind.HOM_COEFFICIENT_CHANGE:
        assert wit.hom_before is not None and wit.hom_after is not None
        text = (
            f"X = {xs}, coefficients ({_vector_text(wit.hom_before)})"
            f" -> ({_vector_text(wit.hom_after)})"
        )
        payload["hom_before"] = _vector_json(wit.hom_before)
        payload["hom_after"] = _vector_json(wit.hom_after)
    else:
        text = f"X = {xs}, rot {wit.rot_before} -> {wit.rot_after}"
        payload["rot_before"] = str(wit.rot_before)
        payload["rot_after"] = str(wit.rot_after)
    return 0, text, payload


# The largest L that `ball L` accepts.  At rank 26 the answer then has about
# 1,700 digits, inside Python's 4,300-digit limit for printing an int, and it
# is refused before the power is computed.
BALL_RADIUS_LIMIT = 1000


def _cmd_ball(ns: argparse.Namespace, alphabet: Alphabet) -> _Result:
    if ns.radius_arg > BALL_RADIUS_LIMIT:
        raise ValueError(
            f"ball radius {ns.radius_arg} is over the limit BALL_RADIUS_LIMIT = "
            f"{BALL_RADIUS_LIMIT}; give a radius L <= {BALL_RADIUS_LIMIT}"
        )
    size = ball_size(alphabet.rank, ns.radius_arg)
    return 0, str(size), {"radius": ns.radius_arg, "size": size}


# ---------------------------------------------------------------------------
# verify suites.  Each takes the radius of the largest ball it may scan: its
# own default, lowered to --radius when that is given.


def _suite_counting(alphabet: Alphabet, radius: int) -> tuple[bool, str]:
    aba = parse_word("aba", alphabet)
    frozen = [("abaaa", 1), ("abaaab'b'b'b'aaba", 2), ("aaababa", 2)]
    for text, want in frozen:
        got = evaluate(count_term(aba), parse_word(text, alphabet))
        if got != want:
            return False, f"#aba({text}) = {got}, want {want}"
    for probe in ("aba", "ab", "ba'"):
        v0 = parse_word(probe, alphabet)
        for label, f in ((f"#{probe}", count_term(v0)), (f"phi({probe})", phi(v0))):
            # The right-hand side is f itself: the oracle counts it on its own.
            v = exact_identity_check(lambda u: evaluate(f, u), f, radius, alphabet)
            if v != PASS:
                return False, f"count mismatch for {label} at {word_str(v)}"
    return True, f"frozen values and scan agreement on ball {radius}"


def _suite_norm(alphabet: Alphabet, radius: int) -> tuple[bool, str]:
    w = lambda t: parse_word(t, alphabet)
    f = counting_sum({w("aa"): 5, w("ab"): -3, w("b"): 1})
    flag, _ = is_unbalanced(f, alphabet)
    if norm(f) != 2 or not flag:
        return False, "5#aa-3#ab+#b should be unbalanced of norm 2"
    # Balanced at every rank: a left brother y x of a top key x x carries
    # weight 0, but its right brother y y does not.
    g = counting_sum({(x, x): i + 1 for i, x in enumerate(alphabet.letters())})
    flag, witness = is_unbalanced(g, alphabet)
    if flag:
        return False, "the sum of i*#(xx) over the letters x should be balanced"
    return True, "unbalanced and balanced examples check out"


def _suite_relations(alphabet: Alphabet, radius: int) -> tuple[bool, str]:
    inner, outer = min(2, radius), radius
    for w in ball(alphabet, inner):
        if not w:
            continue
        l_w = extension_relation(RelationKind.LEFT, w, alphabet)
        r_w = extension_relation(RelationKind.RIGHT, w, alphabet)
        values = lambda v: (evaluate(l_w, v), evaluate(r_w, v))
        indicators = lambda v: (int(v[: len(w)] == w), int(len(v) >= len(w) and v[-len(w):] == w))
        v = exact_identity_check(values, indicators, outer, alphabet)
        if v != PASS:
            side = "l" if values(v)[0] != indicators(v)[0] else "r"
            return False, f"{side}_{word_str(w)} wrong at {word_str(v)}"
    return True, f"indicator identities on balls {inner}/{outer}"


def _suite_transport(alphabet: Alphabet, radius: int) -> tuple[bool, str]:
    probes = ("ba", "ab", "bab'", "b'a'b", "aba")
    t_images = {n: NielsenWord.from_gens((NielsenGen.T,) * n).images(alphabet) for n in (1, 2)}
    for text in probes:
        w = parse_word(text, alphabet)
        count_w = count_term(w)
        for n, images in t_images.items():
            table = counting_sum(wstar_n(w, n, alphabet))
            v = exact_identity_check(
                lambda u: evaluate(count_w, u),
                lambda v: evaluate(table, v),
                radius,
                alphabet,
                transform=lambda v: substitute(images, v, alphabet),
            )
            if v != PASS:
                return False, f"transport of #{text} fails at {word_str(v)}, n={n}"
    return True, f"W* transport exact for {len(probes)} words on ball {radius}"


def _suite_rot(alphabet: Alphabet, radius: int) -> tuple[bool, str]:
    r = rot(alphabet)
    moved = act(NielsenGen.TINV, r, alphabet)
    diff = moved - r
    radii = [L for L in (4, 5, 6) if L <= radius] or [radius]
    sups = [sup_on_ball(diff, L, alphabet).sup for L in radii]
    if len(set(sups)) != 1:
        shown = ", ".join(map(str, sups))
        return False, f"sup of act(Tinv, rot) - rot drifts: [{shown}] on radii {radii}"
    return True, f"sup constant ({sups[0]}) on radii {radii}"


# Each suite with the radius of the largest ball it scans by default (norm
# scans none; a ball of radius 0 is one word).
_SUITES: dict[str, tuple[int, Callable[[Alphabet, int], tuple[bool, str]]]] = {
    "counting": (5, _suite_counting),
    "norm": (0, _suite_norm),
    "relations": (5, _suite_relations),
    "transport": (5, _suite_transport),
    "rot": (6, _suite_rot),
}

# The most words one ball of a verify run may hold.  Rank 4 at radius 5
# (22,409 words) and rank 3 at radius 6 (23,437) fit; rank 4 at radius 6
# (156,865) and rank 5 at radius 5 (73,811) do not.
VERIFY_WORD_BUDGET = 25_000


def _cmd_verify(ns: argparse.Namespace, alphabet: Alphabet) -> _Result:
    names = list(_SUITES) if ns.suite == "all" else [ns.suite]
    radii = {name: _SUITES[name][0] for name in names}
    if ns.radius is not None:
        radii = {name: min(r, ns.radius) for name, r in radii.items()}
    reach = max(radii.values())
    words = ball_size(alphabet.rank, reach)
    if words > VERIFY_WORD_BUDGET:
        fit = max(r for r in range(reach) if ball_size(alphabet.rank, r) <= VERIFY_WORD_BUDGET)
        raise ValueError(
            f"verify would scan {words} words (rank {alphabet.rank}, radius {reach}), over "
            f"the budget VERIFY_WORD_BUDGET = {VERIFY_WORD_BUDGET}; pass --radius {fit} or less"
        )
    lines = []
    results = []
    ok_all = True
    for name in names:
        ok, detail = _SUITES[name][1](alphabet, radii[name])
        ok_all = ok_all and ok
        lines.append(f"{name}: {'PASS' if ok else 'FAIL'} - {detail}")
        results.append({"name": name, "ok": ok, "detail": detail})
    return (
        0 if ok_all else 4,
        "\n".join(lines),
        {"ok": ok_all, "suites": results},
    )


# ---------------------------------------------------------------------------
# Argument plumbing


# Each subcommand: its function, its help and the names of its arguments,
# positionals and --options.  The positionals named in _READERS reach the
# function parsed, in that order.
_COMMANDS: dict[str, tuple[Callable[..., _Result], str, tuple[str, ...]]] = {
    "eval": (_cmd_eval, "evaluate an expression on a word", ("expr", "word")),
    "norm": (_cmd_norm, "word-length norm of an expression", ("expr",)),
    "reduced": (_cmd_reduced, "certified reduced length report", ("expr",)),
    "nrep": (_cmd_nrep, "n-representative under T^-n", ("expr", "n")),
    "normal-form": (_cmd_normal_form, "rewrite to normal form", ("expr",)),
    "speed": (_cmd_speed, "speed of T^-1 on the class", ("expr",)),
    "act": (_cmd_act, "apply a Nielsen word (e.g. 'P1*H*Tinv')", ("xword", "expr")),
    "exclude-fixpoint": (_cmd_exclude, "a Nielsen word moving the class, with evidence", ("expr",)),
    "verify": (_cmd_verify, "run the oracle verification suites", ("suite", "--radius")),
    "ball": (_cmd_ball, "number of reduced words of length <= L", ("radius_arg",)),
}

# A bad Nielsen word or word is a usage error (exit 2); parse_expression
# positions its own, and its other ValueErrors are contracts (exit 3).
def _usage_errors(read: Callable[[str, Alphabet], Any]) -> Callable[[str, Alphabet], Any]:
    def reading(text: str, alphabet: Alphabet) -> Any:
        try:
            return read(text, alphabet)
        except ValueError as exc:
            raise ExpressionError(str(exc), 0) from exc

    return reading


# The positionals main parses, in this order: act reports a bad Nielsen word
# before a bad expression, and eval a bad expression before a bad word.
_READERS: dict[str, Callable[[str, Alphabet], Any]] = {
    "xword": _usage_errors(lambda text, alphabet: NielsenWord.parse(text)),
    "expr": parse_expression,
    "word": _usage_errors(parse_word),
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--rank", type=int, default=argparse.SUPPRESS,
                        help="rank of the free group (default 2, or QMFORGE_RANK)")
    common.add_argument("--format", choices=("text", "json"), default=argparse.SUPPRESS,
                        help="output format (default text)")

    parser = argparse.ArgumentParser(
        prog="qmforge",
        parents=[common],
        description="Exact computations in the space of Brooks counting quasimorphisms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    options: dict[str, dict[str, Any]] = {
        "n": {"type": int},
        "suite": {"nargs": "?", "choices": sorted(_SUITES) + ["all"], "default": "all"},
        "radius_arg": {"metavar": "L", "type": int},
        "--radius": {"type": int, "help": "cap on oracle ball radii"},
    }
    for name, (_, help_text, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=help_text)
        for arg in arguments:
            p.add_argument(arg, **options.get(arg, {}))
    return parser


def _resolve_alphabet(ns: argparse.Namespace) -> Alphabet:
    rank = getattr(ns, "rank", None)
    if rank is None:
        env = os.environ.get("QMFORGE_RANK", "2")
        try:
            rank = int(env)
        except ValueError:
            raise ExpressionError(f"QMFORGE_RANK is not an integer: {env!r}", 0)
    try:
        return Alphabet(rank)
    except ValueError as exc:
        raise ExpressionError(str(exc), 0) from exc


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        alphabet = _resolve_alphabet(ns)
        args = [read(getattr(ns, name), alphabet) for name, read in _READERS.items() if name in ns]
        rc, text, payload = _COMMANDS[ns.command][0](ns, alphabet, *args)
    except ExpressionError as exc:
        print(f"qmforge: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"qmforge: contract violation in {_module_of(exc)}: {exc}", file=sys.stderr)
        return 3
    if getattr(ns, "format", "text") == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(text)
    return rc


if __name__ == "__main__":
    sys.exit(main())
