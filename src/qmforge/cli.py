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
import sys
from fractions import Fraction
from typing import Any, Callable, Optional

from .action import NielsenWord, act, n_representative_sum, wstar_n
from .counting import (
    BrooksSum,
    as_counting,
    brooks_sum,
    certified_reduced_length,
    count_subword,
    counting_sum,
    evaluate,
    format_sum,
    is_unbalanced,
    norm,
)
from .fixpoints import EvidenceKind, exclude_fixpoint
from .freegroup import (
    Alphabet,
    NielsenGen,
    Word,
    apply_nielsen,
    ball,
    ball_size,
    parse_word,
    word_str,
)
from .oracle import count_subword_scan, sup_on_ball
from .relations import eliminate_b_powers, normal_form
from .speed import rot, speed


class ExpressionError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"syntax error at position {position}: {message}")
        self.position = position


class _ExprParser:
    """Recursive-descent parser for expr := term (('+'|'-') term)*."""

    def __init__(self, text: str, alphabet: Alphabet):
        self.text = text
        self.i = 0
        self.alphabet = alphabet

    def fail(self, message: str, position: Optional[int] = None) -> None:
        raise ExpressionError(message, self.i if position is None else position)

    def _ws(self) -> None:
        while self.i < len(self.text) and self.text[self.i].isspace():
            self.i += 1

    def _peek(self) -> str:
        return self.text[self.i] if self.i < len(self.text) else ""

    def parse(self) -> BrooksSum:
        terms: list[tuple[Fraction, str, Optional[Word]]] = []
        self._ws()
        if not self._peek():
            self.fail("empty expression")
        sign = 1
        if self._peek() == "-":
            sign, self.i = -1, self.i + 1
        while True:
            coef, kind, word = self._term()
            terms.append((sign * coef, kind, word))
            self._ws()
            if self.i >= len(self.text):
                break
            ch = self._peek()
            if ch not in "+-":
                self.fail(f"expected '+' or '-', found {ch!r}")
            sign, self.i = (1 if ch == "+" else -1), self.i + 1

        # Raw weights, summed term by term; brooks_sum re-orients and
        # merges the phi keys once.  A # key stays even at weight 0, so any
        # # term switches the result to counting mode.
        brooks: dict[Word, Fraction] = {}
        counting: dict[Word, Fraction] = {}
        for coef, kind, word in terms:
            if kind == "rot":
                for v, c in rot(self.alphabet).weight.items():
                    brooks[v] = brooks.get(v, Fraction(0)) + coef * c
            else:
                assert word is not None
                into = brooks if kind == "phi" else counting
                into[word] = into.get(word, Fraction(0)) + coef
        f = brooks_sum(brooks)
        if counting:
            return counting_sum(counting) + as_counting(f)
        return f

    def _term(self) -> tuple[Fraction, str, Optional[Word]]:
        self._ws()
        coef = Fraction(1)
        if self._peek().isdigit():
            coef = self._rational()
            self._ws()
            if self._peek() != "*":
                self.fail("expected '*' after coefficient")
            self.i += 1
            self._ws()
        if self.text.startswith("phi", self.i):
            self.i += 3
            return coef, "phi", self._word()
        if self._peek() == "#":
            self.i += 1
            return coef, "count", self._word()
        if self.text.startswith("rot", self.i):
            self.i += 3
            return coef, "rot", None
        self.fail("expected 'phi', '#' or 'rot'")
        raise AssertionError  # unreachable

    def _rational(self) -> Fraction:
        num = self._int()
        if self._peek() == "/":
            self.i += 1
            at = self.i
            den = self._int()
            if den == 0:
                self.fail("zero denominator", at)
            return Fraction(num, den)
        return Fraction(num)

    def _int(self) -> int:
        start = self.i
        while self._peek().isdigit():
            self.i += 1
        if self.i == start:
            self.fail("expected an integer")
        return int(self.text[start : self.i])

    def _word(self) -> Word:
        self._ws()
        if self._peek() != "(":
            self.fail("expected '('")
        self.i += 1
        close = self.text.find(")", self.i)
        if close < 0:
            self.fail("missing ')'")
        chunk = self.text[self.i : close]
        for off, ch in enumerate(chunk):
            if ch.isspace():
                self.fail("whitespace inside word", self.i + off)
        start = self.i
        try:
            word = parse_word(chunk, self.alphabet)
        except ValueError as exc:
            raise ExpressionError(str(exc), start) from exc
        self.i = close + 1
        return word


def parse_expression(text: str, alphabet: Alphabet) -> BrooksSum:
    return _ExprParser(text, alphabet).parse()


# ---------------------------------------------------------------------------
# Output helpers


def _letter_name(i: int) -> str:
    return chr(ord("a") + i - 1)


def _sum_json(f: BrooksSum) -> dict[str, Any]:
    return {
        "mode": f.mode.name.lower(),
        "terms": [
            {"word": word_str(v), "coefficient": str(f.weight[v])} for v in f.support()
        ],
    }


def _vector_json(vec: dict[int, Fraction]) -> dict[str, str]:
    return {_letter_name(i): str(c) for i, c in sorted(vec.items())}


def _vector_text(vec: dict[int, Fraction]) -> str:
    return ", ".join(f"{_letter_name(i)}: {c}" for i, c in sorted(vec.items()))


def _nielsen_str(x: NielsenWord) -> str:
    return "*".join(g.value for g in x.gens) if x.gens else "e"


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
# Commands.  Each returns (exit code, text, json payload).


def _cmd_eval(ns: argparse.Namespace, alphabet: Alphabet) -> tuple[int, str, Any]:
    f = parse_expression(ns.expr, alphabet)
    w = _parse_word_arg(ns.word, alphabet)
    value = evaluate(f, w)
    return 0, str(value), {"value": str(value)}


def _cmd_norm(ns: argparse.Namespace, alphabet: Alphabet) -> tuple[int, str, Any]:
    f = parse_expression(ns.expr, alphabet)
    n = norm(f)
    return 0, str(n), {"norm": n}


def _cmd_reduced(ns: argparse.Namespace, alphabet: Alphabet) -> tuple[int, str, Any]:
    f = parse_expression(ns.expr, alphabet)
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


def _cmd_nrep(ns: argparse.Namespace, alphabet: Alphabet) -> tuple[int, str, Any]:
    f = parse_expression(ns.expr, alphabet)
    g, _ = eliminate_b_powers(f, alphabet)
    rep = n_representative_sum(g, ns.n, alphabet)
    return 0, format_sum(rep), {"n": ns.n, "representative": _sum_json(rep)}


def _cmd_normal_form(ns: argparse.Namespace, alphabet: Alphabet) -> tuple[int, str, Any]:
    f = parse_expression(ns.expr, alphabet)
    nf, trace = normal_form(f, alphabet)
    return 0, format_sum(nf), {"normal_form": _sum_json(nf), "steps": len(trace.steps)}


def _cmd_speed(ns: argparse.Namespace, alphabet: Alphabet) -> tuple[int, str, Any]:
    f = parse_expression(ns.expr, alphabet)
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


def _cmd_act(ns: argparse.Namespace, alphabet: Alphabet) -> tuple[int, str, Any]:
    try:
        x = NielsenWord.parse(ns.xword)
    except ValueError as exc:
        raise ExpressionError(str(exc), 0) from exc
    f = parse_expression(ns.expr, alphabet)
    g = act(x, f, alphabet)
    return 0, format_sum(g), {"result": _sum_json(g)}


def _cmd_exclude(ns: argparse.Namespace, alphabet: Alphabet) -> tuple[int, str, Any]:
    f = parse_expression(ns.expr, alphabet)
    wit = exclude_fixpoint(f, alphabet)
    xs = _nielsen_str(wit.X)
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


def _cmd_ball(ns: argparse.Namespace, alphabet: Alphabet) -> tuple[int, str, Any]:
    size = ball_size(alphabet.rank, ns.radius_arg)
    return 0, str(size), {"radius": ns.radius_arg, "size": size}


# ---------------------------------------------------------------------------
# verify suites


def _suite_counting(alphabet: Alphabet, cap: Optional[int]) -> tuple[bool, str]:
    aba = parse_word("aba", alphabet)
    frozen = [("abaaa", 1), ("abaaab'b'b'b'aaba", 2), ("aaababa", 2)]
    for text, want in frozen:
        got = count_subword(aba, parse_word(text, alphabet))
        if got != want:
            return False, f"#aba({text}) = {got}, want {want}"
    radius = min(5, cap) if cap is not None else 5
    for probe in ("aba", "ab", "ba'"):
        v0 = parse_word(probe, alphabet)
        for v in ball(alphabet, radius):
            if count_subword(v0, v) != count_subword_scan(v0, v):
                return False, f"count mismatch for #{probe} at {word_str(v)}"
    return True, f"frozen values and scan agreement on ball {radius}"


def _suite_norm(alphabet: Alphabet, cap: Optional[int]) -> tuple[bool, str]:
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


def _suite_relations(alphabet: Alphabet, cap: Optional[int]) -> tuple[bool, str]:
    from .relations import RelationKind, extension_relation

    inner = min(2, cap) if cap is not None else 2
    outer = min(5, cap) if cap is not None else 5
    for w in ball(alphabet, inner):
        if not w:
            continue
        l_w = extension_relation(RelationKind.LEFT, w, alphabet)
        r_w = extension_relation(RelationKind.RIGHT, w, alphabet)
        for v in ball(alphabet, outer):
            if evaluate(l_w, v) != int(v[: len(w)] == w):
                return False, f"l_{word_str(w)} wrong at {word_str(v)}"
            if evaluate(r_w, v) != int(len(v) >= len(w) and v[-len(w):] == w):
                return False, f"r_{word_str(w)} wrong at {word_str(v)}"
    return True, f"indicator identities on balls {inner}/{outer}"


def _suite_transport(alphabet: Alphabet, cap: Optional[int]) -> tuple[bool, str]:
    radius = min(5, cap) if cap is not None else 5
    probes = ("ba", "ab", "bab'", "b'a'b", "aba")
    for text in probes:
        w = parse_word(text, alphabet)
        for n in (1, 2):
            table = wstar_n(w, n, alphabet)
            for v in ball(alphabet, radius):
                tv = v
                for _ in range(n):
                    tv = apply_nielsen(NielsenGen.T, tv, alphabet)
                want = count_subword(w, tv)
                got = sum(c * count_subword(u, v) for u, c in table.items())
                if want != got:
                    return False, f"transport of #{text} fails at {word_str(v)}, n={n}"
    return True, f"W* transport exact for {len(probes)} words on ball {radius}"


def _suite_rot(alphabet: Alphabet, cap: Optional[int]) -> tuple[bool, str]:
    r = rot(alphabet)
    moved = act(NielsenGen.TINV, r, alphabet)
    diff = moved - r
    radii = [L for L in (4, 5, 6) if cap is None or L <= cap] or [cap]
    sups = [sup_on_ball(diff, L, alphabet).sup for L in radii]
    if len(set(sups)) != 1:
        return False, f"sup of act(Tinv, rot) - rot drifts: {sups} on radii {radii}"
    return True, f"sup constant ({sups[0]}) on radii {radii}"


_SUITES: dict[str, Callable[[Alphabet, Optional[int]], tuple[bool, str]]] = {
    "counting": _suite_counting,
    "norm": _suite_norm,
    "relations": _suite_relations,
    "transport": _suite_transport,
    "rot": _suite_rot,
}


def _cmd_verify(ns: argparse.Namespace, alphabet: Alphabet) -> tuple[int, str, Any]:
    names = list(_SUITES) if ns.suite in (None, "all") else [ns.suite]
    cap = getattr(ns, "radius", None)
    lines = []
    results = []
    ok_all = True
    for name in names:
        ok, detail = _SUITES[name](alphabet, cap)
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


def _parse_word_arg(text: str, alphabet: Alphabet) -> Word:
    try:
        return parse_word(text, alphabet)
    except ValueError as exc:
        raise ExpressionError(str(exc), 0) from exc


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--rank", type=int, default=argparse.SUPPRESS,
                        help="rank of the free group (default 2, or QMFORGE_RANK)")
    common.add_argument("--radius", type=int, default=argparse.SUPPRESS,
                        help="cap on oracle ball radii")
    common.add_argument("--format", choices=("text", "json"), default=argparse.SUPPRESS,
                        help="output format (default text)")

    parser = argparse.ArgumentParser(
        prog="qmforge",
        parents=[common],
        description="Exact computations in the space of Brooks counting quasimorphisms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name: str, help_text: str) -> argparse.ArgumentParser:
        return sub.add_parser(name, parents=[common], help=help_text)

    p = cmd("eval", "evaluate an expression on a word")
    p.add_argument("expr")
    p.add_argument("word")
    p = cmd("norm", "word-length norm of an expression")
    p.add_argument("expr")
    p = cmd("reduced", "certified reduced length report")
    p.add_argument("expr")
    p = cmd("nrep", "n-representative under T^-n")
    p.add_argument("expr")
    p.add_argument("n", type=int)
    p = cmd("normal-form", "rewrite to normal form")
    p.add_argument("expr")
    p = cmd("speed", "speed of T^-1 on the class")
    p.add_argument("expr")
    p = cmd("act", "apply a Nielsen word (e.g. 'P1*H*Tinv')")
    p.add_argument("xword")
    p.add_argument("expr")
    p = cmd("exclude-fixpoint", "a Nielsen word moving the class, with evidence")
    p.add_argument("expr")
    p = cmd("verify", "run the oracle verification suites")
    p.add_argument("suite", nargs="?", choices=sorted(_SUITES) + ["all"], default="all")
    p = cmd("ball", "number of reduced words of length <= L")
    p.add_argument("radius_arg", metavar="L", type=int)

    return parser


_COMMANDS: dict[str, Callable[[argparse.Namespace, Alphabet], tuple[int, str, Any]]] = {
    "eval": _cmd_eval,
    "norm": _cmd_norm,
    "reduced": _cmd_reduced,
    "nrep": _cmd_nrep,
    "normal-form": _cmd_normal_form,
    "speed": _cmd_speed,
    "act": _cmd_act,
    "exclude-fixpoint": _cmd_exclude,
    "verify": _cmd_verify,
    "ball": _cmd_ball,
}


def _resolve_rank(ns: argparse.Namespace) -> int:
    rank = getattr(ns, "rank", None)
    if rank is None:
        env = os.environ.get("QMFORGE_RANK")
        if env is not None:
            try:
                rank = int(env)
            except ValueError:
                raise ExpressionError(f"QMFORGE_RANK is not an integer: {env!r}", 0)
        else:
            rank = 2
    if rank < 2:
        raise ExpressionError(f"rank must be at least 2, got {rank}", 0)
    return rank


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        alphabet = Alphabet(_resolve_rank(ns))
        rc, text, payload = _COMMANDS[ns.command](ns, alphabet)
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
