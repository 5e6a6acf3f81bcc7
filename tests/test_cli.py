from __future__ import annotations

import json
import random
import shlex
import sys
from pathlib import Path

import pytest

from qmforge import cli
from qmforge.action import act, n_representative_letters
from qmforge.cli import ExpressionError, main, parse_expression
from qmforge.counting import format_sum, phi
from qmforge.fixpoints import exclude_fixpoint
from qmforge.freegroup import Alphabet, ball, parse_word
from qmforge.relations import eliminate_b_powers
from qmforge.speed import rot

from _corpus import random_brooks_sum
from _optimized import run_optimized

GOLDEN = Path(__file__).parent / "golden"

AL = Alphabet(2)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- expression grammar ------------------------------------------------------------


def test_parse_expression_round_trips_format_sum():
    for text in ("phi(ab)", "-phi(ab) + 2*phi(ba')", "1/2*phi(aba) - phi(b)", "rot"):
        f = parse_expression(text, AL)
        assert parse_expression(format_sum(f), AL) == f


def test_parse_expression_counting_mode():
    f = parse_expression("5*#(aa) - 3*#(ab) + #(b)", AL)
    assert f.coefficient(parse_word("aa", AL)) == 5
    assert f.coefficient(parse_word("ab", AL)) == -3


def test_parse_expression_error_positions():
    with pytest.raises(ExpressionError) as exc:
        parse_expression("phi(a b)", AL)
    assert "position 5" in str(exc.value) and "whitespace" in str(exc.value)
    with pytest.raises(ExpressionError) as exc:
        parse_expression("phi(cab)", AL)
    assert "position 4" in str(exc.value) and "rank" in str(exc.value)
    with pytest.raises(ExpressionError) as exc:
        parse_expression("3phi(a)", AL)
    assert "position 1" in str(exc.value)


@pytest.mark.parametrize("rank", [2, 3])
def test_whitespace_between_tokens_reads_as_the_compact_form(rank):
    al = Alphabet(rank)
    x = "abc"[rank - 1]
    for spaced, compact in [
        (" - 1/2 * phi (ab) +\trot ", "-1/2*phi(ab)+rot"),
        ("#\t(ab)", "#(ab)"),
        (f"\t٣ * phi ({x}a')\n-\n2\t*\t#({x}) ", f"3*phi({x}a')-2*#({x})"),
    ]:
        assert parse_expression(spaced, al) == parse_expression(compact, al)


def test_parse_expression_mixed_modes_widen_to_counting():
    f = parse_expression("phi(ab) + #(b)", AL)
    from qmforge.counting import Mode

    assert f.mode is Mode.COUNTING


# -- frozen command outputs ---------------------------------------------------------


def test_eval_command(capsys):
    code, out, _ = run(capsys, "eval", "5*#(aa) - 3*#(ab) + #(b)", "aab")
    assert code == 0 and out.strip() == "3"


def test_norm_command(capsys):
    code, out, _ = run(capsys, "norm", "5*#(aa) - 3*#(ab) + #(b)")
    assert code == 0 and out.strip() == "2"


def test_reduced_command(capsys):
    code, out, _ = run(capsys, "reduced", "5*#(aa) - 3*#(ab) + #(b)")
    assert code == 0 and out.strip() == "EXACT 2 (unbalanced), witness aa"


def test_nrep_command(capsys):
    code, out, _ = run(capsys, "nrep", "phi(ba)", "3")
    assert code == 0 and out.strip() == "phi(aa) - phi(a'b') + phi(ab'a) + phi(ab'b'a)"


def test_normal_form_command(capsys):
    code, out, _ = run(capsys, "normal-form", "rot - phi(ab)")
    assert code == 0 and out.strip() == "phi(a'b')"


def test_speed_command(capsys):
    code, out, _ = run(capsys, "speed", "phi(bbbaaaaa)")
    assert code == 0 and out.strip() == "value 5, witness bbbaaaaa"


def test_act_command(capsys):
    code, out, _ = run(capsys, "act", "Tinv", "phi(b)")
    assert code == 0 and out.strip() == "phi(a) + phi(b)"


def test_exclude_fixpoint_positive_speed(capsys):
    code, out, _ = run(capsys, "exclude-fixpoint", "phi(abba')")
    assert code == 0 and out.strip() == "X = P1, speed 3"


def test_exclude_fixpoint_hom_change(capsys):
    code, out, _ = run(capsys, "exclude-fixpoint", "phi(b)")
    assert code == 0
    assert out.strip() == "X = Tinv, coefficients (a: 0, b: 1) -> (a: 1, b: 1)"


def test_exclude_fixpoint_rot_flip(capsys):
    code, out, _ = run(capsys, "exclude-fixpoint", "rot")
    assert code == 0 and out.strip() == "X = H, rot 1 -> -1"


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_the_x_exclude_fixpoint_prints_is_read_back_by_act(capsys, rank):
    """X = e included: act applies the printed X as the library applies wit.X."""
    al, flag = Alphabet(rank), f"--rank={rank}"
    rng = random.Random(1700 + rank)
    sums = [random_brooks_sum(rng, al, 4, 4) for _ in range(8)]
    printed = set()
    for f in [f for f in sums if f.weight] + [phi(parse_word("b", al)), rot(al)]:
        expr = format_sum(f)
        code, out, _ = run(capsys, "exclude-fixpoint", flag, "--format=json", "--", expr)
        assert code == 0
        x = json.loads(out)["X"]
        printed.add(x)
        code, out, _ = run(capsys, "act", flag, "--", x, expr)
        assert (code, out.strip()) == (0, format_sum(act(exclude_fixpoint(f, al).X, f, al))), x
    assert "e" in printed and len(printed) > 1, printed


def test_ball_command(capsys):
    code, out, _ = run(capsys, "ball", "5")
    assert code == 0 and out.strip() == "485"


# -- golden JSON --------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv,golden",
    [
        (("act", "Tinv", "phi(b)"), "act_tinv_phi_b.json"),
        (("speed", "phi(bbbaaaaa)"), "speed_big_fish.json"),
        (("exclude-fixpoint", "phi(abba')"), "exclude_fixpoint_abba.json"),
    ],
)
def test_json_output_matches_golden_bytes(capsys, argv, golden):
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


def test_json_output_is_valid_json(capsys):
    code, out, _ = run(capsys, "speed", "phi(bbbaaaaa)", "--format", "json")
    payload = json.loads(out)
    assert payload["value"] == 5
    assert payload["witness"] == "bbbaaaaa"
    assert payload["lambda"] == "0"
    assert payload["residue"]["mode"] == "brooks"


# -- exit codes and error channels ----------------------------------------------------


def test_syntax_error_exits_2(capsys):
    code, out, err = run(capsys, "eval", "phi(a b)", "ab")
    assert code == 2 and out == ""
    assert err.strip() == "qmforge: syntax error at position 5: whitespace inside word"


def test_rank_violation_exits_2(capsys):
    code, _, err = run(capsys, "norm", "phi(cab)")
    assert code == 2
    assert "position 4" in err and "letter 'c' exceeds rank 2" in err


def test_unknown_nielsen_generator_exits_2(capsys):
    code, _, err = run(capsys, "act", "Q", "phi(a)")
    assert code == 2
    assert err.strip() == "qmforge: syntax error at position 0: unknown Nielsen generator 'Q'"


@pytest.mark.parametrize("xword", ["*", "P1*", "*P1", "P1**H"])
def test_an_empty_nielsen_generator_exits_2(capsys, xword):
    code, out, err = run(capsys, "act", xword, "phi(ab)")
    assert code == 2 and out == ""
    assert err.strip() == f"qmforge: syntax error at position 0: empty Nielsen generator in {xword!r}"


@pytest.mark.parametrize("xword", ["P1 H", "P1*H Tinv"])
def test_whitespace_inside_a_nielsen_generator_exits_2(capsys, xword):
    """`P1 H` is one unknown generator, not P1*H."""
    part = xword.split("*")[-1]
    code, out, err = run(capsys, "act", xword, "phi(ab)")
    assert code == 2 and out == ""
    assert err.strip() == f"qmforge: syntax error at position 0: unknown Nielsen generator {part!r}"


def test_contract_violation_exits_3(capsys):
    code, _, err = run(capsys, "normal-form", "#(ab)")
    assert code == 3
    assert err.strip() == "qmforge: contract violation in counting: expected a Brooks sum, got a counting sum"


def test_zero_class_fixpoint_exits_3(capsys):
    code, _, err = run(capsys, "exclude-fixpoint", "phi(ab) - phi(ab)")
    assert code == 3
    assert err.strip() == "qmforge: contract violation in fixpoints: the zero class is fixed by everything"


def test_bad_nrep_exponent_exits_3(capsys):
    code, _, err = run(capsys, "nrep", "phi(ab)", "0")
    assert code == 3
    assert err.strip() == "qmforge: contract violation in action: n must be >= 1"


@pytest.mark.parametrize(
    "expr,n",
    [("phi(b)", "0"), ("phi(b)", "-5"), ("0*phi(ab)", "0")],
    ids=["b-0", "b-minus-5", "zero-0"],
)
def test_nrep_below_1_exits_3_for_b_and_for_the_zero_sum(capsys, expr, n):
    code, out, err = run(capsys, "nrep", expr, n)
    assert (code, out) == (3, "")
    assert err.strip() == "qmforge: contract violation in action: n must be >= 1"


DIGITS = sys.get_int_max_str_digits()


@pytest.mark.parametrize(
    "expr,env,position,message",
    [
        ("", None, 0, "empty expression"),
        ("phi(a) phi(b)", None, 7, "expected '+' or '-', found 'p'"),
        ("2*psi(a)", None, 2, "expected 'phi', '#' or 'rot'"),
        ("1/0*phi(a)", None, 2, "zero denominator"),
        ("1/*phi(a)", None, 2, "expected an integer"),
        ("phi a", None, 4, "expected '('"),
        ("phi(ab", None, 4, "missing ')'"),
        ("phi(a)", "two", 0, "QMFORGE_RANK is not an integer: 'two'"),
        ("3phi(a)", None, 1, "expected '*' after coefficient"),
        # a digit that int() cannot read is no coefficient; a decimal digit of any script is
        ("²*phi(a)", None, 0, "expected 'phi', '#' or 'rot'"),
        ("1/²*phi(a)", None, 2, "expected an integer"),
        ("٣*psi(a)", None, 2, "expected 'phi', '#' or 'rot'"),
        ("+phi(a)", None, 0, "expected 'phi', '#' or 'rot'"),
        ("phi(e)", None, 4, "the identity cannot carry weight"),
        ("#(e)", None, 2, "the identity cannot carry weight"),
        ("phi(aa')", None, 4, "the identity cannot carry weight"),
        # int() reads at most sys.get_int_max_str_digits() digits, a limit the reader keeps
        ("1" * 5000 + "*phi(a)", None, 0, f"integer of 5000 digits, over the limit of {DIGITS}"),
        ("1/" + "1" * 5000 + "*phi(a)", None, 2, f"integer of 5000 digits, over the limit of {DIGITS}"),
    ],
    ids=["empty", "no-operator", "no-term", "zero-den", "no-integer", "no-paren", "no-close",
         "env-rank", "no-star", "superscript", "superscript-den", "decimal-digit",
         "leading-plus", "phi-e", "count-e", "phi-aa'", "long-num", "long-den"],
)
def test_each_parse_error_exits_2_with_its_position(
    capsys, monkeypatch, expr, env, position, message
):
    if env is not None:
        monkeypatch.setenv("QMFORGE_RANK", env)
    code, out, err = run(capsys, "norm", expr)
    assert code == 2 and out == ""
    assert err == f"qmforge: syntax error at position {position}: {message}\n"


def test_an_empty_word_argument_exits_2(capsys):
    code, out, err = run(capsys, "eval", "phi(a)", "")
    assert code == 2 and out == ""
    assert err == (
        "qmforge: syntax error at position 0: empty word literal (use 'e' for the identity)\n"
    )


def test_argparse_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_rank_flag_must_be_at_least_two(capsys):
    code, _, err = run(capsys, "norm", "phi(a)", "--rank", "1")
    assert code == 2 and "rank" in err


@pytest.mark.parametrize(
    "flag, env, rank",
    [(["--rank", "1"], None, 1), (["--rank", "27"], None, 27), ([], "40", 40)],
    ids=["flag-1", "flag-27", "env-40"],
)
def test_rank_outside_the_alphabet_exits_2(capsys, monkeypatch, flag, env, rank):
    # both ends of the range are one usage error, from the flag or the environment
    if env is not None:
        monkeypatch.setenv("QMFORGE_RANK", env)
    code, _, err = run(capsys, "norm", "phi(a)", *flag)
    assert code == 2
    assert f"rank must be between 2 and 26, got {rank}" in err
    assert "contract violation" not in err


def test_rank_flag_enables_higher_letters(capsys):
    code, out, _ = run(capsys, "norm", "phi(cab)", "--rank", "3")
    assert code == 0 and out.strip() == "3"


def test_rank_env_variable_is_honored(capsys, monkeypatch):
    monkeypatch.setenv("QMFORGE_RANK", "3")
    code, out, _ = run(capsys, "norm", "phi(cab)")
    assert code == 0 and out.strip() == "3"
    # an explicit flag wins over the environment
    code, _, err = run(capsys, "norm", "phi(cab)", "--rank", "2")
    assert code == 2 and "rank" in err


def test_flag_position_is_flexible(capsys):
    # common flags parse both before and after the subcommand
    code1, out1, _ = run(capsys, "--format", "json", "ball", "3")
    code2, out2, _ = run(capsys, "ball", "3", "--format", "json")
    assert code1 == code2 == 0 and out1 == out2
    assert json.loads(out1) == {"radius": 3, "size": 53}


# -- verify ---------------------------------------------------------------------------


def test_verify_single_suite(capsys):
    code, out, _ = run(capsys, "verify", "counting")
    assert code == 0
    assert out.startswith("counting: PASS")


def test_verify_all_suites(capsys):
    code, out, _ = run(capsys, "verify", "--radius", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5
    assert all(": PASS - " in line for line in lines)


@pytest.mark.parametrize("rank", ["2", "3", "4"])
def test_verify_passes_at_ranks_2_to_4(capsys, rank):
    code, out, _ = run(capsys, "verify", "norm", "--rank", rank)
    assert code == 0, out
    # radius 3 keeps the ball scans of the rank-4 suites short
    code, out, _ = run(capsys, "verify", "all", "--rank", rank, "--radius", "3")
    assert code == 0, out
    assert out.count(": PASS - ") == 5


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "rot", "--radius", "-1"],
        ["verify", "counting", "--radius", "-1"],
        ["verify", "norm", "--radius", "-1"],
        ["ball", "-1"],
    ],
    ids=["verify-rot", "verify-counting", "verify-norm", "ball"],
)
def test_negative_radius_exits_3(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err.strip() == "qmforge: contract violation in freegroup: radius must be >= 0, got -1"


def test_verify_rot_honours_radius_zero(capsys):
    code, out, _ = run(capsys, "verify", "rot", "--radius", "0", "--format", "json")
    assert code == 0
    assert json.loads(out)["suites"][0]["detail"].endswith("on radii [0]")


@pytest.mark.parametrize(
    "argv",
    [["speed", "--radius", "3", "phi(ab)"], ["--radius", "4", "verify", "rot"], ["ball", "3", "--radius", "3"]],
    ids=["speed", "before-verify", "ball"],
)
def test_radius_is_an_option_of_verify_only(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2 and capsys.readouterr().out == ""
    code, out, _ = run(capsys, "verify", "rot", "--radius", "4")
    assert (code, out) == (0, "rot: PASS - sup constant (1) on radii [4]\n")


def test_verify_json_shape(capsys):
    code, out, _ = run(capsys, "verify", "norm", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["suites"][0]["name"] == "norm"


# -- budgets ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv,refusal",
    [
        (
            ["verify", "all", "--rank", "26"],
            "verify would scan 18300139313 words (rank 26, radius 6), over the budget "
            "VERIFY_WORD_BUDGET = 25000; pass --radius 2 or less",
        ),
        (
            ["ball", "10000"],
            "ball radius 10000 is over the limit BALL_RADIUS_LIMIT = 1000; "
            "give a radius L <= 1000",
        ),
        (
            ["ball", "1000000000"],
            "ball radius 1000000000 is over the limit BALL_RADIUS_LIMIT = 1000; "
            "give a radius L <= 1000",
        ),
    ],
    ids=["verify-rank-26", "ball-10000", "ball-1000000000"],
)
def test_requests_over_budget_exit_3_before_any_work(capsys, monkeypatch, argv, refusal):
    def refuse(*args, **kwargs):
        raise AssertionError(f"work started before the budget check: {args}")

    scans = ("ball", "sup_on_ball", "exact_identity_check")
    for name in scans + (("ball_size",) if argv[0] == "ball" else ()):
        monkeypatch.setattr(cli, name, refuse)
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err.strip() == f"qmforge: contract violation in cli: {refusal}"


def test_verify_budget_admits_rank_4_at_radius_5(capsys, monkeypatch):
    """The suites are stubbed: only the radii they would scan are recorded."""
    scanned = []
    for name, (reach, _) in list(cli._SUITES.items()):
        stub = lambda alphabet, radius, name=name: (scanned.append((name, radius)) or True, "")
        monkeypatch.setitem(cli._SUITES, name, (reach, stub))
    assert run(capsys, "verify", "all", "--rank", "4", "--radius", "5")[0] == 0
    assert scanned == [("counting", 5), ("norm", 0), ("relations", 5), ("transport", 5), ("rot", 5)]
    # default radii: rot scans radius 6, 23,437 words at rank 3 and 156,865 at rank 4
    assert run(capsys, "verify", "all", "--rank", "3")[0] == 0
    code, _, err = run(capsys, "verify", "all", "--rank", "4")
    assert code == 3 and err.strip().endswith("pass --radius 5 or less")
    assert run(capsys, "verify", "counting", "--rank", "4")[0] == 0


def test_nrep_over_its_letter_budget_exits_3_before_any_work(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError(f"work started before the budget check: {args}")

    monkeypatch.setattr(cli, "n_representative_sum", refuse)
    code, out, err = run(capsys, "nrep", "phi(ab)", "100000000")
    assert code == 3 and out == ""
    assert err.strip() == (
        "qmforge: contract violation in cli: nrep would write up to 60000001200000006 letters "
        "(n = 100000000), over the budget NREP_LETTER_BUDGET = 20000000; give a smaller n"
    )


def test_nrep_budget_admits_the_10201_key_square_and_the_bench_requests(capsys, monkeypatch):
    calls = []

    def record(g, n, alphabet):
        calls.append(n)
        return g

    monkeypatch.setattr(cli, "n_representative_sum", record)
    assert run(capsys, "nrep", "phi(bab'a'b)", "100")[0] == 0
    assert calls == [100]
    # The bench's cli requests: up to three terms of length <= 4 at rank <= 3, n <= 6.
    alphabet = Alphabet(3)
    worst = max(
        n_representative_letters(eliminate_b_powers(phi(v), alphabet)[0], 6, alphabet)
        for v in ball(alphabet, 4)
        if v
    )
    assert 3 * worst <= cli.NREP_LETTER_BUDGET


@pytest.mark.parametrize(
    "argv,letters",
    [
        (["normal-form", f"phi({'b' * 20_000}a{'b' * 20_000}) + phi(bab)"], 2399999994),
        (["act", "*".join(["Tinv", "P1"] * 20), "phi(ab)"], 3881224),
    ],
    ids=["box-20000", "tinv-p1-20"],
)
def test_rewrites_over_the_letter_budget_exit_3(capsys, argv, letters):
    """The box sum is refused at its first walk; (Tinv*P1)^20 at the T^-1
    pass of its eleventh pair, after about 0.9 million letters."""
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err.strip() == (
        f"qmforge: contract violation in relations: the rewrite would write up to {letters} "
        "letters, over the budget REWRITE_LETTER_BUDGET = 3000000"
    )


def test_ball_over_its_radius_limit_exits_3_under_python_O():
    proc = run_optimized("from qmforge.cli import main\nraise SystemExit(main(['ball', '10000']))\n")
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr.strip() == (
        "qmforge: contract violation in cli: ball radius 10000 is over the limit "
        "BALL_RADIUS_LIMIT = 1000; give a radius L <= 1000"
    )


# -- a failing verify suite ------------------------------------------------------------


@pytest.mark.parametrize(
    "suite,line",
    [
        ("counting", "counting: FAIL - count mismatch for #aba at ab"),
        ("relations", "relations: FAIL - l_a wrong at ab"),
        ("transport", "transport: FAIL - transport of #ba fails at a, n=1"),
    ],
    ids=["counting", "relations", "transport"],
)
def test_a_wrong_evaluate_fails_its_verify_suite_with_exit_4(capsys, monkeypatch, suite, line):
    """evaluate, off by one on ab, is caught at its first counterexample in ball order:
    ab itself, or a, whose image under T is ab."""
    real, ab = cli.evaluate, parse_word("ab", AL)
    monkeypatch.setattr(cli, "evaluate", lambda f, v: real(f, v) + (v == ab))
    code, out, _ = run(capsys, "verify", suite)
    assert code == 4 and out == line + "\n"
    code, out, _ = run(capsys, "verify", suite, "--format", "json")
    assert code == 4 and json.loads(out) == {
        "ok": False,
        "suites": [{"name": suite, "ok": False, "detail": line.split(": FAIL - ")[1]}],
    }


def _verify_fails_with(capsys, suite, line):
    code, out, _ = run(capsys, "verify", suite)
    assert code == 4 and out == line + "\n"


def test_a_wrong_brooks_evaluate_is_named_as_phi(capsys, monkeypatch):
    """Off by one on ab for Brooks sums only: #aba passes, and the FAIL line names phi(aba)."""
    from qmforge.counting import Mode

    real, ab = cli.evaluate, parse_word("ab", AL)
    wrong = lambda f, v: real(f, v) + (f.mode is Mode.BROOKS and v == ab)
    monkeypatch.setattr(cli, "evaluate", wrong)
    _verify_fails_with(capsys, "counting", "counting: FAIL - count mismatch for phi(aba) at ab")


def test_a_wrong_frozen_count_fails_the_counting_suite(capsys, monkeypatch):
    real, word = cli.evaluate, parse_word("abaaa", AL)
    monkeypatch.setattr(cli, "evaluate", lambda f, v: real(f, v) + (v == word))
    _verify_fails_with(capsys, "counting", "counting: FAIL - #aba(abaaa) = 2, want 1")


def test_a_wrong_unbalancedness_fails_the_norm_suite(capsys, monkeypatch):
    monkeypatch.setattr(cli, "is_unbalanced", lambda f, alphabet: (False, None))
    _verify_fails_with(capsys, "norm", "norm: FAIL - 5#aa-3#ab+#b should be unbalanced of norm 2")


def test_a_drifting_rot_sup_is_printed_as_numbers(capsys, monkeypatch):
    """act off by phi(ab) makes the sup of act(Tinv, rot) - rot grow; the FAIL
    line lists the sups as numbers, not as Fraction reprs."""
    real, extra = cli.act, phi(parse_word("ab", AL))
    monkeypatch.setattr(cli, "act", lambda x, f, alphabet: real(x, f, alphabet) + extra)
    line = "rot: FAIL - sup of act(Tinv, rot) - rot drifts: [2, 3, 3] on radii [4, 5, 6]"
    _verify_fails_with(capsys, "rot", line)


# -- README -----------------------------------------------------------------------------


def _readme_examples():
    """(argv, output) for each `$ qmforge ...` line of README's CLI section."""
    section = (Path(__file__).parent.parent / "README.md").read_text().split("## CLI", 1)[1]
    section = section.split("\n## ", 1)[0]
    examples = []
    for block in section.split("```")[1::2]:
        for chunk in block.split("$ qmforge ")[1:]:
            command, _, output = chunk.partition("\n")
            examples.append(pytest.param(shlex.split(command), output, id=command))
    return examples


def test_readme_has_the_cli_examples():
    commands = [example.values[0][0] for example in _readme_examples()]
    assert commands == [
        "eval", "norm", "reduced", "normal-form", "speed", "act",
        "exclude-fixpoint", "nrep", "ball", "verify",
    ]


@pytest.mark.parametrize("argv,output", _readme_examples())
def test_readme_cli_examples_print_what_they_show(capsys, monkeypatch, argv, output):
    monkeypatch.delenv("QMFORGE_RANK", raising=False)
    assert run(capsys, *argv) == (0, output, "")
