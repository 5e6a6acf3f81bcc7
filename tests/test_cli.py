from __future__ import annotations

import json
from pathlib import Path

import pytest

from qmforge.cli import ExpressionError, main, parse_expression
from qmforge.counting import format_sum, phi
from qmforge.freegroup import Alphabet, parse_word

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


def test_contract_violation_exits_3(capsys):
    code, _, err = run(capsys, "normal-form", "#(ab)")
    assert code == 3
    assert err.strip() == "qmforge: contract violation in relations: normal form applies to Brooks sums"


def test_zero_class_fixpoint_exits_3(capsys):
    code, _, err = run(capsys, "exclude-fixpoint", "phi(ab) - phi(ab)")
    assert code == 3
    assert err.strip() == "qmforge: contract violation in fixpoints: the zero class is fixed by everything"


def test_bad_nrep_exponent_exits_3(capsys):
    code, _, err = run(capsys, "nrep", "phi(ab)", "0")
    assert code == 3
    assert err.strip() == "qmforge: contract violation in action: n must be >= 1"


def test_argparse_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_rank_flag_must_be_at_least_two(capsys):
    code, _, err = run(capsys, "norm", "phi(a)", "--rank", "1")
    assert code == 2 and "rank" in err


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
    [["verify", "rot", "--radius", "-1"], ["verify", "counting", "--radius", "-1"], ["ball", "-1"]],
    ids=["verify-rot", "verify-counting", "ball"],
)
def test_negative_radius_exits_3(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err.strip() == "qmforge: contract violation in freegroup: radius must be >= 0, got -1"


def test_verify_rot_honours_radius_zero(capsys):
    code, out, _ = run(capsys, "verify", "rot", "--radius", "0", "--format", "json")
    assert code == 0
    assert json.loads(out)["suites"][0]["detail"].endswith("on radii [0]")


def test_verify_json_shape(capsys):
    code, out, _ = run(capsys, "verify", "norm", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["suites"][0]["name"] == "norm"
