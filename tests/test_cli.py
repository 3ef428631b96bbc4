import ast
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import hochkit
from hochkit import fixtures
from hochkit.cli import _module_over, load_algebra, run
from hochkit.errors import MAX_COORDINATES, AlgebraMismatch, DegreeCapExceeded, ParseError
from hochkit.hochschild import MAX_DEGREE
from hochkit.linalg import SparseMatrix
from hochkit.modules import balanced_tensor
from hochkit.mukai import CheckReport
from hochkit.scalars import MAX_NESTING, cyc, parse_scalar
from hochkit.specfiles import (
    parse_algebra_file, parse_int, parse_module_file, read_spec_file, split_items,
)
from hochkit.tqft import MAX_WORD_STEPS


Z2_ALGEBRA_TEXT = """
# the group algebra of Z/2, by hand
dim = 2
field_order = 2
label 0 = e
label 1 = s
unit = [1, 0]
mult 0 0 = [0:1]
mult 0 1 = [1:1]
mult 1 0 = [1:1]
mult 1 1 = [0:1]
frobenius = [1, 0]
"""

SIGN_MODULE_TEXT = """
algebra = zn:2
dim = 1
action 0 = [[1]]
action 1 = [[-1]]
"""


def test_parse_algebra_file():
    a = parse_algebra_file(Z2_ALGEBRA_TEXT)
    assert a.dim == 2 and a.field_order == 2
    assert a.labels == ("e", "s")
    assert a.serre is not None


def test_parse_algebra_file_rejects_bad_scalar():
    with pytest.raises(ParseError) as exc:
        parse_algebra_file(Z2_ALGEBRA_TEXT.replace("[0:1]", "[0:z3^]", 1))
    assert exc.value.line >= 1


def test_parse_module_file():
    m = parse_module_file(SIGN_MODULE_TEXT, load_algebra)
    assert m.dim == 1
    from hochkit.modules import hom_space, simples_of
    sign = simples_of(load_algebra("zn:2"))[1]
    assert hom_space(sign, m).dim == 1


def test_parse_module_file_rejects_non_module():
    bad = SIGN_MODULE_TEXT.replace("[[-1]]", "[[2]]")
    from hochkit.errors import ModuleDefect
    with pytest.raises(ModuleDefect):
        parse_module_file(bad, load_algebra)


def test_module_file_wrong_only_off_the_generators_is_rejected():
    # validation checks (generator, basis) pairs; a defect at an element that
    # is neither a generator nor the unit must still surface
    s3 = load_algebra("s3")
    gens = {g.index(1) for g in s3.gens}
    bad = next(i for i in range(s3.dim) if i not in gens and not s3.unit[i])
    text = "algebra = s3\ndim = 1\n" + "".join(
        f"action {i} = [[{-1 if i == bad else 1}]]\n" for i in range(s3.dim))
    from hochkit.errors import ModuleDefect
    parse_module_file(text.replace("[[-1]]", "[[1]]"), load_algebra)  # trivial: fine
    with pytest.raises(ModuleDefect):
        parse_module_file(text, load_algebra)


@pytest.mark.parametrize("module", ["simple:x", "sum:a", "sum:0,9", "sum:-1"])
def test_bad_simple_index_is_usage_error(module, capsys):
    assert run(["chern", "s3", module]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("kind, line, bad", [
    ("alg", "dim = 2", "dim = x"),
    ("alg", "field_order = 2", "field_order = q"),
    ("alg", "field_order = 2", "field_order = 0"),
    ("alg", "label 0 = e", "label x = a"),
    ("alg", "mult 0 1 = [1:1]", "mult 0 x = [1:1]"),
    ("mod", "dim = 1", "dim = y"),
    ("mod", "action 1 = [[-1]]", "action z = [[1]]"),
])
def test_malformed_integer_in_spec_file_is_usage_error(kind, line, bad, tmp_path, capsys):
    text = Z2_ALGEBRA_TEXT if kind == "alg" else SIGN_MODULE_TEXT
    assert line in text
    path = tmp_path / f"bad.{kind}"
    path.write_text(text.replace(line, bad))
    argv = ["validate", str(path)] if kind == "alg" else ["chern", "zn:2", str(path)]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


@pytest.mark.parametrize("command", [["validate"], ["center"], ["hh"], ["hh", "--cohomology"],
                                     ["hh", "--unnormalized"]],
                         ids=["validate", "center", "hh", "cohomology", "unnormalized"])
@pytest.mark.parametrize("dim", [0, -2])
def test_algebra_file_without_a_basis_is_usage_error(command, dim, tmp_path, capsys):
    path = tmp_path / "empty.alg"
    path.write_text(f"# no basis\ndim = {dim}\nunit = []\n")
    assert run([*command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: dim must be at least 1, got {dim} (line 2)")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["chern", "iota"])
@pytest.mark.parametrize("dim", [0, -1])
def test_module_file_without_a_basis_is_usage_error(command, dim, tmp_path, capsys):
    path = tmp_path / "empty.mod"
    path.write_text(f"algebra = zn:2\ndim = {dim}\naction 0 = [[1]]\naction 1 = [[-1]]\n")
    assert run([command, "zn:2", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: dim must be at least 1, got {dim} (line 2)")
    assert "Traceback" not in err


@pytest.mark.parametrize("kind, command, line, edited, refused", [
    ("alg", "center", "mult 1 1 = [0:1]", "mult 1 1 = [0:1, 0:5]", "repeated index 0 (line 11)"),
    ("alg", "hh", "frobenius = [1, 0]", "frobenius = [1, 0]\nmult 1 1 = [0:1]",
     "repeated key 'mult 1 1' (line 13)"),
    ("alg", "validate", "frobenius = [1, 0]", "frobenius = [1, 0]\nlabel 01 = t",
     "repeated key 'label 1' (line 13)"),
    ("alg", "validate", "frobenius = [1, 0]", "frobenius = [1, 0]\ndim = 2",
     "repeated key 'dim' (line 13)"),
    ("alg", "validate", "frobenius = [1, 0]", "frobenius = [1, 0]\nunit = [1, 0]",
     "repeated key 'unit' (line 13)"),
    ("alg", "validate", "frobenius = [1, 0]", "frobenius = [1, 0]\nfield_order = 2",
     "repeated key 'field_order' (line 13)"),
    ("alg", "validate", "frobenius = [1, 0]", "frobenius = [1, 0]\nfrobenius = [1, 0]",
     "repeated key 'frobenius' (line 13)"),
    ("alg", "validate", "frobenius = [1, 0]", "frobenius = [1, 0]\nlabel 2 = t",
     "label index 2 out of range 0..1 (line 13)"),
    ("mod", "chern", "action 1 = [[-1]]", "action 1 = [[-1]]\naction 1 = [[1]]",
     "repeated key 'action 1' (line 6)"),
    ("mod", "iota", "action 1 = [[-1]]", "action 1 = [[-1]]\nalgebra = zn:2",
     "repeated key 'algebra' (line 6)"),
], ids=["sparse-index", "mult", "label", "dim", "unit", "field-order", "frobenius",
        "label-range", "action", "algebra"])
def test_repeated_key_in_spec_file_is_usage_error(kind, command, line, edited, refused,
                                                  tmp_path, capsys):
    # a repeat used to replace what came before it, without a word
    text = Z2_ALGEBRA_TEXT if kind == "alg" else SIGN_MODULE_TEXT
    assert line in text
    path = tmp_path / f"repeat.{kind}"
    path.write_text(text.replace(line, edited))
    assert run([command, str(path)] if kind == "alg" else [command, "zn:2", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {refused}") and "Traceback" not in err


@pytest.mark.parametrize("kind, line, edited", [
    ("alg", "dim = 2", "dim 7 = 2"),
    ("alg", "field_order = 2", "field_order x = 1"),
    ("alg", "unit = [1, 0]", "unit junk = [1, 0]"),
    ("alg", "frobenius = [1, 0]", "frobenius junk = [1, 0]"),
    ("mod", "algebra = zn:2", "algebra junk = zn:2"),
    ("mod", "dim = 1", "dim junk = 1"),
], ids=["dim", "field-order", "unit", "frobenius", "algebra", "module-dim"])
def test_extra_words_after_a_one_word_key_are_usage_errors(kind, line, edited,
                                                           tmp_path, capsys):
    # the extra words used to be dropped, and `dim 7 = 2` read as `dim = 2`
    text = Z2_ALGEBRA_TEXT if kind == "alg" else SIGN_MODULE_TEXT
    lineno = text.splitlines().index(line) + 1
    path = tmp_path / f"extra.{kind}"
    path.write_text(text.replace(line, edited))
    assert run(["validate", str(path)] if kind == "alg" else ["chern", "zn:2", str(path)]) == 2
    key = edited.partition("=")[0].strip()
    err = capsys.readouterr().err
    assert err.startswith(f"error: expected '{key.split()[0]} = ...', got {key!r} "
                          f"(line {lineno})")
    assert "Traceback" not in err


def test_module_file_algebra_that_does_not_resolve_names_its_line(tmp_path, capsys):
    path = tmp_path / "lost.mod"
    path.write_text(SIGN_MODULE_TEXT.replace("algebra = zn:2", "algebra = nosuch"))
    assert run(["chern", "zn:2", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad algebra 'nosuch': unknown algebra fixture 'nosuch' "
                          "(line 2)")
    assert "Traceback" not in err


@pytest.mark.parametrize("word, refused", [
    ("genus:-1", "genus must be at least 0, got -1"),
    ("genus:x", "bad genus 'x'"),
    ("cap_in@x cap_out", "bad position 'x' (col 1)"),
    ("cap_in cap_in@-1 pants_merge cap_out", "position must be at least 0, got -1 (col 8)"),
    ("", "empty cobordism word"),
    ("   ", "empty cobordism word"),
])
def test_word_integers_are_read_by_the_shared_reader(word, refused, capsys):
    assert run(["tqft", "zn:2", "--word", word]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {refused}") and "Traceback" not in err


def test_every_suite_takes_report_rng_and_names():
    import inspect
    from hochkit import cli
    for name, suite in cli.SUITES.items():
        assert suite is getattr(cli, f"suite_{name}")
        assert list(inspect.signature(suite).parameters) == ["report", "rng", "names"]


def test_label_may_come_before_dim():
    a = parse_algebra_file("label 1 = s\n" + Z2_ALGEBRA_TEXT.replace("label 1 = s\n", ""))
    assert a.labels == ("e", "s")


SHARED_READER_REFUSALS = [
    ["pairing", "zn:2", "[1,,0]", "[1,0]"],
    ["pairing", "zn:2", "[1,0,]", "[1,0]"],
    ["iota", "zn:3", "chi1", "--endo", "[[2,]]"],
    ["chern", "s3", "sum:0,,1"],
    ["validate", "{unit = [1,,0]}"],
    ["validate", "{= 3}"],
    ["hh", "tensor(zn:2,zn:2,zn:3)"],
    ["pushforward", "outer(zn:2#chi1,s3#std,zn:3#chi0)", "[1,0]"],
]


@pytest.mark.parametrize("argv", SHARED_READER_REFUSALS,
                         ids=["double-comma", "trailing-comma", "endo", "sum", "unit",
                              "keyless-line", "tensor", "outer"])
def test_empty_or_extra_items_are_usage_errors(argv, tmp_path, capsys):
    # "{line}" stands for an algebra file holding that line; the first five
    # inputs once read as if the empty item were not there
    for i, arg in enumerate(argv):
        if arg.startswith("{"):
            path = tmp_path / "bad.alg"
            path.write_text(Z2_ALGEBRA_TEXT.replace("unit = [1, 0]", arg[1:-1]))
            argv = [*argv[:i], str(path), *argv[i + 1:]]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_shared_readers():
    assert split_items(" a, (b,c) ,[d, e]") == ["a", "(b,c)", "[d, e]"]
    assert split_items("  ") == []
    with pytest.raises(ParseError, match=r"^empty item in '1,,0' \(line 4\)$"):
        split_items("1,,0", line=4)
    assert parse_int(" 3", "dim", low=1) == 3
    with pytest.raises(ParseError, match=r"^bad dim 'x'$"):
        parse_int("x", "dim")
    with pytest.raises(ParseError, match=r"^dim must be at least 1, got 0 \(line 2\)$"):
        parse_int("0", "dim", line=2, low=1)
    with pytest.raises(ParseError, match=r"^index 2 out of range 0..1$"):
        parse_int("2", "index", low=0, high=1)
    assert parse_int("+3", "dim") == 3 and parse_int("-3", "dim") == -3
    # an integer is ASCII digits: int() would read these as 10, 3 and 2
    for text in ["1_0", "\u0663", "\uff12", "+-1", "", "-"]:
        with pytest.raises(ParseError, match="^bad dim "):
            parse_int(text, "dim")


@pytest.mark.parametrize("argv, refused", [
    (["pairing", "zn:3", "[\u00b2,0,0]", "[1,0,0]"], "unexpected '\u00b2' (line 1, col 1)"),
    (["pairing", "zn:3", "[z\u00b3,0,0]", "[1,0,0]"], "expected integer (line 1, col 2)"),
    (["pairing", "zn:3", "[1/\u00b2,0,0]", "[1,0,0]"], "expected integer (line 1, col 3)"),
    (["hh", "zn:1_0"], "bad cyclic order '1_0'"),
    (["hh", "zn:\u0663"], "bad cyclic order '\u0663'"),
])
def test_non_ascii_digits_are_usage_errors(argv, refused, capsys):
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {refused}") and "Traceback" not in err


def test_central_chern_accepts_every_module_reference(tmp_path, capsys):
    # ch:<module> reads a module the way chern does, not only a group fixture's
    assert run(["pairing", "mat:2", "ch:col2", "ch:col2"]) == 0
    assert capsys.readouterr().out.startswith("<ch:col2, ch:col2> = 1 ")
    path = tmp_path / "sign.mod"
    path.write_text(SIGN_MODULE_TEXT)
    assert run(["pairing", "zn:2", f"ch:{path}", "ch:chi1"]) == 0
    assert "> = 1 " in capsys.readouterr().out


@pytest.mark.parametrize("argv", [["hh", "{}"], ["chern", "zn:2", "{}"]], ids=["hh", "chern"])
def test_non_utf8_spec_file_is_usage_error(argv, tmp_path, capsys):
    path = tmp_path / "bad.alg"
    path.write_bytes(b"\xff\xfe")
    assert run([arg.format(path) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: 'bad.alg' is not UTF-8 text (line 1, col 1)")
    assert "Traceback" not in err


def test_non_utf8_spec_file_names_the_first_bad_byte(tmp_path):
    path = tmp_path / "z2.alg"
    path.write_bytes(b"dim = 2\nunit = [1, \xe9]\n")
    with pytest.raises(ParseError, match=r"'z2.alg' is not UTF-8 text \(line 2, col 12\)"):
        read_spec_file(str(path))


DEEP_INPUTS = [
    (["validate", "op(" * 1200 + "s3" + ")" * 1200], 1200),
    (["validate", "tensor(field," * 1000 + "s3" + ")" * 1000], 1000),
    (["pairing", "zn:2", "[" + "(" * 1200 + "1" + ")" * 1200 + ",0]", "[1,0]"], 1200),
]


@pytest.mark.parametrize("argv, depth", DEEP_INPUTS, ids=["op", "tensor", "scalar"])
def test_deep_nesting_is_refused_before_parsing(argv, depth, capsys):
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: parentheses nest {depth} levels deep, "
                          f"above the bound {MAX_NESTING}")
    assert "Traceback" not in err


def test_nesting_bound_is_exact(capsys):
    assert run(["validate", "op(op(s3))"]) == 0
    assert "op(op(s3)): ok" in capsys.readouterr().out
    deepest = "op(" * MAX_NESTING + "s3" + ")" * MAX_NESTING
    assert fixtures.algebra_fixture(deepest).dim == 6
    with pytest.raises(ParseError, match=f"nest {MAX_NESTING + 1} levels deep"):
        fixtures.algebra_fixture("op(" + deepest + ")")
    assert parse_scalar("(" * MAX_NESTING + "1/2" + ")" * MAX_NESTING) == cyc(Fraction(1, 2))
    with pytest.raises(ParseError, match=f"nest {MAX_NESTING + 1} levels deep"):
        parse_scalar("(" * (MAX_NESTING + 1) + "1" + ")" * (MAX_NESTING + 1))


UNPLACED_INPUTS = [
    (["validate", "tensor(s3,(zn:2)"], "unknown algebra fixture '(zn:2'"),
    (["chern", "zn:2", "nosuch"], "unknown module fixture 'nosuch'"),
    (["pairing", "zn:2", "[1,0", "[1,0]"], "central element must be [c0,...,cn] or ch:<module>"),
    (["pairing", "zn:2", "[1]", "[1,0]"], "expected 2 coordinates, got 1"),
    (["pushforward", "nosuch:zn:2", "[1,0]"], "unknown kernel spec 'nosuch:zn:2'"),
    (["iota", "s3", "std", "--endo", "[[1,0]]"], "expected 2 rows, got 1"),
]


@pytest.mark.parametrize("argv, message", UNPLACED_INPUTS,
                         ids=["algebra", "module", "central", "coordinates", "kernel", "endo"])
def test_parse_errors_without_a_position_name_none(argv, message, capsys):
    # command-line names and vectors have no line or column to report
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}")
    assert "(line" not in err and "col " not in err


def test_parse_error_prints_only_known_positions():
    assert str(ParseError("bad")) == "bad"
    assert str(ParseError("bad", line=3)) == "bad (line 3)"
    assert str(ParseError("bad", line=3, col=7)) == "bad (line 3, col 7)"
    assert str(ParseError("bad", col=7)) == "bad (col 7)"
    with pytest.raises(ParseError, match=r"^missing unit$"):
        parse_algebra_file("dim = 2\n")
    with pytest.raises(ParseError, match=r"^unknown key 'colour' \(line 2\)$"):
        parse_algebra_file("dim = 2\ncolour = red\n")
    with pytest.raises(ParseError, match=r"\(line 1, col 4\)$"):
        parse_scalar("z3^")


def test_load_algebra_from_file(tmp_path):
    path = tmp_path / "z2.alg"
    path.write_text(Z2_ALGEBRA_TEXT)
    a = load_algebra(str(path))
    assert a.dim == 2


@pytest.fixture
def validate_calls(monkeypatch):
    """The algebras passed to `validate`, wherever it is called from."""
    import hochkit.algebra
    import hochkit.cli
    real, calls = hochkit.algebra.validate, []

    def counted(a):
        calls.append(a)
        return real(a)

    monkeypatch.setattr(hochkit.algebra, "validate", counted)
    monkeypatch.setattr(hochkit.cli, "validate", counted)
    return calls


def test_load_algebra_validates_a_file_algebra_once(tmp_path, validate_calls):
    path = tmp_path / "z2.alg"
    path.write_text(Z2_ALGEBRA_TEXT)
    load_algebra(str(path))
    assert len(validate_calls) == 1


def test_cli_validate_calls_validate_once(tmp_path, validate_calls, capsys):
    # a file algebra is validated as it is built, s3 is trusted as built;
    # either way the command validates it exactly once
    path = tmp_path / "z2.alg"
    path.write_text(Z2_ALGEBRA_TEXT)
    for name in (str(path), "s3"):
        validate_calls.clear()
        assert run(["validate", name]) == 0
        assert len(validate_calls) == 1, name
    assert capsys.readouterr().out.count(": ok") == 2


def test_load_algebra_fixture_dir_override(tmp_path, monkeypatch):
    (tmp_path / "mything.alg").write_text(Z2_ALGEBRA_TEXT)
    monkeypatch.setenv("HOCHKIT_FIXTURES", str(tmp_path))
    a = load_algebra("mything")
    assert a.dim == 2 and a.provenance[0] == "custom"


def test_load_algebra_non_associative_file(tmp_path):
    bad = """
dim = 3
unit = [1, 0, 0]
mult 0 0 = [0:1]
mult 0 1 = [1:1]
mult 0 2 = [2:1]
mult 1 0 = [1:1]
mult 2 0 = [2:1]
mult 1 1 = [2:1]
mult 1 2 = [0:1]
mult 2 1 = [1:1]
mult 2 2 = [1:1]
"""
    path = tmp_path / "bad.alg"
    path.write_text(bad)
    from hochkit.errors import NotAssociative
    with pytest.raises(NotAssociative):
        load_algebra(str(path))


def test_cli_hh_command(capsys):
    code = run(["hh", "dual", "--max-degree", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "degree 4: 1" in out and "degree 0: 2" in out


def test_cli_hh_degree_guard(capsys):
    code = run(["hh", "dual", "--max-degree", "9999"])
    err = capsys.readouterr().err
    assert code == 2
    assert "cap" in err or "guard" in err


def test_cli_verify_hrr_exit_code(capsys):
    code = run(["verify", "hrr", "s3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "9 passed, 0 failed" in out


def test_cli_chern_documents_idempotent_scale(capsys):
    code = run(["chern", "s3", "std"])
    out = capsys.readouterr().out
    assert code == 0
    assert "ch(std) = [1/3, 0, -1/6, 0, 0, -1/6]" in out
    assert "idempotent normalization" in out
    assert "dim(M) * ch = [2/3, 0, -1/3, 0, 0, -1/3]" in out


def test_cli_chern_refuses_a_module_over_another_algebra(tmp_path, capsys):
    path = tmp_path / "sign.mod"
    path.write_text(SIGN_MODULE_TEXT)  # a module over zn:2
    for argv in (["chern", "s3", "zn:3#chi1"], ["chern", "s3", str(path)],
                 ["chern", "zn:3", str(path)]):
        assert run(argv + ["--format", "machine"]) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "is not over" in captured.err
    assert run(["chern", "zn:2", str(path), "--format", "machine"]) == 0
    assert '"inputs": "zn:2#sign.mod"' in capsys.readouterr().out
    assert run(["chern", "zn:3", "zn:3#chi1"]) == 0


def test_cli_pairing(capsys):
    code = run(["pairing", "zn:2", "[1/2,1/2]", "[1/2,-1/2]"])
    out = capsys.readouterr().out
    assert code == 0
    assert "= 0" in out


def test_cli_pairing_rejects_non_central(capsys):
    code = run(["pairing", "s3", "[0,1,0,0,0,0]", "[0,1,0,0,0,0]"])
    assert code == 2  # a transposition is not central in C[S3]


def test_cli_tqft(capsys):
    code = run(["tqft", "s3", "--genus", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "invariant dimension: 3" in out


def test_cli_tqft_genus2_reports_oracle(capsys):
    code = run(["tqft", "s3", "--genus", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "invariant dimension: 11" in out
    assert "pass  surface value equals the conjugation orbit count  11 == 11" in out
    # a disconnected word (sphere and torus) is asserted against the product
    code = run(["tqft", "s3", "--format", "machine", "--word",
                "cap_in cap_in@1 pants_split@1 pants_merge@1 cap_out@1 cap_out"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert [(r["check"], r["left"], r["right"], r["pass"]) for r in doc["records"]] == \
        [("tqft-orbit-count", "3", "3", True)]


def test_cli_tqft_genus9_fuzz_draw(capsys):
    # a draw of the fuzz test below: 3^9 orbits, well inside its deadline
    code = run(["tqft", "zn:3", "--word", "genus:9"])
    out = capsys.readouterr().out
    assert code == 0
    assert "pass  surface value equals the conjugation orbit count  19683 == 19683" in out


@pytest.mark.parametrize("argv, refused", [
    (["center", "zn:100000"], "'zn:100000' would build an algebra of dimension 100000"),
    (["center", "mat:50"], "'mat:50' would build an algebra of dimension 2500"),
    (["hh", "mat:99", "--max-degree", "1"], "'mat:99' would build an algebra of dimension 9801"),
    (["tqft", "zn:2", "--genus", "99999"], "genus-99999 word has 200000 steps"),
    (["pushforward", "morita:s3:40", "[1,0,0,0,0,0]"],
     "'morita:s3:40' would build an algebra of dimension 9600"),
    (["tqft", "s3", "--genus", "7"],
     "step 13 (pants_split) of 'cap_in pants_split pants_merge pants_split"),
])
def test_oversized_inputs_are_refused_before_building(argv, refused, capsys):
    t0 = time.monotonic()
    assert run(argv) == 2
    assert time.monotonic() - t0 < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error:") and refused in err and "Traceback" not in err


def test_fixture_bound_keeps_the_test_and_benchmark_fixtures():
    for name in ["zn:8", "mat:3", "trunc:4", "env(zn:2)", "op(s3)", "tensor(mat:2,zn:2)",
                 "tensor(mat:2,dual)", "tensor(zn:2,zn:3)", "tensor(mat:2,mat:4)",
                 "op(tensor(q8,q8))"]:
        fixtures.algebra_fixture(name)
    for name, dim in [("zn:65", 65), ("mat:9", 81), ("trunc:65", 65),
                      ("tensor(s3,mat:4)", 96), ("env(mat:3)", 81), ("op(tensor(q8,zn:9))", 72)]:
        with pytest.raises(DegreeCapExceeded, match=f"dimension {dim},"):
            fixtures.algebra_fixture(name)


def test_high_order_transfer_systems_are_refused_by_the_realification_guard(capsys):
    # the characters of zn:47 lie in Q(zeta_47): a 47 x 47 transfer system
    # would realify to 2209 blocks of 46 x 46, above linalg.MAX_REALIFIED
    coords = "[" + ",".join(["1"] + ["0"] * 46) + "]"
    assert run(["pushforward", "regular:zn:47", coords]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: the realification of a 47x47 matrix with 2209 entries over "
                          "Q(zeta_47)") and err.rstrip().endswith("above the guard 2000000")


def test_cli_machine_format_deterministic(capsys):
    code = run(["verify", "hrr", "zn:3", "--format", "machine", "--seed", "5"])
    first = capsys.readouterr().out
    assert code == 0
    doc = json.loads(first)
    assert doc["schema"] == 1 and doc["seed"] == 5
    assert doc["summary"]["fail"] == 0
    code = run(["verify", "hrr", "zn:3", "--format", "machine", "--seed", "5"])
    second = capsys.readouterr().out
    assert first == second


def test_cli_validate_fixture(capsys):
    assert run(["validate", "q8"]) == 0
    out = capsys.readouterr().out
    assert "ok" in out


def test_cli_unknown_fixture(capsys):
    assert run(["validate", "nonsense:9"]) == 2


def test_cli_pushforward_regular(capsys):
    code = run(["pushforward", "regular:zn:2", "[1/2,1/2]"])
    out = capsys.readouterr().out
    assert code == 0
    assert "[1/2, 1/2]" in out
    assert "route A and route B agreed" in out


def test_cli_center(capsys):
    code = run(["center", "s3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "center dimension: 3" in out


def test_cli_iota_default_is_chern(capsys):
    code = run(["iota", "s3", "std"])
    out = capsys.readouterr().out
    assert code == 0
    assert "iota of the identity is the chern class" in out
    assert "pass" in out


def test_cli_iota_resolves_modules_like_chern(tmp_path, capsys):
    path = tmp_path / "sign.mod"
    path.write_text(SIGN_MODULE_TEXT)  # a module over zn:2
    for argv in (["iota", "s3", "s3#std"], ["iota", "zn:2", str(path)]):
        assert run(argv) == 0, argv
        assert "iota of the identity is the chern class" in capsys.readouterr().out
    assert run(["iota", "s3", "zn:3#chi1"]) == 2
    assert capsys.readouterr().err.startswith("error: module 'zn:3#chi1' is not over s3")
    with pytest.raises(AlgebraMismatch):
        _module_over("s3", "zn:3#chi1")


def test_cli_iota_with_endo(capsys):
    code = run(["iota", "s3", "std", "--endo", "[[2,0],[0,2]]"])
    out = capsys.readouterr().out
    assert code == 0
    # iota of twice the identity is twice the chern class
    assert "[2/3, 0, -1/3, 0, 0, -1/3]" in out


def test_cli_pushforward_morita(capsys):
    code = run(["pushforward", "morita:zn:2:2", "[1/2,-1/2]"])
    out = capsys.readouterr().out
    assert code == 0
    assert "route A and route B agreed" in out


def test_cli_verify_cardy_fixture_filter(capsys):
    code = run(["verify", "cardy", "zn:3", "--seed", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "0 failed" in out


def test_cardy_degeneration_fails_with_a_failing_riemann_roch_check(monkeypatch, capsys):
    # equal pairings are not enough: the record also needs both checks to hold
    real = hochkit.cli.hrr_check

    def failing(x, y):
        rep = real(x, y)
        rep.compare("planted", 0, 1)
        return rep
    monkeypatch.setattr(hochkit.cli, "hrr_check", failing)
    assert run(["verify", "cardy", "zn:2", "--format", "machine"]) == 1
    records = json.loads(capsys.readouterr().out)["records"]
    degenerate = [r for r in records if r["name"].startswith("cardy degenerates")]
    assert len(degenerate) == 4
    assert all(r["left"] == r["right"] and not r["pass"] for r in degenerate)
    assert all(r["pass"] for r in records if r not in degenerate)


def test_trace_triangle_fails_on_a_failing_split_hypothesis(monkeypatch, capsys):
    # a zero defect is not enough: the record also needs the split hypotheses
    real = hochkit.cli.trace_triangle_check

    def failing(*args):
        rep = CheckReport("trace triangle additivity", "trace-additivity")
        rep.compare("f induces g on G", False, True)
        rep.comparisons += real(*args).comparisons
        return rep
    monkeypatch.setattr(hochkit.cli, "trace_triangle_check", failing)
    assert run(["verify", "traces", "--format", "machine"]) == 1
    records = json.loads(capsys.readouterr().out)["records"]
    triangles = [r for r in records if r["check"] == "trace-additivity"]
    assert len(triangles) == 100
    assert all(r["left"] == r["right"] and not r["pass"] for r in triangles)
    assert all(r["pass"] for r in records if r not in triangles)


def test_every_verify_record_shows_its_compared_values(capsys):
    assert run(["verify", "all", "--seed", "0", "--format", "machine"]) == 0
    sides = [r[side] for r in json.loads(capsys.readouterr().out)["records"]
             for side in ("left", "right")]
    assert not {"lhs", "rhs", "alternating sum"} & set(sides)
    assert [s for s in sides if "object at 0x" in s] == []


def test_a_failing_record_prints_both_values_in_table_output(monkeypatch, capsys):
    # a split map whose E block is off by one at (0, 0) leaves the defect -1 there
    real = hochkit.cli.assemble_split_map
    monkeypatch.setattr(hochkit.cli, "assemble_split_map", lambda e, g, phi, de, dg, dh: real(
        e + SparseMatrix(e.rows, e.cols, {(0, 0): 1}), g, phi, de, dg, dh))
    assert run(["verify", "traces"]) == 1
    failed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert len(failed) == 100
    for line in failed:
        assert re.fullmatch(r"FAIL  trace triangle instance \d+ +\[-1(, 0)*\] == \[0(, 0)*\]",
                            line), line


def test_only_add_report_builds_an_output_row():
    # every record is a CheckReport turned into rows by Report.add_report, so
    # no second path with its own formatting can come back
    assert not hasattr(hochkit.cli, "Record") and not hasattr(hochkit.cli.Report, "add")
    tree = ast.parse(Path(hochkit.cli.__file__).read_text())
    builders = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in ast.walk(fn):
            call = node.func if isinstance(node, ast.Call) else None
            if (isinstance(call, ast.Name) and call.id == "Record"
                    or isinstance(call, ast.Attribute) and call.attr == "add"
                    and isinstance(call.value, ast.Name) and call.value.id in ("report", "self")
                    or isinstance(call, ast.Attribute) and isinstance(call.value, ast.Attribute)
                    and call.value.attr == "records"
                    or isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Attribute)
                    and node.target.attr == "records"):
                builders.add(fn.name)
    assert builders == {"add_report"}


@pytest.mark.parametrize("suite", ["hrr", "cardy", "adjoint", "functorial", "morita",
                                   "traces", "all"])
def test_cli_verify_refuses_an_unknown_fixture_in_every_suite(suite, capsys):
    assert run(["verify", suite, "nosuch"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    if suite in ("hrr", "cardy", "all"):  # `all` hands its names to hrr and cardy
        assert "unknown algebra fixture 'nosuch'" in captured.err
    else:
        assert captured.err == f"error: verify {suite} takes no fixtures\n"


@pytest.mark.parametrize("argv", [
    ["hh", "s3", "--max-degree", "-1"],
    ["hh", "s3", "--max-degree", "-1", "--cohomology"],
    ["pushforward", "morita:s3:x", "[1,0,0,0,0,0]"],
    ["pushforward", "morita:s3:0", "[1,0,0,0,0,0]"],
])
def test_cli_bad_degree_or_morita_size_is_usage_error(argv, capsys):
    assert run(argv) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_cli_degree_options_belong_to_hh(capsys):
    assert run(["chern", "s3", "triv", "--max-degree", "3"]) == 2
    assert run(["tqft", "s3", "--genus", "1", "--size-guard", "10"]) == 2
    assert "Traceback" not in capsys.readouterr().err


def _limit_address_space():
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("literal", ["[z100003,0]", "[z1021*z1019,0]"])
def test_scalar_order_is_bounded_before_it_allocates(literal):
    # unbounded, order n builds residue tables of about n * phi(n) entries:
    # gigabytes here, though each factor of the product is small; the address
    # space limit and the timeout fail the test instead of the host
    env = dict(os.environ, PYTHONPATH=str(Path(hochkit.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "hochkit", "pairing", "zn:2", literal, "[1,0]"],
                          capture_output=True, text=True, env=env, timeout=60,
                          preexec_fn=_limit_address_space)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error:") and "above the bound 1024" in proc.stderr


def test_closed_stdout_is_not_a_traceback():
    # a reader such as `head -c 10` may close the pipe before the report is printed
    env = dict(os.environ, PYTHONPATH=str(Path(hochkit.__file__).parents[1]))
    proc = subprocess.Popen([sys.executable, "-m", "hochkit", "verify", "traces",
                             "--format", "machine"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    try:
        code = proc.wait(timeout=120)
    finally:
        proc.kill()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert code == 0 and "Traceback" not in err, err


def test_cli_morita_size_guard_survives_optimize():
    # the guard must not be an assert, which `python -O` strips
    env = dict(os.environ, PYTHONPATH=str(Path(hochkit.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "hochkit.cli", "pushforward", "morita:s3:0",
         "[1,0,0,0,0,0]"], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr


def test_python_m_hochkit_matches_in_process_run(capsys):
    # `python -m hochkit` runs the CLI; under -O no transfer result may hinge
    # on an assert
    assert run(["verify", "adjoint", "--seed", "0", "--format", "machine"]) == 0
    expected = capsys.readouterr().out
    env = dict(os.environ, PYTHONPATH=str(Path(hochkit.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "hochkit", "verify", "adjoint", "--seed", "0",
         "--format", "machine"], capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected


def test_library_has_no_assert_statements():
    # `python -O` strips assert statements, so a check in the library raises
    # a typed HochkitError instead
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(hochkit.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_library_imports_at_module_level():
    # every import runs once, when its module loads, and the bar construction
    # (hochschild) depends on nothing in modules, which builds Ext on it
    found = set()
    for path in sorted(Path(hochkit.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        imports = [node for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom))]
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found |= {f"{path.name}:{node.lineno}" for node in ast.walk(fn)
                          if node in imports}
        if path.name == "hochschild.py":
            found |= {f"{path.name}:{node.lineno} imports modules" for node in imports
                      if any("modules" in name.split(".") for name in
                             [getattr(node, "module", None) or "", *(a.name for a in node.names)])}
    assert found == set()


def test_every_private_definition_is_used():
    # a module-level `_name` function or class that no code of the package
    # reaches through a name or an attribute, outside its own body, is dead;
    # a mention in a docstring does not count
    def names(node):
        return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                       if isinstance(n, (ast.Name, ast.Attribute)))
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(Path(hochkit.__file__).parent.glob("*.py"))}
    used = sum((names(tree) for tree in trees.values()), Counter())
    dead = [f"{name}:{node.lineno} {node.name}" for name, tree in trees.items()
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")
            and used[node.name] == names(node)[node.name]]
    assert dead == []


@pytest.mark.parametrize("build, bound", [
    (lambda: hochkit.hh_homology_dims(fixtures.algebra_fixture("s3"), 6), MAX_COORDINATES),
    (lambda: hochkit.hh_cohomology_dims(fixtures.algebra_fixture("s3"), 33), MAX_DEGREE),
    (lambda: balanced_tensor(fixtures.algebra_fixture("s3"), None, 500, None, 401),
     MAX_COORDINATES),
    (lambda: hochkit.parse_word("genus:32"), MAX_WORD_STEPS),
    (lambda: hochkit.evaluate(fixtures.algebra_fixture("zn:2"), hochkit.parse_word(
        "cap_in " + "pants_split " * 17 + "pants_merge " * 17 + "cap_out")), MAX_COORDINATES),
    (lambda: fixtures.algebra_fixture("zn:65"), fixtures.MAX_FIXTURE_DIM),
], ids=["chain-space", "degree", "balanced-tensor", "word-length", "state", "fixture"])
def test_each_size_guard_names_its_bound(build, bound):
    with pytest.raises(DegreeCapExceeded) as refused:
        build()
    assert str(refused.value).endswith(f", above the guard {bound}")


def test_acceptance_suite_passes_under_optimize():
    # `python -O` strips asserts: no shipped guarantee may hinge on one
    env = dict(os.environ, PYTHONPATH=str(Path(hochkit.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(Path(__file__).with_name("test_acceptance.py"))],
        capture_output=True, text=True, env=env, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


# --- fuzz: argv drawn from the CLI grammar over cheap algebras, plus junk ------

_JUNK = st.sampled_from(["", " ", "x", "-1", "9", "[", "]", "[1,", ",", ":", "#", "z",
                         "z0", "1/0", "()", "sum:", "simple:", "genus:", "@", "--max-degree",
                         "zn:0", "mat:x", "tensor(s3)", "[\u00b2]", "[[\u00b2]]"])
_DIMS = {"field": 1, "dual": 2, "zn:2": 2, "zn:3": 3, "s3": 6}


def _or_junk(strategy):
    """A junk token one time in four, else the strategy."""
    return st.tuples(st.sampled_from([1, 1, 1, 2]), strategy, _JUNK).map(lambda t: t[t[0]])


_ALGEBRAS = _or_junk(st.sampled_from(sorted(_DIMS)))
_INDEX = _or_junk(st.integers(-2, 4).map(str))
_MODULES = _or_junk(st.sampled_from(["reg", "triv", "sign", "std", "chi0", "chi1", "chi2"])
                    | _INDEX.map("simple:{}".format)
                    | st.lists(_INDEX, max_size=3).map(lambda xs: "sum:" + ",".join(xs)))
_SCALARS = st.sampled_from(["0", "1", "-1", "1/2", "-2/3", "z3", "z4^3", "1+z3", "(1", "z0"])
_DEGREE = _or_junk(st.integers(-1, 2).map(str))
_WORDS = _or_junk(
    _DEGREE.map("genus:{}".format)
    | st.lists(st.tuples(st.sampled_from(["cap_in", "cap_out", "pants_split", "pants_merge",
                                          "cup"]),
                         st.sampled_from(["", "", "@0", "@1", "@x"])).map("".join),
               max_size=4).map(" ".join))


def _central(algebra):
    """A central element: coordinates, often as many as the algebra's
    dimension, or ch:<module>."""
    dim = _DIMS.get(algebra, 2)
    coords = st.lists(_SCALARS, min_size=dim, max_size=dim) | st.lists(_SCALARS, max_size=7)
    return _or_junk(coords.map(lambda xs: "[" + ",".join(xs) + "]")
                    | _MODULES.map("ch:{}".format))


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(["validate", "center", "hh", "chern", "iota", "pairing",
                                    "pushforward", "tqft", "junk"]))
    a = draw(_ALGEBRAS)
    if command in ("validate", "center"):
        argv = [command, a]
    elif command == "hh":
        argv = ["hh", a, "--max-degree", draw(_DEGREE)]
        argv += draw(st.sampled_from([[], ["--cohomology"], ["--unnormalized"]]))
    elif command == "chern":
        argv = ["chern", a, draw(_MODULES)]
    elif command == "iota":
        argv = ["iota", a, draw(_MODULES)]
        if draw(st.booleans()):
            argv += ["--endo", draw(_or_junk(st.sampled_from(
                ["[[1]]", "[[2,0],[0,2]]", "[[0,1],[1,z3]]", "[[1,2]]"])))]
    elif command == "pairing":
        argv = ["pairing", a, draw(_central(a)), draw(_central(a))]
    elif command == "pushforward":
        kernel = draw(_or_junk(
            st.sampled_from(["regular:{}", "morita:{}:1", "morita:{}:2", "morita:{}:0"]).map(
                lambda spec: spec.format(a))
            | st.tuples(_MODULES, _ALGEBRAS, _MODULES).map(
                lambda t: f"outer({a}#{t[0]},{t[1]}#{t[2]})")))
        argv = ["pushforward", kernel, draw(_central(a))]
    elif command == "tqft":
        argv = ["tqft", a] + draw(st.just([]) | _DEGREE.map(lambda g: ["--genus", g])
                                  | _WORDS.map(lambda w: ["--word", w]))
    else:
        argv = draw(st.lists(_ALGEBRAS, max_size=4))
    if draw(st.booleans()):
        argv += ["--format", "machine", "--seed", draw(st.integers(-1, 3).map(str))]
    return argv


@settings(max_examples=150, deadline=10_000,
          suppress_health_check=[HealthCheck.too_slow])
@given(_argv())
def test_cli_fuzz_exit_code_contract(argv):
    # 0 = every identity held, 1 = a mismatch, 2 = usage error; nothing escapes
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
