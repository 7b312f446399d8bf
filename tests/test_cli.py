import json
import logging

import pytest

from opfcuts.cli import EXIT_BACKEND, EXIT_DATA, EXIT_FAIL, EXIT_OK, main
from opfcuts.cut_manager import admit, load_cuts, save_cuts
from test_cut_manager import V2_FIXTURE
from test_lp_backend import report_model_status
from test_separation import block_of, one_cut


def test_cliques_command(case14_path, capsys):
    assert main(["cliques", case14_path]) == EXIT_OK
    assert "(5,0,0)" in capsys.readouterr().out


def test_cliques_chordal(case14_path, capsys):
    assert main(["cliques", case14_path, "--chordal"]) == EXIT_OK
    counts = capsys.readouterr().out.strip()
    assert counts.startswith("(11,")


def test_solve_command(case14_path, capsys):
    rc = main(["solve", case14_path, "--time-limit", "30"])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert "best bound:" in out
    assert "case14" in out


def test_solve_missing_file(capsys):
    assert main(["solve", "/no/such/case.m"]) == EXIT_DATA


@pytest.mark.parametrize("option", [
    ["--time-limit", "-1"], ["--time-limit", "nan"], ["--rstar", "0"],
    ["--perturb-sigma", "-0.1"], ["--perturb-sigma", "nan"],
    ["--perturb-sigma", "inf"]],
    ids=["time-limit-negative", "time-limit-nan", "rstar-zero",
         "perturb-sigma-negative", "perturb-sigma-nan", "perturb-sigma-inf"])
def test_solve_rejects_out_of_range_option(case14_path, capsys, option):
    """Bad input data: exit 2 with one error line, no traceback."""
    assert main(["solve", case14_path, *option]) == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert captured.out == ""


@pytest.mark.parametrize("row", ["2 0 0 3 0.0430293;", "2 0 0;",
                                 "2 0 0 nan 0.0430293 20 0;",
                                 "2 0 0 inf 0.0430293 20 0;",
                                 "2 0 0 2.5 0.0430293 20 0;"],
                         ids=["fewer-values", "no-count", "nan-count",
                              "inf-count", "fractional-count"])
def test_solve_short_gencost_row_exits_2(case14_path, tmp_path, capsys, row):
    """Bad case data: exit 2 with one error line, no traceback."""
    text = open(case14_path, encoding="utf-8").read()
    first = "\t2\t0\t0\t3\t0.0430293\t20\t0;"
    assert first in text
    bad = tmp_path / "short.m"
    bad.write_text(text.replace(first, "\t" + row, 1), encoding="utf-8")
    assert main(["solve", str(bad)]) == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.err.startswith("error: gencost row")
    assert captured.err.count("\n") == 1
    assert captured.out == ""


def test_verify_command(capsys):
    assert main(["verify", "--trials", "30"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("pass") == 5


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_verify_rejects_trials_below_one(capsys, trials):
    """Zero trials check nothing: exit 2 with one error line, no pass."""
    assert main(["verify", "--trials", trials]) == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert captured.out == ""


def test_solve_backend_error_exits_3(case14_path, monkeypatch, capsys):
    """A HiGHS model status the backend cannot map ends the run with exit
    3 and one backend error line."""
    report_model_status(monkeypatch, "kSolveError", after=2)
    assert main(["solve", case14_path]) == EXIT_BACKEND
    captured = capsys.readouterr()
    assert captured.err.startswith("backend error: ")
    assert captured.err.count("\n") == 1


def test_solve_unbounded_master_exits_3(case14_path, monkeypatch, capsys):
    report_model_status(monkeypatch, "kUnbounded", after=2)
    assert main(["solve", case14_path]) == EXIT_BACKEND
    assert "best bound:" in capsys.readouterr().out


def test_roundtrip_save_load_cuts(case14_path, tmp_path, capsys):
    path = tmp_path / "pool.jsonl"
    assert main(["solve", case14_path, "--save-cuts", str(path)]) == EXIT_OK
    assert path.exists()
    assert main(["solve", case14_path, "--warm", str(path)]) == EXIT_OK


def test_warm_start_from_saved_basis(case14_path, tmp_path, caplog):
    path = tmp_path / "pool.jsonl"
    assert main(["solve", case14_path, "--save-cuts", str(path)]) == EXIT_OK
    assert path.read_text().startswith('{"fmt": "cutpool", "v": 3}\n')
    with caplog.at_level(logging.INFO, logger="opfcuts"):
        assert main(["solve", case14_path, "--warm", str(path),
                     "--perturb-seed", "0", "--perturb-sigma", "0.01"]) \
            == EXIT_OK
    assert "round 0 starts from the saved basis" in caplog.text


def test_warm_start_from_version_2_file(case14_path, caplog):
    """A cut file saved before version 3 still starts from its basis."""
    with caplog.at_level(logging.INFO, logger="opfcuts"):
        assert main(["solve", case14_path, "--warm", V2_FIXTURE,
                     "--perturb-seed", "0", "--perturb-sigma", "0.01"]) \
            == EXIT_OK
    assert "round 0 starts from the saved basis" in caplog.text


def test_malformed_basis_record_exits_2(case14_path, tmp_path, capsys):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"fmt": "cutpool", "v": 2}\n'
                    '{"basis": {"columns": [], "base_rows": "Q", '
                    '"cuts": []}}\n')
    assert main(["solve", case14_path, "--warm", str(path)]) == EXIT_DATA
    assert capsys.readouterr().err == \
        "error: malformed cut record 1 (last good record 0)\n"


def test_warm_start_logs_skipped_cuts(case14_path, tmp_path, caplog):
    """A cut on an unknown bus is skipped by the run, which says so."""
    path = tmp_path / "pool.jsonl"
    assert main(["solve", case14_path, "--save-cuts", str(path)]) == EXIT_OK
    with open(path, encoding="utf-8") as fh:
        pool, _ = load_cuts(fh)
    stray = one_cut({("v2", 1): 1.0, ("c", 1, 999): -1.0}, 0.0, "eigen",
                    (1, 999))
    admit(pool, block_of(stray))
    with open(path, "w", encoding="utf-8") as fh:
        save_cuts(pool, fh)
    with caplog.at_level(logging.INFO, logger="opfcuts"):
        assert main(["solve", case14_path, "--warm", str(path)]) == EXIT_OK
    assert "warm start: skipped 1 cuts with unknown variables" in caplog.text


def test_bad_cut_file(case14_path, tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text("garbage\n")
    assert main(["solve", case14_path, "--warm", str(path)]) == EXIT_DATA


def test_non_string_cut_kind_exits_2(case14_path, tmp_path, capsys):
    """Bad input data: exit 2 with one error line, no traceback."""
    path = tmp_path / "bad.jsonl"
    path.write_text('{"fmt": "cutpool", "v": 1}\n'
                    '{"kind": 5, "support": [1], "terms": [[["v2", 1], 1.0]], '
                    '"rhs": 0.0}\n')
    assert main(["solve", case14_path, "--warm", str(path)]) == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.err.startswith("error: malformed cut record 1")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("terms, rhs", [
    ("[]", "0.0"),                        # no coefficients
    ('[[["v2", 1], 0.0]]', "0.0"),        # all coefficients zero
    ('[[["v2", 1], 1.0]]', "NaN"),
    ('[[["v2", 1], 1.0]]', "Infinity"),
    ('[[["v2", 1], NaN]]', "0.0"),
    ('[[["v2", 1], -Infinity]]', "0.0"),
], ids=["empty", "zero", "nan-rhs", "inf-rhs", "nan-coeff", "inf-coeff"])
def test_malformed_cut_record_exits_2(case14_path, tmp_path, capsys,
                                      terms, rhs):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"fmt": "cutpool", "v": 1}\n'
                    '{"kind": "eigen", "support": [1], "terms": %s, '
                    '"rhs": %s}\n' % (terms, rhs))
    assert main(["solve", case14_path, "--warm", str(path)]) == EXIT_DATA
    assert "malformed cut record 1" in capsys.readouterr().err


def _v3(**change) -> str:
    """A version 3 cut file of one cut, v2_1 + v2_2 >= 0, and a basis,
    with the given body entries changed (`cuts_<column>` a cut column)."""
    cuts = {"kind": ["eigen"], "support": [[1, 2]], "rhs": [0.0],
            "size": [2], "key": [1, 2], "coeff": [1.0, 1.0]}
    doc = {"keys": [["c", 1, 2], ["v2", 1], ["v2", 2]], "cuts": cuts,
           "basis": {"columns": "-BL", "base_rows": "", "cuts": "L"}}
    for name, value in change.items():
        part, _, column = name.partition("_")
        (doc[part] if column else doc)[column or part] = value
    return '{"fmt": "cutpool", "v": 3}\n' + json.dumps(doc) + "\n"


def test_small_version_3_file_loads(case14_path, tmp_path):
    path = tmp_path / "pool.jsonl"
    path.write_text(_v3(), encoding="utf-8")
    with open(path, encoding="utf-8") as fh:
        pool, _ = load_cuts(fh)
    [i], [cut] = pool.ids.tolist(), pool.cuts
    assert cut.terms == {("v2", 1): 1.0, ("v2", 2): 1.0}
    assert pool.basis.columns == {("v2", 1): "B", ("v2", 2): "L"}
    assert pool.basis.cuts == {i: "L"} == {0: "L"}
    assert main(["solve", case14_path, "--warm", str(path)]) == EXIT_OK


@pytest.mark.parametrize("change", [
    {"cuts_coeff": [float("nan"), 1.0]},
    {"cuts_coeff": [1.0, float("inf")]},
    {"cuts_rhs": [float("-inf")]},
    {"cuts_coeff": [0.0, 0.0]},
    {"cuts_coeff": [1.0, "one"]},
    {"cuts_key": [1, 3]},
    {"cuts_key": [-1, 2]},
    {"cuts_key": [2, 1]},
    {"cuts_key": [1, 1]},
    {"cuts_key": [1.0, 2.0]},
    {"cuts_size": [3]},
    {"cuts_size": [0]},
    {"cuts_rhs": [0.0, 0.0]},
    {"cuts_support": []},
    {"cuts_kind": [5]},
    {"cuts_kind": "eigen"},
    {"keys": [["v2", 1], ["c", 1, 2], ["v2", 2]]},
    {"keys": [["c", 1, 2], ["v2", 1], ["v2", 1]]},
    {"basis_columns": "-BX"},
    {"basis_columns": "BL"},
    {"basis_cuts": ""},
    {"basis_cuts": "LB"},
    {"basis_base_rows": "Q"},
    {"basis_base_rows": "-"},
    {"basis_columns": ["-", "B", "L"]},
], ids=["nan-coeff", "inf-coeff", "inf-rhs", "zero-coeffs", "str-coeff",
        "key-past-end", "key-negative", "keys-descending", "key-twice",
        "float-keys", "size-past-end", "size-zero", "long-rhs",
        "short-support", "int-kind", "str-kind-column", "keys-unsorted",
        "keys-repeated", "basis-letter", "basis-short-columns",
        "basis-short-cuts", "basis-long-cuts", "basis-base-letter",
        "basis-base-dash", "basis-columns-list"])
def test_malformed_version_3_file_exits_2(case14_path, tmp_path, capsys,
                                          change):
    """Bad input data: exit 2 with one error line, no traceback."""
    path = tmp_path / "bad.jsonl"
    path.write_text(_v3(**change), encoding="utf-8")
    assert main(["solve", case14_path, "--warm", str(path)]) == EXIT_DATA
    assert capsys.readouterr().err == \
        "error: malformed cut record 1 (last good record 0)\n"


@pytest.mark.parametrize("padding", [0, 20000],
                         ids=["in-first-read", "past-first-read"])
def test_non_utf8_cut_file_exits_2(case14_path, tmp_path, capsys, padding):
    """A byte that is no UTF-8 is a decode error, wherever the reader
    meets it, and not a malformed record."""
    header, body = _v3().split("\n", 1)
    body = " " * padding + body.replace('"eigen"', '"\u00e9igen"')
    path = tmp_path / "latin1.jsonl"
    path.write_bytes((header + "\n" + body).encode("latin-1"))
    assert main(["solve", case14_path, "--warm", str(path)]) == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cut file is not UTF-8 text")
    assert captured.err.count("\n") == 1


def test_non_utf8_case_file_exits_2(case14_path, tmp_path, capsys):
    text = open(case14_path, encoding="utf-8").read()
    path = tmp_path / "latin1.m"
    path.write_bytes(text.replace("%", "% \u00e9", 1).encode("latin-1"))
    assert main(["solve", str(path)]) == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.err.startswith("error: case file is not UTF-8 text")
    assert captured.err.count("\n") == 1
    assert captured.out == ""
