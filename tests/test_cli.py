import logging

import pytest

from opfcuts.cli import EXIT_DATA, EXIT_FAIL, EXIT_OK, main


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
    ["--perturb-sigma", "-0.1"]],
    ids=["time-limit-negative", "time-limit-nan", "rstar-zero",
         "perturb-sigma-negative"])
def test_solve_rejects_out_of_range_option(case14_path, capsys, option):
    """Bad input data: exit 2 with one error line, no traceback."""
    assert main(["solve", case14_path, *option]) == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert captured.out == ""


def test_verify_command(capsys):
    assert main(["verify", "--trials", "30"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("pass") == 5


def test_roundtrip_save_load_cuts(case14_path, tmp_path, capsys):
    path = tmp_path / "pool.jsonl"
    assert main(["solve", case14_path, "--save-cuts", str(path)]) == EXIT_OK
    assert path.exists()
    assert main(["solve", case14_path, "--warm", str(path)]) == EXIT_OK


def test_warm_start_logs_skipped_cuts(case14_path, tmp_path, caplog):
    """A cut on an unknown bus is skipped by the run, which says so."""
    path = tmp_path / "pool.jsonl"
    assert main(["solve", case14_path, "--save-cuts", str(path)]) == EXIT_OK
    with open(path, "a") as fh:
        fh.write('{"kind": "eigen", "support": [1, 999], '
                 '"terms": [[["v2", 1], 1.0], [["c", 1, 999], -1.0]], '
                 '"rhs": 0.0}\n')
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
