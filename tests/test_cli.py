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


def test_verify_command(capsys):
    assert main(["verify", "--trials", "30"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("pass") == 5


def test_roundtrip_save_load_cuts(case14_path, tmp_path, capsys):
    path = tmp_path / "pool.jsonl"
    assert main(["solve", case14_path, "--save-cuts", str(path)]) == EXIT_OK
    assert path.exists()
    assert main(["solve", case14_path, "--warm", str(path)]) == EXIT_OK


def test_bad_cut_file(case14_path, tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text("garbage\n")
    assert main(["solve", case14_path, "--warm", str(path)]) == EXIT_DATA


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
