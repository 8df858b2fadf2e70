import json

import pytest

from zfdom.cli import main


def test_family_emits_graph6(capsys):
    assert main(["family", "windmill:3,2"]) == 0
    assert capsys.readouterr().out == "D{c\n"


def test_family_expected_values(capsys):
    assert main(["family", "doubleclique:3", "--expected"]) == 0
    lines = capsys.readouterr().out.splitlines()
    payload = json.loads(lines[1])
    assert payload["family"] == "doubleclique:3"
    assert {e["invariant"] for e in payload["expected"]} == {"zgrundy", "gamma_t"}


def test_family_bad_spec(capsys):
    assert main(["family", "moebius:5"]) == 2
    assert "unknown family" in capsys.readouterr().err


def test_run_file_and_exit_codes(tmp_path, capsys):
    corpus = tmp_path / "graphs.g6"
    corpus.write_text("Bw\nBg\n")
    assert main(["run", str(corpus)]) == 0
    out = capsys.readouterr()
    assert len(out.out.splitlines()) == 2
    summary = json.loads(out.err)
    assert summary["graphs"] == 2 and summary["violations"] == 0

    corpus.write_text("Bw\n&&&\n")
    assert main(["run", str(corpus)]) == 2


def test_run_missing_file(capsys):
    assert main(["run", "/nonexistent/corpus.g6"]) == 2


def test_run_csv_with_selected_checks(tmp_path, capsys):
    corpus = tmp_path / "graphs.g6"
    corpus.write_text("Bw\n")
    assert main(["run", str(corpus), "--format", "csv", "--checks", "duality"]) == 0
    header = capsys.readouterr().out.splitlines()[0]
    assert "duality" in header and "parallel_paths" not in header


def test_hunt_requires_exactly_one_source(capsys):
    assert main(["hunt", "--predicate", "z-eq-delta"]) == 2
    assert main(["hunt", "--predicate", "z-eq-delta", "--n", "4"]) == 0


def test_hunt_external_corpus(tmp_path, capsys):
    corpus = tmp_path / "in.g6"
    corpus.write_text("D{c\n")
    assert main(["hunt", "--predicate", "uppertotal-eq-2zgrundy", "--input", str(corpus)]) == 0
    hits = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert len(hits) == 1 and hits[0]["graph6"] == "D{c"


def test_hunt_skips_bad_input_lines(tmp_path, capsys):
    corpus = tmp_path / "in.g6"
    corpus.write_text("D{c\n&&&\nD{c\n")
    assert main(["hunt", "--predicate", "uppertotal-eq-2zgrundy", "--input", str(corpus)]) == 2
    out = capsys.readouterr()
    assert [json.loads(line)["graph6"] for line in out.out.splitlines()] == ["D{c", "D{c"]
    assert out.err.splitlines() == ["zfdom: line 2: invalid size byte '&' (byte offset 0)"]


def test_hunt_refuses_large_builtin_enumeration(capsys):
    assert main(["hunt", "--predicate", "z-eq-delta", "--n", "7"]) == 2
    assert "n <= 6" in capsys.readouterr().err


def test_explain(capsys):
    assert main(["explain", "Bg", "Z"]) == 0
    assert "zero_forcing = 1" in capsys.readouterr().out
    assert main(["explain", "Bg", "treewidth"]) == 2


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as err:
        main(["hunt"])  # missing required --predicate
    assert err.value.code == 2
