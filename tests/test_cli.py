import io
import json
import select
import subprocess
import sys

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


def test_family_refuses_an_unprintable_spec_before_building_it(child_env):
    """complete:100000 is refused from its parameter, not after building its edges.

    A child process, so that a build of the graph is cut off by the timeout.
    """
    code = (
        "import sys, time\n"
        "from zfdom.cli import main\n"
        "start = time.perf_counter()\n"
        "status = main(['family', 'complete:100000'])\n"
        "print(time.perf_counter() - start)\n"
        "sys.exit(status)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env, timeout=10,
    )
    assert proc.returncode == 2
    assert float(proc.stdout) < 1.0
    assert "complete:100000" in proc.stderr and "62" in proc.stderr


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


@pytest.mark.parametrize("bad", [["--jobs", "0"], ["--budget-ms", "-5"]])
def test_run_rejects_out_of_range_numbers(bad, tmp_path, capsys):
    corpus = tmp_path / "graphs.g6"
    corpus.write_text("Bw\n")
    assert main(["run", str(corpus), *bad]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith(f"zfdom: {bad[0]} ")


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize(
    "text, checks, message",
    [("", "nonsense", "unknown check 'nonsense'"),
     ("Bw\n", "", "unknown check ''"),
     ("Bw\n", "duality,duality", "check 'duality' is selected twice")],
)
def test_run_rejects_a_bad_check_selection(jobs, text, checks, message, tmp_path, capsys):
    corpus = tmp_path / "graphs.g6"
    corpus.write_text(text)
    assert main(["run", str(corpus), "--checks", checks, "--jobs", jobs, "--format", "csv"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"zfdom: {message}\n"


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


NON_ASCII_CORPUS = b"Bw\n\xc3\xa9\nBg\n"


def _corpus_argument(source, tmp_path, monkeypatch):
    """Path of a file holding ``NON_ASCII_CORPUS``, or ``-`` with it on stdin."""
    if source == "stdin":
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(NON_ASCII_CORPUS)))
        return "-"
    corpus = tmp_path / "mixed.g6"
    corpus.write_bytes(NON_ASCII_CORPUS)
    return str(corpus)


@pytest.mark.parametrize("source", ["file", "stdin"])
@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_run_reports_a_non_ascii_line_as_a_parse_failure(source, fmt, tmp_path, monkeypatch, capsys):
    argument = _corpus_argument(source, tmp_path, monkeypatch)
    assert main(["run", argument, "--format", fmt]) == 2
    out = capsys.readouterr()
    assert out.out.isascii()
    rows = out.out.splitlines()
    if fmt == "csv":
        rows = rows[1:]
        assert [row.split(",")[0] for row in rows] == ["Bw", "\\xc3\\xa9", "Bg"]
    else:
        reports = [json.loads(row) for row in rows]
        assert [r["graph6"] for r in reports] == ["Bw", "\\xc3\\xa9", "Bg"]
        assert ["error" in r for r in reports] == [False, True, False]
    summary = json.loads(out.err)
    assert summary["graphs"] == 3 and summary["parse_failures"] == 1
    assert summary["failed_lines"] == ["\\xc3\\xa9"]


@pytest.mark.parametrize("unbuffered", [True, False], ids=["with-u", "without-u"])
def test_run_reports_a_stdin_line_before_the_input_ends(unbuffered, child_env, tmp_path, capsys):
    corpus = tmp_path / "one.g6"
    corpus.write_text("Bw\n")
    assert main(["run", str(corpus)]) == 0
    expected = capsys.readouterr().out.encode()
    env = dict(child_env)
    if not unbuffered:
        env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.Popen(
        [sys.executable, *(["-u"] if unbuffered else []), "-m", "zfdom.cli", "run", "-"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    try:
        proc.stdin.write(b"Bw\n")
        proc.stdin.flush()
        ready, _, _ = select.select([proc.stdout], [], [], 30)
        assert ready, "no report before stdin closed"
        first = proc.stdout.readline()
        rest, err = proc.communicate(timeout=30)  # closes stdin
    finally:
        proc.kill()
        proc.wait(timeout=30)
    assert first == expected and rest == b""
    assert proc.returncode == 0 and json.loads(err)["graphs"] == 1


@pytest.mark.parametrize("unbuffered", [True, False], ids=["with-u", "without-u"])
def test_hunt_reports_each_stdin_line_before_the_input_ends(unbuffered, child_env):
    """A bad line's message and a good line's hit each appear while stdin is open."""
    env = dict(child_env)
    if not unbuffered:
        env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.Popen(
        [sys.executable, *(["-u"] if unbuffered else []), "-m", "zfdom.cli",
         "hunt", "--predicate", "z-eq-delta", "--input", "-"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    try:
        seen = []
        for line, stream in ((b"xx\n", proc.stderr), (b"Bw\n", proc.stdout)):
            proc.stdin.write(line)
            proc.stdin.flush()
            ready, _, _ = select.select([stream], [], [], 30)
            assert ready, f"nothing for {line!r} before stdin closed"
            seen.append(stream.readline())
        rest, err = proc.communicate(timeout=30)  # closes stdin
    finally:
        proc.kill()
        proc.wait(timeout=30)
    assert seen[0].startswith(b"zfdom: line 1: ")
    assert json.loads(seen[1])["graph6"] == "Bw"
    assert rest == b"" and err == b"" and proc.returncode == 2


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_hunt_skips_a_non_ascii_line(source, tmp_path, monkeypatch, capsys):
    argument = _corpus_argument(source, tmp_path, monkeypatch)
    assert main(["hunt", "--predicate", "z-eq-delta", "--input", argument]) == 2
    out = capsys.readouterr()
    assert [json.loads(line)["graph6"] for line in out.out.splitlines()] == ["Bw", "Bg"]
    [message] = out.err.splitlines()
    assert message.startswith("zfdom: line 2: ")


# Escaped as the text \xab???..., this line would be a 29-vertex graph6 string.
ESCAPE_LOOKALIKE = b"\xab" + b"?" * 65


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_run_never_parses_a_non_ascii_byte_as_graph6(fmt, tmp_path, capsys):
    corpus = tmp_path / "lookalike.g6"
    corpus.write_bytes(ESCAPE_LOOKALIKE + b"\n")
    assert main(["run", str(corpus), "--format", fmt]) == 2
    out = capsys.readouterr()
    assert out.out.isascii()
    summary = json.loads(out.err)
    assert summary["graphs"] == 1 and summary["parse_failures"] == 1
    assert summary["failed_lines"] == ["\\xab" + "?" * 65]


def test_hunt_never_parses_a_non_ascii_byte_as_graph6(tmp_path, capsys):
    corpus = tmp_path / "lookalike.g6"
    corpus.write_bytes(ESCAPE_LOOKALIKE + b"\n")
    assert main(["hunt", "--predicate", "z-eq-delta", "--input", str(corpus)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.splitlines() == ["zfdom: line 1: invalid size byte 0xab (byte offset 0)"]


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
