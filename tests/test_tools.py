import importlib.util
import json
import pathlib
import subprocess
import sys

from zfdom import domination, emit_graph6
from zfdom.families import cycle, windmill

TOOLS = pathlib.Path(__file__).resolve().parents[1] / "tools"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_work_counts_are_deterministic():
    """Each count is one call: of ``best``, of ``_closure_mask`` by its caller,
    and of the TD-set search's ``extend``."""
    workcount = _load("workcount")
    lines = ["D{c", emit_graph6(cycle(7).graph), emit_graph6(windmill(3, 3).graph)]
    domination._minimal_td_masks.cache_clear()  # as in a fresh process
    first = workcount.count_work(lines)
    closures = {"_least_seed": 9, "_wavefront_value": 8,
                "extract_decomposition": 3, "z_equals_delta": 11}
    assert first == {"graphs": 3, "dp_states": 57, "closures": closures, "td_nodes": 139}
    assert first == workcount.count_work(lines)


def test_work_count_command_prints_one_json_line(tmp_path, child_env):
    corpus = tmp_path / "corpus.g6"
    corpus.write_text("D{c\nBw\n\nEqro\n", encoding="ascii")
    done = subprocess.run(
        [sys.executable, str(TOOLS / "workcount.py"), str(corpus), "--every", "2"],
        capture_output=True, text=True, env=child_env, check=True,
    )
    (line,) = done.stdout.splitlines()
    assert json.loads(line)["graphs"] == 2  # D{c and Eqro
