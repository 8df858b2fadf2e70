import doctest
import importlib
import json
import pathlib
import subprocess
import sys

import pytest

import zfdom
from zfdom.harness import CHUNK_LINES

# The public names of the package, by the submodule that defines them.  Each
# submodule is public under its own name as well.
PUBLIC = {
    "constructions": """
        CliqueComponentError ExtremalPropertyReport K2ComponentAnalysis
        analyze_k2_components check_extremal_properties
        check_gamma_two_characterization fully_adjacent_indices
        gamma_t_set_minimizing_k2_components half_z_sequence_from_minimal_td
        max_minimal_cover_size non_twin_pairs_see_all z_sequence_from_gamma_t
    """,
    "domination": """
        NotTotalDominatingError TDCertificate enumerate_gamma_t_sets
        enumerate_minimal_td_sets is_dominating_set is_minimal_td_set
        is_total_dominating_set private_neighborhoods total_domination_number
        upper_total_domination_number
    """,
    "families": """
        FamilyInstance complete complete_multipartite cycle
        double_clique_matched g_star h_extension parse_family_spec path star
        windmill
    """,
    "forcing": """
        PropagationTrace SequenceCheck ZSequence complement_duality_check
        forcing_closure grundy_total_number is_z_sequence is_zero_forcing_set
        z_grundy_number zero_forcing_number
    """,
    "graphs": """
        Graph Graph6Error IsolatedVertexError UnsupportedSizeError VertexSet
        are_closed_twins are_open_twins are_twins bits components
        delete_vertex emit_graph6 enumerate_labeled_graphs has_clique_component
        induced_subgraph is_biconnected is_chordal is_clique
        is_clique_component is_connected is_simplicial is_twin_vertex
        isolated_vertices parse_graph6 simplicial_vertices
    """,
    "harness": "compute_report explain hunt_extremal run_corpus",
    "powerdom": """
        DecompositionReport DecompositionStructureError
        ParallelPathsDecomposition PowerTrace extract_decomposition
        is_k_parallel_paths_graph is_outerplanar_small is_power_dominating_set
        power_closure power_domination_number recognize_parallel_paths
        validate_decomposition z_equals_delta
    """,
}


def test_public_names_are_the_submodules_own_objects():
    names = {module: text.split() for module, text in PUBLIC.items()}
    expected = sorted([*names, *(name for group in names.values() for name in group)])
    assert len(expected) == 92
    assert sorted(zfdom.__all__) == expected
    star: dict = {}
    exec("from zfdom import *", star)
    assert sorted(set(star) - {"__builtins__"}) == expected
    assert set(expected) <= set(dir(zfdom))
    for module, group in names.items():
        submodule = importlib.import_module(f"zfdom.{module}")
        assert getattr(zfdom, module) is submodule
        for name in group:
            assert getattr(zfdom, name) is getattr(submodule, name), name


def test_the_readme_examples_run():
    """README's Library example is a doctest, so its outputs cannot drift."""
    readme = pathlib.Path(__file__).parents[1] / "README.md"
    results = doctest.testfile(str(readme), module_relative=False)
    assert results.attempted > 0 and results.failed == 0


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        zfdom.no_such_name  # noqa: B018


def _loaded_after(code: str, env: dict, tmp_path) -> set[str]:
    """The modules a fresh interpreter holds when ``code`` ends or exits."""
    record = tmp_path / "modules.json"
    probe = (
        "import atexit, json, sys\n"
        f"atexit.register(lambda: json.dump(sorted(sys.modules), open({str(record)!r}, 'w')))\n"
        + code
    )
    proc = subprocess.run([sys.executable, "-c", probe], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(record.read_text()))


def test_a_process_loads_only_what_it_runs(child_env, tmp_path):
    def package_modules(code: str) -> set[str]:
        return {name for name in _loaded_after(code, child_env, tmp_path)
                if name.partition(".")[0] == "zfdom"}

    assert package_modules("import zfdom") == {"zfdom"}
    assert package_modules("from zfdom import _smallgraphs") == {
        "zfdom", "zfdom.graphs", "zfdom._smallgraphs"}

    def run(jobs: str, lines: int) -> set[str]:
        (tmp_path / "graphs.g6").write_text("Bw\nCF\n" * (lines // 2) + "Bw\n" * (lines % 2))
        return _loaded_after(
            "import runpy\n"  # as ``python -m zfdom.cli run --jobs J graphs.g6`` does
            f"sys.argv = ['zfdom', 'run', '--jobs', {jobs!r}, 'graphs.g6']\n"
            "runpy.run_module('zfdom.cli', run_name='__main__', alter_sys=True)\n",
            child_env, tmp_path)

    for jobs in ("1", "2"):  # two lines fit one chunk, so two jobs start no pool
        loaded = run(jobs, 2)
        assert "zfdom.harness" in loaded and "zfdom.constructions" in loaded
        assert "concurrent.futures.process" not in loaded and "zfdom.families" not in loaded
    assert "concurrent.futures.process" in run("2", CHUNK_LINES + 1)

    hunt = _loaded_after(
        "import runpy\n"
        "sys.argv = ['zfdom', 'hunt', '--predicate', 'z-eq-delta', '--n', '3']\n"
        "runpy.run_module('zfdom.cli', run_name='__main__', alter_sys=True)\n",
        child_env, tmp_path)
    assert "zfdom.harness" in hunt
    assert "zfdom.constructions" not in hunt and "concurrent.futures.process" not in hunt
