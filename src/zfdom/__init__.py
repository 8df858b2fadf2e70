"""Exact zero forcing, Grundy domination, total and power domination.

Desk-scale exact solvers over bitmask graphs, constructive sequence
builders, named extremal families, and a corpus verification harness.

Importing the package loads none of its submodules.  A public name is
looked up in its submodule on first use (PEP 562), so a process pays only
for the solvers it calls.
"""

import importlib

_EXPORTS = {
    "constructions": (
        "CliqueComponentError",
        "ExtremalPropertyReport",
        "K2ComponentAnalysis",
        "analyze_k2_components",
        "check_extremal_properties",
        "check_gamma_two_characterization",
        "fully_adjacent_indices",
        "gamma_t_set_minimizing_k2_components",
        "half_z_sequence_from_minimal_td",
        "max_minimal_cover_size",
        "non_twin_pairs_see_all",
        "z_sequence_from_gamma_t",
    ),
    "domination": (
        "NotTotalDominatingError",
        "TDCertificate",
        "enumerate_gamma_t_sets",
        "enumerate_minimal_td_sets",
        "is_dominating_set",
        "is_minimal_td_set",
        "is_total_dominating_set",
        "private_neighborhoods",
        "total_domination_number",
        "upper_total_domination_number",
    ),
    "families": (
        "FamilyInstance",
        "complete",
        "complete_multipartite",
        "cycle",
        "double_clique_matched",
        "g_star",
        "h_extension",
        "parse_family_spec",
        "path",
        "star",
        "windmill",
    ),
    "forcing": (
        "PropagationTrace",
        "SequenceCheck",
        "ZSequence",
        "complement_duality_check",
        "forcing_closure",
        "grundy_total_number",
        "is_z_sequence",
        "is_zero_forcing_set",
        "z_grundy_number",
        "zero_forcing_number",
    ),
    "graphs": (
        "Graph",
        "Graph6Error",
        "IsolatedVertexError",
        "UnsupportedSizeError",
        "VertexSet",
        "are_closed_twins",
        "are_open_twins",
        "are_twins",
        "bits",
        "components",
        "delete_vertex",
        "emit_graph6",
        "enumerate_labeled_graphs",
        "has_clique_component",
        "induced_subgraph",
        "is_biconnected",
        "is_chordal",
        "is_clique",
        "is_clique_component",
        "is_connected",
        "is_simplicial",
        "is_twin_vertex",
        "isolated_vertices",
        "parse_graph6",
        "simplicial_vertices",
    ),
    "harness": ("compute_report", "explain", "hunt_extremal", "run_corpus"),
    "powerdom": (
        "DecompositionReport",
        "DecompositionStructureError",
        "ParallelPathsDecomposition",
        "PowerTrace",
        "extract_decomposition",
        "is_k_parallel_paths_graph",
        "is_outerplanar_small",
        "is_power_dominating_set",
        "power_closure",
        "power_domination_number",
        "recognize_parallel_paths",
        "validate_decomposition",
        "z_equals_delta",
    ),
}

_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

# the submodules above are public under their own names too
__all__ = sorted([*_EXPORTS, *_SOURCE])
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:  # importing a submodule binds it here
        return importlib.import_module(f".{name}", __name__)
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
