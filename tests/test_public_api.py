"""The package's public surface: the exported names, and the names that
were deleted and must not come back."""

import pytest

import gluesat
from gluesat import bench, formula, metrics, solver
from gluesat.formula import Clause, Formula
from gluesat.proof import ProofEvent, ProofWriter

PUBLIC = [
    "Clause",
    "DimacsError",
    "Formula",
    "lit_from_int",
    "lit_to_int",
    "normalize_clause",
    "parse_dimacs",
    "to_dimacs",
    "GlueTracker",
    "MetricsCollector",
    "MetricsReport",
    "finalize_report",
    "ProofEvent",
    "ProofWriter",
    "check_rup",
    "parse_drat",
    "SolveResult",
    "Solver",
    "SolverConfig",
    "Verdict",
    "compute_lbd",
    "luby",
]


def test_all_is_the_public_list_and_resolves():
    assert gluesat.__all__ == PUBLIC
    for name in PUBLIC:
        assert getattr(gluesat, name) is not None, name


def test_deleted_names_are_gone():
    for module in (gluesat, solver):
        assert not hasattr(module, "SearchCounters")
    for module in (gluesat, formula):
        assert not hasattr(module, "lit_var")
    assert not hasattr(bench, "recompute_par2_from_csv")
    assert not hasattr(bench, "IDLE_POLL_S")  # workers stop when their pipe closes
    assert solver.SolveResult._fields == ("verdict", "model", "counters", "restarts")
    assert not hasattr(ProofWriter, "emit")
    assert not hasattr(ProofEvent, "to_line")
    assert not hasattr(Clause, "__len__")
    assert not hasattr(Clause, "learnt")  # a clause is learnt iff its lbd > 0
    assert not hasattr(metrics, "GF_SAMPLE_INTERVAL")
    for name in ("GLUE", "NONGLUE", "PREAMBLE"):  # defined and never read
        assert not hasattr(metrics, name), name
    assert not hasattr(solver.Solver(Formula(1)), "formula")


def test_solver_config_is_four_immutable_search_options():
    # the time budget is solve()'s deadline, not a config field
    assert solver.SolverConfig._fields == (
        "glue_bump", "learnt_limit", "learnt_limit_growth", "max_conflicts"
    )
    cfg = solver.SolverConfig()
    with pytest.raises(AttributeError):
        cfg.max_conflicts = 5
    assert cfg._replace(max_conflicts=5).max_conflicts == 5
    assert cfg.max_conflicts is None
