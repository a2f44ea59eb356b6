"""The package's public surface: the exported names, the names that were
deleted and must not come back, and every value a caller can set."""

import pytest

import gluesat
from gluesat import bench, cli, formula, glue, metrics, solver
from gluesat.formula import Clause, Formula
from gluesat.proof import ProofEvent, ProofWriter

PUBLIC = [
    "Solver",
    "SolverConfig",
    "SolveResult",
    "Verdict",
    "MetricsReport",
    "Formula",
    "DimacsError",
    "parse_dimacs",
    "to_dimacs",
    "ProofWriter",
    "ProofEvent",
    "parse_drat",
    "check_rup",
]

# Solver internals: importable from the module that defines them, not
# from the package root.
INTERNAL = {
    "Clause": formula,
    "lit_from_int": formula,
    "lit_to_int": formula,
    "normalize_clause": formula,
    "GlueTracker": glue,
    "MetricsCollector": metrics,
    "finalize_report": metrics,
    "compute_lbd": solver,
    "luby": solver,
}


def test_all_is_the_public_list_and_resolves():
    assert gluesat.__all__ == PUBLIC
    for name in PUBLIC:
        assert getattr(gluesat, name) is not None, name


def test_deleted_names_are_gone():
    for name, module in INTERNAL.items():
        assert not hasattr(gluesat, name), name
        assert getattr(module, name) is not None, name
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
    with pytest.raises(TypeError):  # its counters start at 0, set by no caller
        metrics.ClassCounters(1)
    for name in ("GLUE", "NONGLUE", "PREAMBLE"):  # defined and never read
        assert not hasattr(metrics, name), name
    # each search count is kept once: gf_series counts the restarts, the
    # buckets count conflicts, and a class's conflicts count its LBDs
    s = solver.Solver(Formula(1))
    for name in ("formula", "restarts", "conflicts_since_restart", "should_restart"):
        assert not hasattr(s, name), name
    assert "lbd_count" not in metrics.ClassCounters.__slots__
    assert not hasattr(metrics.MetricsCollector(), "_current")  # the top of _level_class
    for name in ("record_propagation", "current_bucket", "sample_gf"):
        assert not hasattr(metrics.MetricsCollector, name), name
    assert "series" not in bench.CorpusResult._fields
    # each fact is computed once: callers read glue_level and the watch
    # slots directly, and no stats CSV writes a version
    assert not hasattr(glue.GlueTracker, "is_glue_var")
    for name in ("_watch", "_unwatch"):
        assert not hasattr(solver.Solver, name), name
    assert not hasattr(metrics, "STATS_CSV_VERSION")
    # the end-of-run pool ratios: ngf is 1 - gf, and r_glue / r_nonglue
    # divide run-long decision counts by the final pool
    for name in ("ngf", "r_glue", "r_nonglue"):
        assert name not in metrics.MetricsReport._fields, name
    # the stats row is written at its one call site; every clause starts at 0.0
    assert not hasattr(cli, "write_stats_csv")
    assert not hasattr(bench, "_fail")  # main's one try prints every failure
    with pytest.raises(TypeError):
        Clause([0, 2], 1, 0.5)


def test_solver_config_is_two_immutable_search_options():
    # the time budget is solve()'s deadline, not a config field; the
    # clause-database schedule is the module's LEARNT_LIMIT constants
    assert solver.SolverConfig._fields == ("glue_bump", "max_conflicts")
    cfg = solver.SolverConfig()
    with pytest.raises(AttributeError):
        cfg.max_conflicts = 5
    assert cfg._replace(max_conflicts=5).max_conflicts == 5
    assert cfg.max_conflicts is None


def test_command_line_options_are_pinned():
    # a new option edits this pin; gluesat-bench always runs both configs
    def options(parser):
        return [opt for action in parser._actions for opt in action.option_strings]

    assert options(cli.build_arg_parser()) == [
        "-h", "--help", "--glue-bump", "--timeout", "--max-conflicts", "--proof", "--stats-csv",
    ]
    assert options(bench.build_arg_parser()) == [
        "-h", "--help", "--manifest", "--out-dir", "--timeout", "--max-conflicts", "--jobs",
    ]
