import csv
import multiprocessing as mp
import os

import pytest

from gluesat.bench import (
    RunRecord,
    _check_verdict_agreement,
    default_configs,
    main as bench_main,
    par2_summaries,
    read_manifest,
    recompute_par2_from_csv,
    run_corpus,
    solved_diff_series,
    write_records_csv,
    write_summary_csv,
)
from gluesat.formula import to_dimacs
from gluesat.gen import pigeonhole, random_ksat, unit_chain


def rec(inst, cfg, verdict, wall, timeout=5000.0):
    return RunRecord(inst, cfg, verdict, wall, timeout)


# ---- PAR-2 arithmetic -----------------------------------------------------------


def test_par2_two_solved():
    records = [
        rec("a", "baseline", "SATISFIABLE", 1.0),
        rec("b", "baseline", "UNSATISFIABLE", 1.0),
    ]
    (s,) = par2_summaries(records, 5000.0, ["baseline"])
    assert s.par2_s == 2.0
    assert (s.solved_sat, s.solved_unsat) == (1, 1)


def test_par2_timeout_penalty():
    records = [
        rec("a", "baseline", "SATISFIABLE", 1.0),
        rec("b", "baseline", "UNKNOWN", 5000.0),
    ]
    (s,) = par2_summaries(records, 5000.0, ["baseline"])
    assert s.par2_s == 10001.0


def test_par2_excludes_errors():
    records = [
        rec("a", "baseline", "SATISFIABLE", 2.5),
        rec("b", "baseline", "ERROR", 0.0),
    ]
    (s,) = par2_summaries(records, 100.0, ["baseline"])
    assert s.par2_s == 2.5


def test_par2_recount_from_csv_matches_exactly(tmp_path):
    records = [
        rec("a", "baseline", "SATISFIABLE", 0.12345678901234567, 60.0),
        rec("a", "gb", "SATISFIABLE", 0.2345678901234567, 60.0),
        rec("b", "baseline", "UNKNOWN", 60.0, 60.0),
        rec("b", "gb", "UNSATISFIABLE", 3.14159, 60.0),
        rec("c", "baseline", "ERROR", 0.0, 60.0),
        rec("c", "gb", "ERROR", 0.0, 60.0),
    ]
    summaries = par2_summaries(records, 60.0, ["baseline", "gb"])
    path = tmp_path / "records.csv"
    write_records_csv(path, records)
    recount = recompute_par2_from_csv(path, 60.0)
    for s in summaries:
        assert recount[s.config] == s.par2_s  # exact float equality


# ---- solved-difference series ------------------------------------------------------


def test_solved_diff_series_counts():
    records = [
        rec("a", "baseline", "SATISFIABLE", 10.0, 100.0),
        rec("a", "gb", "SATISFIABLE", 5.0, 100.0),
        rec("b", "baseline", "UNKNOWN", 100.0, 100.0),
        rec("b", "gb", "UNSATISFIABLE", 50.0, 100.0),
    ]
    series = solved_diff_series(records, 100.0, points=20)
    assert series[0] == (0.0, 0)
    assert dict(series)[5.0] == 1  # gb solved a at 5; baseline not before 10
    assert dict(series)[10.0] == 0  # both have a by now
    assert dict(series)[50.0] == 1  # gb adds b
    assert dict(series)[100.0] == 1  # 2 vs 1 at the horizon


def test_contradiction_detection():
    records = [
        rec("a", "baseline", "SATISFIABLE", 1.0),
        rec("a", "gb", "UNSATISFIABLE", 1.0),
    ]
    with pytest.raises(RuntimeError, match="contradictory"):
        _check_verdict_agreement(records)
    _check_verdict_agreement(
        [rec("a", "baseline", "SATISFIABLE", 1.0), rec("a", "gb", "UNKNOWN", 1.0)]
    )


# ---- manifest -----------------------------------------------------------------------


def test_read_manifest_resolves_relative(tmp_path):
    (tmp_path / "x.cnf").write_text("p cnf 1 1\n1 0\n")
    man = tmp_path / "m.txt"
    man.write_text("# corpus\nx.cnf\n\n/abs/y.cnf\n")
    paths = read_manifest(man)
    assert paths == [str(tmp_path / "x.cnf"), "/abs/y.cnf"]


# ---- corpus runs ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    d = tmp_path_factory.mktemp("corpus")
    instances = {
        "php3.cnf": pigeonhole(3),
        "php4.cnf": pigeonhole(4),
        "rand1.cnf": random_ksat(20, 70, seed=1),
        "rand2.cnf": random_ksat(20, 90, seed=2),
        "chain.cnf": unit_chain(8),
        "chain_unsat.cnf": unit_chain(8, sat=False),
    }
    paths = []
    for name, f in instances.items():
        p = d / name
        p.write_text(to_dimacs(f))
        paths.append(str(p))
    return paths


def test_run_corpus_end_to_end(small_corpus, tmp_path):
    configs = default_configs(max_conflicts=50_000)
    result = run_corpus(small_corpus, configs, timeout_s=60.0, jobs=2)
    assert len(result.records) == len(small_corpus) * 2
    assert all(r.solved for r in result.records)
    assert {s.config for s in result.summaries} == {"baseline", "gb"}
    for s in result.summaries:
        assert s.solved_sat + s.solved_unsat == len(small_corpus)
    assert result.series and result.series[0][0] == 0.0

    records_csv = tmp_path / "records.csv"
    write_records_csv(records_csv, result.records)
    recount = recompute_par2_from_csv(records_csv, 60.0)
    for s in result.summaries:
        assert recount[s.config] == s.par2_s

    summary_csv = tmp_path / "summary.csv"
    write_summary_csv(summary_csv, result.summaries)
    with open(summary_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["config"] for r in rows] == ["baseline", "gb"]


def test_run_corpus_missing_file_is_error_record(small_corpus, tmp_path):
    configs = {"baseline": default_configs()["baseline"]}
    with pytest.warns(UserWarning, match="missing instance"):
        result = run_corpus(
            [small_corpus[0], "/nonexistent/void.cnf"], configs, timeout_s=30.0
        )
    errored = [r for r in result.records if r.verdict == "ERROR"]
    assert len(errored) == 1
    assert errored[0].error == "missing file"
    (s,) = result.summaries
    assert s.par2_s < 30.0  # the errored record contributed nothing
    # the error text survives into records.csv, as its last column
    path = tmp_path / "records.csv"
    write_records_csv(path, result.records)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0])[-1] == "error"
    assert sorted((r["verdict"], r["error"]) for r in rows) == [
        ("ERROR", "missing file"), ("UNSATISFIABLE", "")
    ]


def test_run_corpus_deterministic_modulo_wall_time(small_corpus, tmp_path):
    configs = default_configs(max_conflicts=50_000)
    rows = []
    for run_idx in range(2):
        result = run_corpus(small_corpus, configs, timeout_s=60.0, jobs=1)
        path = tmp_path / f"records{run_idx}.csv"
        write_records_csv(path, result.records)
        with open(path, newline="") as fh:
            rows.append(list(csv.reader(fh)))
    a, b = rows
    assert len(a) == len(b)
    header = a[0]
    wall_idx = header.index("wall_time_s")
    for ra, rb in zip(a, b):
        ra[wall_idx] = rb[wall_idx] = "X"
        assert ra == rb


def test_parse_failure_becomes_error_record(tmp_path):
    bad = tmp_path / "bad.cnf"
    bad.write_text("p cnf 1 1\n99 0\n")
    configs = {"baseline": default_configs()["baseline"]}
    result = run_corpus([str(bad)], configs, timeout_s=10.0)
    (r,) = result.records
    assert r.verdict == "ERROR"
    assert "DimacsError" in r.error


def test_bench_main_writes_outputs(small_corpus, tmp_path, capsys):
    man = tmp_path / "manifest.txt"
    man.write_text("\n".join(small_corpus))
    out_dir = tmp_path / "results"
    bench_main(
        [
            "--manifest", str(man),
            "--out-dir", str(out_dir),
            "--timeout", "30",
            "--jobs", "2",
            "--max-conflicts", "50000",
        ]
    )
    assert (out_dir / "records.csv").exists()
    assert (out_dir / "summary.csv").exists()
    assert (out_dir / "series.csv").exists()
    printed = capsys.readouterr().out
    assert "baseline:" in printed and "gb:" in printed


def test_solver_time_budget_gives_unknown_before_hard_kill(tmp_path):
    # a formula the solver cannot finish in the budget; it stops on its own
    hard = tmp_path / "hard.cnf"
    hard.write_text(to_dimacs(pigeonhole(9)))
    configs = {"baseline": default_configs()["baseline"]}
    result = run_corpus([str(hard)], configs, timeout_s=0.5, jobs=1, grace_s=0.3)
    (r,) = result.records
    assert r.verdict == "UNKNOWN"
    assert r.wall_time_s >= 0.5
    assert r.error == ""


def test_hard_timeout_kills_worker_stuck_in_parsing(tmp_path):
    # parsing alone (~1 s) outlasts timeout + grace, so only the kill ends it
    big = tmp_path / "big.cnf"
    big.write_text(to_dimacs(unit_chain(200_000)))
    configs = {"baseline": default_configs()["baseline"]}
    result = run_corpus([str(big)], configs, timeout_s=0.1, jobs=1, grace_s=0.1)
    (r,) = result.records
    assert (r.verdict, r.error) == ("UNKNOWN", "hard timeout")
    assert r.wall_time_s >= 0.2


@pytest.mark.skipif(
    mp.get_start_method() != "fork", reason="the patched worker reaches children only by fork"
)
@pytest.mark.parametrize("jobs", [1, 2])
def test_worker_exit_without_result_is_error_record(small_corpus, monkeypatch, jobs):
    monkeypatch.setattr("gluesat.bench._solve_worker", lambda *args: os._exit(3))
    result = run_corpus(small_corpus[:2], default_configs(), timeout_s=10.0, jobs=jobs)
    assert len(result.records) == 4
    assert {(r.verdict, r.error) for r in result.records} == {("ERROR", "worker pipe closed")}


@pytest.fixture
def no_solving(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("run_corpus called despite a bad argument")

    monkeypatch.setattr("gluesat.bench.run_corpus", fail)


def test_bench_main_out_dir_under_file_fails_before_solving(
    small_corpus, tmp_path, capsys, no_solving
):
    man = tmp_path / "manifest.txt"
    man.write_text("\n".join(small_corpus))
    blocker = tmp_path / "file"
    blocker.write_text("")
    with pytest.raises(SystemExit) as exc:
        bench_main(["--manifest", str(man), "--out-dir", str(blocker / "results")])
    assert exc.value.code == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_bench_main_missing_manifest_fails_before_solving(tmp_path, capsys, no_solving):
    with pytest.raises(SystemExit) as exc:
        bench_main(["--manifest", str(tmp_path / "nope.txt"), "--out-dir", str(tmp_path)])
    assert exc.value.code == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("timeout", ["nan", "inf", "0", "-1"])
def test_bench_main_rejects_nonfinite_or_nonpositive_timeout(tmp_path, timeout, no_solving):
    man = tmp_path / "manifest.txt"
    man.write_text("")
    with pytest.raises(SystemExit) as exc:
        bench_main(["--manifest", str(man), "--out-dir", str(tmp_path), "--timeout", timeout])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "flag, value",
    [("--max-conflicts", "0"), ("--max-conflicts", "-3"), ("--jobs", "0"), ("--jobs", "-2")],
)
def test_bench_main_rejects_nonpositive_counts(tmp_path, flag, value, no_solving):
    man = tmp_path / "manifest.txt"
    man.write_text("")
    with pytest.raises(SystemExit) as exc:
        bench_main(["--manifest", str(man), "--out-dir", str(tmp_path), flag, value])
    assert exc.value.code == 2


@pytest.mark.parametrize("configs", [",", ""])
def test_bench_main_no_configs_fails_before_solving(tmp_path, capsys, configs, no_solving):
    man = tmp_path / "manifest.txt"
    man.write_text("")
    with pytest.raises(SystemExit) as exc:
        bench_main(["--manifest", str(man), "--out-dir", str(tmp_path), "--configs", configs])
    assert exc.value.code == 1
    assert capsys.readouterr().err == "error: no configs\n"
