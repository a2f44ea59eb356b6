import csv
import hashlib
import io
import multiprocessing as mp
import os
import signal
import subprocess
import sys
import time

import pytest

from gluesat import bench
from gluesat.bench import (
    RunRecord,
    _check_verdict_agreement,
    default_configs,
    main as bench_main,
    par2_summaries,
    read_manifest,
    run_corpus,
    solved_diff_series,
    write_records_csv,
    write_series_csv,
    write_summary_csv,
)
from gluesat.formula import to_dimacs
from gluesat.gen import pigeonhole, random_ksat, unit_chain
from oracles import recompute_par2_from_csv


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

needs_fork = pytest.mark.skipif(
    mp.get_start_method() != "fork", reason="the patched worker reaches children only by fork"
)


@pytest.fixture(autouse=True)
def no_leaked_workers():
    """Fail a test that leaves a live worker process behind it."""
    yield
    deadline = time.monotonic() + 2.0
    for proc in mp.active_children():
        proc.join(max(0.0, deadline - time.monotonic()))
    leaked = mp.active_children()
    for proc in leaked:  # so that one leak fails one test, not the rest
        proc.kill()
        proc.join(5.0)
    assert leaked == [], f"worker processes outlived the test: {leaked}"


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


def test_solved_diff_series_counts(monkeypatch):
    monkeypatch.setattr("gluesat.bench.SERIES_POINTS", 20)
    records = [
        rec("a", "baseline", "SATISFIABLE", 10.0, 100.0),
        rec("a", "gb", "SATISFIABLE", 5.0, 100.0),
        rec("b", "baseline", "UNKNOWN", 100.0, 100.0),
        rec("b", "gb", "UNSATISFIABLE", 50.0, 100.0),
    ]
    series = solved_diff_series(records, 100.0)
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


def test_solver_time_budget_gives_unknown_before_hard_kill(tmp_path, monkeypatch):
    # a formula the solver cannot finish in the budget; it stops on its own
    monkeypatch.setattr("gluesat.bench.HARD_KILL_GRACE_S", 0.3)
    hard = tmp_path / "hard.cnf"
    hard.write_text(to_dimacs(pigeonhole(9)))
    configs = {"baseline": default_configs()["baseline"]}
    result = run_corpus([str(hard)], configs, timeout_s=0.5, jobs=1)
    (r,) = result.records
    assert r.verdict == "UNKNOWN"
    assert r.wall_time_s >= 0.5
    assert r.error == ""


def test_hard_timeout_kills_worker_stuck_in_parsing(tmp_path, monkeypatch):
    # parsing alone (~1 s) outlasts timeout + grace, so only the kill ends it
    monkeypatch.setattr("gluesat.bench.HARD_KILL_GRACE_S", 0.1)
    big = tmp_path / "big.cnf"
    big.write_text(to_dimacs(unit_chain(200_000)))
    configs = {"baseline": default_configs()["baseline"]}
    result = run_corpus([str(big)], configs, timeout_s=0.1, jobs=1)
    (r,) = result.records
    assert (r.verdict, r.error) == ("UNKNOWN", "hard timeout")
    assert r.wall_time_s >= 0.2


def slow_parse(monkeypatch, seconds):
    """Make every harness parse sleep `seconds` first."""
    parse = bench.parse_dimacs

    def sleep_then_parse(source):
        time.sleep(seconds)
        return parse(source)

    monkeypatch.setattr("gluesat.bench.parse_dimacs", sleep_then_parse)


@needs_fork
def test_parse_spends_the_budget_so_the_solver_stops_before_the_kill(tmp_path, monkeypatch):
    # the parse outlasts the budget but not timeout + grace: the solver
    # must see the budget gone and stop cleanly before the hard kill
    slow_parse(monkeypatch, 0.4)
    monkeypatch.setattr("gluesat.bench.HARD_KILL_GRACE_S", 0.2)
    hard = tmp_path / "hard.cnf"
    hard.write_text(to_dimacs(pigeonhole(9)))
    configs = {"baseline": default_configs()["baseline"]}
    (r,) = run_corpus([str(hard)], configs, timeout_s=0.3, jobs=1).records
    assert (r.verdict, r.error) == ("UNKNOWN", "")
    assert r.report.conflicts == 0
    assert 0.4 <= r.wall_time_s < 0.5


@needs_fork
def test_solved_record_wall_time_counts_parsing(small_corpus, monkeypatch):
    slow_parse(monkeypatch, 0.3)
    configs = {"baseline": default_configs()["baseline"]}
    (r,) = run_corpus(small_corpus[:1], configs, timeout_s=60.0, jobs=1).records
    assert r.solved
    assert r.wall_time_s >= 0.3


@needs_fork
@pytest.mark.parametrize("jobs", [1, 2])
def test_worker_exit_without_result_is_error_record(small_corpus, monkeypatch, jobs):
    monkeypatch.setattr("gluesat.bench._solve_worker", lambda *args: os._exit(3))
    result = run_corpus(small_corpus[:2], default_configs(), timeout_s=10.0, jobs=jobs)
    assert len(result.records) == 4
    assert {(r.verdict, r.error) for r in result.records} == {("ERROR", "worker pipe closed")}


# ---- worker reuse and lifetime ------------------------------------------------------


def record_worker_pids(monkeypatch, path):
    """Make every harness task append its worker's pid to `path`."""
    solve = bench._solve_worker

    def solve_and_record(*args):
        with open(path, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return solve(*args)

    monkeypatch.setattr("gluesat.bench._solve_worker", solve_and_record)


@needs_fork
def test_jobs_1_solves_every_task_in_one_worker(small_corpus, monkeypatch, tmp_path):
    pids = tmp_path / "pids"
    record_worker_pids(monkeypatch, pids)
    result = run_corpus(small_corpus, default_configs(max_conflicts=50_000), timeout_s=60.0)
    assert all(r.solved for r in result.records)
    seen = pids.read_text().split()
    assert len(seen) == 2 * len(small_corpus)
    assert len(set(seen)) == 1 and seen[0] != str(os.getpid())


@needs_fork
def test_task_after_a_hard_kill_solves_in_a_new_worker(small_corpus, monkeypatch, tmp_path):
    big = tmp_path / "big.cnf"
    big.write_text(to_dimacs(unit_chain(200_000)))
    small_sat = small_corpus[4]  # unit_chain(8)
    pids = tmp_path / "pids"
    record_worker_pids(monkeypatch, pids)
    configs = {"baseline": default_configs()["baseline"]}
    monkeypatch.setattr("gluesat.bench.HARD_KILL_GRACE_S", 0.1)
    result = run_corpus([str(big), small_sat], configs, timeout_s=0.1, jobs=1)
    by_instance = {r.instance: r for r in result.records}
    assert (by_instance[str(big)].verdict, by_instance[str(big)].error) == (
        "UNKNOWN", "hard timeout"
    )
    assert by_instance[small_sat].verdict == "SATISFIABLE"
    first, second = pids.read_text().split()
    assert first != second


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_no_worker_outlives_an_exception_in_the_loop(small_corpus, monkeypatch, error):
    calls = []

    def wait_then_fail(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise error("injected")
        return mp.connection.wait(*args, **kwargs)

    monkeypatch.setattr("gluesat.bench.wait", wait_then_fail)
    with pytest.raises(error, match="injected"):
        run_corpus(small_corpus, default_configs(max_conflicts=50_000), timeout_s=60.0, jobs=2)
    assert mp.active_children() == []


def _gone(pid):
    """Whether `pid` has exited; a zombie has."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            state = next(line for line in fh if line.startswith("State:"))
    except FileNotFoundError:
        return True
    return state.split()[1] == "Z"


@needs_fork
def test_worker_exits_when_the_harness_closes_its_pipe():
    # Forked as run_corpus forks them; the second worker starts with a copy
    # of the first one's harness end, as a busy worker's would be.
    first, first_child = mp.Pipe()
    first_proc = mp.Process(target=bench._worker_loop, args=(first_child, [first]))
    first_proc.start()
    first_child.close()
    second, second_child = mp.Pipe()
    second_proc = mp.Process(target=bench._worker_loop, args=(second_child, [second, first]))
    second_proc.start()
    second_child.close()

    first.close()  # no stop message: the closed pipe alone ends the worker
    first_proc.join(2.0)
    assert first_proc.exitcode == 0
    assert second_proc.is_alive()
    second.close()
    second_proc.join(2.0)
    assert second_proc.exitcode == 0


# Runs run_corpus with the worker patched to write `<instance>.pid` before
# each task and the harness to write `wait<n>` before its n-th wait.
KILLABLE_HARNESS = """
import os
import sys

from gluesat import bench

marks, timeout_s, jobs, *instances = sys.argv[1:]
solve, wait, waits = bench._solve_worker, bench.wait, []


def mark(name, text=""):
    path = os.path.join(marks, name)
    with open(path + ".tmp", "w") as fh:
        fh.write(text)
    os.replace(path + ".tmp", path)


def solve_and_mark(inst, *args):
    mark(os.path.basename(inst) + ".pid", str(os.getpid()))
    return solve(inst, *args)


def wait_and_mark(*args, **kwargs):
    waits.append(None)
    mark(f"wait{len(waits)}")
    return wait(*args, **kwargs)


bench._solve_worker = solve_and_mark
bench.wait = wait_and_mark
bench.HARD_KILL_GRACE_S = 60.0
configs = {"baseline": bench.default_configs()["baseline"]}
bench.run_corpus(instances, configs, timeout_s=float(timeout_s), jobs=int(jobs))
"""


def assert_workers_exit_after_the_harness_is_killed(tmp_path, instances, jobs, ready):
    """SIGKILL a harness running `instances` once every mark in `ready`
    exists; each worker it started must be gone within timeout + 3 s."""
    marks = tmp_path / "marks"
    marks.mkdir()
    timeout_s = 1.0
    harness = subprocess.Popen(
        [sys.executable, "-c", KILLABLE_HARNESS, str(marks), str(timeout_s), str(jobs),
         *map(str, instances)],
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    workers = []
    try:
        deadline = time.monotonic() + 30.0
        while (not all((marks / name).exists() for name in ready)
               and harness.poll() is None and time.monotonic() < deadline):
            time.sleep(0.02)
        assert all((marks / name).exists() for name in ready), "the harness never got ready"
        workers = [int(p.read_text()) for p in marks.glob("*.pid")]
        harness.kill()
        harness.wait(10.0)
        deadline = time.monotonic() + timeout_s + 3.0
        while not all(map(_gone, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert all(map(_gone, workers)), "a worker outlived its killed harness"
    finally:
        harness.kill()
        harness.wait(10.0)
        for worker in workers:
            if not _gone(worker):
                os.kill(worker, signal.SIGKILL)


@needs_fork
@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc/<pid>/status")
def test_worker_exits_when_the_harness_is_killed(tmp_path):
    # mid-task: the solve has a second to run, then its send fails
    hard = tmp_path / "hard.cnf"
    hard.write_text(to_dimacs(pigeonhole(9)))
    assert_workers_exit_after_the_harness_is_killed(
        tmp_path, [hard], jobs=1, ready=["hard.cnf.pid"]
    )


@needs_fork
@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc/<pid>/status")
def test_idle_worker_exits_when_the_harness_is_killed(tmp_path):
    # The harness's second wait comes after the quick task's record, so
    # one worker is idle in recv (it reads EOF) and one is still solving.
    quick, hard = tmp_path / "quick.cnf", tmp_path / "hard.cnf"
    quick.write_text(to_dimacs(unit_chain(8)))
    hard.write_text(to_dimacs(pigeonhole(9)))
    assert_workers_exit_after_the_harness_is_killed(
        tmp_path, [quick, hard], jobs=2, ready=["quick.cnf.pid", "hard.cnf.pid", "wait2"]
    )


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


def test_bench_main_refuses_to_overwrite_its_manifest(small_corpus, tmp_path, capsys, no_solving):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    man = out_dir / "records.csv"
    man.write_text("\n".join(small_corpus))
    before = man.read_bytes()
    with pytest.raises(SystemExit) as exc:
        bench_main(["--manifest", str(man), "--out-dir", str(out_dir)])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: records.csv ") and "the manifest" in err
    assert man.read_bytes() == before
    assert sorted(os.listdir(out_dir)) == ["records.csv"]


def test_bench_main_refuses_to_overwrite_series_with_one_config(
    small_corpus, tmp_path, capsys, no_solving
):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    man = out_dir / "series.csv"
    man.write_text("\n".join(small_corpus))
    before = man.read_bytes()
    with pytest.raises(SystemExit) as exc:
        bench_main(["--manifest", str(man), "--out-dir", str(out_dir)])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: series.csv ") and "the manifest" in err
    assert man.read_bytes() == before


def test_bench_main_refuses_to_overwrite_a_listed_instance(tmp_path, capsys, no_solving):
    # the instance is listed by a relative path and the out dir is reached
    # through "..", so only the resolved paths show the clash
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    inst = out_dir / "summary.csv"
    inst.write_text(to_dimacs(pigeonhole(2)))
    before = inst.read_bytes()
    man = tmp_path / "manifest.txt"
    man.write_text("out/summary.csv\n")
    with pytest.raises(SystemExit) as exc:
        bench_main(["--manifest", str(man), "--out-dir", str(out_dir / ".." / "out")])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: summary.csv ") and "a listed instance" in err
    assert inst.read_bytes() == before


# ---- harness byte pin -------------------------------------------------------------------

# sha1 of records.csv and summary.csv from `harness_outputs`, with every
# wall_time_s and par2_sum_s cell masked and each instance path cut to
# its file name. A refactor of the harness must leave both unchanged.
RECORDS_SHA1 = "dcdd7c64b29d2b97c7dbcd1be0ad34a3ed9e95d5"
SUMMARY_SHA1 = "a724c2ca9ec92e03960489037833163bab039ae7"


def _masked_sha1(path, column):
    raw = path.read_bytes()
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows(rows)
    assert buf.getvalue().encode() == raw  # the reader/writer round trip is exact
    idx = rows[0].index(column)
    for row in rows[1:]:
        row[idx] = "X"
        if rows[0][0] == "instance":
            row[0] = os.path.basename(row[0])
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows(rows)
    return hashlib.sha1(buf.getvalue().encode()).hexdigest(), len(rows)


@pytest.fixture(scope="module")
def harness_outputs(tmp_path_factory):
    """records.csv, summary.csv and series.csv of one two-config run over a
    SAT, an UNSAT and a conflict-capped instance."""
    d = tmp_path_factory.mktemp("pin")
    paths = []
    for name, f in [
        ("php4.cnf", pigeonhole(4)),
        ("rand1.cnf", random_ksat(20, 70, seed=1)),
        ("php6_capped.cnf", pigeonhole(6)),
    ]:
        (d / name).write_text(to_dimacs(f))
        paths.append(str(d / name))
    result = run_corpus(paths, default_configs(max_conflicts=300), timeout_s=60.0, jobs=1)
    write_records_csv(d / "records.csv", result.records)
    write_summary_csv(d / "summary.csv", result.summaries)
    write_series_csv(d / "series.csv", result.series)
    return d


def test_harness_records_and_summary_bytes_are_pinned(harness_outputs):
    records = _masked_sha1(harness_outputs / "records.csv", "wall_time_s")
    summary = _masked_sha1(harness_outputs / "summary.csv", "par2_sum_s")
    assert records == (RECORDS_SHA1, 7)
    assert summary == (SUMMARY_SHA1, 3)


def test_harness_series_shape_is_pinned(harness_outputs):
    with open(harness_outputs / "series.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["time_s", "solved_diff"]
    assert len(rows) == 1 + 101
