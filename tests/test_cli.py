import csv
import io
import os
import subprocess
import sys
import time

import pytest

import gluesat.cli
from gluesat.cli import EXIT_SAT, EXIT_UNKNOWN, EXIT_UNSAT, run_single
from gluesat.formula import to_dimacs
from gluesat.gen import pigeonhole, random_ksat
from gluesat.metrics import STATS_CSV_HEADER
from gluesat.proof import check_rup
from gluesat.solver import Solver, SolverConfig
from oracles import model_satisfies

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run_single(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def write_cnf(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def parse_v_lines(stdout):
    lits = []
    for line in stdout.splitlines():
        if line.startswith("v "):
            lits += [int(t) for t in line[2:].split()]
    assert lits[-1] == 0
    return lits[:-1]


def test_unsat_instance_exit_20(tmp_path):
    path = write_cnf(tmp_path, "contra.cnf", "p cnf 1 2\n1 0\n-1 0\n")
    code, out, _ = run([path])
    assert code == EXIT_UNSAT
    assert "s UNSATISFIABLE" in out.splitlines()


def test_sat_unit_instance_exit_10(tmp_path):
    path = write_cnf(tmp_path, "unit.cnf", "p cnf 1 1\n1 0\n")
    code, out, _ = run([path])
    assert code == EXIT_SAT
    lines = out.splitlines()
    assert "s SATISFIABLE" in lines
    assert "v 1 0" in lines


def test_unknown_on_conflict_budget(tmp_path):
    path = write_cnf(tmp_path, "php.cnf", to_dimacs(pigeonhole(5)))
    code, out, _ = run([path, "--max-conflicts", "3"])
    assert code == EXIT_UNKNOWN
    assert "s UNKNOWN" in out.splitlines()


def test_model_lines_satisfy_formula(tmp_path):
    f = random_ksat(25, 80, seed=99)
    path = write_cnf(tmp_path, "rand.cnf", to_dimacs(f))
    code, out, _ = run([path, "--glue-bump", "on"])
    assert code == EXIT_SAT
    model = parse_v_lines(out)
    assert sorted(abs(x) for x in model) == list(range(1, 26))
    assert model_satisfies(f, model)


def test_proof_output_checks(tmp_path):
    f = pigeonhole(4)
    path = write_cnf(tmp_path, "php.cnf", to_dimacs(f))
    proof_path = tmp_path / "out.drat"
    proof_path.write_text("c stale\n" * 1000)  # an existing file is replaced, not appended to
    code, _, _ = run([path, "--proof", str(proof_path)])
    assert code == EXIT_UNSAT
    assert check_rup(f, proof_path.read_text()) is True
    assert "stale" not in proof_path.read_text()


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
def test_proof_streams_to_a_pipe(tmp_path):
    # a pipe cannot be truncated, so opening the outputs must not try
    f = pigeonhole(3)
    path = write_cnf(tmp_path, "php.cnf", to_dimacs(f))
    proc = subprocess.run(
        [sys.executable, "-m", "gluesat.cli", path, "--proof", "/dev/stdout"],
        env=dict(os.environ, PYTHONPATH=SRC), stdout=subprocess.PIPE, text=True,
    )
    assert proc.returncode == EXIT_UNSAT
    proof = [line for line in proc.stdout.splitlines() if not line.startswith(("c ", "s "))]
    assert proof and check_rup(f, "\n".join(proof)) is True


def test_stats_csv_output(tmp_path):
    path = write_cnf(tmp_path, "x.cnf", "p cnf 2 2\n1 2 0\n-1 2 0\n")
    stats_path = tmp_path / "stats.csv"
    stats_path.write_text("stale\n" * 1000)  # an existing file is replaced, not appended to
    code, _, _ = run([path, "--stats-csv", str(stats_path)])
    assert code == EXIT_SAT
    with open(stats_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == STATS_CSV_HEADER
    assert rows[1][0] == path
    assert rows[1][1] == "SATISFIABLE"
    assert len(rows) == 2


GOOD_CNF = "p cnf 2 2\n1 2 0\n-1 2 0\n"
BOTH_OUTPUTS = {"--proof": "out.drat", "--stats-csv": "stats.csv"}


@pytest.mark.parametrize(
    "cnf_text, outputs, old_proof",
    [
        ("p cnf 1 1\n2 0\n", BOTH_OUTPUTS, None),  # a literal past the header's variable count
        (None, BOTH_OUTPUTS, None),  # no input file
        (GOOD_CNF, {"--proof": "nodir/out"}, None),
        (GOOD_CNF, {"--stats-csv": "nodir/out"}, None),
        (GOOD_CNF, {"--proof": "out.drat", "--stats-csv": "nodir/out"}, b"old proof\n"),
        (GOOD_CNF, {"--proof": "out.drat", "--stats-csv": "nodir/out"}, None),
    ],
    ids=[
        "unparsable-input", "missing-input", "bad-proof-dir", "bad-stats-csv-dir",
        "bad-stats-csv-dir-keeps-old-proof", "bad-stats-csv-dir-makes-no-proof",
    ],
)
def test_failure_exits_1_before_solving(tmp_path, cnf_text, outputs, old_proof):
    # a bad input opens no output, a bad output path costs no solve, and
    # a failed run creates no file and changes no existing one
    path = str(tmp_path / "x.cnf")
    if cnf_text is not None:
        write_cnf(tmp_path, "x.cnf", cnf_text)
    if old_proof is not None:
        (tmp_path / "out.drat").write_bytes(old_proof)
    argv = [path]
    for flag, name in outputs.items():
        argv += [flag, str(tmp_path / name)]
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    code, out, err = run(argv)
    assert code == 1
    assert err.startswith("error: ")
    assert out == ""  # no s line, and no c line from a solve
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


@pytest.mark.parametrize("timeout", ["nan", "inf", "0", "-1"])
def test_timeout_must_be_finite_and_positive(tmp_path, timeout):
    path = write_cnf(tmp_path, "x.cnf", "p cnf 1 1\n1 0\n")
    with pytest.raises(SystemExit) as exc:
        run([path, "--timeout", timeout])
    assert exc.value.code == 2


@pytest.fixture
def slow_parse(monkeypatch):
    """Make the CLI's parse sleep 0.3 s first."""
    parse = gluesat.cli.parse_dimacs

    def sleep_then_parse(source):
        time.sleep(0.3)
        return parse(source)

    monkeypatch.setattr(gluesat.cli, "parse_dimacs", sleep_then_parse)


def test_timeout_counts_parsing(tmp_path, slow_parse):
    # a parse that takes longer than the whole budget leaves the solver none
    path = write_cnf(tmp_path, "php.cnf", to_dimacs(pigeonhole(5)))
    code, out, _ = run([path, "--timeout", "0.1"])
    assert code == EXIT_UNKNOWN
    assert "s UNKNOWN" in out.splitlines()
    assert " conflicts 0 " in out


def test_reported_time_counts_parsing(tmp_path, slow_parse):
    # with no --timeout, `c time` and the stats row still time the whole run
    path = write_cnf(tmp_path, "php.cnf", to_dimacs(pigeonhole(3)))
    stats_path = tmp_path / "stats.csv"
    code, out, _ = run([path, "--stats-csv", str(stats_path)])
    assert code == EXIT_UNSAT
    c_time = next(l for l in out.splitlines() if l.startswith("c time ")).split()[2]
    with open(stats_path, newline="") as fh:
        wall = float(next(csv.DictReader(fh))["wall_time_s"])
    assert float(c_time) >= 0.3
    assert f"{wall:.3f}" == c_time


@pytest.mark.parametrize("max_conflicts", ["0", "-3"])
def test_max_conflicts_must_be_positive(tmp_path, max_conflicts):
    path = write_cnf(tmp_path, "x.cnf", "p cnf 1 1\n1 0\n")
    with pytest.raises(SystemExit) as exc:
        run([path, "--max-conflicts", max_conflicts])
    assert exc.value.code == 2


@pytest.mark.parametrize("flag", ["--proof", "--stats-csv"])
def test_output_onto_input_cnf_is_refused(tmp_path, flag):
    text = "p cnf 1 2\n1 0\n-1 0\n"
    path = write_cnf(tmp_path, "x.cnf", text)
    (tmp_path / "sub").mkdir()
    same = str(tmp_path / "sub" / ".." / "x.cnf")  # another spelling of the input
    code, out, err = run([path, flag, same])
    assert code == 1
    assert err.startswith("error: ")
    assert out == ""
    assert (tmp_path / "x.cnf").read_bytes() == text.encode()


def test_proof_and_stats_csv_on_one_path_are_refused(tmp_path):
    text = "p cnf 1 2\n1 0\n-1 0\n"
    path = write_cnf(tmp_path, "x.cnf", text)
    out_path = tmp_path / "out.txt"
    code, out, err = run([path, "--proof", str(out_path), "--stats-csv", str(out_path)])
    assert code == 1
    assert err.startswith("error: ")
    assert out == ""
    assert not out_path.exists()
    assert (tmp_path / "x.cnf").read_bytes() == text.encode()


@pytest.mark.parametrize(
    "formula, expected",
    [(random_ksat(60, 250, seed=0), EXIT_SAT), (pigeonhole(4), EXIT_UNSAT)],
    ids=["sat", "unsat"],
)
def test_one_set_of_totals_at_every_output(tmp_path, formula, expected):
    # the c line, the --stats-csv row and the in-process result agree
    path = write_cnf(tmp_path, "x.cnf", to_dimacs(formula))
    stats_path = tmp_path / "stats.csv"
    code, out, _ = run([path, "--stats-csv", str(stats_path)])
    assert code == expected
    names = ["decisions", "propagations", "conflicts", "glue-clauses"]
    tokens = next(l for l in out.splitlines() if l.startswith("c decisions ")).split()[1:]
    c_line = dict(zip(tokens[::2], tokens[1::2]))
    from_c_line = [int(c_line[n]) for n in names]
    with open(stats_path, newline="") as fh:
        row = list(csv.DictReader(fh))[0]
    from_csv = [int(row[n.replace("-", "_")]) for n in names]
    c = Solver(formula, SolverConfig()).solve().counters
    in_process = [c.decisions, c.propagations, c.conflicts, c.glue_clauses]
    assert from_c_line == from_csv == in_process
    assert c.glue_clauses > 0  # every compared total is nonzero
