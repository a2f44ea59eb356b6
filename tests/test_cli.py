import csv
import io
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


def test_parse_error_exit_1(tmp_path):
    path = write_cnf(tmp_path, "bad.cnf", "p cnf 1 1\n2 0\n")
    code, out, err = run([path])
    assert code == 1
    assert "error:" in err
    assert "s " not in out


def test_missing_file_exit_1(tmp_path):
    code, _, err = run([str(tmp_path / "nope.cnf")])
    assert code == 1
    assert "error:" in err


def test_proof_output_checks(tmp_path):
    f = pigeonhole(4)
    path = write_cnf(tmp_path, "php.cnf", to_dimacs(f))
    proof_path = tmp_path / "out.drat"
    code, _, _ = run([path, "--proof", str(proof_path)])
    assert code == EXIT_UNSAT
    assert check_rup(f, proof_path.read_text()) is True


def test_stats_csv_output(tmp_path):
    path = write_cnf(tmp_path, "x.cnf", "p cnf 2 2\n1 2 0\n-1 2 0\n")
    stats_path = tmp_path / "stats.csv"
    code, _, _ = run([path, "--stats-csv", str(stats_path)])
    assert code == EXIT_SAT
    with open(stats_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == STATS_CSV_HEADER
    assert rows[1][0] == path
    assert rows[1][1] == "SATISFIABLE"
    assert len(rows) == 2


def test_bad_stats_csv_path_fails_before_solving(tmp_path):
    path = write_cnf(tmp_path, "x.cnf", "p cnf 2 2\n1 2 0\n-1 2 0\n")
    code, out, err = run([path, "--stats-csv", str(tmp_path / "nodir" / "x.csv")])
    assert code == 1
    assert err.startswith("error: ")
    assert out == ""


@pytest.mark.parametrize("timeout", ["nan", "inf", "0", "-1"])
def test_timeout_must_be_finite_and_positive(tmp_path, timeout):
    path = write_cnf(tmp_path, "x.cnf", "p cnf 1 1\n1 0\n")
    with pytest.raises(SystemExit) as exc:
        run([path, "--timeout", timeout])
    assert exc.value.code == 2


def test_timeout_counts_parsing(tmp_path, monkeypatch):
    # a parse that takes longer than the whole budget leaves the solver none
    parse = gluesat.cli.parse_dimacs

    def slow_parse(source):
        time.sleep(0.3)
        return parse(source)

    monkeypatch.setattr(gluesat.cli, "parse_dimacs", slow_parse)
    path = write_cnf(tmp_path, "php.cnf", to_dimacs(pigeonhole(5)))
    code, out, _ = run([path, "--timeout", "0.1"])
    assert code == EXIT_UNKNOWN
    assert "s UNKNOWN" in out.splitlines()
    assert " conflicts 0 " in out


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
