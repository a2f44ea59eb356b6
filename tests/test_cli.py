import csv
import io

import pytest

from gluesat.cli import EXIT_SAT, EXIT_UNKNOWN, EXIT_UNSAT, run_single
from gluesat.formula import to_dimacs
from gluesat.gen import pigeonhole, random_ksat
from gluesat.metrics import STATS_CSV_HEADER
from gluesat.proof import check_rup
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


@pytest.mark.parametrize("max_conflicts", ["0", "-3"])
def test_max_conflicts_must_be_positive(tmp_path, max_conflicts):
    path = write_cnf(tmp_path, "x.cnf", "p cnf 1 1\n1 0\n")
    with pytest.raises(SystemExit) as exc:
        run([path, "--max-conflicts", max_conflicts])
    assert exc.value.code == 2
