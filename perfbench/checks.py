"""Output checks written for the benchmark alone.

Nothing here imports gluesat: a SAT model is evaluated against the
DIMACS file by this module's own reader, so a bug in the solver's parser
or model construction cannot vouch for itself.
"""

from __future__ import annotations

import re

EXIT_FOR_VERDICT = {"SATISFIABLE": 10, "UNSATISFIABLE": 20, "UNKNOWN": 0}

_COUNTS = re.compile(
    r"^c decisions (\d+) propagations (\d+) conflicts (\d+) glue-clauses (\d+) restarts (\d+)$"
)
_TIME = re.compile(r"^c time ([0-9.]+) s$")


def parse_cli_output(path: str) -> dict:
    """Verdict, counters, reported solve time and model of one CLI run.

    The model is a bytearray indexed by variable: 1 true, 2 false, 0
    unassigned. It stays None when the output has no `v` lines.
    """
    out: dict = {"verdict": None, "counts": None, "time_s": None, "model": None,
                 "model_ended": False}
    lits: list[int] = []
    with open(path) as fh:
        for line in fh:
            if line.startswith("v "):
                lits.extend(int(t) for t in line[2:].split())
            elif line.startswith("s "):
                out["verdict"] = line[2:].strip()
            elif m := _COUNTS.match(line.rstrip("\n")):
                out["counts"] = [int(g) for g in m.groups()]
            elif m := _TIME.match(line.rstrip("\n")):
                out["time_s"] = float(m.group(1))
    if lits:
        out["model_ended"] = lits[-1] == 0
        top = max((abs(x) for x in lits), default=0)
        model = bytearray(top + 1)
        for x in lits:
            if x:
                model[abs(x)] = 1 if x > 0 else 2
        out["model"] = model
    return out


def model_satisfies(cnf_path: str, model: bytearray) -> bool:
    """Stream the DIMACS file and check that every clause has a true literal
    and that the model assigns every declared variable."""
    num_vars = None
    pending: list[int] = []
    with open(cnf_path) as fh:
        for line in fh:
            s = line.strip()
            if not s or s[0] == "c":
                continue
            if s[0] == "p":
                num_vars = int(s.split()[2])
                if len(model) <= num_vars or 0 in model[1 : num_vars + 1]:
                    return False
                continue
            for tok in s.split():
                x = int(tok)
                if x:
                    pending.append(x)
                    continue
                if not any(model[abs(l)] == (1 if l > 0 else 2) for l in pending):
                    return False
                pending = []
    return num_vars is not None and not pending
