"""gluesat: a CDCL SAT solver with glue-clause-aware branching.

Beyond the usual CDCL machinery (two watched literals, first-UIP
learning, EVSIDS, Luby restarts, LBD-based clause-database reduction)
the solver tracks which variables appear in glue clauses (learnt clauses
with LBD 2), measures how glue and nonglue branching decisions differ,
and can multiplicatively bump a glue variable's activity each time
backtracking frees it. DRAT proof logging and a PAR-2 benchmark harness
round out the package.
"""

from .formula import DimacsError, Formula, parse_dimacs, to_dimacs
from .metrics import MetricsReport
from .proof import ProofEvent, ProofWriter, check_rup, parse_drat
from .solver import SolveResult, Solver, SolverConfig, Verdict

__version__ = "0.1.0"

__all__ = [
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
