"""Pinned search traces: a gate for changes that must not move the search.

For a few small instances under the `baseline` and `gb` configs this
pins the decision-literal sequence (as a sha1), the search counters, the
restart count, the DRAT proof text (as a sha1) and the stats CSV row
without its wall-time cell. A refactor or a speed-up must leave every
value here unchanged. A heuristic change moves them; it then updates the
pins on purpose and says so in CHANGES.md.
"""

from __future__ import annotations

import csv
import hashlib
import io

import pytest

from gluesat.gen import parity_contradiction, pigeonhole, random_ksat
from gluesat.metrics import STATS_CSV_HEADER
from gluesat.proof import ProofWriter
from gluesat.solver import Solver, SolverConfig

# name -> (formula builder, extra SolverConfig fields)
CASES = {
    "php6_5": (lambda: pigeonhole(5), {}),
    "rand40_s31": (lambda: random_ksat(40, 168, seed=31), {}),
    "parity12": (lambda: parity_contradiction(12), {}),
    # capped before a verdict; the small learnt limit runs reduce_db, so
    # the proof text also pins the deletions
    "rand100_capped": (
        lambda: random_ksat(100, 426, seed=2),
        {"max_conflicts": 400, "learnt_limit": 100, "learnt_limit_growth": 50},
    ),
    # the scale of the rand3-par2 benchmark: n=150 at ratio 7 (UNSAT), and
    # n=150 capped with four reduce_db rounds over ~10-literal learnts
    "rand150_r7": (lambda: random_ksat(150, 1050, seed=1), {}),
    "rand150_capped": (
        lambda: random_ksat(150, 639, seed=2),
        {"max_conflicts": 600, "learnt_limit": 100, "learnt_limit_growth": 50},
    ),
}

# (case, config) -> (verdict, decision sha1, decisions, propagations,
#                    conflicts, glue_clauses, restarts, DRAT sha1, row sha1)
PINNED = {
    ("php6_5", "baseline"): ("UNSATISFIABLE", "7546d1d952141e3ef2eafac2bc7a9e5b2f39108f", 185, 1844, 145, 14, 1, "98068b2c75abe5023670b1b1ec8ce70adb98e852", "d78e51cf52d95c2e90a6b0b9e7f5aff126d5a45a"),
    ("php6_5", "gb"): ("UNSATISFIABLE", "a5de02e115c49818e8a81a34f03ae7c5469d6b61", 179, 1955, 149, 18, 1, "dc829139187b62a233094c5b5b10ff6e0ce4003e", "beb75030391fbdca2ae83f6685347565961d1460"),
    ("rand40_s31", "baseline"): ("SATISFIABLE", "167db8350b3f7fd5d56bfba66fbe9549b9c98fa6", 48, 577, 34, 9, 0, "863c6a92ba21a30044589a42fb675a14fe3a8beb", "b5b860a57ca1707c29bf509b4c83877f45ed6042"),
    ("rand40_s31", "gb"): ("SATISFIABLE", "a9f4486cc9caf27472208dea9c1b702d905dcfb9", 60, 786, 44, 10, 0, "adb028ea6b9f2f7eadf6fc221567b2c4678a54d7", "bdd99910d85a82e27cc03f2a35af7f07b96a8d60"),
    ("parity12", "baseline"): ("UNSATISFIABLE", "52aa7aa26e36c4409e1de051ca0ddf5bfe38cf18", 100, 555, 83, 43, 0, "cbdcfb8befe342048ee57007e806d0f88310ad60", "7fa1ac056ad920c93d2b683beb63536ec2c9dfc0"),
    ("parity12", "gb"): ("UNSATISFIABLE", "48d16011c54d4c9a751f7856ba24d9b25483d2b2", 120, 650, 86, 39, 0, "201a2fdb323aee6854ab85d042b3bf09e08cba50", "1315caa1b9408e69500d875364382046fa95941e"),
    ("rand100_capped", "baseline"): ("UNKNOWN", "263e8dc39f6708312425144c0d09a71f78e38b24", 483, 11392, 400, 16, 3, "50d183f8d474e294adbb0c3cf0183d0a1bdb7d1f", "39ad3ea02ed8808db13d663b461414e9f7eb6e3d"),
    ("rand100_capped", "gb"): ("UNKNOWN", "d8ad4f9ea0e9a8563d5ed964797bf3d1984ef4b2", 503, 11600, 400, 14, 3, "b50b6bbf3283e7ad70fed808522a6ed3de96e176", "94bd00219514366bc4215bfb2bb7066da4274308"),
    ("rand150_r7", "baseline"): ("UNSATISFIABLE", "3507ce01aaa7d72ed4fc51e897f9a034b9490666", 427, 12091, 359, 38, 2, "b80af5719906034ddf8bfd8eead6cbc6bfe20f5d", "cd926c64105c194194ff9d3025dddc7f6576c0de"),
    ("rand150_r7", "gb"): ("UNSATISFIABLE", "269220150a43b05306b0da559ff2d16e28a18a00", 556, 15286, 462, 34, 3, "242368c9d86d3e86ec65cc4e05caf22fc1d55641", "f6c27901d155747fa9ebee40a92e94cb4257cfd0"),
    ("rand150_capped", "baseline"): ("UNKNOWN", "aaf200bf6437915c1f05b547bf23b3df3e54fcaa", 760, 23657, 600, 16, 5, "5c2fbe4ef415a9555b5660f238af87491a878e09", "77ab77386e8d1e3361ff4730a267a624dfd73a31"),
    ("rand150_capped", "gb"): ("UNKNOWN", "8df3b0753f2bc83e82d0541cdcf260fab90e191a", 760, 23445, 600, 12, 5, "fcd8537e0b87f05dc35b169862d752c6af6fd1a8", "4b3e7885a379f43f293fb726eb1689e8009fd88f"),
}


class DecisionHashSolver(Solver):
    def __init__(self, *args, **kwargs):
        self.decision_sha = hashlib.sha1()
        super().__init__(*args, **kwargs)

    def decide(self):
        lit = super().decide()
        self.decision_sha.update(lit.to_bytes(4, "little"))
        return lit


def trace_fingerprint(case: str, config: str) -> tuple:
    build, extra = CASES[case]
    proof = io.StringIO()
    cfg = SolverConfig(glue_bump=config == "gb", **extra)
    s = DecisionHashSolver(build(), cfg, proof=ProofWriter(proof))
    r = s.solve()
    row = r.counters.csv_row(case, r.verdict.value, r.elapsed_s)
    del row[STATS_CSV_HEADER.index("wall_time_s")]
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow(row)
    c = r.counters
    return (
        r.verdict.value,
        s.decision_sha.hexdigest(),
        c.decisions,
        c.propagations,
        c.conflicts,
        c.glue_clauses,
        r.restarts,
        hashlib.sha1(proof.getvalue().encode()).hexdigest(),
        hashlib.sha1(out.getvalue().encode()).hexdigest(),
    )


@pytest.mark.parametrize("case,config", sorted(PINNED))
def test_trace_pinned(case, config):
    assert trace_fingerprint(case, config) == PINNED[case, config]
