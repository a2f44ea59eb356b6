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
from contextlib import nullcontext

import pytest

from gluesat.gen import parity_contradiction, pigeonhole, random_ksat
from gluesat.metrics import STATS_CSV_HEADER
from gluesat.proof import ProofWriter
from gluesat.solver import Solver, SolverConfig
from helpers import reduce_schedule

# name -> (formula builder, max_conflicts, reduce_schedule arguments or
# None for the solver's own schedule)
CASES = {
    "php6_5": (lambda: pigeonhole(5), None, None),
    "rand40_s31": (lambda: random_ksat(40, 168, seed=31), None, None),
    "parity12": (lambda: parity_contradiction(12), None, None),
    # capped before a verdict; the small learnt limit runs reduce_db, so
    # the proof text also pins the deletions
    "rand100_capped": (lambda: random_ksat(100, 426, seed=2), 400, (100, 50)),
    # the scale of the rand3-par2 benchmark: n=150 at ratio 7 (UNSAT), and
    # n=150 capped with four reduce_db rounds over ~10-literal learnts
    "rand150_r7": (lambda: random_ksat(150, 1050, seed=1), None, None),
    "rand150_capped": (lambda: random_ksat(150, 639, seed=2), 600, (100, 50)),
}

# (case, config) -> (verdict, decision sha1, decisions, propagations,
#                    conflicts, glue_clauses, restarts, DRAT sha1, row sha1)
PINNED = {
    ("php6_5", "baseline"): ("UNSATISFIABLE", "7546d1d952141e3ef2eafac2bc7a9e5b2f39108f", 185, 1844, 145, 14, 1, "98068b2c75abe5023670b1b1ec8ce70adb98e852", "b51a3e73cbd1c691d07f838e04090db530034666"),
    ("php6_5", "gb"): ("UNSATISFIABLE", "a5de02e115c49818e8a81a34f03ae7c5469d6b61", 179, 1955, 149, 18, 1, "dc829139187b62a233094c5b5b10ff6e0ce4003e", "e818e709801f9b3198aac763871214dd34203b86"),
    ("rand40_s31", "baseline"): ("SATISFIABLE", "167db8350b3f7fd5d56bfba66fbe9549b9c98fa6", 48, 577, 34, 9, 0, "863c6a92ba21a30044589a42fb675a14fe3a8beb", "3574bf45534f966bd8685f5753b2d71a899929f8"),
    ("rand40_s31", "gb"): ("SATISFIABLE", "a9f4486cc9caf27472208dea9c1b702d905dcfb9", 60, 786, 44, 10, 0, "adb028ea6b9f2f7eadf6fc221567b2c4678a54d7", "064be7a3a23942e8989c8dcd0fd5d71c49d6317e"),
    ("parity12", "baseline"): ("UNSATISFIABLE", "52aa7aa26e36c4409e1de051ca0ddf5bfe38cf18", 100, 555, 83, 43, 0, "cbdcfb8befe342048ee57007e806d0f88310ad60", "d01d00302cafe098d83c26f9ef734950ad62d332"),
    ("parity12", "gb"): ("UNSATISFIABLE", "48d16011c54d4c9a751f7856ba24d9b25483d2b2", 120, 650, 86, 39, 0, "201a2fdb323aee6854ab85d042b3bf09e08cba50", "4357a02e5468b65c86f66f688b01bee92cbb3a9a"),
    ("rand100_capped", "baseline"): ("UNKNOWN", "263e8dc39f6708312425144c0d09a71f78e38b24", 483, 11392, 400, 16, 3, "50d183f8d474e294adbb0c3cf0183d0a1bdb7d1f", "37517a5de9a28415af413e8e6d30b70a2db72a22"),
    ("rand100_capped", "gb"): ("UNKNOWN", "d8ad4f9ea0e9a8563d5ed964797bf3d1984ef4b2", 503, 11600, 400, 14, 3, "b50b6bbf3283e7ad70fed808522a6ed3de96e176", "5dac9d5ae33e0b6eedd791afc5fd9805b583ed09"),
    ("rand150_r7", "baseline"): ("UNSATISFIABLE", "3507ce01aaa7d72ed4fc51e897f9a034b9490666", 427, 12091, 359, 38, 2, "b80af5719906034ddf8bfd8eead6cbc6bfe20f5d", "464cd8e7bf4194ee472a2b147cfaa168ee52f948"),
    ("rand150_r7", "gb"): ("UNSATISFIABLE", "269220150a43b05306b0da559ff2d16e28a18a00", 556, 15286, 462, 34, 3, "242368c9d86d3e86ec65cc4e05caf22fc1d55641", "153b0241deb4720a2e567e4f42bbf7914224ba1a"),
    ("rand150_capped", "baseline"): ("UNKNOWN", "aaf200bf6437915c1f05b547bf23b3df3e54fcaa", 760, 23657, 600, 16, 5, "5c2fbe4ef415a9555b5660f238af87491a878e09", "b58bf25d154e4c4f1b0f38cb8737704b79d9927d"),
    ("rand150_capped", "gb"): ("UNKNOWN", "8df3b0753f2bc83e82d0541cdcf260fab90e191a", 760, 23445, 600, 12, 5, "fcd8537e0b87f05dc35b169862d752c6af6fd1a8", "799fe746e35e7682ce25bb50c713e8c1f5d327cd"),
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
    build, max_conflicts, schedule = CASES[case]
    proof = io.StringIO()
    cfg = SolverConfig(glue_bump=config == "gb", max_conflicts=max_conflicts)
    with reduce_schedule(*schedule) if schedule else nullcontext():
        s = DecisionHashSolver(build(), cfg, proof=ProofWriter(proof))
        r = s.solve()
    row = r.counters.csv_row(case, r.verdict.value, 0.0)  # its wall cell is deleted
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
