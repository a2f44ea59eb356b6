"""Workload definitions and seeded input generation.

Every input is a DIMACS file written from `gluesat.gen` output, with the
benchmark seed fixing every random choice. Generation time is excluded
from every metric. Imported only by the worker process, never by the
orchestrator, so the orchestrator stays small (see run.py).
"""

from __future__ import annotations

import json
import os
import random

from gluesat.formula import Formula, to_dimacs
from gluesat.gen import pigeonhole, random_ksat

# Which entry point a workload drives, and whether it emits proofs.
ENTRY = {"php-proof": "cli", "rand3-par2": "corpus"}

PHP_HOLES = 6  # PHP(7,6): 42 variables, ~800 conflicts per solve
PHP_COUNT = 4

# (family, n, clause/variable ratio, count). Each family's outcome is
# fixed w.h.p., so solved counts and PAR-2 do not swing with the seed:
# planted instances are SAT by construction and solve in a few hundred
# conflicts, ratio 7 is far above the threshold (UNSAT in a few hundred),
# and n=400 at the threshold does not finish within the cap (n=300
# sometimes did, which made PAR-2 bimodal). The cap lets the learnt
# database pass 2000 clauses once, so reduce_db runs on every capped
# solve. A batch is small so that a run holds several passes: the run
# reports medians over passes, and single instances vary by about 30%
# in solve and check time.
RAND3_FAMILIES = [
    ("planted", 150, 8.0, 4),
    ("unsat", 150, 7.0, 8),
    ("capped", 400, 4.26, 1),
]
RAND3_MAX_CONFLICTS = 2200
RAND3_TIMEOUT_S = 10.0  # ~7x the slowest capped solve, so the cap, not the clock, decides


def relabel(formula: Formula, rng: random.Random) -> Formula:
    """Rename variables by a random permutation and shuffle clause order.

    The result is isomorphic to the input, so its verdict is unchanged.
    """
    n = formula.num_vars
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    clauses = []
    for c in formula.clauses:
        clauses.append([perm[abs(x) - 1] * (1 if x > 0 else -1) for x in c.to_ints()])
    rng.shuffle(clauses)
    return Formula.from_ints(n, clauses)


def planted_3sat(n: int, m: int, seed: int) -> Formula:
    """Uniform random 3-SAT conditioned on a hidden assignment: every
    clause that the assignment falsifies is redrawn, so the formula is
    satisfiable by construction."""
    rng = random.Random(seed)
    hidden = [rng.random() < 0.5 for _ in range(n + 1)]
    clauses: list[list[int]] = []
    while len(clauses) < m:
        c = [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), 3)]
        if any((x > 0) == hidden[abs(x)] for x in c):
            clauses.append(c)
    return Formula.from_ints(n, clauses)


def instances(workload: str, seed: int, batch: int) -> list[dict]:
    """One pass's inputs as (name, formula, expected verdict) dicts.

    Every pass of a run gets a fresh batch, so a run averages over more
    instances than one pass holds; (seed, batch) fixes every choice.
    `expect` is the answer known by construction, or None when the
    family has no guaranteed answer.
    """
    rng = random.Random(f"{workload}:{seed}:{batch}")
    out: list[dict] = []
    if workload == "php-proof":
        for i in range(PHP_COUNT):
            f = relabel(pigeonhole(PHP_HOLES), rng)
            out.append({"name": f"php{PHP_HOLES + 1}_{PHP_HOLES}_{i}", "formula": f,
                        "expect": "UNSATISFIABLE"})
    elif workload == "rand3-par2":
        for family, n, ratio, count in RAND3_FAMILIES:
            for i in range(count):
                m, sub_seed = round(n * ratio), rng.randrange(2**31)
                if family == "planted":
                    f, expect = planted_3sat(n, m, sub_seed), "SATISFIABLE"
                else:
                    f, expect = random_ksat(n, m, seed=sub_seed), None
                out.append({"name": f"rand3_{family}_n{n}_{i}", "formula": f, "expect": expect})
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return out


def generate(workload: str, seed: int, batch: int, out_dir: str) -> dict:
    """Write one batch of inputs as DIMACS files and return its manifest."""
    os.makedirs(out_dir, exist_ok=True)
    entries = []
    for inst in instances(workload, seed, batch):
        path = os.path.join(out_dir, inst["name"] + ".cnf")
        data = to_dimacs(inst["formula"]).encode()
        with open(path, "wb") as fh:
            fh.write(data)
        entries.append({
            "name": inst["name"],
            "path": path,
            "expect": inst["expect"],
            "vars": inst["formula"].num_vars,
            "clauses": len(inst["formula"].clauses),
            "bytes": len(data),
        })
    manifest = {
        "workload": workload,
        "seed": seed,
        "batch": batch,
        "entry": ENTRY[workload],
        "instances": entries,
        "max_conflicts": RAND3_MAX_CONFLICTS if workload == "rand3-par2" else None,
        "timeout_s": RAND3_TIMEOUT_S if workload == "rand3-par2" else None,
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=1)
    return manifest
