"""State shared by the end-to-end and traced runs: paths, deadline,
child processes and the failure tally. Stdlib only."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

from checks import EXIT_FOR_VERDICT, model_satisfies, parse_cli_output

CONFIGS = ("baseline", "gb")
SOLVED = ("SATISFIABLE", "UNSATISFIABLE")
RUN_LIMIT_S = 170.0  # worker deadline: every run must end inside 180 s

HERE = os.path.dirname(os.path.abspath(__file__))


class Run:
    """State of one benchmark run: paths, deadline and the failure tally."""

    def __init__(self, root: str, workload: str, seed: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.base = os.path.join(root, ".perfbench_work")
        self.dir = os.path.join(self.base, f"{workload}-s{seed}-{os.getpid()}")
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool, what: str) -> None:
        """Count one checked operation; a failed check is also reported."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {what}", file=sys.stderr)

    def worker(self, cmd: str, args: dict) -> dict:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), cmd, json.dumps(args)],
            cwd=self.root, env=self.env, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, self.deadline - time.monotonic()),
        )
        if proc.returncode != 0:
            raise RuntimeError(f"worker {cmd} exited with {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def spawn(self, argv: list[str], out_path: str) -> tuple[float, int, int]:
        """Run argv as a fresh process, stdout to out_path.

        Returns (wall seconds, exit code, peak RSS in KiB from wait4).
        """
        actions = [(os.POSIX_SPAWN_OPEN, 1, out_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)]
        t0 = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, self.env, file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - t0
        return wall, os.waitstatus_to_exitcode(status), usage.ru_maxrss

    def cli(self, inst: dict, config: str, tag: str) -> dict:
        """One `python3 -m gluesat.cli` solve with a DRAT proof; checks its output."""
        stem = os.path.join(self.dir, f"{inst['name']}.{config}")
        argv = [sys.executable, "-m", "gluesat.cli", inst["path"],
                "--glue-bump", "on" if config == "gb" else "off", "--proof", stem + ".drat"]
        wall, code, rss_kb = self.spawn(argv, stem + ".out")
        out = parse_cli_output(stem + ".out")
        verdict = out["verdict"]
        what = f"{tag} {inst['name']} {config}"
        self.record(verdict in EXIT_FOR_VERDICT and code == EXIT_FOR_VERDICT[verdict],
                    f"{what}: exit code {code} with s line {verdict}")
        self.record(out["counts"] is not None and out["time_s"] is not None,
                    f"{what}: missing c counters or c time line")
        if verdict == "SATISFIABLE":
            self.record(out["model"] is not None and out["model_ended"]
                        and model_satisfies(inst["path"], out["model"]),
                        f"{what}: model does not satisfy the formula")
        return {"wall_s": wall, "rss_kb": rss_kb, "verdict": verdict, "counts": out["counts"],
                "time_s": out["time_s"], "proof": stem + ".drat"}
