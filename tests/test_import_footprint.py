"""What importing gluesat loads. Every CLI call is a fresh interpreter,
and the harness forks its workers from a process that imported
gluesat.bench, so a module that the search never uses costs each CLI
call its import time and every one of these processes its memory."""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# dataclasses pulls in inspect, ast, dis, tokenize and copy.
NEVER = {"dataclasses", "inspect"}
# Only a command line needs these; the library path must not load them.
CLI_ONLY = {"argparse", "csv"}


def modules_after(statement: str) -> set[str]:
    """The names in sys.modules of a fresh interpreter that ran `statement`."""
    code = f"import sys\n{statement}\nprint('\\n'.join(sys.modules))"
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return set(proc.stdout.split())


def loaded_by(statement: str) -> set[str]:
    """The modules `statement` adds to a bare interpreter's."""
    return modules_after(statement) - modules_after("pass")


def test_library_import_loads_no_dataclasses_argparse_or_csv():
    loaded = loaded_by("import gluesat, gluesat.bench")
    assert not loaded & (NEVER | CLI_ONLY), sorted(loaded & (NEVER | CLI_ONLY))
    assert "gluesat.bench" in loaded
    assert "gluesat.cli" not in loaded  # bench imports it only to parse arguments


def test_cli_import_loads_no_dataclasses_or_csv():
    loaded = loaded_by("import gluesat.cli")
    assert "argparse" in loaded
    # csv loads only when a run asks for --stats-csv
    assert not loaded & (NEVER | {"csv"}), sorted(loaded & (NEVER | {"csv"}))
