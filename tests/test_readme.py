"""README's library example runs as written, and imports only names the
package root exports."""

import os
import re

import gluesat
from gluesat.formula import to_dimacs
from gluesat.gen import pigeonhole

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def readme_text() -> str:
    with open(README, encoding="utf-8") as fh:
        return fh.read()


def test_readme_imports_only_exported_names():
    imports = re.findall(r"^from gluesat import (.+)$", readme_text(), re.M)
    assert imports
    for line in imports:
        for name in line.split(","):
            assert name.strip() in gluesat.__all__, name


def test_readme_python_example_runs(tmp_path, monkeypatch, capsys):
    (tmp_path / "problem.cnf").write_text(to_dimacs(pigeonhole(4)))
    monkeypatch.chdir(tmp_path)
    blocks = re.findall(r"^```python\n(.*?)^```", readme_text(), re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, README, "exec"), {})
    assert capsys.readouterr().out.startswith("Verdict.UNSAT ")
