"""Smoke tests: the example scripts and `python -m polytoric.cli` run to
completion on small inputs, and the README's library example gives the
values its comments state."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "argv",
    [
        ["family_tour.py", "--cone"],
        ["random_crosscheck.py", "--samples", "5", "--max-n", "3", "--witness"],
    ],
    ids=lambda argv: argv[0],
)
def test_script_exits_0(argv):
    proc = run_python([str(ROOT / "scripts" / argv[0]), *argv[1:]])
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_cli_module_entry_point(tmp_path, capsys):
    # the module's __main__ block, as perfbench's cold-start timing runs it
    from polytoric.cli import main

    path = tmp_path / "box.json"
    path.write_text(json.dumps({"n": 3, "kind": "box", "v": [2, 4, 6]}))
    proc = run_python(["-m", "polytoric.cli", "analyze", str(path)])
    assert proc.returncode == 0, proc.stderr
    assert main(["analyze", str(path)]) == 0
    assert proc.stdout == capsys.readouterr().out


def run_python(args):
    """Run a fresh interpreter with the repository's sources importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


def test_readme_library_example():
    readme = (ROOT / "README.md").read_text()
    section = readme[readme.index("## Library") :]
    start = section.index("```python\n") + len("```python\n")
    code = section[start : section.index("```", start)]
    namespace: dict = {}
    exec(code, namespace)
    a = namespace["a"]
    assert a.family.masks() == (1, 2, 4, 7)
    assert a.presentation.keys == (
        (-1, 0, 0, 1),
        (0, -1, 0, 1),
        (0, 0, -1, 1),
        (-1, -1, -1, 2),
    )
    assert a.presentation.relation == (1, 1, 1, 2)
    assert str(a.presentation.invariants) == "Z^3"
    assert a.canonical.coords == (2, 2, 2, 4)
    assert a.gorenstein == 2
    assert a.forms == [
        (-1, -1, -1, 2),
        (-1, 0, 0, 1),
        (0, -1, 0, 1),
        (0, 0, -1, 1),
        (0, 0, 1, 0),
        (0, 1, 0, 0),
        (1, 0, 0, 0),
    ]
    assert a.agreement.ok
    assert a.witness(3).ok
