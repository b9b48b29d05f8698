"""Start-up guard: every CLI process imports the package, so a module that is
slow to import and that nothing needs costs every op. `dataclasses` imports
`inspect`, which brings `ast`, `dis` and more; the value types are
namedtuples instead (see README, "Value types")."""

import pathlib
import subprocess
import sys

from intentrefine import cli

from conftest import FIXTURES

UNWANTED = ("dataclasses", "inspect")

PROBE = f"""
import sys

def loaded():
    return sorted(m for m in {UNWANTED!r} if m in sys.modules)

from intentrefine import cli
assert not loaded(), ("import intentrefine.cli", loaded())
assert cli.main(sys.argv[1:]) == 0
assert not loaded(), ("run", loaded())
"""


def test_cli_imports_neither_dataclasses_nor_inspect(tmp_path):
    src = str(pathlib.Path(cli.__file__).parents[1])
    run = ["run",
           "--topology", FIXTURES / "scenario1" / "topology.yaml",
           "--hspl", FIXTURES / "scenario1" / "hspl.xml",
           "--knowledge", FIXTURES / "scenario1" / "knowledge.json",
           "--catalog", FIXTURES / "catalog.json",
           "--kb", tmp_path / "kb.json", "--out", tmp_path / "out"]
    done = subprocess.run(
        [sys.executable, "-c", PROBE, *map(str, run)],
        capture_output=True, text=True, timeout=120, env={"PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "out" / "FW1.rules").exists()
