"""Start-up guard: every CLI process imports the package, so a module that is
slow to import and that nothing needs costs every op. `dataclasses` imports
`inspect`, which brings `ast`, `dis` and more; the value types are
namedtuples instead (see README, "Value types"). `yaml` reads only a topology
that is not in the one-line-per-entry layout the fixtures use (see README,
"Install")."""

import json
import pathlib
import subprocess
import sys

from intentrefine import cli

from conftest import FIXTURES

UNWANTED = ("dataclasses", "inspect", "yaml")

PROBE = f"""
import json
import sys

def loaded():
    return sorted(m for m in {UNWANTED!r} if m in sys.modules)

from intentrefine import cli
assert not loaded(), ("import intentrefine.cli", loaded())
for argv in json.loads(sys.argv[1]):
    assert cli.main(argv) == 0, argv
    assert not loaded(), (argv[0], loaded())
"""


def test_cli_imports_neither_dataclasses_nor_inspect_nor_yaml(tmp_path):
    s2 = tmp_path / "scenario2"
    assert cli.main([
        "run",
        "--topology", str(FIXTURES / "scenario2" / "topology.yaml"),
        "--hspl", str(FIXTURES / "scenario2" / "hspl.xml"),
        "--knowledge", str(FIXTURES / "scenario2" / "knowledge.json"),
        "--catalog", str(FIXTURES / "catalog.json"),
        "--out", str(s2)]) == 0
    run = ["run",
           "--topology", FIXTURES / "scenario1" / "topology.yaml",
           "--hspl", FIXTURES / "scenario1" / "hspl.xml",
           "--knowledge", FIXTURES / "scenario1" / "knowledge.json",
           "--catalog", FIXTURES / "catalog.json",
           "--kb", tmp_path / "kb.json", "--out", tmp_path / "out"]
    verify = ["verify",
              "--topology", FIXTURES / "scenario2" / "topology.yaml",
              "--catalog", FIXTURES / "catalog.json",
              "--artifacts", s2 / "artifacts.json",
              "--subject", "Alice", "--object", "WebServer",
              "--src-ip", "172.20.0.2", "--dst-ip", "172.20.0.3",
              "--l7-host", "hadleyshope.3utilities.com"]
    argvs = json.dumps([list(map(str, argv)) for argv in (run, verify)])
    src = str(pathlib.Path(cli.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-c", PROBE, argvs],
        capture_output=True, text=True, timeout=120, env={"PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "out" / "FW1.rules").exists()
    assert "BLOCKED" in done.stdout
