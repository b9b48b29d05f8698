"""Start-up guard: every CLI process imports the package, so a module that is
slow to import and that nothing needs costs every op. `dataclasses` imports
`inspect`, which brings `ast`, `dis` and more; the value types are
namedtuples instead. `yaml` reads only a topology that is not in the
one-line-per-entry layout the fixtures use (see README, "Install").
`xml.etree`, `hashlib`, the extractor and `fcntl` are imported by the
functions that use them, so a command that calls none of those functions
loads none of them (see README, "Start-up"); `hashlib` only writes `run`'s
manifest, so `refine`, even with a KB, does not load it. The command line
is read from one table in `cli`, so no process, `--help` included, loads
`argparse` or the `gettext` it imports. `logging` is imported by the first
logged line, so a command that logs nothing (a bare import, the help,
`verify`, `convert` and `translate` of well-formed inputs) does not load it,
and `run` and `refine`, which log from their first stage, do. Importing the
CLI registers an exit hook that freezes the garbage collector, so that the
interpreter's final collection scans none of the objects left at exit.

Each command runs in a fresh process of its own: in one shared process, a
module that an earlier command imported would hide the same import made by a
later one."""

import json
import pathlib
import subprocess
import sys

import pytest

from intentrefine import cli

from conftest import FIXTURES

NEVER = ("argparse", "dataclasses", "gettext", "inspect", "yaml")
DEFERRED = ("fcntl", "hashlib", "intentrefine.extractor", "xml.etree")
# The commands that log, and so load `logging`; every other one must not.
LOGS = ("refine-kb", "run", "run-cti-kb")

# argv is None for a process that only imports the CLI. The last stdout line
# lists the modules of `unwanted` that the process loaded, and whether the
# collector was frozen at exit. Exit hooks run last in, first out, so the
# probe's hook, registered before the CLI is imported, runs after the CLI's.
PROBE = """
import atexit
import gc
import json
import sys

argv, unwanted = json.loads(sys.argv[1])
result = []
atexit.register(lambda: print(json.dumps([*result, gc.get_freeze_count() > 0])))
from intentrefine import cli
code = None if argv is None else cli.main(argv)
result += [code, sorted(m for m in unwanted if m in sys.modules)]
"""

SCENARIO2 = FIXTURES / "scenario2"


def _run(scenario, out, *extra):
    return ["run",
            "--topology", FIXTURES / scenario / "topology.yaml",
            "--hspl", FIXTURES / scenario / "hspl.xml",
            "--catalog", FIXTURES / "catalog.json",
            "--out", out, *extra]


@pytest.fixture(scope="module")
def scenario2_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("scenario2")
    argv = _run("scenario2", out, "--knowledge", SCENARIO2 / "knowledge.json")
    assert cli.main(list(map(str, argv))) == 0
    return out


# command -> (argv from a fresh output directory and scenario 2's outputs,
# the modules the command must not load besides NEVER, a file it writes)
COMMANDS = {
    "import": (lambda out, s2: None, DEFERRED, None),
    "help": (lambda out, s2: ["--help"], DEFERRED, None),
    "verify-help": (lambda out, s2: ["verify", "--help"], DEFERRED, None),
    "verify": (lambda out, s2: [
        "verify",
        "--topology", SCENARIO2 / "topology.yaml",
        "--catalog", FIXTURES / "catalog.json",
        "--artifacts", s2 / "artifacts.json",
        "--subject", "Alice", "--object", "WebServer",
        "--src-ip", "172.20.0.2", "--dst-ip", "172.20.0.3",
        "--l7-host", "hadleyshope.3utilities.com"], DEFERRED, None),
    "convert": (lambda out, s2: [
        "convert", "--artifacts", s2 / "artifacts.json", "--out", out],
        DEFERRED, "WAF.mspl.xml"),
    "translate": (lambda out, s2: [
        "translate", "--catalog", FIXTURES / "catalog.json", "--out", out],
        ("fcntl", "hashlib", "intentrefine.extractor"), "WAF.rules"),
    "run": (lambda out, s2: _run(
        "scenario2", out, "--knowledge", SCENARIO2 / "knowledge.json"),
        ("fcntl", "intentrefine.extractor"), "WAF.rules"),
    "refine-kb": (lambda out, s2: [
        "refine",
        "--topology", FIXTURES / "scenario1" / "topology.yaml",
        "--hspl", FIXTURES / "scenario1" / "hspl.xml",
        "--knowledge", FIXTURES / "scenario1" / "knowledge.json",
        "--catalog", FIXTURES / "catalog.json",
        "--out", out, "--kb", out.parent / "kb.json"],
        ("hashlib", "intentrefine.extractor"), "artifacts.json"),
    "run-cti-kb": (lambda out, s2: _run(
        "scenario1", out, "--knowledge", FIXTURES / "scenario1" / "knowledge.json",
        "--cti", FIXTURES / "scenario1" / "cti.txt", "--kb", out.parent / "kb.json"),
        (), "FW1.rules"),
}


@pytest.mark.parametrize("command", COMMANDS)
def test_each_command_loads_only_what_it_runs(command, scenario2_out, tmp_path):
    argv_of, deferred, written = COMMANDS[command]
    out = tmp_path / "out"
    if command == "translate":
        out.mkdir()
        (out / "WAF.mspl.xml").write_text((scenario2_out / "WAF.mspl.xml").read_text())
    argv = argv_of(out, scenario2_out)
    request = [None if argv is None else list(map(str, argv)),
               [*NEVER, *deferred, "logging"]]
    src = str(pathlib.Path(cli.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(request)],
        capture_output=True, text=True, timeout=120, env={"PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr
    code, loaded, frozen = json.loads(done.stdout.splitlines()[-1])
    assert code == (None if argv is None else 0), done.stderr
    assert loaded == (["logging"] if command in LOGS else []), (command, loaded)
    assert frozen, command
    if written:
        assert (out / written).exists()
    if command == "verify":
        assert "BLOCKED" in done.stdout
