"""What the CLI logs: its stderr byte for byte in a fresh process of its own,
and the logger name and level of every line a CLI input can reach.

The stderr handler is installed by the first logged line (README,
"Start-up"), so the goldens run each command in a new process: in this one,
pytest has loaded `logging` and installed its own handlers long before.
A user who filters one logger, say `intentrefine.refiner`, sees the same
lines as before `logging` was deferred."""

import json
import pathlib
import subprocess
import sys

from intentrefine import cli, errors

from conftest import EXIT_CODES_BY_NAME, FIXTURES

SCENARIO1 = FIXTURES / "scenario1"
SRC = str(pathlib.Path(cli.__file__).parents[1])

# The INFO lines of a cold `run --cti --kb` of scenario 1, in order.
COLD_RUN = [
    "stage=extractor event=indicators count=1",
    "stage=refiner event=inputs intents=1 nodes=11",
    "stage=refiner event=selection intent=hspl1 layer=network devices=FW1,FW3",
    "stage=refiner event=kb_reuse intent=hspl1 result=miss",
    "stage=translator event=rendered device=FW1 rules=4",
    "stage=translator event=rendered device=FW3 rules=4",
    "stage=cli event=done files=7",
]
SKIPPED = "intent hspl1: 0 of 2 facts match no endpoint; skipped"

# Alice and Bob hang off subnets that no link joins.
DISCONNECTED = """name: disconnected
nodes:
  - {id: Alice, kind: endpoint, ip: 10.0.0.2}
  - {id: Bob, kind: endpoint, ip: 10.0.1.2}
  - {id: Subnet1, kind: subnet}
  - {id: Subnet2, kind: subnet}
links:
  - [Alice, Subnet1]
  - [Bob, Subnet2]
"""


def _run_flags(tmp_path, topology=SCENARIO1 / "topology.yaml",
               knowledge=SCENARIO1 / "knowledge.json"):
    return ["run", "--topology", topology, "--hspl", SCENARIO1 / "hspl.xml",
            "--knowledge", knowledge, "--cti", SCENARIO1 / "cti.txt",
            "--catalog", FIXTURES / "catalog.json",
            "--out", tmp_path / "out", "--kb", tmp_path / "kb.json"]


def _verify_disconnected(tmp_path):
    topology, artifacts = tmp_path / "topology.yaml", tmp_path / "artifacts.json"
    topology.write_text(DISCONNECTED)
    artifacts.write_text("[]")
    return ["verify", "--topology", topology, "--catalog", FIXTURES / "catalog.json",
            "--artifacts", artifacts, "--subject", "Alice", "--object", "Bob",
            "--src-ip", "10.0.0.2", "--dst-ip", "10.0.1.2"]


def _process(*argv):
    """The exit code and stderr bytes of the CLI run in a new process."""
    done = subprocess.run(
        [sys.executable, "-m", "intentrefine.cli", *map(str, argv)],
        capture_output=True, timeout=120, env={"PYTHONPATH": SRC},
    )
    return done.returncode, done.stderr


def _lines(*lines):
    return "".join(f"{line}\n" for line in lines).encode()


def test_a_cold_run_logs_exactly_its_info_lines(tmp_path):
    assert _process(*_run_flags(tmp_path)) == (0, _lines(*COLD_RUN))


def test_verbose_adds_the_debug_lines_in_place(tmp_path):
    lines = [*COLD_RUN[:2], SKIPPED, *COLD_RUN[2:]]
    assert _process("-v", *_run_flags(tmp_path)) == (0, _lines(*lines))


def test_verify_between_disconnected_endpoints_logs_its_warning(tmp_path):
    assert _process(*_verify_disconnected(tmp_path)) == (
        0, _lines("no paths between Alice and Bob; vacuously blocked"))


def test_convert_logs_the_stray_file_it_ignores(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / "x y.mspl.xml").write_text("kept")
    artifacts = tmp_path / "artifacts.json"
    artifacts.write_text("[]")
    assert _process("convert", "--artifacts", artifacts, "--out", out) == (
        0, _lines(f"ignoring 'x y.mspl.xml' in {out}: no stage writes that name"))


def test_an_error_line_follows_the_lines_logged_before_it(tmp_path):
    code, err = _process(*_run_flags(tmp_path, SCENARIO1 / "topology_unenforceable.yaml"))
    assert code == EXIT_CODES_BY_NAME["Unenforceable"]
    assert err == _lines(
        COLD_RUN[0], COLD_RUN[1],
        "error: Unenforceable: intent 'hspl1': path ['Subnet1', 'FW2', 'FW3', "
        "'Subnet4'] has no device with a satisfying network-layer control")


def _records(caplog, *argv):
    caplog.clear()
    assert cli.main(list(map(str, argv))) == 0
    return [(r.name, r.levelname, r.getMessage()) for r in caplog.records]


def test_each_logged_line_keeps_its_logger_name_and_level(tmp_path, caplog):
    """Every call site that a CLI input reaches, each with its logger and
    level, in the order the CLI logs them."""
    knowledge = json.loads((SCENARIO1 / "knowledge.json").read_text())
    knowledge["templates"] = [
        "(deftemplate entity (slot destination-ip-address (type STRING))"
        " (slot comment (type STRING)))"]
    knowledge["facts"].append('(entity (comment "seen twice"))')
    knowledge["rules"] = ["(defrule r => (assert (x)))"]
    edited = tmp_path / "knowledge.json"
    edited.write_text(json.dumps(knowledge))
    cli_, refiner = "intentrefine", "intentrefine.refiner"
    info = [(cli_, "INFO", line) for line in COLD_RUN]
    info[2] = (refiner, "INFO", COLD_RUN[2])
    caplog.set_level("DEBUG")

    assert _records(caplog, *_run_flags(tmp_path, knowledge=edited)) == [
        ("intentrefine.factbase", "WARNING",
         "knowledge envelope contains rules; ignoring them"),
        *info[:2],
        (refiner, "WARNING", "skipping fact with no derivable requirement: "
         "Fact(template='entity', bindings=(('comment', 'seen twice'),))"),
        (refiner, "DEBUG", "intent hspl1: 1 of 3 facts match no endpoint; skipped"),
        *info[2:],
    ]

    hit = (cli_, "INFO", "stage=refiner event=kb_reuse intent=hspl1 result=hit")
    assert _records(caplog, *_run_flags(tmp_path)) == [
        *info[:2], (refiner, "DEBUG", SKIPPED), info[2], hit, *info[4:]]

    stale = tmp_path / "topology.yaml"
    stale.write_text((SCENARIO1 / "topology.yaml").read_text().replace("  - [FW2, FW3]\n", ""))
    records = _records(caplog, *_run_flags(tmp_path, stale))
    assert (cli_, "INFO", "stage=refiner event=kb_reuse intent=hspl1 result=stale "
            "added= removed=network:FW3:IpTables") in records

    (tmp_path / "kb.json").write_text("{")
    name, level, message = _records(caplog, *_run_flags(tmp_path))[2]
    assert (name, level) == (refiner, "WARNING")
    assert message.startswith(f"ignoring corrupt knowledge base {tmp_path / 'kb.json'}: ")

    out = tmp_path / "out"
    (out / "x y.mspl.xml").write_text("kept")
    (out / "FW9.mspl.xml").write_text("earlier")
    assert _records(caplog, "convert", "--out", out) == [
        (cli_, "WARNING", f"ignoring 'x y.mspl.xml' in {out}: no stage writes that name"),
        (cli_, "INFO", "stage=cli event=removed file=FW9.mspl.xml"),
    ]

    assert _records(caplog, *_verify_disconnected(tmp_path)) == [
        ("intentrefine.verifier", "WARNING",
         "no paths between Alice and Bob; vacuously blocked")]


def test_the_first_line_names_its_call_site_as_every_later_one_does(caplog):
    """The first call imports `logging` and looks the Logger up; later calls
    go to the Logger directly. Both give the caller as the record's origin."""
    with caplog.at_level("DEBUG"):
        for level in ("debug", "info", "warning"):
            logger = errors.LazyLogger("intentrefine.probe")
            getattr(logger, level)("%s line", level)
            getattr(logger, level)("%s line", level)
    assert [(r.name, r.levelname, r.getMessage(), r.filename, r.funcName)
            for r in caplog.records] == [
        ("intentrefine.probe", level.upper(), f"{level} line", "test_log_lines.py",
         "test_the_first_line_names_its_call_site_as_every_later_one_does")
        for level in ("debug", "info", "warning") for _ in range(2)]
