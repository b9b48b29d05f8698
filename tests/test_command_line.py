"""The command line is read from one table, `cli.COMMANDS`. The argparse
parser the CLI used before it is kept here as the reference: for every argv
drawn, the table's reader and the reference give the same values, or both
refuse the argv (argparse's exit 2 is the CLI's EXIT_USAGE), or both print a
help (exit 0)."""

import argparse
import contextlib
import io
import re

import pytest
from hypothesis import given, settings, strategies as st

from intentrefine import cli


def _add_io_flags(p, topology=False, hspl=False, cti=False, knowledge=False,
                  catalog=False, kb=False, out=False, artifacts=False):
    if topology:
        p.add_argument("--topology", required=True, help="topology YAML document")
    if hspl:
        p.add_argument("--hspl", required=True, help="HSPL intent XML document")
    if cti:
        p.add_argument("--cti", help="natural-language CTI report (.txt)")
    if knowledge:
        p.add_argument("--knowledge", help="knowledge envelope JSON (base/input)")
    if catalog:
        p.add_argument("--catalog", required=catalog == "required",
                       help="security-control catalog JSON")
    if kb:
        p.add_argument("--kb", help="knowledge-base file for result reuse")
    if out:
        p.add_argument("--out", required=True, help="output directory")
    if artifacts:
        p.add_argument("--artifacts", help="rule artifact JSON file")


def build_parser(allow_abbrev=False) -> argparse.ArgumentParser:
    """The CLI's parser before the table, abbreviations refused by default."""
    parser = argparse.ArgumentParser(
        prog="intentrefine",
        description="Refine security intents and CTI indicators into "
                    "deployable filtering rules.",
        epilog=cli.EXIT_CODE_HELP,
        allow_abbrev=allow_abbrev,
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help):
        return sub.add_parser(name, help=help, allow_abbrev=allow_abbrev)

    p = add("extract", help="derive indicator knowledge from a CTI report")
    _add_io_flags(p, cti=True, knowledge=True, out=True)
    p.set_defaults(func=cli.cmd_extract)

    p = add("refine", help="allocate enforcement and emit rule artifacts")
    _add_io_flags(p, topology=True, hspl=True, cti=True, knowledge=True,
                  catalog="required", kb=True, out=True)
    p.set_defaults(func=cli.cmd_refine)

    p = add("convert", help="build per-device MSPL policies from artifacts")
    _add_io_flags(p, out=True, artifacts=True)
    p.set_defaults(func=cli.cmd_convert)

    p = add("translate", help="render MSPL policies to native rules")
    _add_io_flags(p, out=True, catalog=True)
    p.set_defaults(func=cli.cmd_translate)

    p = add("verify", help="symbolically check a flow against a deployment")
    _add_io_flags(p, topology=True, catalog="required")
    p.add_argument("--artifacts", required=True, help="rule artifact JSON file")
    p.add_argument("--subject", required=True)
    p.add_argument("--object", required=True)
    p.add_argument("--src-ip", required=True)
    p.add_argument("--dst-ip", required=True)
    p.add_argument("--l7-host")
    p.set_defaults(func=cli.cmd_verify)

    p = add("run", help="full pipeline: extract, refine, convert, translate")
    _add_io_flags(p, topology=True, hspl=True, cti=True, knowledge=True,
                  catalog="required", kb=True, out=True)
    p.set_defaults(func=cli.cmd_run)

    return parser


REFERENCE = build_parser()
# command -> [(flag, required)] of the reference, in the order it adds them
REFERENCE_FLAGS = {
    command: [(a.option_strings[0], a.required) for a in p._actions
              if a.option_strings and a.option_strings[0] != "-h"]
    for command, p in next(a for a in REFERENCE._actions
                           if isinstance(a, argparse._SubParsersAction)).choices.items()
}


def _captured(parse, argv):
    """parse(argv)'s result, stdout and stderr; a SystemExit's code as result."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = parse(argv)
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


def reference(argv, parser=REFERENCE):
    """The reference's values, but `command`, which no command reads; or its
    exit code, 2 read as EXIT_USAGE."""
    result, _, _ = _captured(parser.parse_args, argv)
    if isinstance(result, int):
        return {0: 0, 2: cli.EXIT_USAGE}[result]
    return {k: v for k, v in vars(result).items() if k != "command"}


def table(argv):
    """cli's reading of argv, checked for what it prints: a help on stdout
    only, a usage error as one `usage:` and one `error:` line on stderr."""
    result, out, err = _captured(cli._parse, argv)
    if result == 0:
        assert out.startswith("usage: intentrefine") and err == ""
    elif result == cli.EXIT_USAGE:
        assert out == ""
        usage, error = err.splitlines()
        assert usage.startswith("usage: intentrefine") and error.startswith("error: ")
    else:
        assert out == err == ""
        return vars(result)
    return result


# Values a flag may be given: plain ones, and each way a word that starts
# with "-" is read (a lone "-", a negative number and an unknown flag
# holding a space are values; anything else starting with "-" is a flag).
# "--" is left to test_a_value_of_two_dashes_after_an_equals_sign_is_kept.
VALUES = st.one_of(
    st.sampled_from(["a.json", "out dir", "", "=", "a=b", "-", "-1", "-1.5", "-.5",
                     "-1\n", "-x", "-a b", "--x y", "--out", "--out=a b", "-h", "-h x",
                     "-hx", "--help", "-v", "--verbose", "run"]),
    st.text(max_size=4).filter(lambda v: v != "--"),
)
# Tokens a malformed argv gains: a stray value, an unknown or misplaced flag,
# a flag given a value it does not take, a help.
JUNK = st.sampled_from(["stray", "-v", "--verbose", "-h", "--help", "--bogus", "--topo",
                        "--out", "--help=1", "--verbose=", "-h=", "-vx", "-x", "-1",
                        "-", "verify", "a b", "-a b"])


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(REFERENCE_FLAGS)))
    argv = [draw(st.sampled_from(["-v", "--verbose"])) for _ in range(draw(st.integers(0, 2)))]
    unknown = draw(st.integers(0, 9)) == 0
    argv.append(draw(st.sampled_from(["bogus", "Run", "-1", ""])) if unknown else command)
    flags = [flag for flag, required in REFERENCE_FLAGS[command]
             if draw(st.booleans()) or required]
    for flag in draw(st.permutations(flags)):
        value = draw(VALUES)
        argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    for _ in range(draw(st.integers(0, 2))):  # malformed variants
        i = draw(st.integers(0, len(argv)))
        if draw(st.booleans()):
            argv.insert(i, draw(JUNK))
        elif i < len(argv):
            del argv[i]
    return argv


@settings(max_examples=1500, deadline=None)
@given(argvs())
def test_the_table_reads_every_argv_as_argparse_did(argv):
    assert table(argv) == reference(argv), argv


@pytest.mark.parametrize("argv", [
    [], ["-v"], ["bogus"], ["-h", "bogus"], ["bogus", "-h"], ["--bogus", "-h"],
    ["run", "--topo", "t"],
    ["convert", "--out"], ["convert", "--out", "-x"], ["convert", "--out", "--artifacts", "a"],
    ["convert", "--artifacts", "a"], ["convert", "--out", "o", "-v"],
    ["convert", "--out", "o", "stray"], ["convert", "--out", "o", "--verbose=1"],
    ["--help=1", "-h"], ["-vx", "--help"], ["convert", "-hx", "-h"], ["convert", "--bogus", "-h"],
])
def test_examples_agree(argv):
    assert table(argv) == reference(argv), argv


@pytest.mark.parametrize("argv", [
    [],  # no command
    ["bogus", "--out", "o"],  # an unknown command
    ["convert", "--out", "o", "--bogus", "x"],  # an unknown flag
    ["convert", "--out"],  # a flag with no value
    ["convert", "--out", "-o"],  # a value that starts with "-"
    ["convert", "--artifacts", "a"],  # a missing required flag
    ["convert", "-v", "--out", "o"],  # -v after the command
])
def test_a_usage_error_exits_64_with_a_usage_and_an_error_line(argv, capsys):
    assert cli.main(argv) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    usage, error = captured.err.splitlines()
    assert usage.startswith("usage: intentrefine") and error.startswith("error: ")
    assert reference(argv) == cli.EXIT_USAGE


def test_an_abbreviated_flag_is_refused_as_argparse_accepted_it():
    """The one intended difference from the parser before the table, whose
    argparse took any unambiguous prefix of a flag for the flag."""
    argv = ["-v", "convert", "--ou", "o", "--art=a"]
    assert reference(argv, build_parser(allow_abbrev=True))["out"] == "o"
    assert reference(argv) == table(argv) == cli.EXIT_USAGE
    assert table(["--verb", "convert", "--out", "o"]) == cli.EXIT_USAGE


@pytest.mark.parametrize("argv", [
    ["-vv", "convert", "--out", "o"], ["-vh"], ["-hv"], ["convert", "-hh"],
])
def test_grouped_short_flags_are_refused(argv):
    """argparse read `-vh` as `-v -h`; the table reads no grouped flags."""
    assert reference(argv) != cli.EXIT_USAGE
    assert table(argv) == cli.EXIT_USAGE


def test_a_value_of_two_dashes_after_an_equals_sign_is_kept():
    """argparse dropped it, leaving the flag an empty list, which no command
    reads; the table keeps every value given after `=` as it is."""
    assert reference(["convert", "--out=--"])["out"] == []
    assert table(["convert", "--out=--"])["out"] == "--"


def test_the_help_names_every_command_and_exit_code(capsys):
    assert cli.main(["--help"]) == 0
    out = capsys.readouterr().out
    for command in REFERENCE_FLAGS:
        assert re.search(rf"^  {command} ", out, re.M), command
    codes = {int(c) for c in re.findall(r"\b(\d+) ", out.splitlines()[-1])}
    assert codes == {0, *cli.EXIT_CODES.values(), cli.EXIT_BYPASS, cli.EXIT_USAGE}
    assert {18, 64} <= codes


@pytest.mark.parametrize("command", sorted(REFERENCE_FLAGS))
def test_a_command_help_names_each_flag_and_marks_the_required(command, capsys):
    assert cli.main([command, "--help"]) == 0
    out = capsys.readouterr().out
    for flag, required in REFERENCE_FLAGS[command]:
        line, = (x for x in out.splitlines() if x.startswith(f"  {flag} "))
        assert line.split()[1] == ("required" if required else "optional"), line
