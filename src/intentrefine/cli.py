"""Command-line pipeline: extract, refine, convert, translate, verify, run.

Outputs are computed fully in memory and written atomically (temp file plus
rename), so a failing stage never leaves partial rule files behind; then the
files in `--out` of the command's own kinds that it did not write are
removed. Every error class maps to its own exit code; `--help` lists them.
"""

from __future__ import annotations

import atexit
import contextlib
import gc
import json
import os
import re
import sys
from types import SimpleNamespace

from . import converter, factbase, refiner, translator, verifier
from . import capability as cap
from . import topology as topo
from . import errors

logger = errors.LazyLogger("intentrefine")

# The OS reclaims the process's memory at exit, so the final collection's scan
# and free of every module's reference cycles is wasted (README, "Start-up").
atexit.register(gc.freeze)

# 7, 8 and 16 are retired and not reused, so that a code a caller tests for
# never comes to mean another error.
EXIT_CODES = {
    errors.DocumentSyntaxError: 2,
    errors.ValidationError: 3,
    errors.UnknownEndpoint: 4,
    errors.UnknownTemplate: 5,
    errors.UnknownSlot: 6,
    errors.UnsupportedAction: 9,
    errors.Unenforceable: 10,
    errors.UnknownControl: 11,
    errors.UnsupportedCapability: 12,
    errors.InconsistentNsf: 13,
    errors.NormalizationError: 14,
    errors.NothingToEnforce: 15,
    errors.PersistError: 17,
}
EXIT_BYPASS = 18
EXIT_USAGE = 64


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise errors.DocumentSyntaxError(f"{path} is not UTF-8 text: {exc}")


def _stage_files(out_dir: str, kinds: tuple[str, ...]) -> list[str]:
    """The files in `out_dir` of one of `kinds` (file name endings) that a
    stage could have written, named `<id><kind>` (errors.ID_RE), in sorted
    order. No stage writes any other name ending in a kind: it is skipped,
    with a warning that shows it quoted."""
    names = []
    for name in sorted(os.listdir(out_dir)):
        kind = next((k for k in kinds if name.endswith(k)), None)
        if kind is None:
            continue
        if errors.ID_RE.fullmatch(name[: -len(kind)]):
            names.append(name)
        else:
            logger.warning("ignoring %r in %s: no stage writes that name", name, out_dir)
    return names


def _write_outputs(out_dir: str, outputs: dict[str, str], kinds: tuple[str, ...] = ()) -> None:
    """Write every file via temp + atomic rename, only after all are computed.
    Then remove each file of `out_dir` of one of `kinds` that a stage could
    have written and this command did not: an earlier output, no longer
    current."""
    os.makedirs(out_dir, exist_ok=True)
    for name, content in outputs.items():
        errors.write_atomic(os.path.join(out_dir, name), content, f"write {name}")
    for name in _stage_files(out_dir, kinds):
        if name in outputs:
            continue
        try:
            os.unlink(os.path.join(out_dir, name))
        except FileNotFoundError:
            continue
        except OSError as exc:
            raise errors.PersistError(f"cannot remove earlier output {name}: {exc}")
        logger.info("stage=cli event=removed file=%s", name)


def _manifest(outputs: dict[str, str]) -> str:
    import hashlib

    digests = {name: hashlib.sha256(content.encode()).hexdigest()
               for name, content in outputs.items()}
    return json.dumps({"files": digests}, indent=2, sort_keys=True) + "\n"


@contextlib.contextmanager
def _kb_lock(kb_path: str | None):
    """Serialize concurrent invocations touching the same knowledge base."""
    if kb_path is None:
        yield
        return
    import fcntl

    try:
        fh = open(kb_path + ".lock", "w")
    except OSError as exc:
        raise errors.PersistError(f"cannot lock the knowledge base: {exc}")
    with fh:
        fcntl.flock(fh, fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(fh, fcntl.LOCK_UN)


def _load_knowledge(args) -> factbase.Knowledge:
    base = (factbase.parse_knowledge(_read(args.knowledge)) if args.knowledge
            else factbase.Knowledge())
    if args.cti:
        from . import extractor

        text = _read(args.cti)
        indicators = extractor.extract_indicators(text)
        logger.info("stage=extractor event=indicators count=%d", len(indicators))
        base = extractor.indicators_to_knowledge(indicators, base)
    return base


@contextlib.contextmanager
def _refined(args, knowledge: factbase.Knowledge):
    """The artifacts of the run, for the body to write out. The KB is saved
    after the body, so only a run whose outputs are in place is recorded,
    all under the KB lock."""
    t = topo.parse_topology(_read(args.topology))
    intents = refiner.parse_hspl(_read(args.hspl))
    catalog = cap.load_catalog(_read(args.catalog))
    translator.check_renderer_totality(catalog)
    logger.info("stage=refiner event=inputs intents=%d nodes=%d", len(intents), len(t.nodes))

    with _kb_lock(args.kb):
        kb, kb_text = refiner.load_kb(args.kb) if args.kb else (None, None)
        artifacts, report, updated = refiner.refine(t, intents, knowledge, catalog, kb=kb)
        for hid in report.hits:
            logger.info("stage=refiner event=kb_reuse intent=%s result=hit", hid)
        for hid in report.misses:
            if hid in report.stale:
                added, removed = report.stale[hid]
                logger.info(
                    "stage=refiner event=kb_reuse intent=%s result=stale added=%s removed=%s",
                    hid, ",".join(added), ",".join(removed))
            else:
                logger.info("stage=refiner event=kb_reuse intent=%s result=miss", hid)
        yield artifacts
        if args.kb:
            refiner.save_kb(updated, args.kb, kb_text)


@contextlib.contextmanager
def _flushed_stdout():
    """Flush stdout after the body, whatever its outcome. A reader that
    stops early is no error: the body's result or exception stands, and
    stdout is pointed at devnull, as Python flushes it again at exit."""
    try:
        yield
    except BrokenPipeError:
        pass
    finally:
        try:
            sys.stdout.flush()
        except BrokenPipeError:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)


# --- subcommands ------------------------------------------------------------

def cmd_extract(args) -> int:
    knowledge = _load_knowledge(args)
    _write_outputs(args.out, {"knowledge.json": factbase.serialize_knowledge(knowledge)})
    return 0


def cmd_refine(args) -> int:
    knowledge = _load_knowledge(args)
    with _refined(args, knowledge) as artifacts:
        _write_outputs(args.out, {"artifacts.json": refiner.artifacts_to_json(artifacts)})
    return 0


def cmd_convert(args) -> int:
    artifacts_path = args.artifacts or os.path.join(args.out, "artifacts.json")
    artifacts = refiner.artifacts_from_json(_read(artifacts_path))
    policies = converter.build_mspl(artifacts)
    outputs = {f"{device}.mspl.xml": converter.serialize_mspl(policies[device])
               for device in sorted(policies)}
    _write_outputs(args.out, outputs, (".mspl.xml",))
    return 0


def cmd_translate(args) -> int:
    if args.catalog:
        translator.check_renderer_totality(cap.load_catalog(_read(args.catalog)))
    outputs = {}
    for name in _stage_files(args.out, (".mspl.xml",)):
        device = name[: -len(".mspl.xml")]
        policy = converter.parse_mspl(_read(os.path.join(args.out, name)))
        rules = translator.translate_policy(policy)
        outputs[f"{device}.rules"] = translator.rules_file_content(rules)
    _write_outputs(args.out, outputs, (".rules",))
    return 0


def cmd_verify(args) -> int:
    t = topo.parse_topology(_read(args.topology))
    artifacts = refiner.artifacts_from_json(_read(args.artifacts))
    catalog = cap.load_catalog(_read(args.catalog))
    flow = verifier.FlowSpec(src_ip=args.src_ip, dst_ip=args.dst_ip, l7_host=args.l7_host)
    blocked, report = verifier.verify_deployment(
        t, artifacts, catalog, flow, args.subject, args.object)
    write = sys.stdout.write
    with _flushed_stdout():
        for line in report:
            write(f"{line}\n")
    return 0 if blocked else EXIT_BYPASS


def cmd_run(args) -> int:
    knowledge = _load_knowledge(args)
    with _refined(args, knowledge) as artifacts:
        outputs = {"knowledge.json": factbase.serialize_knowledge(knowledge),
                   "artifacts.json": refiner.artifacts_to_json(artifacts)}
        policies = converter.build_mspl(artifacts)
        for device in sorted(policies):
            outputs[f"{device}.mspl.xml"] = converter.serialize_mspl(policies[device])
            rules = translator.translate_policy(policies[device])
            outputs[f"{device}.rules"] = translator.rules_file_content(rules)
            logger.info("stage=translator event=rendered device=%s rules=%d",
                        device, len(rules))
        outputs["manifest.json"] = _manifest(outputs)
        _write_outputs(args.out, outputs, (".mspl.xml", ".rules"))
    logger.info("stage=cli event=done files=%d", len(outputs))
    return 0


# --- command line -----------------------------------------------------------

EXIT_CODE_HELP = "exit codes: 0 ok; " + "; ".join(
    f"{code} {cls.__name__}" for cls, code in sorted(EXIT_CODES.items(), key=lambda i: i[1])
) + f"; {EXIT_BYPASS} bypass detected by verify; {EXIT_USAGE} usage or file-system error"
FLAG_HELP = {
    "topology": "topology YAML document", "hspl": "HSPL intent XML document",
    "cti": "natural-language CTI report (.txt)", "out": "output directory",
    "knowledge": "knowledge envelope JSON (base/input)", "kb": "knowledge-base file for reuse",
    "catalog": "security-control catalog JSON", "artifacts": "rule artifact JSON file",
    "subject": "endpoint the flow comes from", "object": "endpoint the flow goes to",
    "src-ip": "flow's source IPv4 address", "dst-ip": "flow's destination IPv4 address",
    "l7-host": "flow's HTTP host",
}
_REFINE_FLAGS = {"topology": True, "hspl": True, "cti": False, "knowledge": False,
                 "catalog": True, "kb": False, "out": True}
# command -> (its function, its help, its flags in the order --help lists
# them, each True if required); `args.<flag>` is None for an absent one
COMMANDS = {
    "extract": (cmd_extract, "derive indicator knowledge from a CTI report",
                {"cti": False, "knowledge": False, "out": True}),
    "refine": (cmd_refine, "allocate enforcement and emit rule artifacts", _REFINE_FLAGS),
    "convert": (cmd_convert, "build per-device MSPL policies from artifacts",
                {"out": True, "artifacts": False}),
    "translate": (cmd_translate, "render MSPL policies to native rules",
                  {"out": True, "catalog": False}),
    "verify": (cmd_verify, "symbolically check a flow against a deployment",
               {"topology": True, "catalog": True, "artifacts": True, "subject": True,
                "object": True, "src-ip": True, "dst-ip": True, "l7-host": False}),
    "run": (cmd_run, "full pipeline: extract, refine, convert, translate", _REFINE_FLAGS),
}


def _is_flag(arg: str, known) -> bool:
    """Whether `arg` is a flag; `-`, negative numbers and unknown flags with a
    space are values, as argparse read them."""
    return arg[:1] == "-" and len(arg) > 1 and (
        arg.partition("=")[0] in known or arg[:2] in known
        or not (re.match(r"^-\d+$|^-\d*\.\d+$", arg) or " " in arg))


def _usage(command: str | None, error: str | None = None) -> int:
    """Print the help and return 0, or the usage and `error` to stderr and return 64."""
    flags = COMMANDS[command][2] if command else {}
    usage = " ".join([f"usage: intentrefine {command} [-h]" if command else
                      f"usage: intentrefine [-h] [-v] {{{','.join(COMMANDS)}}} ...", *(
        f"--{f} {f.upper()}" if required else f"[--{f} {f.upper()}]"
        for f, required in flags.items())])
    if error:
        print(usage, f"error: {error}", sep="\n", file=sys.stderr)
        return EXIT_USAGE
    if command:
        lines = [COMMANDS[command][1], "", "flags:", *(
            f"  --{f:<9}  {'required' if required else 'optional'}  {FLAG_HELP[f]}"
            for f, required in flags.items())]
    else:
        lines = ["Refine security intents and CTI indicators into deployable rules.",
                 "", "commands:", *(f"  {c:<9}  {h}" for c, (_, h, _) in COMMANDS.items()),
                 "", "-v, --verbose (before the command) logs DEBUG lines too", EXIT_CODE_HELP]
    with _flushed_stdout():
        sys.stdout.write("\n".join([usage, "", *lines, ""]))
    return 0


def _parse(argv: list[str]):
    """The command line as `args`, or the exit code of a help (0) or of a
    usage error. An unknown flag or a stray value is refused once all are
    read, so that a later `--help` still prints the help, as with argparse."""
    verbose, command, values, error = False, None, {}, None
    known = {"-h", "--help", "-v", "--verbose"}
    args = iter(argv)
    for arg in args:
        name, eq, value = arg.partition("=")
        if arg in ("-h", "--help"):
            return _usage(command)
        if command is None and arg in ("-v", "--verbose"):
            verbose = True
        elif name[:2] == "--" and name[2:] in values:
            # a flag at the end is followed by "--", which is no value
            if not eq and _is_flag(value := next(args, "--"), known):
                return _usage(command, f"{name} needs a value")
            values[name[2:]] = value
        elif name in known or arg[:2] in known:
            return _usage(command, f"{arg!r} gives a value to a flag that takes none")
        elif command is None and not _is_flag(arg, known):
            if arg not in COMMANDS:
                return _usage(None, f"unknown command {arg!r}")
            command, values = arg, dict.fromkeys(COMMANDS[arg][2])
            known = {"-h", "--help", *(f"--{f}" for f in values)}
        else:
            error = error or f"unrecognized argument {arg!r}"
    missing = [f"--{f}" for f, required in COMMANDS[command][2].items()
               if required and values[f] is None] if command else ["a command"]
    if missing or error:
        return _usage(command, error or f"missing {', '.join(missing)}")
    return SimpleNamespace(func=COMMANDS[command][0], verbose=verbose,
                           **{f.replace("-", "_"): v for f, v in values.items()})


def main(argv: list[str] | None = None) -> int:
    # Python sets a stream to None when its descriptor was closed at start,
    # and print(file=None) writes to stdout. Write to devnull instead, as to
    # a reader that left.
    if sys.stdout is None:
        sys.stdout = open(os.devnull, "w")
    if sys.stderr is None:
        sys.stderr = open(os.devnull, "w")
    args = _parse(sys.argv[1:] if argv is None else argv)
    if isinstance(args, int):  # a help or a usage error
        return args
    errors.log_to_stderr("DEBUG" if args.verbose else "INFO")
    try:
        return args.func(args)
    except errors.PipelineError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CODES[type(exc)]
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        errors.log_to_stderr(None)


if __name__ == "__main__":
    sys.exit(main())
