"""Command-line pipeline: extract, refine, convert, translate, verify, run.

Outputs are computed fully in memory and written atomically (temp file plus
rename), so a failing stage never leaves partial rule files behind; then the
files in `--out` of the command's own kinds that it did not write are
removed. Every error class maps to its own exit code; `--help` lists them.
"""

from __future__ import annotations

import argparse
import atexit
import contextlib
import gc
import json
import logging
import os
import sys

from . import converter, factbase, refiner, translator, verifier
from . import capability as cap
from . import topology as topo
from . import errors

logger = logging.getLogger("intentrefine")

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

MANIFEST_NAME = "manifest.json"


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

    digests = {
        name: hashlib.sha256(content.encode()).hexdigest()
        for name, content in outputs.items()
    }
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
    base = (
        factbase.parse_knowledge(_read(args.knowledge))
        if getattr(args, "knowledge", None)
        else factbase.Knowledge()
    )
    if getattr(args, "cti", None):
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
    logger.info(
        "stage=refiner event=inputs intents=%d nodes=%d", len(intents), len(t.nodes)
    )

    with _kb_lock(args.kb):
        kb, kb_text = refiner.load_kb(args.kb) if args.kb else (None, None)
        artifacts, report, updated = refiner.refine(
            t, intents, knowledge, catalog, kb=kb
        )
        for hid in report.hits:
            logger.info("stage=refiner event=kb_reuse intent=%s result=hit", hid)
        for hid in report.misses:
            if hid in report.stale:
                added, removed = report.stale[hid]
                logger.info(
                    "stage=refiner event=kb_reuse intent=%s result=stale added=%s removed=%s",
                    hid, ",".join(added), ",".join(removed),
                )
            else:
                logger.info("stage=refiner event=kb_reuse intent=%s result=miss", hid)
        yield artifacts
        if args.kb:
            refiner.save_kb(updated, args.kb, kb_text)


def _render_all(artifacts):
    policies = converter.build_mspl(artifacts)
    outputs: dict[str, str] = {}
    for device in sorted(policies):
        policy = policies[device]
        outputs[f"{device}.mspl.xml"] = converter.serialize_mspl(policy)
        rules = translator.translate_policy(policy)
        outputs[f"{device}.rules"] = translator.rules_file_content(rules)
        logger.info(
            "stage=translator event=rendered device=%s rules=%d", device, len(rules)
        )
    return outputs


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
    outputs = {
        f"{device}.mspl.xml": converter.serialize_mspl(policies[device])
        for device in sorted(policies)
    }
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
    flow = verifier.FlowSpec(
        src_ip=args.src_ip, dst_ip=args.dst_ip, l7_host=args.l7_host
    )
    blocked, report = verifier.verify_deployment(
        t, artifacts, catalog, flow, args.subject, args.object
    )
    write = sys.stdout.write
    with _flushed_stdout():
        for line in report:
            write(f"{line}\n")
    return 0 if blocked else EXIT_BYPASS


def cmd_run(args) -> int:
    knowledge = _load_knowledge(args)
    with _refined(args, knowledge) as artifacts:
        outputs = {
            "knowledge.json": factbase.serialize_knowledge(knowledge),
            "artifacts.json": refiner.artifacts_to_json(artifacts),
        }
        outputs.update(_render_all(artifacts))
        outputs[MANIFEST_NAME] = _manifest(outputs)
        _write_outputs(args.out, outputs, (".mspl.xml", ".rules"))
    logger.info("stage=cli event=done files=%d", len(outputs))
    return 0


# --- argument parsing -------------------------------------------------------

EXIT_CODE_HELP = "exit codes: 0 ok; " + "; ".join(
    f"{code} {cls.__name__}" for cls, code in sorted(EXIT_CODES.items(), key=lambda i: i[1])
) + f"; {EXIT_BYPASS} bypass detected by verify"


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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="intentrefine",
        description="Refine security intents and CTI indicators into "
                    "deployable filtering rules.",
        epilog=EXIT_CODE_HELP,
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="derive indicator knowledge from a CTI report")
    _add_io_flags(p, cti=True, knowledge=True, out=True)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("refine", help="allocate enforcement and emit rule artifacts")
    _add_io_flags(p, topology=True, hspl=True, cti=True, knowledge=True,
                  catalog="required", kb=True, out=True)
    p.set_defaults(func=cmd_refine)

    p = sub.add_parser("convert", help="build per-device MSPL policies from artifacts")
    _add_io_flags(p, out=True, artifacts=True)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("translate", help="render MSPL policies to native rules")
    _add_io_flags(p, out=True, catalog=True)
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("verify", help="symbolically check a flow against a deployment")
    _add_io_flags(p, topology=True, catalog="required")
    p.add_argument("--artifacts", required=True, help="rule artifact JSON file")
    p.add_argument("--subject", required=True)
    p.add_argument("--object", required=True)
    p.add_argument("--src-ip", required=True)
    p.add_argument("--dst-ip", required=True)
    p.add_argument("--l7-host")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("run", help="full pipeline: extract, refine, convert, translate")
    _add_io_flags(p, topology=True, hspl=True, cti=True, knowledge=True,
                  catalog="required", kb=True, out=True)
    p.set_defaults(func=cmd_run)

    return parser


def main(argv: list[str] | None = None) -> int:
    # `--help` prints to stdout and exits here, before any handler below
    with _flushed_stdout():
        args = build_parser().parse_args(argv)
    logging.basicConfig(stream=sys.stderr, format="%(message)s",
                        level=logging.DEBUG if args.verbose else logging.INFO)
    try:
        return args.func(args)
    except errors.PipelineError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CODES[type(exc)]
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
