"""Benchmark of the intentrefine pipeline: per-process op timings, and a
traced in-process run for per-layer numbers.

    python3 bench/run.py --workload ladder --seed 1 --seconds 32 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 32 --trace 1

`all` runs the workloads BENCHMARK.json names, one after another.

Load model: closed loop, one client. Every op is a fresh
`python -m intentrefine.cli` process started from this checkout's `src/`,
as an operator runs it, so import time counts. The next op starts only after
the previous process has exited. One sample runs, in order:

    setup     a process that only imports intentrefine.cli
    run_cold  `run` with --kb naming an absent file (cache miss, writes the KB)
    run_warm  the same `run` again on the KB run_cold left (cache hit)
    verify    `verify` of a flow whose verdict is known in advance

`--trace 0` times these ops and reports the end-to-end metrics of
BENCHMARK.json. Each process's wall time is scaled to a reference machine
speed, measured by a fixed loop run just before and just after it (see
`calibrate`); the unscaled wall times go to the record as well.
`--trace 1` runs run_cold, run_warm and verify in-process, alternately plain
and with spans around each module's public functions (spans.py), and reports
the per-layer metrics, including the tracing overhead. Its outputs must equal
those of the plain processes.

Every op's outputs are checked against the oracles in workloads.py, which do
not use the code under test. A failed check makes the command exit 1. The
last line on stdout is the JSON object {"correct", "attempted", "failed",
"metrics"}. A fuller record (commit, Python version, seed, workload
parameters, sample counts, tail percentiles, spans) goes to bench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

import spans
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
CATALOG = workloads.CATALOG
SPEC = os.path.join(ROOT, "BENCHMARK.json")
RESULTS = os.path.join(ROOT, "bench", "results")
WORK = os.path.join(ROOT, "bench", ".work")

PY = sys.executable
# Children get the caller's environment without its PYTHON* settings (such as
# PYTHONDONTWRITEBYTECODE or PYTHONUNBUFFERED), so timings do not depend on
# the shell the benchmark is started from.
CHILD_ENV = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
CHILD_ENV["PYTHONPATH"] = SRC
CLI = [PY, "-m", "intentrefine.cli"]
SETUP = [PY, "-c", "import intentrefine.cli"]
IMPORT_PROBE = [PY, "-c", "import time; t = time.perf_counter(); "
                "import intentrefine.cli; print(time.perf_counter() - t)"]
IMPORT_PROBES = 9

# On a shared VM the same process runs up to twice as fast or as slow from one
# stretch of a few seconds to the next, and every process slows alike. A fixed
# pure-Python loop timed just before and just after each process tracks that
# speed; the process's wall time is scaled by it to the reference speed at
# which the loop takes CAL_REFERENCE_S. A change to the program moves the
# process's time and not the loop's.
CAL_ITERATIONS = 100_000
CAL_REFERENCE_S = 0.010

OPS = ("setup", "run_cold", "run_warm", "verify")
IN_PROCESS_OPS = ("run_cold", "run_warm", "verify")

BLOCKED_RE = re.compile(r"BLOCKED path \[(.*)\] at (\S+)")
BYPASS_PREFIX = "ALLOWED (bypass) path ["
REUSE_RE = re.compile(r"event=kb_reuse intent=(\S+) result=(\S+)")


@dataclass
class Outcome:
    exit_code: int
    wall: float
    stdout: str
    stderr: str
    maxrss_kib: int = 0
    slowdown: float = 1.0  # machine speed relative to the reference

    @property
    def scaled(self) -> float:
        """Wall time at the reference machine speed."""
        return self.wall / self.slowdown


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def record(self, op: str, errors: list[str]) -> bool:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors += [f"{op}: {e}" for e in errors]
        return not errors


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


# --- invoking the CLI -------------------------------------------------------

def spawn(argv: list[str], cwd: str) -> Outcome:
    """Run one process to completion; wall time covers start to reaped exit."""
    out_path, err_path = os.path.join(cwd, "stdout.txt"), os.path.join(cwd, "stderr.txt")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=CHILD_ENV,
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(proc.returncode, wall, _read(out_path), _read(err_path),
                   usage.ru_maxrss)


def calibrate() -> float:
    """Wall time of a fixed pure-Python loop in this process."""
    start = time.perf_counter()
    x = 0
    for i in range(CAL_ITERATIONS):
        x += i * i % 7
    return time.perf_counter() - start


def spawn_calibrated(argv: list[str], cwd: str) -> Outcome:
    """`spawn`, with the machine speed measured just before and after."""
    before = calibrate()
    outcome = spawn(argv, cwd)
    outcome.slowdown = (before + calibrate()) / 2 / CAL_REFERENCE_S
    return outcome


class Sink:
    """A text stream that keeps what was written until `take()`."""

    def __init__(self) -> None:
        self._parts: list[str] = []

    def write(self, text: str) -> int:
        self._parts.append(text)
        return len(text)

    def flush(self) -> None:
        pass

    def take(self) -> str:
        text, self._parts = "".join(self._parts), []
        return text


class InProcess:
    """Calls `cli.main` in this process. The logging handler the CLI installs
    on its first call binds to the stderr sink, so every later call's log
    lines land there too."""

    def __init__(self, cli) -> None:
        self.cli = cli
        self.out, self.err = Sink(), Sink()

    def __call__(self, argv: list[str]) -> Outcome:
        with contextlib.redirect_stdout(self.out), contextlib.redirect_stderr(self.err):
            start = time.perf_counter()
            try:
                code = self.cli.main(argv)  # looked up per call: may be traced
            except Exception:
                code = -1
                print(traceback.format_exc(), file=self.err)
            wall = time.perf_counter() - start
        return Outcome(code, wall, self.out.take(), self.err.take())


# --- ops and their checks ---------------------------------------------------

class CaseDirs:
    """Where one case's KB and outputs live for one caller."""

    def __init__(self, base: str, case: workloads.Case) -> None:
        root = os.path.join(base, case.name)
        self.kb = os.path.join(root, "kb.json")
        self.out = {"run_cold": os.path.join(root, "out_cold"),
                    "run_warm": os.path.join(root, "out_warm")}
        os.makedirs(root, exist_ok=True)


def run_argv(case: workloads.Case, inputs: str, dirs: CaseDirs, op: str) -> list[str]:
    argv = ["run"]
    for flag, name in case.inputs.items():
        argv += [flag, os.path.join(inputs, name)]  # fixture paths are absolute
    return argv + ["--catalog", CATALOG, "--kb", dirs.kb, "--out", dirs.out[op]]


def verify_argv(case: workloads.Case, flow: workloads.Flow, inputs: str,
                dirs: CaseDirs) -> list[str]:
    return (["verify", "--topology", os.path.join(inputs, case.inputs["--topology"]),
             "--catalog", CATALOG, "--artifacts",
             os.path.join(dirs.out["run_cold"], "artifacts.json")] + flow.args())


def _failure(outcome: Outcome) -> str:
    tail = outcome.stderr.strip().splitlines()[-1:] or [""]
    return f"exit code {outcome.exit_code}: {tail[0][:300]}"


def check_setup(outcome: Outcome) -> list[str]:
    if outcome.exit_code != 0:
        return [_failure(outcome)]
    if outcome.stdout or outcome.stderr:
        return ["importing intentrefine.cli printed output"]
    return []


def check_run(case: workloads.Case, dirs: CaseDirs, op: str,
              outcome: Outcome) -> list[str]:
    """Files, byte-exact rules, manifest digests, cover, fact count and the
    KB reuse log of one `run`; run_warm must reproduce run_cold's manifest."""
    if outcome.exit_code != 0:
        return [f"{case.name}: {_failure(outcome)}"]
    out = dirs.out[op]
    names = {n for n in os.listdir(out) if not n.startswith(".")}
    if names != case.output_names():
        return [f"{case.name}: output files {sorted(names)}, "
                f"expected {sorted(case.output_names())}"]
    errors = []
    for device, rules in case.rules.items():
        if _read(os.path.join(out, f"{device}.rules")) != rules:
            errors.append(f"{case.name}: {device}.rules differs from the oracle")
    manifest = _read(os.path.join(out, "manifest.json"))
    digests = {}
    for name in names - {"manifest.json"}:
        with open(os.path.join(out, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    if json.loads(manifest).get("files") != digests:
        errors.append(f"{case.name}: manifest digests do not match the files")
    artifacts = json.loads(_read(os.path.join(out, "artifacts.json")))
    devices = sorted({a["device"] for a in artifacts})
    if devices != case.cover:
        errors.append(f"{case.name}: enforcement set {devices}, expected {case.cover}")
    facts = len(json.loads(_read(os.path.join(out, "knowledge.json")))["facts"])
    if facts != case.facts:
        errors.append(f"{case.name}: {facts} facts, expected {case.facts}")
    expect = "miss" if op == "run_cold" else "hit"
    reuse = sorted(REUSE_RE.findall(outcome.stderr))
    if reuse != sorted((hid, expect) for hid in case.intents):
        errors.append(f"{case.name}: KB reuse log is not result={expect} "
                      f"once for each of {len(case.intents)} intents")
    if not os.path.isfile(dirs.kb):
        errors.append(f"{case.name}: no knowledge base written")
    if op == "run_warm":
        cold = _read(os.path.join(dirs.out["run_cold"], "manifest.json"))
        if manifest != cold:
            errors.append(f"{case.name}: run_warm manifest differs from run_cold's")
    return errors


def check_verify(case: workloads.Case, flow: workloads.Flow,
                 outcome: Outcome) -> list[str]:
    """Exit code, one line per path, and each BLOCKED line naming a device
    of the known cover that lies on that path."""
    errors = []
    if outcome.exit_code != flow.exit_code:
        errors.append(f"{case.name}: verify {_failure(outcome)}, "
                      f"expected {flow.exit_code}")
    lines = outcome.stdout.splitlines()
    blocked = allowed = 0
    for line in lines:
        m = BLOCKED_RE.fullmatch(line)
        if m:
            blocked += 1
            path, device = m.groups()
            if device not in flow.blockers or f"'{device}'" not in path:
                errors.append(f"{case.name}: unexpected blocker in {line[:200]!r}")
                break
        elif line.startswith(BYPASS_PREFIX):
            allowed += 1
        else:
            errors.append(f"{case.name}: unexpected verify line {line[:200]!r}")
            break
    if (blocked, allowed) != (flow.blocked, flow.allowed):
        errors.append(f"{case.name}: {blocked} blocked / {allowed} bypass paths, "
                      f"expected {flow.blocked} / {flow.allowed}")
    if len(set(lines)) != len(lines):
        errors.append(f"{case.name}: a path is reported twice")
    return errors


def _checked(check, *args) -> list[str]:
    """Run a check; unreadable or malformed outputs count as a failure."""
    try:
        return check(*args)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def do_op(op: str, call, w: workloads.Workload, inputs: str,
          dirs: list[CaseDirs], sample: int) -> tuple[float, list[Outcome], list[str]]:
    """One op over every case of the workload (two for `paper`); the op's
    time is the sum over its cases of the scaled wall time. Returns (time,
    outcomes, errors)."""
    wall, outcomes, errors = 0.0, [], []
    for case, d in zip(w.cases, dirs):
        if op == "verify":
            flow = case.flows[sample % len(case.flows)]
            outcome = call(verify_argv(case, flow, inputs, d))
            errors += _checked(check_verify, case, flow, outcome)
        else:
            if op == "run_cold":
                with contextlib.suppress(FileNotFoundError):
                    os.remove(d.kb)
            shutil.rmtree(d.out[op], ignore_errors=True)
            outcome = call(run_argv(case, inputs, d, op))
            errors += _checked(check_run, case, d, op, outcome)
        wall += outcome.scaled
        outcomes.append(outcome)
    return wall, outcomes, errors


# --- measurement ------------------------------------------------------------

def _loop(deadline: float, sample) -> int:
    """Call `sample(i)` until another sample would pass the deadline (a
    `time.perf_counter()` value), at least once. Returns the sample count."""
    longest = 0.0
    i = 0
    while True:
        start = time.perf_counter()
        sample(i)
        i += 1
        longest = max(longest, time.perf_counter() - start)
        if time.perf_counter() + longest > deadline:
            return i


def measure_processes(w, inputs: str, work: str, seconds: float, tally: Tally):
    """Untraced: every op a fresh process. Returns (per-op scaled times,
    per-op unscaled wall times, peak RSS in KiB, KB sizes, samples)."""
    call = lambda argv: spawn_calibrated(CLI + argv, work)  # noqa: E731
    dirs = [CaseDirs(os.path.join(work, "process"), c) for c in w.cases]
    times: dict[str, list[float]] = {op: [] for op in OPS}
    raw: dict[str, list[float]] = {op: [] for op in OPS}
    rss = 0
    kb_sizes: list[int] = []

    def sample(i: int) -> None:
        nonlocal rss
        outcome = spawn_calibrated(SETUP, work)
        tally.record("setup", _checked(check_setup, outcome))
        walls = {"setup": (outcome.scaled, outcome.wall)}
        rss = max(rss, outcome.maxrss_kib)
        for op in IN_PROCESS_OPS:
            wall, outcomes, errors = do_op(op, call, w, inputs, dirs, i)
            tally.record(op, errors)
            walls[op] = (wall, sum(o.wall for o in outcomes))
            rss = max([rss] + [o.maxrss_kib for o in outcomes])
            if op == "run_cold":
                kb_sizes.append(sum(os.path.getsize(d.kb) for d in dirs
                                    if os.path.isfile(d.kb)))
        for op, (scaled, wall) in walls.items():
            times[op].append(scaled)
            raw[op].append(wall)

    # Untimed: the first import byte-compiles src/ in a fresh checkout.
    tally.record("setup", _checked(check_setup, spawn(SETUP, work)))
    n = _loop(time.perf_counter() + seconds, sample)
    # Untimed: every known verdict is checked, however short the run.
    for i in range(n, max(len(c.flows) for c in w.cases)):
        tally.record("verify", do_op("verify", call, w, inputs, dirs, i)[2])
    return times, raw, rss, kb_sizes, n


def _same_tree(a: str, b: str) -> bool:
    def tree(root):
        result = {}
        for name in sorted(os.listdir(root)):
            if not name.startswith("."):
                with open(os.path.join(root, name), "rb") as fh:
                    result[name] = fh.read()
        return result
    return tree(a) == tree(b)


def measure_traced(w, inputs: str, work: str, seconds: float, tally: Tally,
                   in_process: InProcess):
    """In-process, alternately plain and traced. Returns (per-layer samples,
    import-time probes, spans of the last traced sample per op, samples)."""
    deadline = time.perf_counter() + seconds  # the reference pass counts too
    tracer = spans.Tracer()
    dirs = {mode: [CaseDirs(os.path.join(work, mode), c) for c in w.cases]
            for mode in ("process", "plain", "traced")}

    # The reference the traced outputs must equal: one pass of real processes.
    process_call = lambda argv: spawn(CLI + argv, work)  # noqa: E731
    for op in IN_PROCESS_OPS:
        tally.record(op, do_op(op, process_call, w, inputs, dirs["process"], 0)[2])
    for i in range(1, max(len(c.flows) for c in w.cases)):
        tally.record("verify", do_op("verify", process_call, w, inputs,
                                     dirs["process"], i)[2])
    probes = []
    for _ in range(IMPORT_PROBES):
        outcome = spawn(IMPORT_PROBE, work)
        if tally.record("setup", [] if outcome.exit_code == 0 else [_failure(outcome)]):
            probes.append(float(outcome.stdout))

    layers: dict[str, list[float]] = {}
    last_spans: dict[str, list[dict]] = {}

    def sample(i: int) -> None:
        for op in IN_PROCESS_OPS:
            walls, outputs = {}, {}
            modes = ("plain", "traced") if i % 2 == 0 else ("traced", "plain")
            for mode in modes:
                if mode == "traced":
                    tracer.install()
                try:
                    walls[mode], outputs[mode], errors = do_op(
                        op, in_process, w, inputs, dirs[mode], i)
                finally:
                    tracer.uninstall()
                tally.record(op, errors)
            recorded = tracer.take()
            errors = []
            for k, case in enumerate(w.cases):
                if op == "verify":
                    if outputs["traced"][k].stdout != outputs["plain"][k].stdout:
                        errors.append(f"{case.name}: traced verify output differs")
                else:
                    for mode in ("plain", "traced"):
                        if not _same_tree(dirs[mode][k].out[op],
                                          dirs["process"][k].out[op]):
                            errors.append(f"{case.name}: {mode} in-process outputs "
                                          "differ from the process's")
            tally.record(f"{op} (traced = untraced)", errors)

            values = {f"{op}.{k}": v for k, v in spans.layer_metrics(recorded).items()}
            traced = outputs["traced"]
            values[f"{op}.cli.stdout_bytes"] = sum(len(o.stdout.encode()) for o in traced)
            values[f"{op}.cli.stderr_bytes"] = sum(len(o.stderr.encode()) for o in traced)
            if op != "verify":
                values[f"{op}.cli.bytes_written"] = sum(
                    os.path.getsize(os.path.join(d.out[op], name)) for d in dirs["traced"]
                    for name in os.listdir(d.out[op])) + sum(
                    os.path.getsize(d.kb) for d in dirs["traced"])
            values[f"{op}.trace.overhead_s"] = walls["traced"] - walls["plain"]
            for name, value in values.items():
                layers.setdefault(name, []).append(value)
            last_spans[op] = spans.to_records(recorded)

    n = _loop(deadline, sample)
    return layers, probes, last_spans, n


# --- reporting --------------------------------------------------------------

def tail(values: list[float]) -> tuple[float | None, float | None]:
    """Highest of a few percentiles with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    for p in (99.9, 99, 95, 90, 75, 50):
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return None, None


def commit_id() -> str | None:
    """HEAD of the checkout's own git repository, if it is one."""
    # The ceiling keeps git from answering for a repository around the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def bench_workload(name: str, seed: int, seconds: float,
                   in_process: InProcess | None, spec: dict) -> dict:
    """Measure one workload, untraced unless `in_process` is given."""
    trace = in_process is not None
    w = workloads.GENERATORS[name](seed)
    tally = Tally()
    again = workloads.GENERATORS[name](seed)
    tally.record("generate", [] if again.files == w.files
                 else ["the same seed gave different inputs"])

    work = os.path.join(WORK, f"{name}-{seed}-{os.getpid()}")
    inputs = os.path.join(work, "inputs")
    os.makedirs(inputs)
    try:
        for file_name, content in w.files.items():
            with open(os.path.join(inputs, file_name), "w", encoding="utf-8") as fh:
                fh.write(content)
        started = time.perf_counter()
        if trace:
            layers, probes, last_spans, n = measure_traced(
                w, inputs, work, seconds, tally, in_process)
            layers["setup.cli.import_s"] = probes
            samples, unscaled = layers, {}
            values = {k: statistics.median(v) for k, v in layers.items()}
            wanted = spec["per_layer"]
        else:
            times, raw, rss_kib, kb_sizes, n = measure_processes(
                w, inputs, work, seconds, tally)
            samples = {f"{op}_s": times[op] for op in OPS}
            unscaled = {f"{op}_s": raw[op] for op in OPS}
            values = {k: statistics.median(v) for k, v in samples.items()}
            values["peak_rss_mb"] = rss_kib / 1024
            values["kb_bytes"] = statistics.median_low(kb_sizes)
            last_spans = {}
            wanted = spec["end_to_end"]
        elapsed = time.perf_counter() - started
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)
    values["correct_ratio"] = (tally.attempted - tally.failed) / tally.attempted

    metrics, record = {}, {}
    for m in wanted:
        value = values.get(m["name"])
        if value is None:
            tally.record("report", [f"metric {m['name']} was not measured"])
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        entry = {"value": value, "unit": m["unit"], "better": m["better"]}
        if m["name"] in samples:
            p, v = tail(samples[m["name"]])
            entry.update(samples=len(samples[m["name"]]), tail_percentile=p,
                         tail_value=v)
        record[m["name"]] = entry

    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    os.makedirs(RESULTS, exist_ok=True)
    doc = {
        "workload": name, "seed": seed, "trace": int(trace),
        "params": w.params, "seconds": seconds, "elapsed_s": elapsed,
        "samples": n, "commit": commit_id(),
        "python": platform.python_version(), "platform": platform.platform(),
        "cpus": os.cpu_count(), **result, "metrics": record,
        "errors": tally.errors[:50], "raw": samples,
        "unscaled_wall_s": unscaled, "spans": last_spans,
    }
    path = os.path.join(RESULTS, f"{name}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)

    print(f"{name} seed {seed} trace {int(trace)}: {n} samples in {elapsed:.1f} s, "
          f"{tally.attempted - tally.failed}/{tally.attempted} ops correct")
    for metric, entry in record.items():
        tail_text = (f"p{entry['tail_percentile']:g} {entry['tail_value']:.6g}"
                     if entry.get("tail_percentile") else "no tail")
        count = f" n={entry['samples']} {tail_text}" if "samples" in entry else ""
        print(f"  {metric:<36} {entry['value']:>14.6g} {entry['unit']:<6}{count}")
    for metric, walls in unscaled.items():
        print(f"  {metric + ' unscaled':<36} {statistics.median(walls):>14.6g} s")
    for error in tally.errors[:20]:
        print(f"  FAILED {error}")
    print(f"  record: {os.path.relpath(path, ROOT)}")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.GENERATORS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = [p for p in (os.path.join(SRC, "intentrefine", "cli.py"), CATALOG, SPEC)
               if not os.path.isfile(p)]
    if missing:
        print(f"error: not a complete intentrefine checkout, missing {missing}",
              file=sys.stderr)
        return 2
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)

    in_process = None
    if args.trace:
        sys.path.insert(0, SRC)
        from intentrefine import cli
        in_process = InProcess(cli)  # one per process: logging binds its sink
    names = ([w["name"] for w in spec["workloads"]] if args.workload == "all"
             else [args.workload])
    results = {n: bench_workload(n, args.seed, args.seconds, in_process, spec)
               for n in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
