"""semicat benchmark: wall time to verdict per CLI subcommand, per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]
    python3 perfbench/run.py --write-spec

Each operation (one `semicat <command> <input>` call) runs in a fresh Python
process through `semicat.cli.main(argv)`, one after another (a closed loop with
one client and the default `--workers 1`).  Wall time and peak RSS come from
`os.wait4` on that process, so interpreter start, import and input load are
included, as for a user.  Every verdict is gated (see workloads.py); an
operation that crashes, exits with an unexpected code or writes an unexpected
report counts as failed.

Timed run (`--trace 0`): the workload's inputs are first built SETUP_REPEATS
times in fresh processes with no verification (`setup_s` is the median), then
the operations run in passes, a new pass starting while less than `--seconds`
have passed (at least MIN_PASSES passes).  Each operation's wall time is its
median over the passes, and a subcommand's total is the sum of those medians.

Traced run (`--trace 1`): one untraced pass, then one pass in which op.py
wraps the public functions of every layer and records spans.  Per-layer
numbers come from the traced pass; `trace.overhead_s` is the traced pass's
wall time minus the untraced pass's.

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  `--write-spec` writes BENCHMARK.json from
the definitions below.
"""

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402
from op import TRACED  # noqa: E402

RUN_SECONDS = 36
MIN_PASSES = 2  # host speed drifts on a scale of tens of seconds; average it
SETUP_REPEATS = 3
DEADLINE_S = 160  # a run ends well within 180 s; operations past this fail
WORK = os.path.join(HERE, ".work")
COMMANDS = ("check", "iso", "rep")

# name, unit, better, bound (share of the parent's median a change may lose)
END_TO_END = [
    ("check_s", "s", "lower", 0.25),
    ("iso_s", "s", "lower", 0.25),
    ("rep_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.1),
]
# exact counts that op.py records at span boundaries (see op._attrs)
SPAN_COUNTERS = ["algebras.pairs_checked", "algebras.hom_failures",
                 "linalg.nullspace.cells", "linalg.rank.cells"]
# name, unit, better; self time and calls for every traced function
PER_LAYER = (
    [(f"{f}.self_s", "s", "lower") for f in ["cli.main", *TRACED]]
    + [(f"{f}.calls", "count", "lower") for f in TRACED]
    + [("posets.moebius.useful_ratio", "ratio", "higher")]
    + [(name, "count", "lower") for name in SPAN_COUNTERS]
    + [("cli.import_s", "s", "lower"), ("trace.overhead_s", "s", "lower")]
)


@dataclass
class Op:
    command: str
    source: str      # "zoo" or "input"
    target: str      # zoo spec or interchange file path
    label: str       # zoo spec or draw name, for messages
    gate: object     # gate(exit code, report bytes) -> None or a reason string


@dataclass
class Result:
    op: Op
    code: int
    wall: float
    rss_kib: int
    failure: str | None
    started: float
    trace: dict | None


def host_facts():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(l.split(":", 1)[1].strip() for l in fh if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = "absent"
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy}


# --- processes ---------------------------------------------------------------

def spawn(args, deadline, log):
    """Run `python3 op.py ARGS`; return (exit code, wall s, peak RSS KiB, start).

    On Linux a child's ru_maxrss starts from the parent's peak RSS, so this
    process stays small: it imports neither numpy nor semicat (draws.py builds
    the random inputs in a process of its own).
    """
    argv = [sys.executable, os.path.join(HERE, "op.py"), *args]
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
        (os.POSIX_SPAWN_OPEN, 2, log, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    start = time.monotonic()
    pid = os.posix_spawn(sys.executable, argv, os.environ, file_actions=actions)
    fd = os.pidfd_open(pid)
    try:
        if not select.select([fd], [], [], max(0.0, deadline - time.monotonic()))[0]:
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.wait4(pid, 0)
        raise
    finally:
        os.close(fd)
    wall = time.monotonic() - start
    return os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss, start


def run_op(op, i, deadline, trace):
    stem = os.path.join(WORK, f"{i:02d}-{op.command}-{op.label.replace(':', '')}")
    report, trace_file = stem + ".report.json", stem + ".trace.json"
    for path in (report, trace_file):
        if os.path.exists(path):
            os.remove(path)
    args = (["--trace", trace_file] if trace else []) + [
        "--", op.command, f"--{op.source}", op.target, "--report", report]
    if time.monotonic() >= deadline:
        return Result(op, -1, 0.0, 0, "not started: run deadline passed", 0.0, None)
    code, wall, rss, started = spawn(args, deadline, stem + ".stderr")
    try:
        with open(report, "rb") as fh:
            body = fh.read()
    except OSError:
        body = None
    failure = op.gate(code, body)
    if failure is not None:
        with open(stem + ".stderr", encoding="utf-8", errors="replace") as fh:
            lines = fh.read().strip().splitlines()
        failure += f" (stderr: {lines[-1]})" if lines else ""
    spans = None
    if trace and failure is None:
        with open(trace_file, encoding="utf-8") as fh:
            spans = json.load(fh)
    return Result(op, code, wall, rss, failure, started, spans)


def run_pass(ops, deadline, trace):
    return [run_op(op, i, deadline, trace) for i, op in enumerate(ops)]


def run_setup(items, deadline):
    """One set-up pass: (total wall s, list of failure messages)."""
    total, failures = 0.0, []
    for i, (kind, target, expected) in enumerate(items):
        if time.monotonic() >= deadline:
            failures.append(f"setup {target}: run deadline passed")
            continue
        code, wall, _, _ = spawn(["--setup", kind, target], deadline,
                                 os.path.join(WORK, f"setup{i:02d}.stderr"))
        total += wall
        if code != expected:
            failures.append(f"setup {target}: exit {code}, expected {expected}")
    return total, failures


# --- workloads ---------------------------------------------------------------

def zoo_gate(want_code, want_sha):
    def gate(code, body):
        if code != want_code:
            return f"exit {code}, expected {want_code}"
        if body is None:
            return "no report"
        got = hashlib.sha256(body).hexdigest()
        if got != want_sha:
            return f"report sha256 {got}, expected {want_sha}"
        return None
    return gate


def random_gate(command, obj, is_mutant):
    def gate(code, body):
        if body is None:
            return "no report"
        try:
            report = json.loads(body)
        except ValueError:
            return "report is not JSON"
        return wl.random_verdict_failure(command, obj, is_mutant, code, report)
    return gate


def build_workload(name, seed):
    """(operations, set-up items) for one workload; input-random writes its inputs into WORK."""
    if name in wl.ZOO_WORKLOADS:
        pairs = wl.ZOO_WORKLOADS[name][1]
        ops = [Op(c, "zoo", s, s, zoo_gate(*wl.ZOO_EXPECTED[(c, s)])) for c, s in pairs]
        specs = list(dict.fromkeys(s for _, s in pairs))
        return ops, [("zoo", s, 0) for s in specs]
    manifest = subprocess.run([sys.executable, os.path.join(HERE, "draws.py"), str(seed), WORK],
                              check=True, capture_output=True, text=True).stdout
    ops, items = [], []
    for label, is_mutant in json.loads(manifest):
        path = os.path.join(WORK, label + ".json")
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
        commands = ("check",) if is_mutant else COMMANDS
        ops += [Op(c, "input", path, label, random_gate(c, obj, is_mutant)) for c in commands]
        items.append(("input", path, 3 if is_mutant else 0))
    return ops, items


# --- metrics -----------------------------------------------------------------

def per_command(passes):
    """Per subcommand, the sum over its operations of each one's median wall time.

    With three or more passes, a median per operation drops a pass that a
    burst of load on the shared host slowed down, whichever operation it hit.
    """
    totals = {f"{c}_s": 0.0 for c in COMMANDS}
    for runs in zip(*passes):
        totals[f"{runs[0].op.command}_s"] += statistics.median(r.wall for r in runs)
    return totals


def layer_metrics(results):
    self_s, calls, counts = defaultdict(float), defaultdict(int), defaultdict(int)
    posets, import_s = set(), 0.0
    for k, r in enumerate(results):
        spans = r.trace["spans"]
        import_s += r.trace["imported"] - r.started
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent is not None:
                child[parent] += end - start
        for (name, start, end, _, attrs), inner in zip(spans, child):
            self_s[name] += end - start - inner
            calls[name] += 1
            for key, value in (attrs or {}).items():
                if key == "poset":
                    posets.add((k, value))
                else:
                    counts[key] += value
    metrics = {f"{f}.self_s": self_s[f] for f in ["cli.main", *TRACED]}
    metrics.update({f"{f}.calls": calls[f] for f in TRACED})
    moebius_calls = calls["posets.moebius"]
    metrics["posets.moebius.useful_ratio"] = len(posets) / moebius_calls if moebius_calls else 0.0
    metrics.update({name: counts[name] for name in SPAN_COUNTERS})
    metrics["cli.import_s"] = import_s
    return metrics


def run_workload(name, seed, seconds, trace):
    """Returns (result object for the last line, human-readable lines)."""
    start = time.monotonic()
    deadline = start + DEADLINE_S
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    try:
        ops, items = build_workload(name, seed)
        problems = []
        if trace:
            passes = [run_pass(ops, deadline, False), run_pass(ops, deadline, True)]
        else:
            setups = []
            for _ in range(SETUP_REPEATS):
                total, failures = run_setup(items, deadline)
                setups.append(total)
                problems += failures
            passes, measure_start = [], time.monotonic()
            while True:
                passes.append(run_pass(ops, deadline, False))
                if len(passes) >= MIN_PASSES and time.monotonic() - measure_start >= seconds:
                    break
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    results = [r for p in passes for r in p]
    failed = [r for r in results if r.failure is not None]
    problems += [f"{r.op.command} {r.op.label}: {r.failure}" for r in failed]
    if trace:
        metrics = layer_metrics(passes[1]) if not failed else {}
        if metrics:
            metrics["trace.overhead_s"] = (sum(r.wall for r in passes[1])
                                           - sum(r.wall for r in passes[0]))
        units = {n: u for n, u, _ in PER_LAYER}
    else:
        metrics = per_command(passes)
        metrics["setup_s"] = statistics.median(setups)
        metrics["peak_rss_mib"] = max(r.rss_kib for r in results) / 1024
        units = {n: u for n, u, _, _ in END_TO_END}
    out = {
        "correct": not problems,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics},
    }
    lines = [f"workload {name} seed {seed}: {len(passes)} pass(es) of {len(ops)} operations"
             + ("" if trace else f", set-up x{SETUP_REPEATS}")]
    lines += [f"  {k:<44} {v['value']:>14.6g} {v['unit']}" for k, v in out["metrics"].items()]
    lines.append(f"  {'failed_ratio':<44} {len(failed) / len(results):>14.6g} ratio"
                 f" ({len(failed)} failed / {len(results)} attempted)")
    lines += [f"  FAILED {p}" for p in problems]
    return out, lines


def spec():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": wl.WHY[n]} for n in wl.WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": d}
                       for n, u, b, d in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload, untraced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json at the repository root")
    args = parser.parse_args(argv)
    if args.write_spec:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w", encoding="utf-8") as fh:
            json.dump(spec(), fh, indent=2)
            fh.write("\n")
        return 0
    if not os.path.isfile(os.path.join(ROOT, "src", "semicat", "cli.py")):
        print(f"error: no semicat sources under {ROOT}/src", file=sys.stderr)
        return 2
    if not (args.all or args.workload):
        parser.error("give --workload NAME or --all")
    print("host: " + " ".join(f"{k}={v}" for k, v in host_facts().items()))
    for name in wl.WORKLOADS if args.all else [args.workload]:
        result, lines = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print("\n".join(lines), flush=True)
    if not args.all:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
