"""Self-test of the benchmark's gates, seeding and exact counters.

    python3 perfbench/selftest.py

Runs a tiny configuration (`six`, `b:2` and one small random draw with its
mutant) and checks that:
  * the real gates pass, and a tampered expected exit code, digest or verdict
    is counted as a failed operation;
  * the seed changes the input-random inputs while the program's argument
    lists stay identical, so the program never sees the seed;
  * exact counters repeat from run to run (70 `moebius` calls for `rep op:4`,
    34 for `rep pt:3`);
  * BENCHMARK.json matches the definitions in run.py.
Exits 1 if any check fails.  Takes about a minute.
"""

import json
import os
import random
import shutil
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import draws  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402

FAILURES = []


def check(ok, what):
    print(f"{'PASS' if ok else 'FAIL'}  {what}", flush=True)
    if not ok:
        FAILURES.append(what)


def failed(results):
    return sum(r.failure is not None for r in results)


def counters(results):
    metrics = run.layer_metrics(results)
    return {k: v for k, v in metrics.items() if not k.endswith("_s")}


def tiny_ops(tamper):
    """Operations on six, b:2 and one small draw.

    tamper "code" or "digest" breaks the five zoo gates; "verdict" breaks the
    three random-draw gates.
    """
    ops = []
    for command, spec in [("check", "six"), ("iso", "six"), ("rep", "six"),
                          ("check", "b:2"), ("iso", "b:2")]:
        code, sha = wl.ZOO_EXPECTED[(command, spec)]
        if tamper == "code":
            code = 1 - code
        elif tamper == "digest":
            sha = sha[::-1]
        ops.append(run.Op(command, "zoo", spec, spec, run.zoo_gate(code, sha)))
    rng, pt4 = random.Random(0), draws.PartialMaps()
    obj = pt4.interchange(pt4.draw(rng, *draws.SIZE))
    bad = {**obj, "n": obj["n"] + 1}
    for label, o, is_mutant in [("draw", obj, False), ("mutant", draws.mutant(obj, rng), True)]:
        path = os.path.join(run.WORK, label + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(o, fh)
        gate_obj, gate_mutant = o, is_mutant
        if tamper == "verdict":
            # expect the draw's verdicts for n+1 elements, and a pass from the mutant
            gate_obj, gate_mutant = (o, False) if is_mutant else (bad, False)
        for command in (("check",) if is_mutant else ("iso", "rep")):
            ops.append(run.Op(command, "input", path, label,
                              run.random_gate(command, gate_obj, gate_mutant)))
    return ops


def main():
    shutil.rmtree(run.WORK, ignore_errors=True)
    os.makedirs(run.WORK)
    deadline = time.monotonic() + 600
    try:
        ops = tiny_ops(None)
        results = run.run_pass(ops, deadline, False)
        check(failed(results) == 0,
              f"real gates pass on the tiny configuration ({len(ops)} operations)")
        for r in results:
            if r.failure:
                print(f"      {r.op.command} {r.op.label}: {r.failure}")
        for tamper in ("code", "digest", "verdict"):
            bad = tiny_ops(tamper)
            n = failed(run.run_pass(bad, deadline, False))
            want = 3 if tamper == "verdict" else 5
            check(n == want, f"tampered {tamper}: {n} of {len(bad)} operations counted failed "
                             f"(expected {want})")

        a, b = draws.random_inputs(1), draws.random_inputs(2)
        check([o for _, o, _ in a] != [o for _, o, _ in b], "seeds 1 and 2 draw different inputs")
        check(draws.random_inputs(1) == a, "the same seed draws the same inputs")
        argv = []
        for seed in (1, 2):
            ops, items = run.build_workload(wl.RANDOM_WORKLOAD, seed)
            argv.append(([(o.command, o.source, o.target) for o in ops], items))
        check(argv[0] == argv[1], "argument lists are identical across seeds: "
                                  "the program sees only the input files")

        traced = [run.run_pass(tiny_ops(None), deadline, True) for _ in range(2)]
        check(failed(traced[0] + traced[1]) == 0, "traced tiny configuration passes its gates")
        check(counters(traced[0]) == counters(traced[1]),
              "exact counters repeat between two traced runs of the tiny configuration")
        rep = [run.Op("rep", "zoo", s, s, run.zoo_gate(*wl.ZOO_EXPECTED[("rep", s)]))
               for s in ("pt:3", "pt:3", "op:4")]
        pt3a, pt3b, op4 = ([r] for r in run.run_pass(rep, deadline, True))
        check(failed(pt3a + pt3b + op4) == 0, "traced rep pt:3 and rep op:4 pass their gates")
        check(counters(pt3a) == counters(pt3b), "exact counters repeat for rep pt:3")
        calls = (counters(pt3a)["posets.moebius.calls"], counters(op4)["posets.moebius.calls"])
        check(calls == (34, 70), f"moebius calls for rep pt:3, rep op:4 = {calls}, expected (34, 70)")
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)

    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        check(json.load(fh) == run.spec(), "BENCHMARK.json matches run.spec()")
    print(f"{len(FAILURES)} check(s) failed" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
