"""One benchmark operation in a fresh process.

    python3 perfbench/op.py [--trace FILE] -- <semicat CLI arguments>
    python3 perfbench/op.py --setup zoo SPEC
    python3 perfbench/op.py --setup input PATH

The first form runs `semicat.cli.main(argv)` and exits with its code.  With
`--trace FILE` it first wraps the public functions in TRACED (every `semicat.*`
binding of each), records one span per call in memory and writes the spans to
FILE at exit.  The `--setup` forms import semicat and build one input without
verifying it; they exit 0 if the input was built and 3 if derive_structure
rejected it.
"""

import json
import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# Public functions whose calls become spans: "module.function".
TRACED = [
    "zoo.parse_zoo_spec",
    "semigroups.validate", "semigroups.from_interchange", "semigroups.green",
    "ehresmann.derive_structure", "ehresmann.check_variety",
    "categories.verify_axioms",
    "posets.moebius", "posets.order_poset",
    "algebras.verify_isomorphism", "algebras.psi",
    "linalg.nullspace", "linalg.rank",
    "reptheory.radical_oracle", "reptheory.invertible_morphisms", "reptheory.reg_e",
    "reptheory.ei_report", "reptheory.radical_span", "reptheory.semisimple_image_check",
]


def _attrs(name, args, result):
    """Exact counters recorded at the span's boundary."""
    if name == "posets.moebius":
        return {"poset": hash(args[0].leq)}
    if name in ("linalg.nullspace", "linalg.rank"):
        m = args[0]
        return {name + ".cells": len(m) * len(m[0]) if m else 0}
    if name == "algebras.verify_isomorphism":
        return {"algebras.pairs_checked": result.pairs_checked,
                "algebras.hom_failures": len(result.case1_failures) + len(result.case2_failures)}
    return None


class Recorder:
    def __init__(self):
        self.spans = []   # [name, start, end, parent index, attrs]
        self.stack = []

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None, self.stack[-1] if self.stack else None, None]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            span[4] = _attrs(name, args, result)
            return result
        return traced


def install(recorder):
    """Replace every semicat.* binding of each traced function by its wrapper."""
    modules = [m for k, m in sys.modules.items() if k == "semicat" or k.startswith("semicat.")]
    for qualname in TRACED:
        mod, fname = qualname.split(".")
        fn = getattr(sys.modules["semicat." + mod], fname)
        wrapper = recorder.wrap(qualname, fn)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is fn:
                    setattr(m, key, wrapper)


def run_op(argv, trace_path):
    import semicat.cli as cli
    imported = time.monotonic()
    if trace_path is None:
        return cli.main(argv)
    recorder = Recorder()
    install(recorder)
    main = recorder.wrap("cli.main", cli.main)
    try:
        return main(argv)
    finally:
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump({"imported": imported, "spans": recorder.spans}, fh)


def setup(kind, what):
    from semicat.errors import SemicatError
    if kind == "zoo":
        from semicat.zoo import parse_zoo_spec
        parse_zoo_spec(what)
        return 0
    from semicat.ehresmann import derive_structure
    from semicat.semigroups import from_interchange
    with open(what, encoding="utf-8") as fh:
        S, E = from_interchange(json.load(fh))
    try:
        derive_structure(S, E)
    except SemicatError:
        return 3
    return 0


def main(argv):
    if argv[:1] == ["--setup"]:
        return setup(argv[1], argv[2])
    trace_path = None
    if argv[:1] == ["--trace"]:
        trace_path, argv = argv[1], argv[2:]
    if argv[:1] != ["--"]:
        raise SystemExit("usage: op.py [--trace FILE] -- ARGS | --setup zoo|input WHAT")
    return run_op(argv[1:], trace_path)


if __name__ == "__main__":
    sys.path.insert(0, SRC)
    sys.exit(main(sys.argv[1:]))
