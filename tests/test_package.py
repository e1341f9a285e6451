import json
import os
import re
import subprocess
import sys
import types

import pytest

import semicat
from semicat import to_interchange

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

PUBLIC = [
    "AlgebraElement", "EIReport", "EhresmannCategory", "EhresmannStructure", "FinitePoset",
    "FiniteSemigroup", "GreenData", "RegESet", "VerificationReport", "algebras",
    "basis_element", "build_category", "categories", "category_to_json", "check_variety",
    "corestriction", "derive_structure", "ehresmann", "ei_report", "element", "errors",
    "format_element", "from_interchange", "green", "idempotents", "identity_of", "invert",
    "invertible_morphisms", "is_ei", "is_inverse", "is_left_restriction",
    "is_right_restriction", "linalg", "maximal_subsemilattices", "moebius", "mul_category",
    "mul_semigroup", "opposite", "order_containment", "order_poset", "phi", "posets",
    "product", "psi", "radical_oracle", "radical_span", "rebuild_semigroup", "reg_e",
    "reports", "reptheory", "restriction", "semigroups", "semisimple_image_check",
    "subsemigroup", "subsemilattice_violation", "sum_down", "tilde_relations",
    "to_interchange", "unit", "validate", "verify_axioms", "verify_isomorphism", "zoo",
]

# Runs argv[1] and prints, as its last line, the semicat modules whose code ran:
# a module's code runs in a frame named <module> compiled from the module's file.
PROBE = """
import json, sys
ran = []
def hook(frame, event, arg):
    code = frame.f_code
    if event == "call" and code.co_name == "<module>" \\
            and code.co_filename == frame.f_globals.get("__file__"):
        ran.append(frame.f_globals["__name__"])
sys.setprofile(hook)
exec(sys.argv[1])
sys.setprofile(None)
print(json.dumps(ran))
"""


def fresh_env():
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))


def executed(code, cwd):
    done = subprocess.run([sys.executable, "-c", PROBE, code], cwd=cwd, env=fresh_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    ran = json.loads(done.stdout.splitlines()[-1])
    return {name.removeprefix("semicat.") for name in ran if name.startswith("semicat.")}


def test_public_names_are_pinned_and_are_their_defining_objects():
    assert semicat.__all__ == PUBLIC
    assert set(PUBLIC) <= set(dir(semicat))
    for name in PUBLIC:
        obj = getattr(semicat, name)
        if isinstance(obj, types.ModuleType):
            assert obj is sys.modules[f"semicat.{name}"]
        else:
            assert obj is getattr(sys.modules[obj.__module__], name)
    star = {}
    exec("from semicat import *", star)
    assert sorted(set(star) - {"__builtins__"}) == PUBLIC
    with pytest.raises(AttributeError, match="no_such_name"):
        semicat.no_such_name


def test_each_path_executes_only_the_modules_it_runs(tmp_path, pt2):
    obj = to_interchange(pt2.S, pt2.E)
    table, E = obj["table"], obj["E"]
    top = next(e for e in E if all(table[e][f] != e or f == e for f in E))
    (tmp_path / "draw.json").write_text(json.dumps(obj))
    (tmp_path / "mutant.json").write_text(json.dumps({**obj, "E": [e for e in E if e != top]}))
    main = "from semicat.cli import main; assert main({}) == {}"
    setup = f"sys.path.insert(0, {os.path.join(ROOT, 'perfbench')!r}); import op; " \
            "assert op.main({}) == 0"
    numeric = {"algebras", "categories", "posets", "linalg", "reptheory"}

    assert executed("import semicat", tmp_path) == set()
    assert executed("from semicat.zoo import parse_zoo_spec", tmp_path) == {
        "zoo", "ehresmann", "semigroups", "reports", "errors"}
    assert not executed(main.format(["check", "--input", "draw.json"], 0), tmp_path) & {
        "algebras", "reptheory", "zoo"}
    assert "categories" not in executed(main.format(["check", "--input", "mutant.json"], 1),
                                        tmp_path)
    assert "reptheory" not in executed(main.format(["iso", "--zoo", "pt:2"], 0), tmp_path)
    assert "algebras" not in executed(main.format(["rep", "--zoo", "pt:2"], 0), tmp_path)
    for argv in (["--setup", "zoo", "pt:3"], ["--setup", "input", "draw.json"]):
        assert not executed(setup.format(argv), tmp_path) & numeric


def test_readme_quick_tour_runs():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    tour = re.search(r"## Library quick tour\n\n```python\n(.*?)```", readme, re.S).group(1)
    done = subprocess.run([sys.executable, "-c", tour], env=fresh_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
