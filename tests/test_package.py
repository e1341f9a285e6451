import importlib.metadata
import json
import os
import re
import subprocess
import sys

import pytest

import semicat
from reference_algebra import element
from semicat import algebras, categories, ehresmann, posets, reptheory, semigroups, zoo
from semicat.reports import record_json
from semicat.semigroups import to_interchange

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# module -> the public functions and classes it defines, sorted
PUBLIC = {
    "algebras": "IsoReport format_element phi psi verify_isomorphism",
    "categories": "category_to_json rebuild_semigroup verify_axioms",
    "cli": "InputError build_parser cmd_check cmd_iso cmd_rep console main",
    "ehresmann": "EhresmannStructure OrderContainment TildeClasses check_variety derive_structure "
                 "left_restriction_failure maximal_subsemilattices order_containment "
                 "right_restriction_failure tilde_relations",
    "errors": "ClassWithoutIdempotentError CongruenceError InconsistentComputationError "
              "NotAPosetError NotAssociativeError NotClosedError NotEIError "
              "NotSubsemilatticeError OutOfRangeError SemicatError",
    "linalg": "abs_max exact_matmul nullspace rank",
    "posets": "FinitePoset down_sets moebius order_poset poset_violation",
    "reports": "CheckResult VerificationReport first_witness jsonable record_json",
    "reptheory": "EIReport RadicalReport RegESet SemisimpleReport ei_report invertible_morphisms "
                 "radical_oracle radical_span reg_e semisimple_image_check",
    "semigroups": "FiniteSemigroup GreenData associativity_failure associativity_witness "
                  "check_indices class_ids class_members concat_ranges freeze_fields "
                  "from_interchange generators green group_keys idempotents identity_of kept "
                  "opposite pair_ids product read_only subsemigroup subsemilattice_violation "
                  "to_interchange validate",
    "zoo": "b_n cyclic_group monoid_as_trivial_e order_preserving_pt parse_zoo_spec pt_n "
           "relation_mask six_element_example t_n",
}

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
    for module, names in PUBLIC.items():
        mod = importlib.import_module(f"semicat.{module}")
        assert getattr(semicat, module) is mod is sys.modules[mod.__name__]
        defined = [name for name, obj in vars(mod).items()
                   if not name.startswith("_") and getattr(obj, "__module__", None) == mod.__name__]
        assert sorted(defined) == names.split(), module
    with pytest.raises(AttributeError, match="no_such_name"):
        semicat.no_such_name


def test_the_package_defines_no_names_of_its_own(tmp_path):
    # importing the package runs no module and no numpy, and a name is read from its module
    bare = "import semicat; assert 'numpy' not in sys.modules; assert not hasattr(semicat, 'phi')"
    assert executed(bare, tmp_path) == set()
    used = "import semicat; from semicat.algebras import phi; semicat.zoo.parse_zoo_spec('pt:2')"
    assert {"algebras", "zoo"} <= executed(used, tmp_path)


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
    rejected = main.format(["check", "--input", "mutant.json"], 1) + \
        "; assert not {'fractions', 'decimal'} & set(sys.modules)"
    assert "categories" not in executed(rejected, tmp_path)
    for argv, code in ((["iso", "--zoo", "pt:2"], 0), (["iso", "--zoo", "b:2"], 1)):
        assert not executed(main.format(argv, code), tmp_path) & {"reptheory", "categories"}
    assert "categories" in executed(main.format(["check", "--zoo", "pt:2"], 0), tmp_path)
    assert "algebras" not in executed(main.format(["rep", "--zoo", "pt:2"], 0), tmp_path)
    for argv in (["--setup", "zoo", "pt:3"], ["--setup", "input", "draw.json"]):
        assert not executed(setup.format(argv), tmp_path) & numeric
    # a passing verdict builds no Fraction and calls no bare np.unique, which imports numpy.ma;
    # its records are namedtuples and plain classes, so dataclasses is not imported either
    untouched = "; assert not {'fractions', 'numpy.ma', 'dataclasses'} & set(sys.modules)"
    for source in (["--zoo", "pt:2"], ["--input", "draw.json"]):
        for command in ("check", "iso", "rep"):
            executed(main.format([command, *source], 0) + untouched, tmp_path)
    # nor does a failing iso: its witness expansion is counted in integers
    for spec in ("b:2", "six"):
        executed(main.format(["iso", "--zoo", spec], 1) + untouched, tmp_path)
    # t:4 is outside the theorem and its trace form's kernel is rational: the
    # kernel is reconstructed and cleared to integers without a Fraction
    executed(main.format(["rep", "--zoo", "t:4"], 0) + untouched, tmp_path)


# class name -> how to build one instance from a fresh pt:2, and whether it compares by value
INSTANCES = {
    "FiniteSemigroup": (lambda es: es.S, False),
    "GreenData": (lambda es: semigroups.green(es.S), False),
    "FinitePoset": (lambda es: posets.order_poset(es), False),
    "EhresmannStructure": (lambda es: es, False),
    "TildeClasses": (lambda es: ehresmann.tilde_relations(es.S, es.E), False),
    # the reference algebra element of the tests, held to the same contract as the records
    "AlgebraElement": (lambda es: element("semigroup", {0: 1, es.n - 1: -2}), True),
    "VerificationReport": (lambda es: categories.verify_axioms(es), True),
    "CheckResult": (lambda es: categories.verify_axioms(es).checks[0], True),
    "OrderContainment": (lambda es: ehresmann.order_containment(es), True),
    "RegESet": (lambda es: reptheory.reg_e(es), True),
    "EIReport": (lambda es: reptheory.ei_report(es), True),
    "RadicalReport": (lambda es: reptheory.radical_span(es), True),
    "SemisimpleReport": (lambda es: reptheory.semisimple_image_check(es), True),
    "IsoReport": (lambda es: algebras.verify_isomorphism(es), True),
}

# the keys record_json writes for each record, in order: its fields as they were declared
RECORD_FIELDS = {
    "CheckResult": ["name", "passed", "witness"],
    "VerificationReport": ["checks"],
    "OrderContainment": ["l_in_r", "l_in_r_witness", "r_in_l", "r_in_l_witness"],
    "RegESet": ["elements", "inverse_map"],
    "EIReport": ["is_ei", "witness", "endomorphism_counts", "e_is_maximal_semilattice",
                 "maximal_witness", "object_iso_classes", "is_groupoid"],
    "RadicalReport": ["noninvertible", "claimed_dim", "oracle_dim", "agrees", "ideal_witness",
                      "nilpotency_index"],
    "SemisimpleReport": ["left_restriction", "right_restriction", "is_ei", "outside_theorem",
                         "reg_size", "radical_dim_s", "dims_match", "projection_full_rank",
                         "psi_image_in_span", "psi_image_full_rank", "semisimple_check"],
    "IsoReport": ["order", "n", "bijection", "bijection_witness", "case1_failures",
                  "case2_failures", "pairs_checked", "case1_count", "witness_expansion"],
}


@pytest.mark.parametrize("name", INSTANCES)
def test_structures_compare_by_identity_records_by_value_and_none_can_be_assigned(name):
    make, by_value = INSTANCES[name]
    a, b = make(zoo.pt_n(2)), make(zoo.pt_n(2))
    assert type(a).__name__ == name and a is not b
    assert a == a and (a == b) is by_value and (a != b) is not by_value
    fields = RECORD_FIELDS.get(name)
    if fields:
        assert list(type(a)._fields) == fields == list(record_json(a))
    field = fields[0] if fields else next(iter(vars(a)))
    for attr in (field, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(a, attr, getattr(a, field))
    with pytest.raises(AttributeError):
        delattr(a, field)


def test_an_algebra_element_is_no_tuple():
    u = element("semigroup", {0: 1, 2: 3})
    assert not isinstance(u, tuple)
    for bad in (lambda: u * 2, lambda: 2 * u, lambda: len(u), lambda: hash(u)):
        with pytest.raises(TypeError):
            bad()
    assert u + u == u.scale(2) and u - u == element("semigroup", {})


@pytest.mark.skipif(not os.path.isdir("/proc/self/task") or len(os.sched_getaffinity(0)) < 2,
                    reason="OpenBLAS starts no worker thread on one CPU")
def test_the_command_line_loads_blas_with_one_thread():
    # the variable is already set in this process once any test imported semicat.cli
    env = {k: v for k, v in fresh_env().items() if k != "OPENBLAS_NUM_THREADS"}

    def child(code, **extra):
        done = subprocess.run([sys.executable, "-c", "import os, sys; " + code],
                              env={**env, **extra}, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        return done.stdout.split()

    threads = "import numpy as np; np.ones((256, 256)) @ np.ones((256, 256)); " \
              "print(len(os.listdir('/proc/self/task')))"
    assert child("import semicat.cli; " + threads) == ["1"]
    assert child("import semicat.cli; print(os.environ['OPENBLAS_NUM_THREADS'])",
                 OPENBLAS_NUM_THREADS="2") == ["2"]
    assert child("import semicat; from semicat.zoo import parse_zoo_spec; "
                 "print('OPENBLAS_NUM_THREADS' in os.environ)") == ["False"]


def test_readme_quick_tour_runs():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    tour = re.search(r"## Library quick tour\n\n```python\n(.*?)```", readme, re.S).group(1)
    done = subprocess.run([sys.executable, "-c", tour], env=fresh_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_version_is_printed():
    done = subprocess.run([sys.executable, "-m", "semicat", "--version"], env=fresh_env(),
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (0, "semicat 0.1.0\n", "")


def test_console_script_exits_with_the_verdict(monkeypatch, capsys):
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    console = importlib.metadata.EntryPoint(
        name="semicat", value=scripts["semicat"], group="console_scripts").load()
    for argv, code in [(["check", "--zoo", "six"], 0), (["check", "--zoo", ""], 2)]:
        monkeypatch.setattr(sys, "argv", ["semicat", *argv])
        with pytest.raises(SystemExit) as stop:
            console()
        assert stop.value.code == code
    assert "unknown zoo spec" in capsys.readouterr().err
