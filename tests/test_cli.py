import hashlib
import json
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from semicat import (
    algebras, categories, cli, ehresmann, posets, reports, reptheory, semigroups, zoo)
from semicat.cli import main
from semicat.reports import jsonable
from semicat.semigroups import to_interchange

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_pt2_passes(capsys):
    code, out, _ = run(capsys, "check", "--zoo", "pt:2")
    assert code == 0
    assert "classification: left restriction" in out


def test_check_b2_reports_witnesses_but_passes(capsys):
    code, out, _ = run(capsys, "check", "--zoo", "b:2")
    assert code == 0
    assert "neither left nor right restriction" in out
    assert "left-restriction witness" in out
    assert "PASS  category-axioms" in out


def test_check_six_passes(capsys):
    code, out, _ = run(capsys, "check", "--zoo", "six")
    assert code == 0


def test_check_bad_json_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    # (1*1)*1 = 1 but 1*(1*1) = 0
    bad.write_text(json.dumps({"n": 2, "table": [[0, 1], [0, 0]], "E": [0]}))
    code, _, err = run(capsys, "check", "--input", str(bad))
    assert code == 2
    assert "associativity fails" in err


def test_check_unreadable_and_malformed_inputs(tmp_path, capsys):
    code, _, err = run(capsys, "check", "--input", str(tmp_path / "missing.json"))
    assert code == 2
    garbled = tmp_path / "g.json"
    garbled.write_text("{not json")
    code, _, err = run(capsys, "check", "--input", str(garbled))
    assert code == 2


@pytest.mark.parametrize("kind", ["utf-16", "deep", "long-int"])
def test_json_files_that_cannot_be_parsed_are_input_errors(tmp_path, capsys, kind):
    # exit 1 is a verified failure; a file that does not parse is malformed input.  Python
    # 3.10 parses the long integer, and from_interchange refuses it, also with exit 2
    path = tmp_path / "in.json"
    if kind == "utf-16":
        path.write_text('{"table": [[0]], "E": [0]}', encoding="utf-16")
    elif kind == "deep":
        path.write_text("[" * 100_000)
    else:
        path.write_text('{"table": [[' + "1" * 5000 + ']], "E": [0]}')
    code, out, err = run(capsys, "check", "--input", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("ERROR  ")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("flag", ["--report", "--emit-category"])
def test_a_write_that_fails_after_the_path_checks_is_an_input_error(capsys, flag):
    # /dev/full passes the checks made before loading, and every write to it fails
    code, _, err = run(capsys, "check", "--zoo", "six", flag, "/dev/full")
    assert code == 2
    assert "cannot write /dev/full: [Errno 28]" in err


@pytest.mark.parametrize("flag", ["--report", "--emit-category"])
def test_unwritable_output_path_is_input_error(tmp_path, capsys, flag):
    path = tmp_path / "missing" / "out.json"
    code, _, err = run(capsys, "check", "--zoo", "six", flag, str(path))
    assert code == 2
    assert f"cannot write {path}" in err
    assert not path.exists()


@pytest.mark.parametrize("flag", ["--report", "--emit-category"])
@pytest.mark.parametrize("where", ["missing-parent", "directory"])
def test_unwritable_output_path_fails_before_the_input_is_loaded(
        tmp_path, capsys, monkeypatch, flag, where):
    # no PASS line and no computation precede the error
    loaded = []
    monkeypatch.setattr(zoo, "parse_zoo_spec", loaded.append)
    path = tmp_path / "missing" / "r.json" if where == "missing-parent" else tmp_path
    code, out, err = run(capsys, "rep", "--zoo", "pt:4", flag, str(path))
    assert (code, out) == (2, "")
    assert f"cannot write {path}: " in err
    assert loaded == []
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag", ["--report", "--emit-category"])
def test_empty_output_path_is_an_input_error_before_the_input_is_loaded(
        tmp_path, capsys, monkeypatch, flag):
    # an empty path names no file: writing nothing and exiting 0 would hide that
    loaded = []
    monkeypatch.setattr(zoo, "parse_zoo_spec", loaded.append)
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "check", "--zoo", "six", flag, "")
    assert (code, out) == (2, "")
    assert "cannot write '': " in err
    assert loaded == []
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("second", ["same", "dot-segment", "symlink"])
def test_report_and_emit_category_on_one_file_fail_before_the_input_is_loaded(
        tmp_path, capsys, monkeypatch, second):
    # the report, written last, would silently overwrite the category dump
    loaded = []
    monkeypatch.setattr(zoo, "parse_zoo_spec", loaded.append)
    path = tmp_path / "out.json"
    other = {"same": path, "dot-segment": tmp_path / "." / "out.json",
             "symlink": tmp_path / "link.json"}[second]
    if second == "symlink":
        other.symlink_to(path)
    code, out, err = run(capsys, "check", "--zoo", "pt:2", "--report", str(path),
                         "--emit-category", str(other))
    assert (code, out) == (2, "")
    assert f"--report and --emit-category both name {path}" in err
    assert loaded == []
    assert not path.exists()


@pytest.mark.parametrize("field,value", [
    ("E", "01"), ("E", ["0", 1.9]), ("E", [True, 1]), ("names", "ab"), ("names", [None, "b"]),
    ("names", [1, 2]),
])
def test_check_malformed_e_or_names_is_input_error(tmp_path, capsys, field, value):
    obj = {"n": 2, "table": [[0, 1], [1, 1]], "E": [0, 1], field: value}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code, _, err = run(capsys, "check", "--input", str(path))
    assert code == 2
    assert field in err


@pytest.mark.parametrize("obj", [
    {"table": [1, 2], "E": [0]},
    {"table": 5, "E": [0]},
    {"table": [None], "E": [0]},
    {"n": True, "table": [[0]], "E": [0]},
    {"n": 1.0, "table": [[0]], "E": [0]},
])
def test_check_malformed_table_or_n_is_input_error(tmp_path, capsys, obj):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code, _, err = run(capsys, "check", "--input", str(path))
    assert code == 2
    assert "table must be a list of lists" in err or "n must be an integer" in err


def test_check_without_e_lists_maximal_subsemilattices(tmp_path, capsys):
    pt2 = zoo.pt_n(2)
    obj = to_interchange(pt2.S)  # no E field
    path = tmp_path / "pt2.json"
    path.write_text(json.dumps(obj))
    code, _, err = run(capsys, "check", "--input", str(path))
    assert code == 2
    assert "maximal subsemilattices" in err
    assert str(list(pt2.E)) in err


@pytest.mark.parametrize("table,E", [
    ([[0, 1], [1, 0]], [1]),                          # 1 is not idempotent in Z_2
    ([[0, 0], [1, 1]], [0, 1]),                       # left zeros: 01 = 0, 10 = 1
    ([[0, 2, 2], [2, 1, 2], [2, 2, 2]], [0, 1]),      # 01 = 2 is outside E
])
def test_check_e_that_is_not_a_subsemilattice_is_input_error(tmp_path, capsys, table, E):
    path = tmp_path / "e.json"
    path.write_text(json.dumps({"n": len(table), "table": table, "E": E}))
    code, out, err = run(capsys, "check", "--input", str(path))
    assert (code, out) == (2, "")
    assert "declared E is not a subsemilattice" in err


def test_check_non_ehresmann_input_fails_with_certificate(tmp_path, capsys):
    left_zero = {"n": 2, "table": [[0, 0], [1, 1]], "E": [0]}
    path = tmp_path / "lz.json"
    path.write_text(json.dumps(left_zero))
    code, out, _ = run(capsys, "check", "--input", str(path))
    assert code == 1
    assert "contains no idempotent" in out


def test_check_file_input_roundtrip(tmp_path, capsys):
    b2 = zoo.b_n(2)
    path = tmp_path / "b2.json"
    path.write_text(json.dumps(to_interchange(b2.S, b2.E)))
    code, out, _ = run(capsys, "check", "--input", str(path))
    assert code == 0


def test_iso_pt3_passes(capsys):
    code, out, _ = run(capsys, "iso", "--zoo", "pt:3")
    assert code == 0
    assert "4096 pairs" in out


def test_iso_b2_fails_with_counterexample_exhibit(capsys):
    code, out, _ = run(capsys, "iso", "--zoo", "b:2")
    assert code == 1
    assert "first failing pair: a={(1,1),(1,2)}, b={(1,1)}" in out
    assert "phi(a)        = C({}) + C({(1,1),(1,2)})" in out
    assert "phi(b)        = C({}) + C({(1,1)})" in out
    assert "phi(a*b)      = C({}) + C({(1,1)})" in out
    assert "phi(a)*phi(b) = C({})" in out


def test_iso_pt2_left_order_informational(capsys):
    code, out, _ = run(capsys, "iso", "--zoo", "pt:2", "--order", "l")
    assert code == 1  # not right restriction, so the left-order map may fail
    assert "PASS  bijection" in out


def test_iso_report_is_deterministic(tmp_path, capsys):
    r1, r2 = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "iso", "--zoo", "b:2", "--report", str(r1))
    run(capsys, "iso", "--zoo", "b:2", "--report", str(r2))
    assert r1.read_bytes() == r2.read_bytes()
    body = json.loads(r1.read_text())
    assert body["schema_version"] == 1
    assert body["config"]["zoo"] == "b:2"
    assert body["result"]["bijection"] is True
    assert body["result"]["hom_case1_failures"] == []
    assert [3, 1] in body["result"]["hom_case2_failures"]


def test_iso_workers_report_identical(tmp_path, capsys):
    r1, r2 = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "iso", "--zoo", "pt:2", "--report", str(r1))
    run(capsys, "iso", "--zoo", "pt:2", "--report", str(r2), "--workers", "2")
    a = json.loads(r1.read_text())
    b = json.loads(r2.read_text())
    assert a["result"] == b["result"]


def test_rep_pt2_fields(tmp_path, capsys):
    report = tmp_path / "rep.json"
    code, out, _ = run(capsys, "rep", "--zoo", "pt:2", "--report", str(report))
    assert code == 0
    body = json.loads(report.read_text())
    assert body["result"]["reg_e_size"] == 7
    assert body["result"]["is_EI"] is True
    assert body["result"]["radical_dim"] == 2
    assert body["result"]["semisimple_check"] is True


def test_rep_six_outside_theorem(tmp_path, capsys):
    report = tmp_path / "rep.json"
    code, out, _ = run(capsys, "rep", "--zoo", "six", "--report", str(report))
    assert code == 0
    assert "raw data only" in out
    body = json.loads(report.read_text())
    assert body["result"]["is_EI"] is True
    assert body["result"]["radical_dim"] == 3
    assert body["result"]["semisimple_check"] is None
    assert body["result"]["semisimple"]["outside_theorem"] is True


def test_rep_ssl_decomposes(tmp_path, capsys):
    report = tmp_path / "rep.json"
    code, _, _ = run(capsys, "rep", "--zoo", "ssl:chain2:z2,z3", "--report", str(report))
    assert code == 0
    body = json.loads(report.read_text())
    assert body["result"]["radical_dim"] == 0
    assert body["result"]["reg_e_size"] == 5


def test_emit_category_schema(tmp_path, capsys):
    path = tmp_path / "cat.json"
    code, _, _ = run(capsys, "check", "--zoo", "six", "--emit-category", str(path))
    assert code == 0
    body = json.loads(path.read_text())
    assert set(body) == {"objects", "dom", "cod", "leq_r", "leq_l"}
    assert body["objects"] == [0, 4, 5]
    assert len(body["dom"]) == 6
    assert all(len(p) == 2 for p in body["leq_r"])


def test_bad_zoo_spec_is_input_error(capsys):
    for spec, message in [("pt:99", "bad zoo spec"), ("", "unknown zoo spec")]:
        code, _, err = run(capsys, "check", "--zoo", spec)
        assert code == 2
        assert err.startswith("ERROR") and message in err
        assert "Traceback" not in err


def test_order_flag_is_validated(capsys):
    with pytest.raises(SystemExit):
        main(["iso", "--zoo", "pt:2", "--order", "x"])


# SHA-256 of the --report bytes of `semicat <command> --zoo <spec> --report PATH`,
# recorded from the original Fraction-elimination implementation.  `iso six` and
# `iso b:2` fail, so their reports carry witness expansions: integer coefficients
# written as decimal strings.
GOLDEN_REPORTS = {
    ("check", "six"): (0, "3f89068b7cf44b15b7296c71aed04fc741c7b8161732f7428a39517bc5145d48"),
    ("iso", "six"): (1, "2fa8115d5fe20bc03b97e4401ca437dde92f7f908436fe8d8dac0decdca9ad21"),
    ("rep", "six"): (0, "c881963fda18c5678af93c527eeb65b79d5063987a86587b7191767c603ad23e"),
    ("iso", "b:2"): (1, "ef140f86361b56c121515da22f9d7aecc15182ceb1984488d68a780db0458149"),
    ("check", "b:2"): (0, "70008b1eff7d9520f5c107ada94e429d325c5a10e6ad7b201feeb702776e04e7"),
    ("check", "pt:3"): (0, "b844c5c9e3a38027668371df1aeef5230afbecb1c7086a556c5e84d4a9ad1976"),
    ("iso", "pt:3"): (0, "33966c5d49dc24baf358647775341530c7f864a1c3194364895915542cf646c7"),
    ("rep", "pt:3"): (0, "dc362898876e5e3db3ac8aa97777c15e55a4b7594c4fa9ab2dff442be474c2f3"),
    ("check", "op:4"): (0, "8d764b7c5bccfdd87eb7f4a159aee351e233463a74686a21dc5bf7b2515d685e"),
    ("iso", "op:4"): (0, "e0c62ebae63874d80c7459a00cc913f1603fe1208101b3e6fade3e35af61cab1"),
    ("rep", "op:4"): (0, "6bbfc13bf63b529914c3f53584586e0b1f14edbf9c52db54c4079d9c9c17dc34"),
    # not EI: an EI witness, and semisimple_check null outside the theorem
    ("rep", "b:2"): (0, "b37f5113ca4e626b86dc248bec05233924df08fe29dfc86f4fdf2f5f0be93f9a"),
    ("rep", "t:3"): (0, "b1d01fbd6dfbfd25add5b65743b5b770d5d3d467db8c4158c4258ce5d8a169a0"),
    # recorded at commit cd2af14, not from the original implementation: 0 + 65,016
    # failing pairs, a long certificate rendered in one pass
    ("iso", "b:3"): (1, "fcf099fea08fd8441a46e418c6cb5d792d64dbd4d12654775dcc43515e31cb67"),
}


# SHA-256 of the full stdout of the failing `iso` runs, which print the
# expansion phi(a)*phi(b) of the first failing pair.
GOLDEN_STDOUT = {
    ("iso", "b:2"): (1, "2b99c574ff0b8107a02eca8322d9afa04bd6b15b3de4fe0ece36c8fcb70f8288"),
    ("iso", "six"): (1, "7c78b3878adc150dc538e30aaf2f012952921acc445d4ec6484ae63b81fe730d"),
    ("rep", "pt:3"): (0, "06dc20c60606702e0a51cbeb5382a49f4db86857891de8269069b818f3a2546a"),
}


# SHA-256 of the --emit-category bytes of `semicat check --zoo <spec>`, recorded
# while the dump was still read from a separate category object.
GOLDEN_CATEGORIES = {
    "six": "b43e5636cf66fb4e383a5d9c527d53e747f3a8732f03752edf91994f72a9a4ae",
    "b:2": "91217aa4e6b43be8429e5947bcbf4588ba17920da7f8b723922a6669aa6c98a5",
    "pt:3": "935782ad36a012793d71495ea548097258f4d78c105bf915a9a67dc624e38dc7",
    "op:4": "ee68eb8570ab0af417ba98b3a0f28920eba3a682f9239c15ddf27a905eb38064",
}


@pytest.mark.parametrize("spec", sorted(GOLDEN_CATEGORIES))
def test_category_dump_bytes_match_golden_digest(tmp_path, capsys, spec):
    path = tmp_path / "cat.json"
    code, _, _ = run(capsys, "check", "--zoo", spec, "--emit-category", str(path))
    assert code == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_CATEGORIES[spec]


@pytest.mark.parametrize("command,spec", sorted(GOLDEN_STDOUT))
def test_stdout_bytes_match_golden_digest(capsys, command, spec):
    code, out, _ = run(capsys, command, "--zoo", spec)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == GOLDEN_STDOUT[(command, spec)]


@pytest.mark.parametrize("command,spec", sorted(GOLDEN_REPORTS))
def test_report_bytes_match_golden_digest(tmp_path, capsys, command, spec):
    report = tmp_path / "report.json"
    code, _, _ = run(capsys, command, "--zoo", spec, "--report", str(report))
    assert (code, hashlib.sha256(report.read_bytes()).hexdigest()) == GOLDEN_REPORTS[(command, spec)]


def test_check_sweeps_each_restriction_once(monkeypatch, capsys):
    calls = []
    original = ehresmann._restriction
    monkeypatch.setattr(ehresmann, "_restriction",
                        lambda *args: calls.append(args) or original(*args))
    code, _, _ = run(capsys, "check", "--zoo", "op:4")
    assert code == 0
    assert len(calls) == 2  # left, then right; the containment check reuses both


def test_rep_builds_each_trace_form_once(monkeypatch, capsys):
    calls = []
    original = reptheory._trace_form
    monkeypatch.setattr(reptheory, "_trace_form", lambda table, defined: calls.append(
        "QS" if defined is True else "QC") or original(table, defined))
    code, _, _ = run(capsys, "rep", "--zoo", "pt:2")
    assert code == 0
    assert calls == ["QS", "QC"]  # the semisimple check, then the radical span


def built_posets(monkeypatch):
    """The zeta matrices of the FinitePosets constructed from now on, in order."""
    zetas = []
    init = posets.FinitePoset.__init__
    monkeypatch.setattr(posets.FinitePoset, "__init__",
                        lambda P, zeta: zetas.append(np.asarray(zeta)) or init(P, zeta))
    return zetas


def test_rep_order_l_computes_one_moebius_matrix(monkeypatch, capsys):
    # psi's image lies in Reg_E's span because reg_e checked that Reg_E is a down ideal of
    # both orders, and op:4 is left restriction, so psi's order is <=_r whatever --order
    # says: <=_l is neither built, nor inverted, nor checked to be a partial order
    calls = []
    original = posets.moebius
    monkeypatch.setattr(posets, "moebius", lambda P: calls.append(P.m) or original(P))
    zetas = built_posets(monkeypatch)
    code, _, _ = run(capsys, "rep", "--zoo", "op:4", "--order", "l")
    assert code == 0
    assert calls == [192]
    assert len(zetas) == 1 and np.array_equal(zetas[0], zoo.parse_zoo_spec("op:4").leq_r)


def test_rep_computes_green_and_invertibles_once(monkeypatch, capsys):
    calls = []
    for module, name in ((semigroups, "_green"), (reptheory, "_invertible_morphisms")):
        original = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda x, name=name, original=original: calls.append(name) or original(x))
    code, _, _ = run(capsys, "rep", "--zoo", "op:3")
    assert code == 0
    assert sorted(calls) == ["_green", "_invertible_morphisms"]


def test_python_dash_m_runs_the_cli():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-m", "semicat", "check", "--zoo", "six"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "PASS  category-axioms" in done.stdout


@pytest.mark.parametrize("command,spec", [("iso", "b:2"), ("rep", "pt:3")])
def test_a_fresh_process_loses_no_output_at_exit(tmp_path, command, spec):
    # stdout on a pipe is block-buffered, so the process must flush it at exit,
    # after main has frozen the collector's generations
    report = tmp_path / "report.json"
    done = subprocess.run([sys.executable, "-m", "semicat", command, "--zoo", spec,
                           "--report", str(report)],
                          env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=120)
    assert done.stderr == b""
    code = done.returncode
    assert (code, hashlib.sha256(done.stdout).hexdigest()) == GOLDEN_STDOUT[(command, spec)]
    assert (code, hashlib.sha256(report.read_bytes()).hexdigest()) == GOLDEN_REPORTS[(command, spec)]


def test_traced_benchmark_operations_record_their_spans(tmp_path):
    # the benchmark's op.py wraps public functions from outside: it hashes the
    # poset moebius receives and reads rank/nullspace arguments as row lists
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    b2 = zoo.b_n(2)
    (tmp_path / "b2.json").write_text(json.dumps(to_interchange(b2.S, b2.E)))
    spans = {}
    for argv, code in ((["rep", "--zoo", "pt:2"], 0), (["iso", "--zoo", "b:2"], 1),
                       (["check", "--zoo", "six"], 0), (["check", "--input", "b2.json"], 0)):
        trace = tmp_path / f"{argv[0]}-{argv[2]}.json"
        done = subprocess.run(
            [sys.executable, os.path.join(root, "perfbench", "op.py"), "--trace", str(trace),
             "--", *argv], cwd=tmp_path, capture_output=True, text=True, timeout=120)
        assert done.returncode == code, done.stderr
        spans[argv[2]] = {span[0] for span in json.loads(trace.read_text())["spans"]}
    assert spans["pt:2"] >= {"reptheory.radical_oracle", "linalg.rank", "posets.moebius"}
    assert "posets.moebius" in spans["b:2"]
    checked = {"categories.verify_axioms", "ehresmann.check_variety"}
    assert spans["six"] >= checked
    assert spans["b2.json"] >= checked | {"semigroups.from_interchange"}


def test_oversized_zoo_spec_is_an_input_error(capsys):
    # rejected before the 10^10-entry table is allocated
    code, out, err = run(capsys, "check", "--zoo", "z:100000")
    assert (code, out) == (2, "")
    assert "7776" in err


def test_long_ssl_chain_is_an_input_error(capsys):
    code, out, err = run(capsys, "check", "--zoo", "ssl:chain100:" + ",".join(["z1"] * 100))
    assert (code, out) == (2, "")
    assert "64" in err


def test_oversized_interchange_input_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"table": [[]] * 7777}))
    code, out, err = run(capsys, "check", "--input", str(path))
    assert (code, out) == (2, "")
    assert "7776" in err


def spy(monkeypatch, module, name, calls):
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(name) or original(*args))


def test_check_sweeps_associativity_once(monkeypatch, capsys):
    # validate proves the table associative by Light's test over one generating
    # set; variety identity 11 and the category's associativity read that
    # result, and no exhaustive sweep runs
    calls = []
    for name in ("associativity_witness", "_associativity_failure", "_generating_set"):
        spy(monkeypatch, semigroups, name, calls)
    spy(monkeypatch, categories, "associativity_witness", calls)
    for spec in ("op:4", "t:4", "b:3"):
        calls.clear()
        code, _, _ = run(capsys, "check", "--zoo", spec)
        assert code == 0, spec
        assert sorted(calls) == ["_associativity_failure", "_generating_set"], spec


def test_passing_iso_runs_no_exhaustive_sweep(monkeypatch, capsys):
    calls = []
    spy(monkeypatch, semigroups, "associativity_witness", calls)
    spy(monkeypatch, algebras, "_hom_sweep", calls)
    code, out, _ = run(capsys, "iso", "--zoo", "op:4")
    assert code == 0
    assert "PASS  homomorphism: 36864 pairs" in out
    assert calls == []
    code, _, _ = run(capsys, "iso", "--zoo", "op:4", "--order", "l")  # fails: one full sweep
    assert code == 1
    assert calls == ["_hom_sweep"]


@pytest.mark.parametrize("command", ["rep", "iso", "check"])
def test_each_command_computes_the_tilde_classes_once(monkeypatch, capsys, command):
    # derive_structure keeps the classes it computed, and ei_report reads them
    calls = []
    for module in (ehresmann, reptheory):
        spy(monkeypatch, module, "tilde_relations", calls)
    code, _, _ = run(capsys, command, "--zoo", "pt:3")
    assert code == 0
    assert calls == ["tilde_relations"]


def test_rep_builds_the_category_and_ei_report_once(monkeypatch, capsys, tmp_path):
    # rep reads the structure alone: only --emit-category reads the category off it
    calls = []
    ei, dump = reptheory._ei_report, categories.category_to_json
    monkeypatch.setattr(reptheory, "_ei_report", lambda ES: calls.append("ei") or ei(ES))
    monkeypatch.setattr(categories, "category_to_json",
                        lambda ES: calls.append("category") or dump(ES))
    code, _, _ = run(capsys, "rep", "--zoo", "op:3")
    assert code == 0
    assert calls == ["ei"]
    calls.clear()
    code, _, _ = run(capsys, "rep", "--zoo", "op:3", "--emit-category", str(tmp_path / "c.json"))
    assert code == 0
    assert sorted(calls) == ["category", "ei"]


@pytest.mark.parametrize("spec", [None, "t:2"])
def test_rep_reports_the_smallest_non_ei_inputs(tmp_path, capsys, spec):
    # {0, 1} with E = {1} (read with --input) and t:2 have order 2 and 4: 0 is a
    # loop at the object 1 with no inverse, so End(1) is no group
    path, report = tmp_path / "semilattice.json", tmp_path / "rep.json"
    path.write_text(json.dumps({"table": [[0, 0], [0, 1]], "E": [1]}))
    source = ["--zoo", spec] if spec else ["--input", str(path)]
    code, out, _ = run(capsys, "rep", *source, "--report", str(report))
    assert code == 0
    assert "PASS  is_EI: False" in out
    result = json.loads(report.read_text())["result"]
    assert result["is_EI"] is False and result["semisimple_check"] is None
    assert result["ei"]["witness"] == {"object": 1, "endomorphism": 0}


def test_report_values_become_json_once_and_only_when_written(monkeypatch, capsys, tmp_path):
    # records convert their fields through record_json; the CLI converts nothing
    seen = []
    jsonable, record_json = reports.jsonable, reports.record_json
    monkeypatch.setattr(reports, "jsonable", lambda value: seen.append(value) or jsonable(value))
    for module in (reports, algebras, cli, reptheory):
        monkeypatch.setattr(module, "record_json",
                            lambda r, **keys: seen.append(r) or record_json(r, **keys))
    code, _, _ = run(capsys, "iso", "--zoo", "b:2")
    assert code == 1
    assert seen == []
    path = tmp_path / "iso.json"
    code, _, _ = run(capsys, "iso", "--zoo", "b:2", "--report", str(path))
    assert code == 1
    failures = json.loads(path.read_text())["result"]["hom_case2_failures"]
    assert len(failures) > 1
    walks = [v for v in seen if isinstance(v, list) and len(v) == len(failures)
             and json.loads(json.dumps(v)) == failures]
    assert len(walks) == 1


def test_reports_hold_numpy_scalars_as_python_values():
    got = jsonable({"a": np.int64(5), "b": [np.bool_(True), np.uint8(3)], np.int64(2): None})
    assert got == {"a": 5, "b": [True, 3], "2": None}
    assert [type(v) for v in (got["a"], *got["b"])] == [int, bool, int]
    assert json.dumps(got) == '{"a": 5, "b": [true, 3], "2": null}'


# no verdict puts a Fraction in a report, so one is refused like any unplanned type
@pytest.mark.parametrize("value", [object(), np.array([1, 2]), 1j, b"5", Decimal("0.5"),
                                   {1, 2}, frozenset(), Fraction(1, 2), Fraction(4, 2)])
def test_reports_refuse_values_of_unknown_type(value):
    with pytest.raises(TypeError):
        jsonable({"witness": [value]})


@pytest.fixture(scope="module")
def right_restriction_input(tmp_path_factory):
    """PT_3 read backwards: right restriction, and not left restriction."""
    es = zoo.pt_n(3)
    dual = ehresmann.derive_structure(semigroups.opposite(es.S), es.E)
    path = tmp_path_factory.mktemp("dual") / "pt3-opposite.json"
    path.write_text(json.dumps(to_interchange(dual.S, dual.E)))
    return str(path), dual


def test_check_classifies_a_right_restriction_input(capsys, right_restriction_input):
    path, _ = right_restriction_input
    code, out, _ = run(capsys, "check", "--input", path)
    assert code == 0
    assert "INFO  classification: right restriction\n" in out
    assert "left-restriction witness" in out and "right-restriction witness" not in out


@pytest.mark.parametrize("order,code", [("l", 0), ("r", 1)])
def test_iso_on_a_right_restriction_input_holds_for_the_left_order(
        capsys, right_restriction_input, order, code):
    path, _ = right_restriction_input
    assert run(capsys, "iso", "--input", path, "--order", order)[0] == code


def test_rep_on_a_right_restriction_input_reads_psi_of_the_left_order(
        tmp_path, capsys, monkeypatch, right_restriction_input):
    path, dual = right_restriction_input
    zetas = []
    original = posets.moebius
    monkeypatch.setattr(posets, "moebius", lambda P: zetas.append(P.zeta) or original(P))
    built = built_posets(monkeypatch)
    report = tmp_path / "rep.json"
    # the default --order r: <=_r is neither built nor checked to be a partial order
    code, _, _ = run(capsys, "rep", "--input", path, "--report", str(report))
    assert code == 0
    result = json.loads(report.read_text())["result"]
    assert result["semisimple_check"] is True
    assert (result["semisimple"]["left_restriction"],
            result["semisimple"]["right_restriction"]) == (False, True)
    assert len(zetas) == 1 and np.array_equal(zetas[0], dual.leq_l)
    assert len(built) == 1 and np.array_equal(built[0], dual.leq_l)


def test_rep_writes_one_result_under_either_order(tmp_path, capsys, zoo_members):
    # rep reads psi's order off the structure; --order is only recorded in the config
    members = {**zoo_members, "op:4": zoo.parse_zoo_spec("op:4"), "t:3": zoo.parse_zoo_spec("t:3")}
    for name, es in members.items():
        path = tmp_path / "input.json"
        path.write_text(json.dumps(to_interchange(es.S, es.E)))
        runs = []
        for order in ("r", "l"):
            report = tmp_path / f"rep-{order}.json"
            code, out, err = run(capsys, "rep", "--input", str(path), "--order", order,
                                 "--report", str(report))
            written = json.loads(report.read_text())
            assert written["config"]["order"] == order
            runs.append((code, out, err, written["passed"], written["result"]))
        assert runs[0] == runs[1], name
