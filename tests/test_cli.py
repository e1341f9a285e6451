import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from semicat import categories, cli, reptheory, semigroups, to_interchange
from semicat import zoo
from semicat.cli import main
from semicat.reports import jsonable


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


@pytest.mark.parametrize("field,value", [
    ("E", "01"), ("E", ["0", 1.9]), ("E", [True, 1]), ("names", "ab"),
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
    code, _, err = run(capsys, "check", "--zoo", "pt:99")
    assert code == 2
    assert "bad zoo spec" in err


def test_order_flag_is_validated(capsys):
    with pytest.raises(SystemExit):
        main(["iso", "--zoo", "pt:2", "--order", "x"])


# SHA-256 of the --report bytes of `semicat <command> --zoo <spec> --report PATH`,
# recorded from the original Fraction-elimination implementation.  `iso six` and
# `iso b:2` fail, so their reports carry Fraction-rendered witness expansions.
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
}


@pytest.mark.parametrize("command,spec", sorted(GOLDEN_REPORTS))
def test_report_bytes_match_golden_digest(tmp_path, capsys, command, spec):
    report = tmp_path / "report.json"
    code, _, _ = run(capsys, command, "--zoo", spec, "--report", str(report))
    assert (code, hashlib.sha256(report.read_bytes()).hexdigest()) == GOLDEN_REPORTS[(command, spec)]


def test_rep_computes_each_radical_once(monkeypatch, capsys):
    calls = []
    original = reptheory.radical_oracle
    monkeypatch.setattr(reptheory, "radical_oracle",
                        lambda table, defined: calls.append(len(table)) or original(table, defined))
    code, _, _ = run(capsys, "rep", "--zoo", "pt:2")
    assert code == 0
    assert calls == [9, 9]  # QS once in the semisimple check, then QC in the radical span


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


def test_check_sweeps_associativity_once(monkeypatch, capsys):
    # validate proves the table associative; variety identity 11 reads that result
    calls = []
    original = semigroups.associativity_witness
    monkeypatch.setattr(semigroups, "associativity_witness",
                        lambda t: calls.append(len(t)) or original(t))
    code, _, _ = run(capsys, "check", "--zoo", "op:4")
    assert code == 0
    assert calls == [192]


def test_rep_builds_the_category_and_ei_report_once(monkeypatch, capsys, tmp_path):
    # rep reads the structure alone: only --emit-category builds the category
    calls = []
    ei, post_init = reptheory._ei_report, categories.EhresmannCategory.__post_init__
    monkeypatch.setattr(reptheory, "_ei_report", lambda ES: calls.append("ei") or ei(ES))
    monkeypatch.setattr(categories.EhresmannCategory, "__post_init__",
                        lambda C: calls.append("category") or post_init(C))
    code, _, _ = run(capsys, "rep", "--zoo", "op:3")
    assert code == 0
    assert calls == ["ei"]
    calls.clear()
    code, _, _ = run(capsys, "rep", "--zoo", "op:3", "--emit-category", str(tmp_path / "c.json"))
    assert code == 0
    assert sorted(calls) == ["category", "ei"]


def test_reports_hold_numpy_scalars_as_python_values():
    got = jsonable({"a": np.int64(5), "b": [np.bool_(True), np.uint8(3)], np.int64(2): None})
    assert got == {"a": 5, "b": [True, 3], "2": None}
    assert [type(v) for v in (got["a"], *got["b"])] == [int, bool, int]
    assert json.dumps(got) == '{"a": 5, "b": [true, 3], "2": null}'


@pytest.mark.parametrize("value", [object(), np.array([1, 2]), 1j, b"5"])
def test_reports_refuse_values_of_unknown_type(value):
    with pytest.raises(TypeError):
        jsonable({"witness": [value]})
