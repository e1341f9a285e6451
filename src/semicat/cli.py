"""Batch front-end: load or generate a semigroup, verify, emit JSON reports.

Exit codes: 0 all requested checks pass, 1 a verified failure with a
certificate, 2 malformed input.  Reports are deterministic byte-for-byte for
a fixed configuration: keys are sorted and nothing time-dependent is embedded.
"""

import argparse
import json
import os
import sys

from . import __version__, algebras, categories, ehresmann, reptheory, semigroups, zoo
from .errors import NotSubsemilatticeError, SemicatError
from .reports import jsonable

SCHEMA_VERSION = 1


class InputError(Exception):
    pass


def _load(args):
    if args.zoo:
        try:
            return zoo.parse_zoo_spec(args.zoo), None
        except ValueError as err:
            raise InputError(str(err)) from err
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as err:
        raise InputError(f"cannot read {args.input}: {err}") from err
    except json.JSONDecodeError as err:
        raise InputError(f"{args.input} is not valid JSON: {err}") from err
    try:
        S, E = semigroups.from_interchange(obj)
    except (SemicatError, ValueError) as err:
        raise InputError(str(err)) from err
    if E is None:
        try:
            options = ehresmann.maximal_subsemilattices(S)
        except ValueError as err:
            raise InputError(f"no E given and enumeration impossible: {err}") from err
        listing = "; ".join(str(list(o)) for o in options)
        raise InputError(
            f"input has no E field; choose one of the maximal subsemilattices: {listing}"
        )
    try:
        return ehresmann.derive_structure(S, E), None
    except NotSubsemilatticeError as err:
        raise InputError("declared E is not a subsemilattice") from err
    except SemicatError as err:
        # not Ehresmann: a verified failure, not an input error
        return None, err


def _emit(args, payload, passed):
    body = {
        "schema_version": SCHEMA_VERSION,
        "config": {
            "command": args.command,
            "input": args.input,
            "zoo": args.zoo,
            "order": args.order,
            "workers": args.workers,
        },
        "passed": passed,
        "result": jsonable(payload),
    }
    if args.report:
        _write(args.report, body)
    return body


def _write(path, obj):
    """Write obj as sorted, indented JSON; an unwritable path is an input error (exit 2)."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")
    except OSError as err:
        raise InputError(f"cannot write {path}: {err}") from err


def _run(args):
    """Load the input, dump its category if asked, and run the subcommand.

    An input that is not Ehresmann is reported as a verified failure (exit 1).
    """
    for path in filter(None, (args.report, args.emit_category)):
        if os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or "."):
            raise InputError(f"cannot write {path}: a directory, or its directory is missing")
    ES, failure = _load(args)
    if ES is None:
        _status(False, "ehresmann-structure", str(failure))
        _emit(args, {"derive_error": str(failure)}, False)
        return 1
    if args.emit_category:
        _write(args.emit_category, categories.category_to_json(categories.build_category(ES)))
    return args.func(args, ES)


def _status(ok, label, detail=""):
    print(f"{'PASS' if ok else 'FAIL'}  {label}{': ' + detail if detail else ''}")


def _classification(left, right):
    if left and right:
        return "restriction"
    if left:
        return "left restriction"
    if right:
        return "right restriction"
    return "neither left nor right restriction"


def cmd_check(args, ES):
    variety = ehresmann.check_variety(ES.S, ES.plus, ES.star)
    left, lw = ehresmann.is_left_restriction(ES)
    right, rw = ehresmann.is_right_restriction(ES)
    containment = ehresmann.order_containment(ES)
    axioms = categories.verify_axioms(categories.build_category(ES))

    _status(True, "ehresmann-structure", f"|S|={ES.n}, |E|={len(ES.E)}")
    _status(variety.passed, "variety-identities")
    print(f"INFO  classification: {_classification(left, right)}")
    if not left:
        print(f"INFO  left-restriction witness (a, e) = {lw}")
    if not right:
        print(f"INFO  right-restriction witness (a, e) = {rw}")
    _status(containment.consistent, "order-containment",
            f"leq_l in leq_r: {containment.l_in_r}, leq_r in leq_l: {containment.r_in_l}")
    _status(axioms.passed, "category-axioms")
    for c in axioms.failures():
        print(f"      {c.name} failed at {c.witness}")

    payload = {
        "size": ES.n,
        "e_size": len(ES.E),
        "variety": variety.to_json(),
        "left_restriction": left,
        "left_restriction_witness": lw,
        "right_restriction": right,
        "right_restriction_witness": rw,
        "classification": _classification(left, right),
        "order_containment": {
            "l_in_r": containment.l_in_r,
            "l_in_r_witness": containment.l_in_r_witness,
            "r_in_l": containment.r_in_l,
            "r_in_l_witness": containment.r_in_l_witness,
        },
        "axioms": axioms.to_json(),
    }
    passed = variety.passed and containment.consistent and axioms.passed
    _emit(args, payload, passed)
    return 0 if passed else 1


def cmd_iso(args, ES):
    report = algebras.verify_isomorphism(ES, order=args.order)
    _status(report.bijection, "bijection", "psi o phi = id and phi o psi = id")
    _status(
        report.homomorphism,
        "homomorphism",
        f"{report.pairs_checked} pairs ({report.case1_count} composable)",
    )
    if report.witness_expansion:
        names = ES.S.names
        w = report.witness_expansion

        def fmt(coeffs):
            return algebras.format_element(algebras.element("category", coeffs), names)

        print(f"      first failing pair: a={ES.S.name(w['a'])}, b={ES.S.name(w['b'])}")
        print(f"      phi(a)        = {fmt(w['phi_a'])}")
        print(f"      phi(b)        = {fmt(w['phi_b'])}")
        print(f"      phi(a*b)      = {fmt(w['phi_ab'])}")
        print(f"      phi(a)*phi(b) = {fmt(w['phi_a_phi_b'])}")
    _emit(args, report.to_json(), report.passed)
    return 0 if report.passed else 1


def cmd_rep(args, ES):
    ei = reptheory.ei_report(ES)
    # computes Reg_E and the radical of QS once for the whole report
    semi = reptheory.semisimple_image_check(ES, order=args.order, allow_outside_theorem=True)
    payload = {
        "reg_e_size": semi.reg_size,
        "is_EI": ei.is_ei,
        "radical_dim": semi.radical_dim_s,
        "ei": ei.to_json(),
    }
    passed = True
    _status(True, "reg_e", f"size {semi.reg_size}, inverse subsemigroup verified")
    _status(True, "is_EI", str(ei.is_ei))
    print(f"INFO  radical_dim(QS) = {semi.radical_dim_s}")

    if ei.is_ei:
        rad = reptheory.radical_span(ES)
        payload["radical_span"] = rad.to_json()
        payload["radical_dim_category"] = rad.oracle_dim
        passed = passed and rad.passed
        _status(rad.passed, "radical-span",
                f"{rad.claimed_dim} non-invertible vs oracle {rad.oracle_dim}, "
                f"nilpotency index {rad.nilpotency_index}")

    payload["semisimple"] = semi.to_json()
    payload["semisimple_check"] = semi.semisimple_check
    if semi.outside_theorem:
        print("INFO  semisimple-image: preconditions not met "
              f"(restriction: {_classification(semi.left_restriction, semi.right_restriction)}, "
              f"EI: {semi.is_ei}); raw data only")
        print(f"INFO  dim Rad(QS) = {semi.radical_dim_s}, |S| - |Reg_E| = {ES.n - semi.reg_size}")
    else:
        passed = passed and bool(semi.semisimple_check)
        _status(bool(semi.semisimple_check), "semisimple-image",
                f"dim Rad(QS) = {semi.radical_dim_s} = |S| - |Reg_E|"
                if semi.dims_match else "dimension mismatch")

    _emit(args, payload, passed)
    return 0 if passed else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="semicat",
        description="Verify Ehresmann structure, algebra isomorphisms and "
                    "representation-theoretic consequences of finite semigroups.",
    )
    parser.add_argument("--version", action="version", version=f"semicat {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    src = common.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="path to a semigroup interchange JSON file")
    src.add_argument("--zoo", help="zoo spec: pt:N, b:N, t:N, op:N, z:N, six, ssl:chainK:z2,z3")
    common.add_argument("--order", choices=("r", "l"), default="r",
                        help="natural order used for phi/psi (default r)")
    common.add_argument("--report", help="write a JSON report to this path")
    common.add_argument("--workers", type=int, default=1,
                        help="accepted for compatibility (>= 1) and recorded in the "
                             "report's config; it has no effect")
    common.add_argument("--emit-category", help="dump the category to this path as JSON")

    p = sub.add_parser("check", parents=[common],
                       help="validate, derive the structure, verify the axioms")
    p.set_defaults(func=cmd_check)
    p = sub.add_parser("iso", parents=[common],
                       help="verify the algebra isomorphism phi/psi")
    p.set_defaults(func=cmd_iso)
    p = sub.add_parser("rep", parents=[common],
                       help="Reg_E, EI test, radical and semisimple image")
    p.set_defaults(func=cmd_rep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.workers < 1:
        parser.error("--workers must be >= 1")
    try:
        return _run(args)
    except InputError as err:
        print(f"ERROR  {err}", file=sys.stderr)
        return 2


def console():
    raise SystemExit(main())
