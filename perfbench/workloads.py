"""Workload definitions and their verdict gates.

An operation is one CLI call `semicat <command> <input>`; a workload is a
fixed list of operations plus the inputs they read.  Zoo operations are gated
by the exit code and the SHA-256 of the `--report` bytes recorded at the
benchmark's base commit; `input-random` operations (inputs from draws.py)
are gated by the verdicts the paper's theorems predict.
"""

import re

# (command, zoo spec) -> (expected exit code, SHA-256 of the --report bytes),
# recorded from the seed implementation.  Reports are byte-deterministic, so a
# mismatch is a wrong answer.  `six` and `b:2` serve the self-test only; b:2 is
# not restriction, so `iso b:2` exits 1 with the failing pairs as certificate.
ZOO_EXPECTED = {
    ("check", "pt:3"): (0, "b844c5c9e3a38027668371df1aeef5230afbecb1c7086a556c5e84d4a9ad1976"),
    ("iso", "pt:3"): (0, "33966c5d49dc24baf358647775341530c7f864a1c3194364895915542cf646c7"),
    ("rep", "pt:3"): (0, "dc362898876e5e3db3ac8aa97777c15e55a4b7594c4fa9ab2dff442be474c2f3"),
    ("check", "op:4"): (0, "8d764b7c5bccfdd87eb7f4a159aee351e233463a74686a21dc5bf7b2515d685e"),
    ("iso", "op:4"): (0, "e0c62ebae63874d80c7459a00cc913f1603fe1208101b3e6fade3e35af61cab1"),
    ("rep", "op:4"): (0, "6bbfc13bf63b529914c3f53584586e0b1f14edbf9c52db54c4079d9c9c17dc34"),
    ("iso", "b:2"): (1, "ef140f86361b56c121515da22f9d7aecc15182ceb1984488d68a780db0458149"),
    ("check", "six"): (0, "3f89068b7cf44b15b7296c71aed04fc741c7b8161732f7428a39517bc5145d48"),
    ("iso", "six"): (1, "2fa8115d5fe20bc03b97e4401ca437dde92f7f908436fe8d8dac0decdca9ad21"),
    ("rep", "six"): (0, "c881963fda18c5678af93c527eeb65b79d5063987a86587b7191767c603ad23e"),
    ("check", "b:2"): (0, "70008b1eff7d9520f5c107ada94e429d325c5a10e6ad7b201feeb702776e04e7"),
}

# name -> (why it was chosen, operations as (command, zoo spec)).
ZOO_WORKLOADS = {
    "zoo-restriction": (
        "left restriction and EI inputs with deep orders where every check passes:"
        " radical elimination, Moebius and a passing hom sweep",
        [("check", "pt:3"), ("iso", "pt:3"), ("rep", "pt:3"),
         ("check", "op:4"), ("iso", "op:4"), ("rep", "op:4")],
    ),
}

RANDOM_WORKLOAD = "input-random"
RANDOM_WHY = ("seeded subsemigroups of pt:4 read with --input: the own-input path"
              " (from_interchange, validate, rejection in derive) on seed-dependent orders")
WHY = {**{name: why for name, (why, _) in ZOO_WORKLOADS.items()}, RANDOM_WORKLOAD: RANDOM_WHY}
WORKLOADS = [*ZOO_WORKLOADS, RANDOM_WORKLOAD]


# --- verdict gate for input-random ------------------------------------------

_TILDE_R = re.compile(r"tilde-R class \[([0-9, ]*)\] contains no idempotent of E")


def random_verdict_failure(command, obj, is_mutant, code, report):
    """None if the report shows the verdict the theorems predict, else why not.

    A draw is a subsemigroup of pt:4 closed under + and *, so it is left
    restriction and EI: every subcommand passes, phi is a bijective
    homomorphism on all n^2 pairs and dim Rad(QS) = n - |Reg_E|.  A mutant
    lacks a maximal idempotent of E, so some tilde-R class has none.
    """
    n, result = obj["n"], report.get("result")
    if not isinstance(result, dict):
        return "report has no result object"
    if is_mutant:
        match = _TILDE_R.fullmatch(str(result.get("derive_error")))
        if code != 1 or match is None:
            return f"exit {code}, derive_error {result.get('derive_error')!r}"
        members = {int(x) for x in match.group(1).split(",") if x.strip()}
        if not members or members & set(obj["E"]):
            return f"named class {sorted(members)} meets E"
        return None
    if code != 0 or report.get("passed") is not True:
        return f"exit {code}, passed {report.get('passed')!r}"
    if command == "iso" and not (
        result.get("bijection") is True
        and result.get("hom_case1_failures") == []
        and result.get("hom_case2_failures") == []
        and result.get("pairs_checked") == n * n
    ):
        return "iso: expected a bijective homomorphism checked on n^2 pairs"
    if command == "rep" and not (
        result.get("semisimple_check") is True
        and isinstance(result.get("reg_e_size"), int)
        and result.get("radical_dim") == n - result["reg_e_size"]
    ):
        return "rep: expected semisimple_check and radical_dim = n - reg_e_size"
    return None
