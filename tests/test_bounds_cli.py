import ast
import contextlib
import csv
import hashlib
import importlib
import io
import itertools
import json
import os
import pkgutil
import re
import shlex
import subprocess
import sys
import tempfile
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings

import windsym
from windsym.bounds import (
    LAMBDA_FACTORS,
    constants_consistency,
    cor18_bound,
    criterion_threshold,
    prop11_bound,
    prop11_report,
)
from windsym.bounds_cli import cli_main
from windsym.arith import factorize, iroot, is_prime, prime_power
from windsym.rel_homology import invariant_generators, smith_invariants
from windsym.residue_p1 import P1Table, PrimePower
from oracles import prime_powers

F = Fraction

# hand-expanded products: 65*(3^d-1)*(2d)^6 etc. with every factor written out
COR18_HAND = {
    # d: (p not in {2,3}, p = 3, p = 2)
    1: (65 * 2 * 64, 65 * 4 * 64, 129 * 2 * 729),
    2: (65 * 8 * 4096, 65 * 24 * 4096, 129 * 8 * 46656),
    3: (65 * 26 * 46656, 65 * 124 * 46656, 129 * 26 * 531441),
    4: (65 * 80 * 262144, 65 * 624 * 262144, 129 * 80 * 2985984),
    5: (65 * 242 * 1000000, 65 * 3124 * 1000000, 129 * 242 * 11390625),
}


def test_prop11_values():
    assert prop11_bound(3, 1) == 8
    assert prop11_bound(3, 2) == 20
    with pytest.raises(ValueError):
        prop11_bound(3, 0)
    with pytest.raises(ValueError):
        prop11_bound(4, 1)


def test_prop11_variants():
    rep = prop11_report(3, 2)
    assert rep.value == 20
    assert rep.variants["weil_good_reduction"] == 16  # (3 + 1)^2 exactly
    assert rep.variants["split_multiplicative"] == 8
    assert rep.variants["twisted_multiplicative_neutral"] == 10
    assert rep.variants["additive_p_3"] == 3
    # odd d: floor of (sqrt(27) + 1)^2 = 27 + 1 + floor(2 sqrt(27))
    rep = prop11_report(3, 3)
    assert rep.variants["weil_good_reduction"] == 27 + 1 + 10


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_cor18_hand_values(d):
    other, p3, p2 = COR18_HAND[d]
    assert cor18_bound(5, d) == other
    assert cor18_bound(7, d) == other
    assert cor18_bound(3, d) == p3
    assert cor18_bound(2, d) == p2


def test_cor18_validation():
    with pytest.raises(ValueError):
        cor18_bound(6, 1)
    with pytest.raises(ValueError):
        cor18_bound(5, 0)


def test_criterion_threshold_values():
    assert criterion_threshold(5, 1).threshold == 65 * 64 == 4160
    assert criterion_threshold(2, 1).threshold == 129 * 729 == 94041
    assert criterion_threshold(3, 2).threshold == 65 * 4096 == 266240
    thr = criterion_threshold(2, 2)
    assert thr.s == 3 and thr.c_squared == 129


def test_threshold_agrees_with_criterion_report():
    from windsym import hecke_symbols
    from windsym.hecke_symbols import check_kamienny_condition3

    # one formula: the criterion reads the threshold of windsym.bounds
    assert criterion_threshold is hecke_symbols.criterion_threshold
    for p, d in [(5, 1), (2, 1), (3, 2), (11, 1)]:
        thr = criterion_threshold(p, d)
        rep = check_kamienny_condition3(p, 1, d, 3 if p != 3 else 5)
        assert rep.threshold == thr.threshold
        assert rep.s == thr.s


def test_constants_consistency():
    rep = constants_consistency()
    assert rep.all_passed
    lam = LAMBDA_FACTORS[0] * LAMBDA_FACTORS[1]
    assert rep.lam == lam
    assert lam < 1
    assert F(64) / (lam * lam) <= 65
    assert F(128) / (lam * lam) <= 129
    # every margin is a nonnegative exact rational
    for _, ok, margin in rep.checks:
        assert ok and margin >= 0


# -- CLI ----------------------------------------------------------------------


def run_cli(capsys, *argv):
    rc = cli_main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def test_cli_criterion_json(capsys):
    rc, out = run_cli(capsys, "criterion", "--p", "11", "--n", "1", "--d", "1", "--l", "3")
    assert rc == 0
    rep = json.loads(out)
    assert rep["schema"] == 1
    assert rep["threshold"] == 4160
    assert rep["threshold_satisfied"] is False


def test_cli_criterion_all_l(capsys):
    rc, out = run_cli(capsys, "criterion", "--p", "11", "--d", "1", "--all-l-up-to", "7")
    assert rc == 0
    rep = json.loads(out)
    assert [r["l"] for r in rep["reports"]] == [2, 3, 5, 7]
    # the wrapper follows the flag, not the count of primes: at L = 2 it
    # holds the one report that --l 2 prints bare
    rc, out = run_cli(capsys, "criterion", "--p", "11", "--d", "1", "--all-l-up-to", "2")
    assert rc == 0
    _, single = run_cli(capsys, "criterion", "--p", "11", "--d", "1", "--l", "2")
    assert json.loads(out) == {"schema": 1, "reports": [json.loads(single)]}


# (p, n, d): the ten d = 1 levels below 3000 whose cut rows are built
# (2, 5 connected, the rest split), a pivot search at d = 2 and at d = 3,
# and a d = 1 level past the threshold 4160, decided by the walk
ALL_L_LEVELS = [(2, 1, 1), (3, 1, 1), (2, 2, 1), (5, 1, 1), (7, 1, 1), (2, 3, 1), (3, 2, 1),
                (13, 1, 1), (2, 4, 1), (5, 2, 1), (2003, 1, 2), (2999, 1, 3), (10007, 1, 1)]


def test_cli_criterion_all_l_is_the_per_l_runs(capsys):
    # --all-l-up-to prints the per-l payloads, byte for byte once encoded,
    # in l order, and exits with the worst of their codes
    for p, n, d in ALL_L_LEVELS:
        level = ["criterion", "--p", str(p), "--n", str(n), "--d", str(d)]
        rc, out = run_cli(capsys, *level, "--all-l-up-to", "13")
        single = [run_cli(capsys, *level, "--l", str(l)) for l in (2, 3, 5, 7, 11, 13)]
        assert [json.dumps(r) for r in json.loads(out)["reports"]] == [
            json.dumps(json.loads(o)) for _, o in single], level
        assert rc == max(code for code, _ in single), level


def test_cli_paths_json(capsys):
    rc, out = run_cli(capsys, "paths", "--p", "101", "--n", "1", "--r", "2")
    assert rc == 0
    rep = json.loads(out)
    labels = [c["chain"] for c in rep["chains"]]
    assert labels == ["A", "B"]
    assert all(c["bound_holds"] for c in rep["chains"])


def test_cli_paths_sweep_csv(capsys):
    rc, out = run_cli(capsys, "paths", "sweep", "--pn", "101", "343", "--r-min", "1", "--r-max", "3")
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "p,n,r,chain,interval_len,bound,pass"
    assert len(lines) == 1 + 2 * 3 * 2  # two levels, three r values, two chains


def test_cli_paths_lists_each_image_once_per_level(capsys, monkeypatch):
    from windsym import hecke_symbols, residue_p1
    from windsym.residue_p1 import MAX_HECKE_R

    listed, built = [], []
    image, table_class = hecke_symbols.winding_image, residue_p1.P1Table

    def spy_image(r, table):
        listed.append((table.pp.modulus, r))
        return image(r, table)

    def spy_table(pp):
        built.append(pp.modulus)
        return table_class(pp)

    monkeypatch.setattr(hecke_symbols, "winding_image", spy_image)
    monkeypatch.setattr(residue_p1, "P1Table", spy_table)
    # one table per level, and T_1..T_6{0,oo} listed once each for the six
    # Sigma_r, from any --r-min
    for r_min in ("1", "4"):
        assert cli_main(["paths", "sweep", "--pn", "101", "343", "--r-min", r_min, "--r-max", "6"]) == 0
        assert listed == [(m, r) for m in (101, 343) for r in range(1, 7)]
        assert built == [101, 343]
        listed.clear(), built.clear()
    assert cli_main(["paths", "--p", "101", "--r", "6"]) == 0
    assert (listed, built) == ([(101, r) for r in range(1, 7)], [101])
    listed.clear(), built.clear()
    capsys.readouterr()
    # a refused flag or level lists nothing, even after a good --pn
    assert cli_main(["paths", "sweep", "--pn", "101", "--r-max", str(MAX_HECKE_R + 1)]) == 2
    assert cli_main(["paths", "sweep", "--pn", "101", "12"]) == 2
    assert capsys.readouterr().err == (f"error: --r-max {MAX_HECKE_R + 1} exceeds the limit "
                                       f"{MAX_HECKE_R}\nerror: 12 is not a prime power\n")
    assert (listed, built) == ([], [])


@pytest.mark.parametrize("d", [(), ("--d", "4")], ids=["D=r", "D=4"])
def test_cli_paths_sweep_rows_are_the_paths_records(capsys, d):
    # B' runs where p divides r: at 2^11 on even r, at 3^7 on r = 3, 6, 9, 12
    # and at 7^3 on r = 7; no golden pins r > 6
    levels = [(101, 1), (7, 3), (2, 11), (3, 7)]
    want, codes = [], []
    for p, n in levels:
        for r in range(1, 13):
            code, out = run_cli(capsys, "paths", "--p", str(p), "--n", str(n), "--r", str(r), *d)
            rec = json.loads(out)
            assert rec["d"] == (int(d[1]) if d else r)
            codes.append(code)
            want += [[rec["p"], rec["n"], rec["r"], c["chain"], c["interval_len"], c["bound"],
                      "" if c["bound_holds"] is None else str(c["bound_holds"]).lower()]
                     for c in rec["chains"]]
    rc, out = run_cli(capsys, "paths", "sweep", "--pn", *(str(p**n) for p, n in levels),
                      "--r-max", "12", *d)
    assert list(csv.reader(io.StringIO(out))) == [
        ["p", "n", "r", "chain", "interval_len", "bound", "pass"], *[list(map(str, w)) for w in want]]
    assert rc == max(codes)


# stdout sha256 and exit code of `paths` runs, pinned from the step-by-step
# walker so that the closed-form stops reproduce its output byte for byte
PATHS_GOLDEN = [
    (("paths", "sweep", "--pn", "4201", "10007", "59049", "--r-max", "6"), 0,
     "c8137f38ee93cb7818a84eb2acddf597ff407685d71efee76feb6405281cbbe4"),
    (("paths", "--p", "2", "--n", "17", "--r", "2"), 0,
     "e4ff98571f32a1e4c2c5ec7f00b77e812e17331aa6cdd470ed916a9108a0eeb9"),
]


@pytest.mark.parametrize("argv, code, digest", PATHS_GOLDEN, ids=["sweep", "2^17-r2"])
def test_cli_paths_golden_output(capsys, argv, code, digest):
    rc, out = run_cli(capsys, *argv)
    assert rc == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# stdout sha256 and exit code of the table, homology and criterion commands,
# pinned from the P1Point/normalize representatives and the FieldSpec field
# labels before P1Table.index took over both; of the qexp commands, pinned
# from the Fraction-series, coefficient-by-coefficient relation checks before
# the integer slice kernels took over
CLI_GOLDEN = {
    "p1-verify": (("p1", "--p", "101", "--n", "2", "--verify"), 0,
                  "d6dec019ab07ee2361475422c982bea21a9853d8db29c7c7115dcca97402a4e3"),
    "homology-smith": (("homology", "--p", "4201", "--l", "3", "--smith"), 0,
                       "0b0ee0e9bceb11ab9fe3bf4d3a21513f7c579d59ae8b55e1f4b09e3fb6bf0b6c"),
    "homology-q": (("homology", "--p", "11"), 0,
                   "35b0f099828cee970143cbe1fdabe80af13ce7d406075089c40612a1c3ceecb0"),
    "criterion-all-l": (("criterion", "--p", "4201", "--d", "1", "--all-l-up-to", "13"), 0,
                        "49f49b19d1ab47bb2b2339314ed2464cd08e9e32bf6a450f6e107f8127d08a57"),
    "criterion-2^11": (("criterion", "--p", "2", "--n", "11", "--d", "2", "--l", "3"), 0,
                       "fac6c521dfc646f4952997fe692e6ff8f2bbbca41a8bcb329567397ec39c2a1d"),
    "paths-1000003": (("paths", "--p", "1000003", "--r", "6"), 0,
                      "d4e48838a605b4f664659d72e8e28d9d118920ccbe353acc337911895fb70a36"),
    "qexp-verify-readme": (("qexp", "verify-relations", "--order", "200", "--trials", "50",
                            "--seed", "0"), 0,
                           "f55d3c238bc249f085abd42483b383df0cc5bff62ea81ad079076b4c7db660f2"),
    "qexp-verify-300": (("qexp", "verify-relations", "--order", "300", "--trials", "100",
                         "--seed", "12345"), 0,
                        "b720fa63dddc42216f74b594e5c8eec685217b9b783831a1921ce5dcd8e0e6b6"),
    # pinned from the lane-packed checks that folded whole drawn trials: at
    # order 8 the identity runs at order 30, above the relation order; at
    # order 300, 28 trials are a block of 27 and a block of 1
    "qexp-verify-order-8": (("qexp", "verify-relations", "--order", "8", "--trials", "40",
                             "--seed", "2"), 0,
                            "e5b770ca4ef7c177834efe7848bd7dd87cf2babf27fb24de7698513e89d5e791"),
    "qexp-verify-27+1": (("qexp", "verify-relations", "--order", "300", "--trials", "28",
                          "--seed", "5"), 0,
                         "fcbf82a345548052d2f51539c3f234b9112c54d608fc7449bcb61d290f842cc8"),
    "qexp-up-matrix-readme": (("qexp", "up-matrix", "--case", "coprime", "--k", "3",
                               "--a-p", "3/2", "--prime", "5"), 0,
                              "86892fb7096deb80e88aae4e1663a44fcd46fff0da2fb92c13a3a9701e639554"),
}


@pytest.mark.parametrize("argv, code, digest", CLI_GOLDEN.values(), ids=CLI_GOLDEN.keys())
def test_cli_golden_output(capsys, argv, code, digest):
    rc, out = run_cli(capsys, *argv)
    assert rc == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_cli_bounds_table_csv(capsys):
    rc, out = run_cli(capsys, "bounds", "--table", "--d-max", "5", "--csv")
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "d,p_not_2_3,p_3,p_2"
    assert len(lines) == 6
    d1 = lines[1].split(",")
    assert [int(x) for x in d1] == [1, 8320, 16640, 188082]


def test_cli_bounds_refuses_two_modes_before_computing(capsys, monkeypatch):
    from windsym import bounds

    def no_work(*args):
        raise AssertionError("computed a bound with two modes given")

    for name in ("prop11_report", "constants_consistency", "cor18_bound", "criterion_threshold"):
        monkeypatch.setattr(bounds, name, no_work)
    modes = ["--table", "--constants", "--prop11", "--threshold"]
    for first, second in itertools.combinations(modes, 2):
        assert cli_main(["bounds", first, second]) == 2
        out, err = capsys.readouterr()
        assert out == "" and f"argument {second}: not allowed with argument {first}" in err
    assert cli_main(["bounds"]) == 2
    assert "one of the arguments --table --constants --prop11 --threshold is required" in (
        capsys.readouterr().err)


# every parser that reads no --csv, and the bounds modes that print no table
NO_CSV = {
    "p1": ["p1", "--p", "11"],
    "homology": ["homology", "--p", "11"],
    "criterion": ["criterion", "--p", "11", "--l", "3"],
    "paths": ["paths", "--p", "101", "--r", "2"],
    "verify-relations": ["qexp", "verify-relations", "--order", "20", "--trials", "1"],
    "up-matrix": ["qexp", "up-matrix", "--case", "coprime", "--k", "1"],
    "bounds-constants": ["bounds", "--constants"],
    "bounds-prop11": ["bounds", "--prop11"],
    "bounds-threshold": ["bounds", "--threshold"],
}


@pytest.mark.parametrize("argv", NO_CSV.values(), ids=NO_CSV.keys())
def test_cli_refuses_csv_where_nothing_reads_it(capsys, argv):
    assert cli_main([*argv, "--csv"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    if argv[0] == "bounds":
        assert err == "error: --csv applies only to --table\n"
    else:
        assert "unrecognized arguments: --csv" in err


def test_cli_paths_sweep_takes_csv_and_writes_the_same_bytes(capsys):
    # the sweep always writes CSV (`bounds --table --csv` is tested above)
    argv = ["paths", "sweep", "--pn", "101", "--r-max", "2"]
    assert run_cli(capsys, *argv, "--csv") == run_cli(capsys, *argv)


def test_cli_bounds_constants(capsys):
    rc, out = run_cli(capsys, "bounds", "--constants")
    assert rc == 0
    assert json.loads(out)["pass"] is True


def test_cli_bounds_threshold_original_order(capsys):
    rc, out = run_cli(capsys, "bounds", "--threshold", "--p", "5", "--d", "1", "--original-order")
    assert rc == 0
    rep = json.loads(out)
    assert rep["threshold"] == 4160
    assert rep["original_order_bound"] == 4160 * 2  # (3^1 - 1)
    assert rep["original_order_bound"] == cor18_bound(5, 1)


def test_cli_table_columns_equal_the_original_order_bound(capsys):
    # one Cor. 1.8 value: each column of the table, for d <= 8, is the
    # threshold times l^d - 1 that `bounds --threshold --original-order` prints
    rc, out = run_cli(capsys, "bounds", "--table", "--d-max", "8")
    assert rc == 0
    rows = json.loads(out)["rows"]
    assert [row[0] for row in rows] == list(range(1, 9))
    for d, *columns in rows:
        for p, value in zip((5, 3, 2), columns):
            rc, out = run_cli(capsys, "bounds", "--threshold", "--p", str(p), "--d", str(d),
                              "--original-order")
            assert rc == 0 and json.loads(out)["original_order_bound"] == value, (p, d)


def test_cli_homology_smith(capsys):
    rc, out = run_cli(capsys, "homology", "--p", "11", "--n", "1", "--smith")
    assert rc == 0
    rep = json.loads(out)
    assert rep["quotient_dim"] == 3
    assert rep["torsion_free"] is True


def test_cli_homology_smith_builds_no_permutation(capsys, monkeypatch):
    from windsym import rel_homology, residue_p1

    tables = []

    class Spy(residue_p1.P1Table):
        def __init__(self, pp):
            super().__init__(pp)
            tables.append(self)

    def no_rows(*args, **kwargs):
        raise AssertionError("homology --smith built the relation rows")

    monkeypatch.setattr(residue_p1, "P1Table", Spy)
    monkeypatch.setattr(rel_homology, "invariant_generators", no_rows)
    monkeypatch.setattr(rel_homology, "smith_invariants", no_rows)
    argv, code, digest = CLI_GOLDEN["homology-smith"]
    rc, out = run_cli(capsys, *argv)
    assert rc == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    (table,) = tables
    assert "sigma_perm" not in vars(table) and "tau_perm" not in vars(table)


def _check_smith_against_certificate(pp: PrimePower) -> None:
    """The CLI's list, read off the counts, is the certificate's, which
    checks the relation rows themselves."""
    with contextlib.redirect_stdout(io.StringIO()) as buf:
        assert cli_main(["homology", "--p", str(pp.p), "--n", str(pp.n), "--smith"]) == 0
    got = json.loads(buf.getvalue())["smith_invariants"]
    assert got == smith_invariants(invariant_generators(P1Table(pp))), pp


def test_cli_smith_list_is_the_certificates():
    levels = [f for f in map(factorize, range(2, 2000)) if len(f) == 1]
    assert len(levels) == 333
    for ((p, n),) in (f.items() for f in levels):
        _check_smith_against_certificate(PrimePower(p, n))


@settings(derandomize=True, deadline=None, max_examples=20)
@given(prime_powers(limit=2 * 10**4))
def test_cli_smith_list_is_the_certificates_random_levels(pp):
    _check_smith_against_certificate(pp)


def test_cli_p1_verify(capsys):
    rc, out = run_cli(capsys, "p1", "--p", "3", "--n", "2", "--verify")
    assert rc == 0
    rep = json.loads(out)
    assert rep["size"] == 12
    assert all(rep["checks"].values())


def test_cli_p1_verify_catches_a_repeated_entry(capsys, monkeypatch):
    from array import array
    from functools import cached_property

    from windsym import residue_p1
    from windsym.residue_p1 import P1Table

    class RepeatedTau(P1Table):
        @cached_property
        def tau_perm(self):
            tau = P1Table.tau_perm.func(self)
            perm = array(tau.typecode, tau)
            perm[1] = perm[0]
            return perm

    monkeypatch.setattr(residue_p1, "P1Table", RepeatedTau)
    rc, out = run_cli(capsys, "p1", "--p", "11", "--verify")
    assert rc == 1
    assert json.loads(out)["checks"]["bijections"] is False


def _one_wrong_entry(perm):
    perm[1] = 3  # sigma(1) = -1 = 10 at p = 11


def _repaired(perm):
    # 1 <-> 10 and 2 <-> 5 re-paired as 1 <-> 5 and 2 <-> 10: still a
    # bijective involution.  tau_perm, sliced out of it, satisfies
    # sigma(tau(a)) = a + 1 by construction on the affine points, but its
    # infinite branch, read off sigma(1), repeats tau(0) = sigma(1) = 5, so
    # it is no bijection; the pointwise tau() sees the wrong sigma directly
    perm[1], perm[5], perm[2], perm[10] = 5, 1, 10, 2


@pytest.mark.parametrize("edit, still_true", [
    (_one_wrong_entry, []),
    (_repaired, ["sigma_involution"]),
], ids=["one-wrong-entry", "repaired-involution"])
def test_cli_p1_verify_catches_a_wrong_sigma(capsys, monkeypatch, edit, still_true):
    from array import array
    from functools import cached_property

    from windsym import residue_p1
    from windsym.residue_p1 import P1Table

    class WrongSigma(P1Table):
        @cached_property
        def sigma_perm(self):
            sigma = P1Table.sigma_perm.func(self)
            perm = array(sigma.typecode, sigma)
            edit(perm)
            return perm

    monkeypatch.setattr(residue_p1, "P1Table", WrongSigma)
    rc, out = run_cli(capsys, "p1", "--p", "11", "--verify")
    assert rc == 1
    checks = json.loads(out)["checks"]
    assert checks["tau_sigma_is_plus_one"] is False
    assert all(checks[name] is True for name in still_true)


def test_cli_qexp_verify(capsys):
    rc, out = run_cli(capsys, "qexp", "verify-relations", "--order", "48", "--trials", "3", "--seed", "1")
    assert rc == 0
    rep = json.loads(out)
    assert rep["pass"] is True
    assert rep["coprimality_witness"]["inequality_witnessed"] is True
    assert rep["coefficient_identity"]["pass"] is True


def test_cli_qexp_up_matrix(capsys):
    rc, out = run_cli(capsys, "qexp", "up-matrix", "--case", "coprime", "--k", "1",
                      "--a-p", "3/2", "--prime", "5")
    assert rc == 0
    rep = json.loads(out)
    assert rep["entries"] == [["3/2", "1"], ["-5", "0"]]
    assert rep["charpoly"] == ["5", "-3/2", "1"]
    assert cli_main(["qexp", "up-matrix", "--case", "coprime", "--k", "3", "--prime", "4"]) == 2
    assert capsys.readouterr() == ("", "error: 4 is not prime\n")


def test_cli_usage_errors(capsys):
    assert cli_main(["criterion", "--bogus"]) == 2
    capsys.readouterr()
    assert cli_main(["bounds"]) == 2  # no mode selected
    capsys.readouterr()
    assert cli_main(["criterion", "--p", "11"]) == 2  # neither --l nor --all-l-up-to
    capsys.readouterr()
    # a bound below 2 leaves no l to check, so it is refused before p or d is read
    for bound in ("1", "-5"):
        assert cli_main(["criterion", "--p", "12", "--d", "0", "--all-l-up-to", bound]) == 2
        assert capsys.readouterr() == ("", "error: --all-l-up-to must be >= 2\n")
    # no trial would check nothing, so it is refused rather than reported as a pass
    for trials in ("0", "-1"):
        assert cli_main(["qexp", "verify-relations", "--order", "20", "--trials", trials]) == 2
        assert capsys.readouterr() == ("", "error: --trials must be >= 1\n")
    # a zero denominator is bad input, not a crash
    assert cli_main(["qexp", "up-matrix", "--case", "coprime", "--k", "3", "--a-p", "1/0",
                     "--prime", "5"]) == 2
    assert capsys.readouterr() == ("", "error: --a-p 1/0 has a zero denominator\n")
    # as is a literal that is no rational number, by a text that names the flag
    for a_p in ("abc", "inf"):
        assert cli_main(["qexp", "up-matrix", "--case", "coprime", "--k", "2", "--a-p", a_p]) == 2
        assert capsys.readouterr() == ("", f"error: --a-p {a_p} is not a rational number\n")
    # a table with no rows is refused rather than printed empty
    for d_max in ("0", "-1"):
        assert cli_main(["bounds", "--table", "--d-max", d_max]) == 2
        assert capsys.readouterr() == ("", "error: --d-max must be >= 1\n")
    # |P^1| = 1000003^2 + 1000003 is past MAX_P1_SIZE: the commands that need
    # the dense permutations are refused before any per-point work
    assert cli_main(["p1", "--p", "1000003", "--n", "2", "--verify"]) == 2
    assert "exceeds the limit" in capsys.readouterr().err
    assert cli_main(["criterion", "--p", "1000003", "--n", "2", "--d", "1", "--l", "3"]) == 2
    assert "exceeds the limit" in capsys.readouterr().err
    # the chain walks need no permutation, so paths runs past the limit
    assert cli_main(["paths", "--p", "10000019", "--r", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["p"] == 10000019


def test_cli_refuses_criterion_past_the_size_limit_before_any_search(capsys, monkeypatch):
    from windsym import hecke_symbols, residue_p1
    from windsym.residue_p1 import MAX_P1_SIZE

    def no_work(*args):
        raise AssertionError("listed an image or searched the graph past the limit")

    # the guard comes first: at |P^1| near 10^12 the search would run for minutes
    for name in ("winding_image", "_all_joined", "_component_labels"):
        monkeypatch.setattr(hecke_symbols, name, no_work)
    for argv, level, size in [(("--p", "1000003", "--n", "2", "--l", "3"), "1000003^2", 1000007000012),
                              (("--p", "10000019", "--all-l-up-to", "7"), "10000019^1", 10000020)]:
        assert cli_main(["criterion", *argv, "--d", "1"]) == 2
        assert capsys.readouterr() == (
            "", f"error: |P^1(Z/{level} Z)| = {size} exceeds the limit {MAX_P1_SIZE}\n")
    monkeypatch.undo()

    # the limit is inclusive: with it lowered, |P^1| = 12 at p = 11 runs and
    # 14 at p = 13 is refused
    monkeypatch.setattr(residue_p1, "MAX_P1_SIZE", 12)
    assert cli_main(["criterion", "--p", "11", "--d", "1", "--l", "3"]) == 0
    capsys.readouterr()
    assert cli_main(["criterion", "--p", "13", "--d", "1", "--l", "3"]) == 2
    assert capsys.readouterr().err == "error: |P^1(Z/13^1 Z)| = 14 exceeds the limit 12\n"


def test_cli_refuses_oversized_r_before_enumerating(capsys, monkeypatch):
    from windsym import hecke_symbols, residue_p1
    from windsym.residue_p1 import MAX_HECKE_R

    big = str(MAX_HECKE_R + 1)
    # s = 2 for p != 2 and s = 3 for p = 2: s*d just past the limit
    over_d = [("11", str(MAX_HECKE_R // 2 + 1)), ("2", str(MAX_HECKE_R // 3 + 1))]

    def no_enumeration(k):
        raise AssertionError("enumerated Hecke images past the limit")

    monkeypatch.setattr(hecke_symbols, "admissible_pairs", no_enumeration)
    assert cli_main(["paths", "--p", "101", "--r", big]) == 2
    assert capsys.readouterr() == ("", f"error: --r {big} exceeds the limit {MAX_HECKE_R}\n")
    assert cli_main(["paths", "sweep", "--pn", "101", "--r-max", big]) == 2
    assert capsys.readouterr() == ("", f"error: --r-max {big} exceeds the limit {MAX_HECKE_R}\n")
    for p, d in over_d:
        for ls in (["--l", "5"], ["--all-l-up-to", "7"]):
            assert cli_main(["criterion", "--p", p, "--d", d, *ls]) == 2
            assert "exceeds the limit" in capsys.readouterr().err
    monkeypatch.undo()

    # the limit is inclusive: with it lowered, r and s*d at the limit still run
    monkeypatch.setattr(residue_p1, "MAX_HECKE_R", 6)
    monkeypatch.setattr(hecke_symbols, "MAX_HECKE_R", 6)
    assert cli_main(["paths", "--p", "101", "--r", "6"]) == 0
    assert cli_main(["paths", "sweep", "--pn", "101", "--r-max", "6"]) == 0
    assert cli_main(["criterion", "--p", "11", "--d", "3", "--l", "3"]) == 0
    assert cli_main(["criterion", "--p", "2", "--d", "2", "--l", "3"]) == 0
    capsys.readouterr()
    assert cli_main(["paths", "--p", "101", "--r", "7"]) == 2
    assert cli_main(["paths", "sweep", "--pn", "101", "--r-max", "7"]) == 2
    assert cli_main(["criterion", "--p", "11", "--d", "4", "--l", "3"]) == 2
    assert cli_main(["criterion", "--p", "2", "--d", "3", "--l", "3"]) == 2
    assert capsys.readouterr().err.count("exceeds the limit 6") == 4


def test_cli_paths_sweep_refuses_an_empty_r_range(capsys):
    # no r to walk would check nothing, so it is refused rather than reported as a pass
    assert cli_main(["paths", "sweep", "--pn", "101", "--r-min", "5", "--r-max", "3"]) == 2
    assert capsys.readouterr() == ("", "error: --r-min 5 exceeds --r-max 3\n")
    assert cli_main(["paths", "sweep", "--pn", "101", "--r-min", "3", "--r-max", "3"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 3  # header and the two chains at r = 3


def test_cli_refuses_a_level_past_the_digit_limit_before_computing_it(capsys, monkeypatch):
    from windsym import residue_p1
    from windsym.bounds_cli import MAX_BOUND_DIGITS

    def no_level(*args):
        raise AssertionError("formed p^n past the limit")

    # 2^13287 has 4000 digits and 2^13288 has 4001; at n = 10^8 forming p^n
    # would take minutes, so the bit-length test refuses it unformed
    monkeypatch.setattr(residue_p1, "PrimePower", no_level)
    for n in ("13288", "3000000", "100000000"):
        for argv in (["paths", "--r", "2"], ["criterion", "--l", "3"], ["homology"], ["p1"]):
            start = time.perf_counter()
            assert cli_main([*argv, "--p", "2", "--n", n]) == 2
            assert time.perf_counter() - start < 1
            assert capsys.readouterr() == ("", f"error: --n {n} exceeds the limit: p^n would "
                                               f"have more than {MAX_BOUND_DIGITS} digits\n")
    big = str(10**MAX_BOUND_DIGITS)
    assert cli_main(["paths", "sweep", "--pn", big]) == 2
    assert capsys.readouterr() == ("", f"error: a --pn value exceeds the limit: it has more "
                                       f"than {MAX_BOUND_DIGITS} digits\n")
    monkeypatch.undo()
    # the largest admitted power of 2 runs: its chain walks are closed-form
    rc, out = run_cli(capsys, "paths", "--p", "2", "--n", "13287", "--r", "2")
    assert rc == 0 and json.loads(out)["n"] == 13287


def test_cli_pn_digit_limit_is_inclusive(capsys, monkeypatch):
    from windsym import bounds_cli

    monkeypatch.setattr(bounds_cli, "MAX_BOUND_DIGITS", 10)
    # 2^33 and 10^10 - 1 = 3^2 * 11 * 41 * 271 * 9091 have 10 digits, so each
    # reaches its own verdict; 10^10 has 11
    assert cli_main(["paths", "sweep", "--pn", str(2**33), "--r-max", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[1].startswith("2,33,1,")
    assert cli_main(["paths", "sweep", "--pn", str(10**10 - 1)]) == 2
    assert capsys.readouterr() == ("", "error: 9999999999 is not a prime power\n")
    assert cli_main(["paths", "sweep", "--pn", str(10**10)]) == 2
    assert capsys.readouterr() == ("", "error: a --pn value exceeds the limit: it has more "
                                       "than 10 digits\n")


def test_prime_power_matches_trial_division():
    # every n below 5000, and powers whose base is past the trial divisors
    # or is itself a power, against factorize's trial division
    values = list(range(-3, 5000)) + [b**e for b in (257, 263 * 269, 65537, 2**7) for e in (1, 2, 3, 7)]
    for n in values:
        fac = factorize(n) if n > 0 else {}
        assert prime_power(n) == (next(iter(fac.items())) if len(fac) == 1 else None), n
    for x in [0, 1, 2, 3, 4, 10**18, 2**13287, 3**5000 - 1]:
        for k in (1, 2, 3, 5, 64, 8000):
            r = iroot(x, k)
            assert r**k <= x < (r + 1) ** k, (x, k)
    # just below, at and just above an exact power, where a start below the
    # root or a stop one step early would show
    for k in (2, 3, 5, 64, 997, 8000):
        for r in (2, 3, 1000003):
            for x in (r**k - 1, r**k, r**k + 1):
                assert iroot(x, k) == r - (x < r**k), (r, k, x - r**k)
    # Newton starts just above the root: from 2^ceil(bits/q) these 168 roots
    # of a 7925-bit value took 0.54 s, about q steps each for the larger q
    x, qs = 3**5000 - 1, [q for q in range(2, 1000) if is_prime(q)]
    start = time.perf_counter()
    roots = [iroot(x, q) for q in qs]
    assert time.perf_counter() - start < 0.2
    assert all(r**q <= x < (r + 1) ** q for r, q in zip(roots, qs))


def test_is_prime_extends_its_witnesses_at_the_proven_limit(monkeypatch):
    # the limit itself is a strong pseudoprime to all 12 proven bases, so
    # only the wider witness set used from it on finds it composite
    from windsym import arith

    limit = arith._MR_LIMIT
    assert not is_prime(limit)
    monkeypatch.setattr(arith, "_MR_LIMIT", limit + 1)  # the 12 bases alone
    assert arith.is_prime(limit)


def test_prime_power_refuses_a_small_factor_quickly():
    # 3,996 digits, no perfect power, every prime factor above 255: one
    # Miller-Rabin round on it took 6.1 s; a gcd with the primes below 2^16
    # finds 263 * 269 at once
    n = 263**1650 * 269
    start = time.perf_counter()
    assert prime_power(n) is None
    assert time.perf_counter() - start < 0.5
    assert prime_power(263**1650) == (263, 1650)
    assert prime_power(65521**300 * 65537) is None
    assert prime_power(65537**300) == (65537, 300)


def test_cli_paths_sweep_reads_a_large_prime_power_quickly(capsys):
    # 1000000007^2: trial division ran for more than 30 s on it
    start = time.perf_counter()
    rc, out = run_cli(capsys, "paths", "sweep", "--pn", "1000000014000000049", "--r-max", "1")
    assert time.perf_counter() - start < 1
    assert rc == 0
    assert [row[:2] for row in csv.reader(io.StringIO(out))][1:] == [["1000000007", "2"]] * 2
    # non-prime-powers are still refused: 1, a product of two primes, a
    # square of a composite, and values that are no positive integer
    for value in ("1", "1000000016000000063", str(6**40), "0", "-8"):
        assert cli_main(["paths", "sweep", "--pn", value]) == 2
        assert capsys.readouterr() == ("", f"error: {value} is not a prime power\n")


def test_cli_refuses_oversized_all_l_before_any_work(capsys, monkeypatch):
    from windsym import bounds_cli, hecke_symbols, residue_p1
    from windsym.residue_p1 import MAX_ALL_L

    def no_work(*args):
        raise AssertionError("swept or checked an l past the limit")

    monkeypatch.setattr(hecke_symbols, "check_kamienny_condition3", no_work)
    monkeypatch.setattr(bounds_cli, "is_prime", no_work)
    for bound in (str(MAX_ALL_L + 1), "3000000"):
        assert cli_main(["criterion", "--p", "101", "--all-l-up-to", bound]) == 2
        assert capsys.readouterr() == ("", f"error: --all-l-up-to {bound} exceeds the limit {MAX_ALL_L}\n")
    monkeypatch.undo()

    # the limit is inclusive: with it lowered, L at the limit still runs
    monkeypatch.setattr(residue_p1, "MAX_ALL_L", 7)
    assert cli_main(["criterion", "--p", "11", "--all-l-up-to", "7"]) == 0
    assert [r["l"] for r in json.loads(capsys.readouterr().out)["reports"]] == [2, 3, 5, 7]
    assert cli_main(["criterion", "--p", "11", "--all-l-up-to", "8"]) == 2
    assert capsys.readouterr().err == "error: --all-l-up-to 8 exceeds the limit 7\n"


def test_cli_refuses_l_with_all_l_up_to_before_any_work(capsys, monkeypatch):
    from windsym import hecke_symbols

    def no_work(*args):
        raise AssertionError("checked an l although the flags conflict")

    monkeypatch.setattr(hecke_symbols, "check_kamienny_condition3", no_work)
    # either order on the command line, and whether or not --l is in the sweep;
    # argparse refuses the pair, and neither flag, as it does two bounds modes
    for argv in (["--l", "3", "--all-l-up-to", "5"], ["--all-l-up-to", "5", "--l", "7"]):
        assert cli_main(["criterion", "--p", "11", *argv]) == 2
        out, err = capsys.readouterr()
        first, second = argv[0], argv[2]
        assert out == "" and f"argument {second}: not allowed with argument {first}" in err
    assert cli_main(["criterion", "--p", "11"]) == 2
    assert "one of the arguments --l --all-l-up-to is required" in capsys.readouterr().err


# Runs one subcommand (argv as JSON in sys.argv[1]; none: import only) in a
# fresh interpreter and prints its exit code and the windsym modules loaded.
IMPORT_DIET = """
import contextlib, io, json, sys
from windsym.bounds_cli import cli_main
argv = json.loads(sys.argv[1])
with contextlib.redirect_stdout(io.StringIO()):
    rc = cli_main(argv) if argv else 0
print(json.dumps([rc, sorted(m[8:] for m in sys.modules if m.startswith("windsym."))]))
"""

LAYERS = {"residue_p1", "rel_homology", "hecke_symbols", "winding_paths", "qexp_hecke"}
P1_AND_IMAGES = {"residue_p1", "hecke_symbols"}

# argv -> the layer modules the run must load; every other layer must stay
# unloaded
LOADED_BY = [
    ([], set()),
    (["bounds", "--constants"], set()),
    (["bounds", "--table", "--d-max", "2"], set()),
    (["bounds", "--prop11", "--l", "3", "--d", "2"], set()),
    (["qexp", "up-matrix", "--case", "coprime", "--k", "1", "--prime", "5"], {"qexp_hecke"}),
    (["qexp", "verify-relations", "--order", "20", "--trials", "2"], {"qexp_hecke"}),
    (["p1", "--p", "11", "--verify"], {"residue_p1"}),
    (["homology", "--p", "11", "--l", "3"], {"residue_p1", "rel_homology"}),
    (["criterion", "--p", "11", "--d", "1", "--l", "3"], P1_AND_IMAGES),
    (["bounds", "--threshold", "--p", "5", "--d", "1"], set()),
    (["paths", "--p", "101", "--r", "2"], P1_AND_IMAGES | {"winding_paths"}),
]


def test_cli_loads_only_the_modules_a_subcommand_runs():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    for argv, want in LOADED_BY:
        proc = subprocess.run([sys.executable, "-c", IMPORT_DIET, json.dumps(argv)], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        rc, modules = json.loads(proc.stdout)
        assert rc == 0, argv
        assert set(modules) & LAYERS == want, argv


def test_readme_commands_run(capsys):
    """Every `windsym ...` line of README.md's fenced code blocks runs."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = readme.split("```")[1::2]
    commands = [line for b in blocks for line in b.splitlines() if line.startswith("windsym ")]
    assert len(commands) >= 10
    for command in commands:
        argv = shlex.split(command)[1:]
        rc, out = run_cli(capsys, *argv)
        assert rc == 0, command
        if "--csv" in argv or argv[:2] == ["paths", "sweep"]:  # the sweep always writes CSV
            rows = list(csv.reader(io.StringIO(out)))
            assert len(rows) > 1 and {len(r) for r in rows} == {len(rows[0])}, command
        else:
            json.loads(out)


def test_readme_names_every_limit_with_its_value():
    """The README's refusal paragraph prints each `windsym.<module>.MAX_*` it
    names beside that constant's value, and names every MAX_* a layer exports."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    cli = readme[readme.index("## CLI"):]
    paragraph = cli[: cli.index("```")]
    named = re.findall(r"`windsym\.(\w+)\.(MAX_\w+)`", paragraph)
    printed = re.findall(r"(\d+)(?:\^(\d+))?[^\d(]*\(`windsym\.(\w+)\.(MAX_\w+)`", paragraph)
    assert [(m, c) for *_, m, c in printed] == named  # a number stands beside each name
    for base, exp, module, const in printed:
        value = int(base) ** int(exp) if exp else int(base)
        assert getattr(importlib.import_module(f"windsym.{module}"), const) == value, const
    exported = {
        (info.name, const)
        for info in pkgutil.iter_modules(windsym.__path__)
        for const in getattr(importlib.import_module(f"windsym.{info.name}"), "__all__", ())
        if const.startswith("MAX_")
    }
    assert exported == set(named)


def test_each_module_exports_exactly_its_public_definitions():
    # a name a deletion leaves in __all__, or a public definition left out
    # of it, fails here; an imported name belongs to the module it is from
    for info in pkgutil.iter_modules(windsym.__path__):
        module = importlib.import_module(f"windsym.{info.name}")
        defined = set()
        for node in ast.parse(Path(module.__file__).read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(t.id for t in targets if isinstance(t, ast.Name))
        public = sorted(name for name in defined if not name.startswith("_"))
        assert sorted(getattr(module, "__all__", ())) == public, info.name


def test_cli_reruns_byte_identical(capsys):
    _, first = run_cli(capsys, "criterion", "--p", "13", "--n", "1", "--d", "1", "--l", "3")
    _, second = run_cli(capsys, "criterion", "--p", "13", "--n", "1", "--d", "1", "--l", "3")
    assert first == second
    _, s1 = run_cli(capsys, "paths", "sweep", "--pn", "101", "--r-max", "2")
    _, s2 = run_cli(capsys, "paths", "sweep", "--pn", "101", "--r-max", "2")
    assert s1 == s2


def test_cli_out_file_and_output_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("OUTPUT_DIR", str(tmp_path))
    rc, out = run_cli(capsys, "bounds", "--constants", "--out", "report.json")
    assert rc == 0 and out == ""
    data = json.loads((tmp_path / "report.json").read_text())
    assert data["pass"] is True


def test_cli_json_is_streamed_with_the_bytes_of_json_dumps(tmp_path, monkeypatch, capsys):
    from types import SimpleNamespace

    from windsym.bounds_cli import _emit

    # a list of many encoder chunks (a --smith list) between nested values
    payload = {"schema": 1, "nested": {"a": [1, {"b": None}], "c": "x"},
               "smith_invariants": [1] * 200000, "torsion_free": True}
    want = json.dumps(payload, indent=2) + "\n"
    _emit(payload, SimpleNamespace(out=None))
    assert capsys.readouterr().out == want
    _emit(payload, SimpleNamespace(out=str(tmp_path / "out.json")))
    assert (tmp_path / "out.json").read_text() == want

    # written as it is encoded: the text and its chunks are never held whole
    class Sink:
        def write(self, text):
            pass

        def writelines(self, texts):
            for _ in texts:
                pass

    monkeypatch.setattr(sys, "stdout", Sink())
    tracemalloc.start()
    try:
        _emit(payload, SimpleNamespace(out=None))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(want) / 2, (peak, len(want))


def test_cli_homology_record(capsys):
    rc, out = run_cli(capsys, "homology", "--p", "11", "--l", "3")
    assert rc == 0
    # values and key order
    assert list(json.loads(out).items()) == [
        ("schema", 1),
        ("p", 11),
        ("n", 1),
        ("field", "F3"),
        ("p1_size", 12),
        ("relation_rank", 9),
        ("quotient_dim", 3),
    ]


def test_cli_homology_field_label(capsys):
    for argv, label in [((), "Q"), (("--l", "7"), "F7")]:
        rc, out = run_cli(capsys, "homology", "--p", "11", *argv)
        assert rc == 0
        assert json.loads(out)["field"] == label
    # Q is asked for by omitting --l: every non-prime --l is refused, 0 too,
    # with the text criterion and bounds --prop11 print
    for l in ("4", "6", "0", "1", "-5"):
        for command in (["homology", "--p", "11"], ["criterion", "--p", "11"], ["bounds", "--prop11"]):
            assert cli_main([*command, "--l", l]) == 2
            assert capsys.readouterr() == ("", f"error: {l} is not prime\n")
    # a non-prime --p is refused with the same text by every mode that reads it
    for p in ("4", "-3", "1"):
        for command in (["p1"], ["criterion", "--l", "3"], ["bounds", "--threshold"]):
            assert cli_main([*command, "--p", p]) == 2
            assert capsys.readouterr() == ("", f"error: {p} is not prime\n")


def test_criterion_proves_each_input_once(capsys, monkeypatch):
    from windsym import arith, bounds, bounds_cli, hecke_symbols, residue_p1

    calls = []
    exact = arith.is_prime

    def counted(n):
        calls.append(n)
        return exact(n)

    for module in (arith, bounds, bounds_cli, hecke_symbols, residue_p1):
        monkeypatch.setattr(module, "is_prime", counted)
    # p by PrimePower and by criterion_threshold, and l by hecke_span_rank;
    # s = 2, the smallest prime other than p, needs no proof
    rc, _ = run_cli(capsys, "criterion", "--p", "11", "--l", "3")
    assert rc == 0 and calls == [11, 11, 3]


@pytest.mark.parametrize("argv, flag, low", [
    (["criterion", "--p", "11", "--d", "0", "--l", "3"], "--d", 1),
    (["criterion", "--p", "11", "--d", "-2", "--all-l-up-to", "5"], "--d", 1),
    (["bounds", "--prop11", "--d", "0"], "--d", 1),
    (["bounds", "--threshold", "--d", "-1"], "--d", 1),
    (["qexp", "verify-relations", "--order", "7"], "--order", 8),
    (["qexp", "verify-relations", "--order", "20", "--trials", "0"], "--trials", 1),
    (["qexp", "up-matrix", "--case", "coprime", "--k", "0"], "--k", 1),
    (["qexp", "up-matrix", "--case", "divides", "--k", "2", "--lam", "0"], "--lam", 1),
    (["paths", "sweep", "--pn", "101", "--r-min", "-3"], "--r-min", 1),
    (["p1", "--p", "11", "--n", "0"], "--n", 1),
    (["homology", "--p", "11", "--n", "0", "--l", "3"], "--n", 1),
    (["criterion", "--p", "11", "--n", "0", "--l", "3"], "--n", 1),
    (["paths", "--p", "11", "--n", "-1", "--r", "2"], "--n", 1),
    (["qexp", "verify-relations", "--order", "20", "--trials", "1", "--seed", "-5"], "--seed", 0),
], ids=["criterion", "criterion-all-l", "prop11", "threshold", "order", "trials", "k", "lam",
        "r-min", "p1-n", "homology-n", "criterion-n", "paths-n", "seed"])
def test_cli_minimums_name_their_flag(capsys, argv, flag, low):
    assert cli_main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {flag} must be >= {low}\n")


def test_cli_homology_runs_past_the_dense_limit(capsys):
    from oracles import cusp_count_x0, genus_x0
    from windsym.residue_p1 import MAX_P1_SIZE

    # the record is counted from the elliptic points, so it reads no
    # permutation and runs past MAX_P1_SIZE
    rc, out = run_cli(capsys, "homology", "--p", "10000019", "--l", "3")
    assert rc == 0
    rec = json.loads(out)
    assert rec["p1_size"] == 10000020 > MAX_P1_SIZE
    assert (rec["quotient_dim"], rec["relation_rank"]) == (1666671, 8333349)
    assert rec["quotient_dim"] == 2 * genus_x0(10000019) + cusp_count_x0(10000019) - 1
    # the --smith list has relation_rank entries and the criterion's graph
    # search grows with the level; the same limit bounds both, so both are
    # still refused there
    for argv in (["homology", "--p", "10000019", "--smith"],
                 ["criterion", "--p", "10000019", "--d", "1", "--l", "3"]):
        assert cli_main(argv) == 2
        assert "exceeds the limit" in capsys.readouterr().err


def test_cli_bounds_refuses_too_many_digits_before_computing(capsys, monkeypatch):
    from windsym import bounds, bounds_cli
    from windsym.bounds_cli import MAX_BOUND_DIGITS

    def no_work(*args):
        raise AssertionError("computed a bound past the limit")

    for name in ("cor18_bound", "prop11_report"):
        monkeypatch.setattr(bounds, name, no_work)
    # the guard reads the thresholds of the prime classes 5, 3 and 2 itself;
    # the report's own, at p = 7, must not be formed
    threshold_ps = []
    threshold = bounds.criterion_threshold
    monkeypatch.setattr(bounds, "criterion_threshold",
                        lambda p, d: threshold_ps.append(p) or threshold(p, d))
    for argv, flag in [
        (["--table", "--d-max", "7000"], "--d-max 7000"),
        (["--prop11", "--l", "3", "--d", "10000"], "--d 10000"),
        (["--prop11", "--l", "1000003", "--d", "800"], "--d 800"),
        (["--threshold", "--p", "7", "--d", "10000", "--original-order"], "--d 10000"),
    ]:
        assert cli_main(["bounds", *argv]) == 2
        assert capsys.readouterr() == ("", f"error: {flag} exceeds the limit: the bounds would "
                                           f"print more than {MAX_BOUND_DIGITS} digits\n")
    assert set(threshold_ps) == {5, 3, 2}
    monkeypatch.undo()

    # 2(1 + 3^d) is the largest value prop11 prints: admitted at d = 8323,
    # where it prints on every Python (3.11 refuses ints past 4300 digits)
    rc, out = run_cli(capsys, "bounds", "--prop11", "--l", "3", "--d", "8323")
    assert rc == 0
    assert len(str(json.loads(out)["value"])) <= MAX_BOUND_DIGITS
    assert cli_main(["bounds", "--prop11", "--l", "3", "--d", "8324"]) == 2
    # the threshold alone grows as d^6, so it runs where --original-order is refused
    assert cli_main(["bounds", "--threshold", "--p", "7", "--d", "10000"]) == 0
    capsys.readouterr()

    # with the limit lowered, the table's values at the largest admitted
    # d_max fit it
    monkeypatch.setattr(bounds_cli, "MAX_BOUND_DIGITS", 10)
    rc, out = run_cli(capsys, "bounds", "--table", "--d-max", "3")
    assert rc == 0
    assert max(len(str(v)) for row in json.loads(out)["rows"] for v in row[1:]) == 10
    assert cli_main(["bounds", "--table", "--d-max", "4"]) == 2
    assert "--d-max 4 exceeds the limit" in capsys.readouterr().err


def test_cli_digit_guard_follows_the_bounds_module(capsys, monkeypatch):
    """The guard judges the formula windsym.bounds prints: with C^2 raised
    there, a d_max the unraised guard admits is refused."""
    from windsym import bounds, bounds_cli

    monkeypatch.setattr(bounds_cli, "MAX_BOUND_DIGITS", 10)
    assert cli_main(["bounds", "--table", "--d-max", "3"]) == 0
    capsys.readouterr()
    c_squares = bounds.c_squares
    monkeypatch.setattr(bounds, "c_squares", lambda p: (c_squares(p)[0], 10 * c_squares(p)[1]))
    assert cli_main(["bounds", "--table", "--d-max", "3"]) == 2
    assert capsys.readouterr() == ("", "error: --d-max 3 exceeds the limit: the bounds would "
                                       "print more than 10 digits\n")
    # the raised values still fit wherever the guard admits them
    rc, out = run_cli(capsys, "bounds", "--table", "--d-max", "2")
    assert rc == 0
    assert max(len(str(v)) for row in json.loads(out)["rows"] for v in row[1:]) <= 10


def test_cli_refuses_oversized_qexp_order_before_drawing(capsys, monkeypatch):
    from windsym import qexp_hecke
    from windsym.qexp_hecke import MAX_QEXP_ORDER

    def no_work(*args, **kwargs):
        raise AssertionError("drew a series past the limit")

    assert MAX_QEXP_ORDER >= 20000  # the memory guard's order
    monkeypatch.setattr(qexp_hecke, "verify_relations", no_work)
    monkeypatch.setattr(qexp_hecke, "verify_coefficient_identity", no_work)
    for order in (str(MAX_QEXP_ORDER + 1), "1000000"):
        assert cli_main(["qexp", "verify-relations", "--order", order, "--trials", "1"]) == 2
        assert capsys.readouterr() == ("", f"error: --order {order} exceeds the limit {MAX_QEXP_ORDER}\n")
    monkeypatch.undo()

    # the limit is inclusive: with it lowered, the order at the limit still runs
    monkeypatch.setattr(qexp_hecke, "MAX_QEXP_ORDER", 40)
    assert cli_main(["qexp", "verify-relations", "--order", "40", "--trials", "2"]) == 0
    capsys.readouterr()
    assert cli_main(["qexp", "verify-relations", "--order", "41", "--trials", "2"]) == 2
    assert capsys.readouterr().err == "error: --order 41 exceeds the limit 40\n"


def test_cli_draws_the_identity_trials_at_the_order_it_reads(capsys, monkeypatch):
    # a_1(T_n f) for n <= 30 reads a_1..a_30, so only the relations draw at
    # --order; the identity's 10 trials are drawn at order 30 in one block
    from windsym import qexp_hecke

    orders = []
    exact = qexp_hecke._packed_series

    def spy(rng, count, width, order, *args):
        orders.append((count, order))
        return exact(rng, count, width, order, *args)

    monkeypatch.setattr(qexp_hecke, "_packed_series", spy)
    assert cli_main(["qexp", "verify-relations", "--order", "300", "--trials", "28",
                     "--seed", "5"]) == 0
    capsys.readouterr()
    assert orders == [(27, 300), (1, 300), (10, 30)]


def test_cli_refuses_too_many_qexp_trials_before_drawing(capsys, monkeypatch):
    from windsym import qexp_hecke
    from windsym.qexp_hecke import MAX_QEXP_TRIALS

    def no_work(*args, **kwargs):
        raise AssertionError("drew a series past the limit")

    assert MAX_QEXP_TRIALS >= 100  # the memory guard's and the benchmark's trials
    monkeypatch.setattr(qexp_hecke, "verify_relations", no_work)
    monkeypatch.setattr(qexp_hecke, "verify_coefficient_identity", no_work)
    for trials in (str(MAX_QEXP_TRIALS + 1), "100000000"):
        assert cli_main(["qexp", "verify-relations", "--order", "8", "--trials", trials]) == 2
        assert capsys.readouterr() == ("", f"error: --trials {trials} exceeds the limit {MAX_QEXP_TRIALS}\n")
    monkeypatch.undo()

    # the limit is inclusive: with it lowered, the trials at the limit still run
    monkeypatch.setattr(qexp_hecke, "MAX_QEXP_TRIALS", 3)
    assert cli_main(["qexp", "verify-relations", "--order", "20", "--trials", "3"]) == 0
    capsys.readouterr()
    assert cli_main(["qexp", "verify-relations", "--order", "20", "--trials", "4"]) == 2
    assert capsys.readouterr().err == "error: --trials 4 exceeds the limit 3\n"


def test_cli_refuses_oversized_up_matrix_k_before_building(capsys, monkeypatch):
    from windsym import qexp_hecke
    from windsym.qexp_hecke import MAX_UP_MATRIX_K

    def no_work(*args, **kwargs):
        raise AssertionError("built a matrix past the limit")

    assert MAX_UP_MATRIX_K >= 3  # the README's and the benchmark's k
    monkeypatch.setattr(qexp_hecke, "build_Up_matrix", no_work)
    monkeypatch.setattr(qexp_hecke, "charpoly", no_work)
    for k in (str(MAX_UP_MATRIX_K + 1), "1000"):
        assert cli_main(["qexp", "up-matrix", "--case", "coprime", "--k", k, "--prime", "5"]) == 2
        assert capsys.readouterr() == ("", f"error: --k {k} exceeds the limit {MAX_UP_MATRIX_K}\n")
    monkeypatch.undo()

    # the limit is inclusive: with it lowered, the k at the limit still runs
    monkeypatch.setattr(qexp_hecke, "MAX_UP_MATRIX_K", 3)
    assert cli_main(["qexp", "up-matrix", "--case", "coprime", "--k", "3", "--prime", "5"]) == 0
    assert json.loads(capsys.readouterr().out)["k"] == 3
    assert cli_main(["qexp", "up-matrix", "--case", "coprime", "--k", "4", "--prime", "5"]) == 2
    assert capsys.readouterr() == ("", "error: --k 4 exceeds the limit 3\n")


def test_cli_up_matrix_refuses_lam_below_one(capsys):
    # p^(lam - 1) would be a float: --lam 0 used to print "-0.2"
    for case in ("coprime", "divides"):
        for lam in ("0", "-1"):
            argv = ["qexp", "up-matrix", "--case", case, "--k", "2", "--prime", "5", "--lam", lam]
            assert cli_main(argv) == 2
            assert capsys.readouterr() == ("", "error: --lam must be >= 1\n")


def test_cli_refuses_oversized_up_matrix_lam_before_building(capsys, monkeypatch):
    from windsym import qexp_hecke
    from windsym.bounds_cli import MAX_BOUND_DIGITS

    def up_matrix(*argv):
        return cli_main(["qexp", "up-matrix", "--case", "coprime", "--k", "1", *argv])

    def no_work(*args, **kwargs):
        raise AssertionError("built a matrix past the limit")

    # 2^13287 has 4000 digits and 2^13288 has 4001
    assert (len(str(2**13287)), len(str(2**13288))) == (MAX_BOUND_DIGITS, MAX_BOUND_DIGITS + 1)
    assert up_matrix("--prime", "2", "--lam", "13288") == 0
    assert json.loads(capsys.readouterr().out)["entries"][1][0] == str(-(2**13287))
    monkeypatch.setattr(qexp_hecke, "build_Up_matrix", no_work)
    monkeypatch.setattr(qexp_hecke, "charpoly", no_work)
    for argv in (["--prime", "2", "--lam", "13289"], ["--prime", "5", "--lam", "1000000000"],
                 ["--prime", "2", "--lam", "13288", "--eps-p", "-2"]):
        assert up_matrix(*argv) == 2
        lam = argv[3]
        assert capsys.readouterr() == ("", f"error: --lam {lam} exceeds the limit: eps_p p^(lam-1) "
                                           f"would print more than {MAX_BOUND_DIGITS} digits\n")
    monkeypatch.undo()
    # the divides case forms no power, so its --lam is not judged
    assert cli_main(["qexp", "up-matrix", "--case", "divides", "--k", "1", "--lam", "1000000000"]) == 0
    assert json.loads(capsys.readouterr().out)["entries"] == [["1", "1"], ["0", "0"]]


def test_cli_up_matrix_refuses_eps_p_other_than_one_or_minus_one_under_coprime(capsys, monkeypatch):
    from windsym import qexp_hecke

    def up_matrix(eps_p):
        return cli_main(["qexp", "up-matrix", "--case", "coprime", "--k", "2", "--prime", "5",
                         "--eps-p", eps_p])

    # the characters are trivial or quadratic, so eps(p) = +-1 at p coprime to the modulus
    for eps_p in ("1", "-1"):
        assert up_matrix(eps_p) == 0
        assert json.loads(capsys.readouterr().out)["entries"][1][0] == str(-int(eps_p) * 5)

    def no_work(*args, **kwargs):
        raise AssertionError("built a matrix for an eps_p that is not +-1")

    monkeypatch.setattr(qexp_hecke, "build_Up_matrix", no_work)
    monkeypatch.setattr(qexp_hecke, "charpoly", no_work)
    for eps_p in ("7", "0", "-2", "2"):
        assert up_matrix(eps_p) == 2
        assert capsys.readouterr() == ("", f"error: --eps-p {eps_p} must be 1 or -1 under "
                                           "--case coprime\n")


def test_cli_refuses_oversized_up_matrix_a_p_before_building(capsys, monkeypatch):
    from windsym import qexp_hecke
    from windsym.bounds_cli import MAX_BOUND_DIGITS

    def up_matrix(a_p):
        return cli_main(["qexp", "up-matrix", "--case", "coprime", "--k", "2", f"--a-p={a_p}",
                         "--prime", "5"])

    def no_work(*args, **kwargs):
        raise AssertionError("built a matrix past the limit")

    # a numerator or a denominator of 4000 digits runs; its charpoly prints -a_p
    for a_p in ("9" * MAX_BOUND_DIGITS, "-1/" + "7" * MAX_BOUND_DIGITS):
        assert up_matrix(a_p) == 0
        assert json.loads(capsys.readouterr().out)["entries"][0][0] == a_p
    monkeypatch.setattr(qexp_hecke, "build_Up_matrix", no_work)
    monkeypatch.setattr(qexp_hecke, "charpoly", no_work)
    # 4001 digits, written out or as a power of ten (Python 3.11 refused
    # 1e5000 only when it printed the matrix, and 3.10 printed it)
    for a_p in ("1" + "0" * MAX_BOUND_DIGITS, f"1e{MAX_BOUND_DIGITS}", "-3e5000",
                "3/1" + "0" * MAX_BOUND_DIGITS, f"1e-{MAX_BOUND_DIGITS}"):
        assert up_matrix(a_p) == 2
        assert capsys.readouterr() == ("", "error: --a-p exceeds the limit: its numerator or "
                                           f"denominator has more than {MAX_BOUND_DIGITS} digits\n")


def test_cli_refuses_a_long_written_a_p_exponent_before_parsing(capsys, monkeypatch):
    from windsym import bounds_cli

    def no_parse(*args):
        raise AssertionError("parsed an --a-p whose exponent is past the limit")

    # Fraction would form 10^exp (12 s for 1e10000000); a zero mantissa is
    # refused alike
    monkeypatch.setattr(bounds_cli, "Fraction", no_parse)
    for a_p in ("1e10000000", "1e-10000000", "0e10000000", "1E+4_010"):
        assert cli_main(["qexp", "up-matrix", "--case", "coprime", "--k", "2", f"--a-p={a_p}"]) == 2
        assert capsys.readouterr() == ("", "error: --a-p exceeds the limit: its numerator or "
                                           "denominator has more than 4000 digits\n")
    monkeypatch.undo()
    rc, out = run_cli(capsys, "qexp", "up-matrix", "--case", "coprime", "--k", "2", "--a-p", "1e3999")
    assert rc == 0 and json.loads(out)["entries"][0][0] == "1" + "0" * 3999


def test_cli_paths_refuses_a_missing_or_empty_r(capsys):
    assert cli_main(["paths", "--p", "101"]) == 2
    assert capsys.readouterr() == ("", "error: paths: need --p and --r (or the sweep subcommand)\n")
    assert cli_main(["paths", "--p", "101", "--r", "0"]) == 2
    assert capsys.readouterr() == ("", "error: --r must be >= 1\n")
    assert cli_main(["paths", "sweep", "--pn", "101", "--r-min", "0"]) == 2
    assert capsys.readouterr() == ("", "error: --r-min must be >= 1\n")


@pytest.mark.parametrize("argv", [["paths", "--p", "101", "--r", "2"], ["paths", "sweep", "--pn", "101"]],
                         ids=["paths", "sweep"])
def test_cli_paths_refuses_d_below_one_before_any_walk(capsys, monkeypatch, argv):
    from windsym import winding_paths

    def no_walk(*args, **kwargs):
        raise AssertionError("walked a chain with D < 1")

    for name in ("walk_chain_A", "walk_chain_B", "walk_chain_B_prime"):
        monkeypatch.setattr(winding_paths, name, no_walk)
    for d in ("0", "-1"):
        assert cli_main([*argv, "--d", d]) == 2
        assert capsys.readouterr() == ("", "error: --d must be >= 1\n")


@pytest.mark.parametrize("flag", [["--p", "5"], ["--n", "2"], ["--r", "3"], ["--d", "3"], ["--out"]],
                         ids=["p", "n", "r", "d", "out"])
def test_cli_paths_refuses_its_own_flags_before_sweep(capsys, monkeypatch, tmp_path, flag):
    from windsym import winding_paths

    def no_walk(*args, **kwargs):
        raise AssertionError("walked a chain with a paths flag before sweep")

    # the sweep reads none of them, so each is refused rather than dropped
    target = tmp_path / "f.csv"
    if flag == ["--out"]:
        flag = ["--out", str(target)]
    for name in ("walk_chain_A", "walk_chain_B", "walk_chain_B_prime"):
        monkeypatch.setattr(winding_paths, name, no_walk)
    assert cli_main(["paths", *flag, "sweep", "--pn", "7", "--r-max", "2"]) == 2
    assert capsys.readouterr() == ("", f"error: {flag[0]} applies only to paths without sweep\n")
    assert not target.exists()
    monkeypatch.undo()
    # given after sweep, --d and --out are the sweep's own: chain A at r = 1
    # reads 7/3 - 3 - 2 with D = 3
    assert cli_main(["paths", "sweep", "--pn", "7", "--r-max", "2", "--d", "3",
                     "--out", str(target)]) == 0
    assert capsys.readouterr() == ("", "")
    assert target.read_text().splitlines()[1] == "7,1,1,A,4,-8/3,"


@pytest.mark.parametrize("target", [Path("missing") / "x.json", Path(".")], ids=["missing-dir", "a-dir"])
def test_cli_out_that_cannot_be_written_exits_2(tmp_path, capsys, target):
    out = tmp_path / target
    assert cli_main(["p1", "--p", "5", "--out", str(out)]) == 2
    got = capsys.readouterr()
    assert got.out == "" and got.err.startswith(f"error: cannot write --out {out}: ")
    assert got.err.count("\n") == 1  # one line, no traceback


@pytest.mark.parametrize("argv", [
    ["bounds", "--constants", "--out", ""],
    ["p1", "--p", "5", "--out=", "--verify"],
    ["paths", "sweep", "--pn", "101", "--out", ""],
    ["paths", "--out", "", "sweep", "--pn", "101"],
    ["qexp", "verify-relations", "--order", "20", "--out", ""],
], ids=["bounds", "p1", "paths-sweep", "before-sweep", "qexp"])
def test_cli_empty_out_exits_2_before_any_work(capsys, monkeypatch, argv):
    from windsym import bounds_cli

    def no_work(args):
        raise AssertionError("a handler ran with an empty --out")

    for name in dir(bounds_cli):
        if name.startswith("_cmd_"):
            monkeypatch.setattr(bounds_cli, name, no_work)
    assert cli_main(argv) == 2
    assert capsys.readouterr() == ("", "error: --out must not be empty\n")


def test_module_entry_point():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "windsym", *argv], env=env,
                              capture_output=True, text=True, timeout=60)

    ok = run("bounds", "--constants")
    assert ok.returncode == 0
    assert json.loads(ok.stdout)["pass"] is True
    assert ok.stderr == ""
    assert run("bounds").returncode == 2


def test_module_entry_point_exits_quietly_on_a_closed_pipe():
    # `windsym bounds --table --d-max 600 | head -1`: the table (360 KB)
    # overfills the pipe, the reader closes it after one line, and the
    # writer's EPIPE ends the run with exit 1 and nothing on stderr
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    with tempfile.TemporaryFile() as err:
        proc = subprocess.Popen([sys.executable, "-m", "windsym", "bounds", "--table", "--d-max", "600"],
                                stdout=subprocess.PIPE, stderr=err, env=env)
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        assert proc.wait(timeout=60) == 1
        err.seek(0)
        assert err.read() == b""


# the flags of `bounds` besides its modes, each at its default value, and
# the modes that read each: a mode refuses the others even at their defaults
BOUNDS_FLAGS = {"--d-max": ["5"], "--csv": [], "--d": ["1"], "--l": ["3"], "--p": ["5"],
                "--original-order": []}
BOUNDS_READS = {
    "--table": {"--d-max", "--csv"},
    "--constants": set(),
    "--prop11": {"--d", "--l"},
    "--threshold": {"--p", "--d", "--original-order"},
}


def test_cli_bounds_refuses_flags_its_mode_does_not_read(capsys, monkeypatch):
    from windsym import bounds

    def no_work(*args):
        raise AssertionError("computed a bound with a flag the mode does not read")

    for name in ("prop11_report", "constants_consistency", "cor18_bound", "criterion_threshold"):
        monkeypatch.setattr(bounds, name, no_work)
    for mode, reads in BOUNDS_READS.items():
        for flag, value in BOUNDS_FLAGS.items():
            if flag in reads:
                continue
            assert cli_main(["bounds", mode, flag, *value]) == 2, (mode, flag)
            readers = " and ".join(m for m, r in BOUNDS_READS.items() if flag in r)
            assert capsys.readouterr() == ("", f"error: {flag} applies only to {readers}\n")
    monkeypatch.undo()
    # each mode takes every flag it reads, and a value flag given at its
    # default changes nothing
    for mode, reads in BOUNDS_READS.items():
        switches = sorted(f for f in reads if not BOUNDS_FLAGS[f])
        values = [x for f in sorted(reads) if BOUNDS_FLAGS[f] for x in (f, *BOUNDS_FLAGS[f])]
        rc, out = run_cli(capsys, "bounds", mode, *switches, *values)
        assert rc == 0 and (rc, out) == run_cli(capsys, "bounds", mode, *switches), mode
