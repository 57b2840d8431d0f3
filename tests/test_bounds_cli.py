import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from windsym.bounds_cli import (
    LAMBDA_FACTORS,
    cli_main,
    constants_consistency,
    cor18_bound,
    criterion_threshold,
    prop11_bound,
    prop11_report,
)

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
    from windsym.hecke_symbols import check_kamienny_condition3

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


def test_cli_bounds_table_csv(capsys):
    rc, out = run_cli(capsys, "bounds", "--table", "--d-max", "5", "--csv")
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "d,p_not_2_3,p_3,p_2"
    assert len(lines) == 6
    d1 = lines[1].split(",")
    assert [int(x) for x in d1] == [1, 8320, 16640, 188082]


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


def test_cli_homology_smith(capsys):
    rc, out = run_cli(capsys, "homology", "--p", "11", "--n", "1", "--smith")
    assert rc == 0
    rep = json.loads(out)
    assert rep["quotient_dim"] == 3
    assert rep["torsion_free"] is True


def test_cli_p1_verify(capsys):
    rc, out = run_cli(capsys, "p1", "--p", "3", "--n", "2", "--verify")
    assert rc == 0
    rep = json.loads(out)
    assert rep["size"] == 12
    assert all(rep["checks"].values())


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


def test_cli_usage_errors(capsys):
    assert cli_main(["criterion", "--bogus"]) == 2
    capsys.readouterr()
    assert cli_main(["bounds"]) == 2  # no mode selected
    capsys.readouterr()
    assert cli_main(["criterion", "--p", "11"]) == 2  # neither --l nor --all-l-up-to
    capsys.readouterr()
    # |P^1| = 1000003^2 + 1000003 is past MAX_P1_SIZE: refused before any work
    assert cli_main(["p1", "--p", "1000003", "--n", "2"]) == 2
    assert "exceeds the limit" in capsys.readouterr().err


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
