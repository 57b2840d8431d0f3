"""Tests of the benchmark's own machinery: output checks, failure counting,
the hang guard, the layer adapter and the reference formulas.

    python3 -m pytest perfbench -q
"""

import io
import json
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

import reference as ref
import run
import tracing
import workloads as wl

CLI, _ = run.load_windsym(run.speed.SpeedLog())


def _tampered(edit):
    """A cli_main that runs the real command, then edits its JSON output."""
    def cli_main(argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            rc = CLI.cli_main(argv)
        payload = json.loads(buf.getvalue())
        edit(payload)
        print(json.dumps(payload))
        return rc
    return cli_main


SMALL_OPS = [
    wl._criterion_op(13, 1, [2, 3, 5, 7], False),
    wl._criterion_op(101, 1, [2, 3, 5, 7], True),
    wl._homology_op(11, 1, 3),
    wl._homology_op(5, 3, None, smith=True),
    wl.Op("paths", ["paths", "--p", "101", "--n", "1", "--r", "2"], 102, {"p": 101, "n": 1, "r": 2}),
    wl.Op("paths", ["paths", "--p", "2", "--n", "11", "--r", "4"], 3072, {"p": 2, "n": 11, "r": 4}),
    wl.up_matrix_op(wl.README_UP_MATRIX),
    wl.up_matrix_op({"case": "divides", "k": 4, "a_p": "2", "prime": 2, "eps_p": 1, "lam": 2}),
    wl.up_matrix_op({"case": "coprime", "k": 2, "a_p": "5/3", "prime": 3, "eps_p": -1, "lam": 3}),
]

TAMPERS = {
    "criterion": lambda d: d["reports"][1].update({"pass": not d["reports"][1]["pass"]}),
    "homology": lambda d: d.update(quotient_dim=d["quotient_dim"] + 1),
    "paths": lambda d: d["chains"][0].update(interval_len=0),
    "up_matrix": lambda d: d["charpoly"].__setitem__(0, "7"),
    "verify": lambda d: d["coprimality_witness"].update(inequality_witnessed=False),
}


@pytest.mark.parametrize("op", SMALL_OPS, ids=lambda op: op.label)
def test_correct_output_passes_and_disagreeing_output_fails(op):
    good = run.run_op(CLI.cli_main, op, budget=30)
    assert good.error is None, good.error
    bad = run.run_op(_tampered(TAMPERS[op.kind]), op, budget=30)
    assert bad.error


def test_verify_relations_check():
    op = wl.Op("verify", ["qexp", "verify-relations", "--order", "30", "--trials", "3", "--seed", "4"],
               0, {"order": 30, "trials": 3, "seed": 4})
    assert run.run_op(CLI.cli_main, op, budget=30).error is None
    assert run.run_op(_tampered(TAMPERS["verify"]), op, budget=30).error


def test_disagreeing_output_counts_as_failed_op():
    ops = SMALL_OPS[:3]
    flip = _tampered(TAMPERS["homology"])

    def cli_main(argv):
        return flip(argv) if argv[0] == "homology" else CLI.cli_main(argv)

    results = run.run_pass(cli_main, ops, tracer=None)
    assert [bool(r.error) for r in results] == [False, False, True]
    metrics, extra = run.end_to_end(wl.WORKLOADS["criterion_sweep"], [results], [0.05], 1.0, 1.0)
    assert extra["ops_failed_frac"][0] == pytest.approx(1 / 3)


def test_exit_code_and_exception_count_as_failures():
    op = SMALL_OPS[2]
    assert "exit code 2" in run.run_op(lambda argv: 2, op, budget=5).error
    assert "raised" in run.run_op(lambda argv: 1 // 0, op, budget=5).error


def test_hang_guard_fails_an_op_over_budget():
    def spin(argv):
        while True:
            pass

    res = run.run_op(spin, SMALL_OPS[0], budget=0.2)
    assert "op budget" in res.error
    assert res.wall_s < 5


def test_seed_draws_ops_deterministically():
    for w in wl.WORKLOADS.values():
        assert [op.argv for op in w.build(3)] == [op.argv for op in w.build(3)]
    a, b = (wl.criterion_sweep(s) for s in (1, 2))
    assert [op.argv for op in a] != [op.argv for op in b]
    for ops in (a, b):
        levels = {op.params["p"] ** op.params["n"] for op in ops}
        assert ref.CRITERION_EXCEPTIONS <= levels


def test_reference_genus_and_cusps():
    # classical values: X_0(11), X_0(37), X_0(27), X_0(49), X_0(64), X_0(125)
    for (p, n), g in {(11, 1): 1, (37, 1): 2, (3, 3): 1, (7, 2): 1, (2, 6): 3, (5, 3): 8}.items():
        assert ref.genus_x0(p, n) == g
    assert ref.cusp_count(101, 1) == 2
    assert ref.cusp_count(7, 2) == 8


def test_reference_charpoly():
    m = [[Fraction(2), Fraction(1)], [Fraction(-3), Fraction(0)]]
    assert ref.charpoly(m) == [3, -2, 1]


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail(list(range(15))) is None
    assert run.tail([float(i) for i in range(236)])[0] == 95.0
    assert run.tail([float(i) for i in range(20)]) == (50.0, 9.0)


def _traced_metrics(ops):
    tr = tracing.Tracer()
    for op in ops:
        res = run.run_op(CLI.cli_main, op, budget=30)
        assert res.error is None
        span = tr.add_op_span(op.label, res.start, res.start + res.wall_s)
        tracing.replay(tr, op, res.payload, span)
    return tracing.per_layer_metrics(tr, [0], 0.0)


def test_traced_replay_measures_every_layer_metric():
    values, unmeasured = _traced_metrics(SMALL_OPS)
    assert not unmeasured
    assert values["residue_p1.points"][0] == sum(
        op.work * len(op.params.get("ls", [0])) for op in SMALL_OPS if op.kind != "up_matrix")
    assert values["winding_paths.inverse_pair_hit_rate"][0] > 0
    assert 0.99 < sum(v for k, (v, _) in values.items() if k.endswith(".share")) < 1.01


def test_missing_entry_point_is_reported_unmeasured(monkeypatch):
    monkeypatch.setitem(tracing.ENTRY_POINTS, "sigma_r", [("hecke_symbols", "no_such_function")])
    values, unmeasured = _traced_metrics(SMALL_OPS[4:6])
    assert "not found" in unmeasured["hecke_symbols.sigma_r_s"]
    assert "winding_paths.walk_s" in unmeasured
    assert "residue_p1.table_s" in values


def test_changed_signature_is_reported_unmeasured(monkeypatch):
    import windsym.rel_homology as rh

    monkeypatch.setattr(rh, "build_presentation", lambda level, modulus: None)
    values, unmeasured = _traced_metrics(SMALL_OPS[2:3])
    assert "needs level, modulus" in unmeasured["rel_homology.presentation_s"]
    assert "residue_p1.table_s" in values


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    results = run.run_pass(CLI.cli_main, SMALL_OPS[:2], tracer=None)
    metrics, _ = run.end_to_end(wl.WORKLOADS["criterion_sweep"], [results], [0.05], 1.0, 1.0)
    assert [m["name"] for m in spec["end_to_end"]] == list(metrics)
    values, unmeasured = _traced_metrics(SMALL_OPS)
    assert sorted(m["name"] for m in spec["per_layer"]) == sorted([*values, *unmeasured])
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
