import hashlib
import random
import time
from fractions import Fraction
from math import lcm
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from windsym import qexp_hecke
from windsym.bounds_cli import cli_main
from windsym.qexp_hecke import (
    CASE_COPRIME,
    CASE_DIVIDES,
    SERIES_DENOMINATOR_LCM,
    TRIVIAL_CHARACTER,
    DirichletCharacter,
    QExpansion,
    Quad,
    _packed_series,
    build_Up_matrix,
    charpoly,
    first_disagreement,
    jordan_structure,
    kernel_vector_check,
    make_qexp,
    op_B,
    op_T,
    op_U,
    op_t,
    verify_coefficient_identity,
    verify_relations,
)
from oracles import (
    PolyQ,
    coeffwise_first_disagreement,
    coeffwise_op_B,
    coeffwise_op_t,
    coeffwise_op_U,
    divisors,
    eta_product_level11,
    formal_eigenform,
    fraction_verify_relations,
    hecke_T_formula,
    horner_packed_series,
    per_trial_coefficient_identity,
    random_series,
)

F = Fraction


# -- coefficient rings --------------------------------------------------------


def test_quad_arithmetic():
    a = Quad(5, 1, 2)  # 1 + 2 sqrt(5)
    b = Quad(5, 3, -1)
    assert a + b == Quad(5, 4, 1)
    assert a * b == Quad(5, 3 - 10, 6 - 1)
    assert a - a == 0
    assert (a * a.inv()) == 1
    assert a / a == 1
    assert 2 * a == Quad(5, 2, 4)
    assert a / 2 == Quad(5, F(1, 2), 1)
    assert Quad(5, F(3, 2)) == F(3, 2)
    with pytest.raises(ValueError):
        a + Quad(7, 1)
    with pytest.raises(ZeroDivisionError):
        Quad(5, 0, 0).inv()


def test_quad_refuses_a_square_radicand():
    for disc in (0, 1, 4, 9, 10**12):
        with pytest.raises(ValueError, match="square"):
            Quad(disc, 0, 1)
    assert Quad(-4, 0, 1) * Quad(-4, 0, 1) == -4  # -4 is no square


def test_quad_refuses_a_non_integer_radicand():
    # Quad(-2.5, 1, 1) squared printed -3/2 + 2*sqrt(-2.5)
    for disc in (-2.5, F(-5, 2), F(-3), 2.0):
        with pytest.raises(ValueError, match="integer"):
            Quad(disc, 1, 1)


def test_quad_compares_by_value_across_square_factors():
    # sqrt(-28) = 2 sqrt(-7), so both are 1 + sqrt(-7)
    a, b = Quad(-28, 1, F(1, 2)), Quad(-7, 1, 1)
    assert a == b and hash(a) == hash(b)
    assert a + b == Quad(-7, 2, 2) and b + a == Quad(-28, 2, 1)
    assert a * b == Quad(-7, -6, 2) == b * a
    assert a - b == 0 and a / b == 1
    assert Quad(8, 0, F(1, 2)) == Quad(2, 0, 1) and Quad(-8, 0, F(1, 2)) == Quad(-2, 0, 1)
    assert Quad(5, 1, 1) != Quad(5, 1, -1)
    assert Quad(5, 0, 1) != Quad(-5, 0, 1)
    assert len({Quad(-7, 1, 1), Quad(-28, 1, F(1, 2)), Quad(-63, 1, F(1, 3))}) == 1
    with pytest.raises(ValueError, match="different quadratic fields"):
        Quad(-7, 0, 1) + Quad(7, 0, 1)
    with pytest.raises(ValueError, match="different quadratic fields"):
        Quad(2, 0, 1) * Quad(6, 0, 1)


def test_polyq_arithmetic():
    y = PolyQ.gen()
    p = y * y - 3 * y + 2
    assert p == PolyQ((2, -3, 1))
    assert p / 2 == PolyQ((1, F(-3, 2), F(1, 2)))
    assert (y - 1) * (y - 2) == p
    assert PolyQ(0) == 0 and not PolyQ(()).c
    assert (y + 1) - y == 1


def test_dirichlet_characters():
    triv = DirichletCharacter(6)
    assert [triv(n) for n in range(1, 7)] == [1, 0, 0, 0, 1, 0]
    chi = DirichletCharacter.quadratic(-4)
    values = [chi(n) for n in range(1, 9)]
    assert values == [1, 0, -1, 0, 1, 0, -1, 0]
    assert chi(-1) == -1  # odd
    # multiplicative on units, period = modulus
    for a in range(1, 20):
        for b in range(1, 20):
            assert chi(a * b) == chi(a) * chi(b)
        assert chi(a) == chi(a + 4)
    with pytest.raises(ValueError):
        DirichletCharacter.quadratic(3)  # 3 = 3 mod 4: not fundamental


def test_quadratic_character_refuses_a_disc_that_is_not_fundamental():
    # each is 0 or 1 mod 4, but has a square factor (4m with m = 0 or 1 mod 4)
    for disc in (4, 9, 16, 20, -16, 25, -12 * 4, 8 * 9):
        with pytest.raises(ValueError, match="fundamental"):
            DirichletCharacter.quadratic(disc)
    for disc in QUADRATIC_DISCS + [-15, 24, -24, 28, -20, 1]:
        DirichletCharacter.quadratic(disc)


def test_character_refuses_a_disc_that_does_not_divide_its_modulus():
    # (5|.) "mod 3" had chi(1) = 1 but chi(7) = -1: no character mod 3
    with pytest.raises(ValueError, match="does not divide the modulus 3"):
        DirichletCharacter(3, 5)
    with pytest.raises(ValueError, match="does not divide"):
        DirichletCharacter(12, -8)
    # a multiple of |disc| keeps the period of the modulus
    for modulus, disc in ((15, 5), (24, -8), (12, -3), (28, -7)):
        chi = DirichletCharacter(modulus, disc)
        assert all(chi(n) == chi(n + modulus) for n in range(-40, 40)), (modulus, disc)


# -- operators ---------------------------------------------------------------


def test_op_B_example():
    f = make_qexp([1, 0, 1], order=8)  # q + q^3
    g = op_B(2, f)
    assert g.coeffs == (0, 1, 0, 0, 0, 1, 0, 0)  # q^2 + q^6


def test_op_U_example():
    f = make_qexp([1, 5, 0, 7], order=8)
    g = op_U(2, f)
    assert g.coeffs[:2] == (5, 7)
    assert g.reliable == 4


def test_op_t_example():
    # weight 2, trivial character: coefficient of q^3 in t_3 f is a_9 + 3 a_1
    rng = random.Random(3)
    f = random_series(rng, 30)
    g = op_t(3, f)
    assert g.raw(3) == f.raw(9) + 3 * f.raw(1)
    assert g.reliable == 10


def test_reliability_bookkeeping():
    f = make_qexp([1] * 20, reliable=12)
    assert op_B(3, f).reliable == 20  # min(T, 3*12)
    assert op_B(2, make_qexp([1] * 20, reliable=4)).reliable == 8
    assert op_t(5, f).reliable == 2
    assert op_U(2, f).reliable == 6


def test_coeff_guard():
    f = make_qexp([1, 2, 3], reliable=2)
    assert f.coeff(2) == 2
    with pytest.raises(ValueError):
        f.coeff(3)


def test_series_linearity_of_operators():
    rng = random.Random(9)
    f, g = random_series(rng, 40), random_series(rng, 40)
    a, b = F(3, 2), F(-5, 7)
    for op in (lambda h: op_B(3, h), lambda h: op_t(2, h), lambda h: op_U(5, h)):
        lhs = op(a * f + b * g)
        rhs = a * op(f) + b * op(g)
        assert first_disagreement(lhs, rhs) is None


def test_verify_relations_all_pass():
    report = verify_relations(order=64, trials=6, seed=42)
    assert report.all_passed, [c for c in report.checks if not c.passed]
    assert report.witness_found  # t_3 B_3 != B_3 t_3
    names = {c.name for c in report.checks}
    assert len(names) == 7


def test_verify_relations_rejects_tiny_order():
    with pytest.raises(ValueError):
        verify_relations(order=4)


@pytest.mark.parametrize("trials", [0, -1])
def test_relation_checks_need_a_trial(trials):
    with pytest.raises(ValueError, match="trials must be >= 1"):
        verify_relations(order=20, trials=trials)
    with pytest.raises(ValueError, match="trials must be >= 1"):
        verify_coefficient_identity(trials=trials)


# -- slice kernels and the integer relation suite against their oracles ---------


# fundamental discriminants for the quadratic characters
QUADRATIC_DISCS = [-8, -7, -4, -3, 5, 8, 12, 13]


def characters():
    return st.one_of(
        st.integers(1, 12).map(DirichletCharacter),
        st.sampled_from(QUADRATIC_DISCS).map(DirichletCharacter.quadratic),
    )


@st.composite
def coefficients(draw, ring, disc):
    small = st.integers(-9, 9)
    if ring is int:
        return draw(small)
    if ring is Fraction:
        return Fraction(draw(small), draw(st.integers(1, 6)))
    if ring is Quad:
        return Quad(disc, Fraction(draw(small), draw(st.integers(1, 4))), draw(small))
    return PolyQ(draw(st.lists(small, max_size=3)))


# Series over int, Fraction, Q(sqrt(disc)) or Q[y], with unreliable tail
# coefficients (R < T) so that the kernels' out-of-range reads show.
@st.composite
def qexpansions(draw, max_order=40):
    ring = draw(st.sampled_from([int, Fraction, Quad, PolyQ]))
    disc = draw(st.sampled_from([-3, -1, 2, 5]))
    order = draw(st.integers(1, max_order))
    coeffs = draw(st.lists(coefficients(ring, disc), min_size=order, max_size=order))
    reliable = draw(st.integers(0, order - 1))
    return QExpansion(tuple(coeffs), reliable, draw(st.integers(1, 6)), draw(characters()))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(qexpansions(), st.integers(1, 45), st.sampled_from([2, 3, 5, 7, 11, 13, 43]))
def test_kernels_match_coeffwise_oracle(f, d, p):
    assert op_B(d, f) == coeffwise_op_B(d, f)
    assert op_U(p, f) == coeffwise_op_U(p, f)
    assert op_t(p, f) == coeffwise_op_t(p, f)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(qexpansions(max_order=60), st.data())
def test_op_T_matches_closed_formula(f, data):
    n = data.draw(st.integers(1, max(1, f.reliable)))
    g = op_T(n, f)
    assert g.reliable == f.reliable // n
    for m in range(1, g.reliable + 1):
        assert g.coeff(m) == hecke_T_formula(n, f, m)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(qexpansions(), st.data())
def test_first_disagreement_matches_coeffwise_oracle(f, data):
    changed = data.draw(st.sets(st.integers(1, f.order), max_size=3))
    g = QExpansion(
        tuple(c + 1 if n in changed else c for n, c in enumerate(f.coeffs, 1)),
        data.draw(st.integers(0, f.order)), f.weight, f.eps,
    )
    assert first_disagreement(f, g) == coeffwise_first_disagreement(f, g)
    assert first_disagreement(g, f) == coeffwise_first_disagreement(g, f)
    assert first_disagreement(f, f) is None


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.integers(1, 80) | st.sampled_from([1, 8, 37, 300]), st.integers(0, 10**6),
       st.integers(1, 6), characters())
def test_integral_series_is_lcm_times_random_series(order, seed, weight, eps):
    assert SERIES_DENOMINATOR_LCM == lcm(*range(1, 13))
    rng_int, rng_frac = random.Random(seed), random.Random(seed)
    f = _packed_series(rng_int, 1, 24, order, weight, eps)
    assert all(type(c) is int for c in f.coeffs)
    assert f == SERIES_DENOMINATOR_LCM * random_series(rng_frac, order, weight, eps)
    # a failing block's trials are redrawn from the rng state it started from,
    # which holds only if each draw consumes exactly what random_series does
    assert rng_int.getstate() == rng_frac.getstate()
    assert rng_int.random() == rng_frac.random()  # the same draws were consumed


# sha256 of ",".join(map(str, coeffs)) for the one-trial draw
# _packed_series(Random(seed), 1, 24, order, ...), and the next rng.random()
# after the draw, pinned from the randint draw and checked on CPython 3.10-3.13.  The randint oracle above moves with CPython's
# _randbelow, as the draw does; these figures do not.
SERIES_DIGESTS = [
    (0, 8, "3baaf125bacfcece7c92779fe6b9bd373ef46fc8c2358d738dacd621b4a35ea5", 0.7558042041572239),
    (1, 37, "cc809c14153aaf9beff7a095fb2165fe2b67412635e78f5696e3523d7dc48fad", 0.7974042475543028),
    (6, 300, "d21e1ebb51370eb5a12709967f07916b7b6201bbc58640d581336e03a8bf95eb", 0.7695027444194281),
    (2024, 300, "bb586156a4aff69f94b418631cbd4f34ec01565dd8f04e6b6213e25ede063cc1", 0.249821438332973),
    (10**6, 1000, "02458e2105f59ea89f12c2d730cd6edb679ddd9d2a21e9be48f0d22aa7faaa86", 0.7013997266885114),
]


@pytest.mark.parametrize("seed, order, digest, after", SERIES_DIGESTS,
                         ids=[f"seed{seed}-order{order}" for seed, order, *_ in SERIES_DIGESTS])
def test_integral_series_draw_is_pinned(seed, order, digest, after):
    rng = random.Random(seed)
    coeffs = _packed_series(rng, 1, 24, order, 2, TRIVIAL_CHARACTER).coeffs
    assert hashlib.sha256(",".join(map(str, coeffs)).encode()).hexdigest() == digest
    assert rng.random() == after


# The oracle draws each trial by the randint rule and folds it into the lanes
# whole; the packed draw must give the same block and leave the rng where the
# oracle does, since a failing block is replayed from its start state.  The
# widths are those _packed_series accepts: byte-aligned and holding the draw.
@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.integers(8, 400), st.integers(1, 40), st.sampled_from(range(24, 97, 8)),
       st.integers(0, 10**6), st.integers(1, 6), characters())
def test_packed_series_matches_horner_oracle(order, count, width, seed, weight, eps):
    rng, rng_oracle = random.Random(seed), random.Random(seed)
    got = qexp_hecke._packed_series(rng, count, width, order, weight, eps)
    assert got == horner_packed_series(rng_oracle, count, width, order, weight, eps)
    assert rng.getstate() == rng_oracle.getstate()


@pytest.mark.parametrize("width", [0, 8, 16, 20, 23, 25, 30, 33])
def test_packed_series_refuses_a_width_that_is_unaligned_or_too_narrow(width):
    # every draw n * (L // d) has |n * (L // d)| <= 554400 < 2^20, so 24 is
    # the narrowest byte-aligned width whose lanes hold it
    assert qexp_hecke._SERIES_BOUND == 554400
    with pytest.raises(ValueError, match=f"lane width {width} "):
        qexp_hecke._packed_series(random.Random(0), 2, width, 8, 2, TRIVIAL_CHARACTER)


@settings(derandomize=True, deadline=None, max_examples=50)
@given(st.integers(8, 40), st.integers(1, 4), st.integers(0, 10**6), st.integers(1, 6),
       characters())
def test_verify_relations_matches_fraction_oracle(order, trials, seed, weight, eps):
    got = verify_relations(order, trials, seed, weight, eps)
    assert got.to_json() == fraction_verify_relations(order, trials, seed, weight, eps).to_json()


def _det(rows) -> Fraction:
    """Determinant by Fraction elimination."""
    a = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for c in range(len(a)):
        piv = next((i for i in range(c, len(a)) if a[i][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        for i in range(c + 1, len(a)):
            m = a[i][c] / a[c][c]
            a[i] = [x - m * y for x, y in zip(a[i], a[c])]
    return det


def vanishing_functional(seed, order, count):
    """phi(f) = det of the (count+1)-square matrix whose rows are a_1..a_{count+1}
    of trials 0..count-1 at this seed, then of f: Z-linear in f, zero on those
    trials (at any scale) and, generically, on no later one."""
    rng = random.Random(seed)
    rows = [list(_packed_series(rng, 1, 24, order, 2, TRIVIAL_CHARACTER).coeffs[: count + 1])
            for _ in range(count)]
    cof = [(-1) ** (count + j) * int(_det([r[:j] + r[j + 1 :] for r in rows]))
           for j in range(count + 1)]
    return lambda f: sum(c * a for c, a in zip(cof, f.coeffs))


def planted_first_fault(phi):
    """(f, f + phi(f) x): a linear plant that fails exactly where phi(f) != 0."""
    return ("planted: f = f + phi(f) x", [()], lambda f: (
        f, f + phi(f) * make_qexp([1], order=f.order, weight=f.weight, eps=f.eps)))


def test_planted_false_relations_fail_like_the_oracle(monkeypatch):
    planted = [
        # t_p B_d = B_d t_p without gcd(p, d) = 1
        ("planted: t_p B_d = B_d t_p", [(3, 3), (2, 4)],
         lambda p, d, f: (op_t(p, op_B(d, f)), op_B(d, op_t(p, f)))),
        # phi vanishes on trials 0-2, so the plant first fails at trial 3
        planted_first_fault(vanishing_functional(seed=3, order=40, count=3)),
    ]
    monkeypatch.setattr(qexp_hecke, "_RELATION_SUITE", qexp_hecke._RELATION_SUITE + planted)
    got = verify_relations(order=40, trials=6, seed=3)
    want = fraction_verify_relations(order=40, trials=6, seed=3)
    assert got.to_json() == want.to_json()
    failed = {c.params: c.failure for c in got.checks if not c.passed}
    assert list(failed) == ["(3, 3)", "(2, 4)", "()"]
    assert failed["(3, 3)"] == "trial 0: coefficient 1: -1/2 != 0"
    assert failed["()"].startswith("trial 3: coefficient 1: 1/5 != ")


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.integers(1, 60), st.integers(1, 6), characters(), st.integers(-50, 50), st.data())
def test_relation_suite_sides_are_z_linear(order, weight, eps, c, data):
    ints = st.lists(st.integers(-10**6, 10**6), min_size=order, max_size=order)
    f, g = (QExpansion(tuple(data.draw(ints)), order, weight, eps) for _ in range(2))
    for _, param_list, make in qexp_hecke._RELATION_SUITE:
        for params in param_list:
            sides = zip(make(*params, f + g), make(*params, f), make(*params, g),
                        make(*params, c * f))
            for on_sum, on_f, on_g, on_cf in sides:
                assert on_sum == on_f + on_g
                assert on_cf == c * on_f


@pytest.mark.parametrize("bound", [0, 1, 2, 3, 31, 32, 554400, 2**38 - 1, 2**38, 2**40 - 1, 2**40])
def test_lane_width_is_the_smallest_safe_width(bound):
    # the smallest safe multiple of 8: _packed_series packs whole bytes
    w = qexp_hecke._lane_width(bound)
    assert w % 8 == 0
    assert 2 * bound < 2 ** (w - 1)
    assert w == 8 or 2 * bound >= 2 ** (w - 9)


def _widths(monkeypatch, run) -> list:
    """The lane width of every _first_failures call run makes, none drawn."""
    widths = []

    def record(sides, width, *args):
        widths.append(width)
        return [None] * len(sides)

    monkeypatch.setattr(qexp_hecke, "_first_failures", record)
    run()
    return widths


@pytest.mark.parametrize("order", [8, 30, 300, 20000])
def test_cli_lane_widths_at_weight_2(monkeypatch, order):
    # the relations at --order, then the identity at nmax 30, both in weight 2
    argv = ["qexp", "verify-relations", "--order", str(order), "--trials", "1"]
    assert _widths(monkeypatch, lambda: cli_main(argv)) == [32, 32]


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.integers(8, 400), st.integers(1, 6), characters())
def test_every_lane_width_in_use_is_byte_aligned_and_safe(order, weight, eps):
    cases = [(n, params, make) for n, pl, make in qexp_hecke._RELATION_SUITE for params in pl]
    bounds = [
        qexp_hecke._suite_bound(cases, order, weight),
        qexp_hecke._SERIES_BOUND * max(qexp_hecke._hecke_norm(n, weight) for n in range(1, order + 1)),
    ]
    with pytest.MonkeyPatch.context() as monkeypatch:
        widths = _widths(monkeypatch, lambda: (
            verify_relations(order, 1, 0, weight, eps),
            verify_coefficient_identity(order, 1, 1, weight, eps),
        ))
    for width, bound in zip(widths, bounds, strict=True):
        assert width % 8 == 0
        assert 2 * bound < 2 ** (width - 1)
        assert qexp_hecke._SERIES_BOUND < 2 ** (width - 1)  # the lanes hold the draw
        qexp_hecke._lane_table(width)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.integers(8, 60), st.integers(1, 6), characters(), st.data())
def test_lane_bounds_dominate_every_side(order, weight, eps, data):
    m = qexp_hecke._SERIES_BOUND
    signs = st.lists(st.sampled_from([-m, 0, m]), min_size=order, max_size=order)
    f = QExpansion(tuple(data.draw(signs)), order, weight, eps)
    cases = [(n, params, make) for n, pl, make in qexp_hecke._RELATION_SUITE for params in pl]
    bound = qexp_hecke._suite_bound(cases, order, weight)
    for _, params, make in cases:
        assert all(abs(c) <= bound for side in make(*params, f) for c in side.coeffs)
    for n in range(1, order + 1):
        assert all(abs(c) <= m * qexp_hecke._hecke_norm(n, weight) for c in op_T(n, f).coeffs)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(st.integers(8, 40), st.integers(1, 4), st.data(), st.integers(0, 10**6),
       st.integers(1, 6), characters())
def test_blocked_relations_match_fraction_oracle(order, size, data, seed, weight, eps):
    trials = data.draw(st.integers(3 * size, 30))  # at least three blocks of `size`
    with mock.patch.object(qexp_hecke, "_LANE_BUDGET", size * order):
        got = verify_relations(order, trials, seed, weight, eps)
    assert got.to_json() == fraction_verify_relations(order, trials, seed, weight, eps).to_json()


def test_plant_failing_in_the_last_block(monkeypatch):
    order, trials, seed = 40, 10, 7
    monkeypatch.setattr(qexp_hecke, "_LANE_BUDGET", 3 * order)  # blocks 0-2, 3-5, 6-8, 9
    planted = [planted_first_fault(vanishing_functional(seed, order, count=trials - 1))]
    monkeypatch.setattr(qexp_hecke, "_RELATION_SUITE", qexp_hecke._RELATION_SUITE + planted)
    got = verify_relations(order, trials, seed)
    assert got.to_json() == fraction_verify_relations(order, trials, seed).to_json()
    failed = [c.failure for c in got.checks if not c.passed]
    assert len(failed) == 1 and failed[0].startswith("trial 9: coefficient 1: ")


def test_side_that_is_not_z_linear_is_refused(monkeypatch):
    # zero on every single trial (|a_1(L f)| < 2^40), nonzero on a packed block
    planted = [("planted: a_1 >> 40 = 0", [()], lambda f: (
        f, f + (int(abs(f.raw(1))) >> 40) * make_qexp([1], order=f.order)))]
    monkeypatch.setattr(qexp_hecke, "_RELATION_SUITE", qexp_hecke._RELATION_SUITE + planted)
    assert fraction_verify_relations(order=40, trials=6, seed=3).all_passed
    with pytest.raises(RuntimeError, match="not Z-linear"):
        verify_relations(order=40, trials=6, seed=3)


def test_op_T_identity_and_examples():
    rng = random.Random(17)
    f = random_series(rng, 120)
    assert op_T(1, f) == f
    assert op_T(6, f).coeff(1) == f.raw(6)
    # T_9 = t_3 t_3 - 3 Id in weight 2, trivial character
    t9 = op_T(9, f)
    direct = op_t(3, op_t(3, f)) - 3 * f
    assert first_disagreement(t9, direct) is None
    assert t9.coeff(1) == f.raw(9)


def test_op_T_with_level_character():
    eps = DirichletCharacter(6)
    rng = random.Random(23)
    f = random_series(rng, 60, weight=2, eps=eps)
    # eps(2) = 0, so T_2 degenerates to U_2
    assert first_disagreement(op_T(2, f), op_U(2, f)) is None
    for n in range(1, 21):
        assert op_T(n, f).coeff(1) == f.raw(n)


def test_coefficient_identity_report():
    rep = verify_coefficient_identity(nmax=30, trials=3, seed=5)
    assert rep.passed, rep.failure


def test_coefficient_identity_refuses_an_empty_range():
    # nmax below 1 compares no coefficient, so it is no pass
    for nmax in (0, -3):
        with pytest.raises(ValueError, match="nmax must be >= 1"):
            verify_coefficient_identity(nmax=nmax, trials=2)
    assert verify_coefficient_identity(nmax=1, trials=2).passed


@settings(derandomize=True, deadline=None, max_examples=30)
@given(st.integers(1, 40), st.integers(1, 12), st.integers(0, 10**6),
       st.integers(1, 6), characters(), st.integers(1, 4))
def test_coefficient_identity_matches_per_trial_oracle(nmax, trials, seed, weight, eps, size):
    with mock.patch.object(qexp_hecke, "_LANE_BUDGET", size * nmax):
        got = verify_coefficient_identity(nmax, trials, seed, weight, eps)
    assert got == per_trial_coefficient_identity(nmax, trials, seed, weight, eps)


def test_planted_hecke_fault_fails_like_the_oracle(monkeypatch):
    order, trials, seed = 30, 8, 11  # the identity draws at nmax = 30
    monkeypatch.setattr(qexp_hecke, "_LANE_BUDGET", 3 * order)  # blocks 0-2, 3-5, 6-7
    phi = vanishing_functional(seed, order, count=4)  # zero on trials 0-3
    exact = qexp_hecke.op_T

    def faulty(n, f):
        g = exact(n, f)
        return g + phi(f) * make_qexp([1], order=f.order, weight=f.weight, eps=f.eps) if n == 7 else g

    monkeypatch.setattr(qexp_hecke, "op_T", faulty)
    got = verify_coefficient_identity(nmax=order, trials=trials, seed=seed)
    assert got == per_trial_coefficient_identity(nmax=order, trials=trials, seed=seed)
    assert got.failure == "trial 4: n=7"


def test_op_T_that_is_not_z_linear_is_refused(monkeypatch):
    # zero on every single trial (|a_1(L f)| < 2^40), nonzero on a packed block
    exact = qexp_hecke.op_T

    def nonlinear(n, f):
        g = exact(n, f)
        return g + (abs(f.raw(1)) >> 40) * make_qexp([1], order=f.order, weight=f.weight, eps=f.eps)

    monkeypatch.setattr(qexp_hecke, "op_T", nonlinear)
    assert per_trial_coefficient_identity(nmax=30, trials=6, seed=3).passed
    with pytest.raises(RuntimeError, match="not Z-linear"):
        verify_coefficient_identity(nmax=30, trials=6, seed=3)


def _count_draws(monkeypatch) -> list:
    """The trial count of every draw, a block's or one replayed trial's."""
    counts = []
    exact = qexp_hecke._packed_series

    def counted(rng, count, *args):
        counts.append(count)
        return exact(rng, count, *args)

    monkeypatch.setattr(qexp_hecke, "_packed_series", counted)
    return counts


def test_no_block_is_drawn_once_every_relation_has_failed(monkeypatch):
    order, trials, seed = 40, 30, 3
    monkeypatch.setattr(qexp_hecke, "_LANE_BUDGET", 3 * order)  # blocks of 3 trials
    # t_3 B_3 = B_3 t_3 fails at trial 0, the suite's only case
    planted = [("planted: t_p B_d = B_d t_p", [(3, 3)],
                lambda p, d, f: (op_t(p, op_B(d, f)), op_B(d, op_t(p, f))))]
    monkeypatch.setattr(qexp_hecke, "_RELATION_SUITE", planted)
    counts = _count_draws(monkeypatch)
    got = verify_relations(order, trials, seed)
    assert [c.failure for c in got.checks] == ["trial 0: coefficient 1: -1/2 != 0"]
    assert counts == [3, 1, 1, 1]  # block 0 and its replay, no later block


def test_no_block_is_drawn_once_the_coefficient_identity_has_failed(monkeypatch):
    order, trials, seed = 30, 30, 11  # the identity draws at nmax = 30
    monkeypatch.setattr(qexp_hecke, "_LANE_BUDGET", 3 * order)  # blocks of 3 trials
    phi = vanishing_functional(seed, order, count=4)  # zero on trials 0-3
    exact = qexp_hecke.op_T

    def faulty(n, f):
        g = exact(n, f)
        return g + phi(f) * make_qexp([1], order=f.order, weight=f.weight, eps=f.eps) if n == 7 else g

    monkeypatch.setattr(qexp_hecke, "op_T", faulty)
    counts = _count_draws(monkeypatch)
    got = verify_coefficient_identity(nmax=order, trials=trials, seed=seed)
    assert got.failure == "trial 4: n=7"
    assert counts == [3, 3, 1, 1, 1]  # blocks 0 and 1 and the replay of block 1


def test_formal_eigenform_is_eigen_everywhere():
    ap = {2: F(-1, 2), 3: F(7, 3), 5: F(2)}
    f = formal_eigenform(60, ap)
    for p in (2, 3, 5, 7):
        tp = op_t(p, f)
        assert first_disagreement(tp, ap.get(p, 0) * f) is None


# -- oldclass matrices --------------------------------------------------------


def test_build_Up_matrix_shapes():
    m2 = build_Up_matrix(CASE_COPRIME, F(3), 1, 2, 1, p=5)
    assert m2 == [[F(3), 1], [-5, 0]]
    m1 = build_Up_matrix(CASE_DIVIDES, F(1), 0, 2, 2)
    assert m1 == [[F(1), 1, 0], [0, 0, 1], [0, 0, 0]]
    with pytest.raises(ValueError):
        build_Up_matrix("weird", 1, 1, 2, 1)
    with pytest.raises(ValueError):
        build_Up_matrix(CASE_COPRIME, 1, 1, 2, 1)  # needs p
    for p in (4, 1, 0, -3):
        with pytest.raises(ValueError, match=f"{p} is not prime"):
            build_Up_matrix(CASE_COPRIME, 1, 1, 2, 3, p=p)


def _poly_mul_coeffs(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_charpoly_symbolic(k):
    # case p coprime to M, symbolic a_p, weight 2 trivial character, p = 7:
    # char poly must be (X^2 - a_p X + 7) X^{k-1}
    y = PolyQ.gen()
    mat = build_Up_matrix(CASE_COPRIME, y, 1, 2, k, p=7)
    got = charpoly(mat)
    expected = [PolyQ(7), -y, PolyQ(1)]
    for _ in range(k - 1):
        expected = _poly_mul_coeffs(expected, [0, 1])
    assert [PolyQ(0) + c for c in got] == [PolyQ(0) + c for c in expected]


def test_charpoly_of_an_integer_matrix_stays_exact():
    # Faddeev-LeVerrier divides the trace by k; an int trace must become a
    # Fraction, never a float
    got = charpoly([[1, 2], [3, 4]])
    assert got == [-2, -5, 1]
    assert all(isinstance(c, (int, Fraction)) for c in got)
    assert all(isinstance(c, (int, Fraction)) for c in charpoly([[1, 1], [1, 0]]))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_charpoly_divides_case_symbolic(k):
    # case p | M: char poly X^k (X - a_p)
    y = PolyQ.gen()
    mat = build_Up_matrix(CASE_DIVIDES, y, 0, 2, k)
    got = charpoly(mat)
    expected = [-y, PolyQ(1)]
    for _ in range(k):
        expected = _poly_mul_coeffs(expected, [0, 1])
    assert [PolyQ(0) + c for c in got] == [PolyQ(0) + c for c in expected]


def test_jordan_census_m1():
    nilp = build_Up_matrix(CASE_DIVIDES, F(0), 0, 2, 3)
    rep = jordan_structure(nilp)
    assert rep.blocks == [(F(0), (4,))]
    m1 = build_Up_matrix(CASE_DIVIDES, F(2), 0, 2, 3)
    rep = jordan_structure(m1)
    assert rep.sizes_for(F(2)) == (1,)
    assert rep.sizes_for(F(0)) == (3,)
    assert sum(len(sizes) for _, sizes in rep.blocks) == 2


def test_jordan_census_m2_distinct_roots():
    # a_p = 1, theta = 2: roots (1 +- sqrt(-7))/2, plus one nilpotent block
    mat = build_Up_matrix(CASE_COPRIME, F(1), 1, 2, 3, p=2)
    rep = jordan_structure(mat)
    alpha = Quad(-7, F(1, 2), F(1, 2))
    beta = Quad(-7, F(1, 2), F(-1, 2))
    assert rep.sizes_for(alpha) == (1,)
    assert rep.sizes_for(beta) == (1,)
    assert rep.sizes_for(F(0)) == (2,)


def test_jordan_census_m2_rational_roots():
    # a_p = 3, theta = 2: roots 1 and 2
    mat = build_Up_matrix(CASE_COPRIME, F(3), 1, 2, 2, p=2)
    rep = jordan_structure(mat)
    assert rep.sizes_for(F(1)) == (1,)
    assert rep.sizes_for(F(2)) == (1,)
    assert rep.sizes_for(F(0)) == (1,)


def test_jordan_census_m2_rational_roots_with_a_denominator():
    # a_p = 7/2, theta = -2: the discriminant 49/4 + 8 = 81/4 is a square
    # with a denominator, so the roots 4 and -1/2 stay rational
    mat = build_Up_matrix(CASE_COPRIME, F(7, 2), -1, 2, 3, p=2)
    rep = jordan_structure(mat)
    assert rep.sizes_for(F(4)) == (1,)
    assert rep.sizes_for(F(-1, 2)) == (1,)
    assert rep.sizes_for(F(0)) == (2,)
    assert sum(len(sizes) for _, sizes in rep.blocks) == 3
    assert not any(isinstance(eig, Quad) for eig, _ in rep.blocks)


def test_jordan_census_m2_radicand_with_a_square_factor():
    # a_p = 2, theta = 2^3: X^2 - 2X + 8 has discriminant -28 = 4 * -7, so
    # the roots 1 +- sqrt(-7) are named over -28 and found by value
    mat = build_Up_matrix(CASE_COPRIME, F(2), 1, 4, 3, p=2)
    rep = jordan_structure(mat)
    assert rep.sizes_for(Quad(-7, 1, 1)) == (1,)
    assert rep.sizes_for(Quad(-7, 1, -1)) == (1,)
    assert rep.sizes_for(F(0)) == (2,)
    assert sum(len(sizes) for _, sizes in rep.blocks) == 3


def test_jordan_census_of_a_25_digit_discriminant_is_fast():
    # a_p = 10^12 + 39, theta = 3: the discriminant a_p^2 - 12 has 25 digits,
    # which the census never factors
    start = time.perf_counter()
    rep = jordan_structure(build_Up_matrix(CASE_COPRIME, F(10**12 + 39), 1, 2, 1, p=3))
    assert time.perf_counter() - start < 1
    assert [sizes for _, sizes in rep.blocks] == [(1,), (1,)]
    assert all(isinstance(root, Quad) for root, _ in rep.blocks)


def test_jordan_census_m2_matches_closed_form():
    # U_p in case M2 has charpoly (X^2 - a_p X + theta) X^{k-1}: each root of
    # the quadratic is a root there and has one block, of size 2 when the
    # two coincide (M4), and 0 has one block of size k - 1 (M3)
    rng = random.Random(24)
    for _ in range(60):
        p, eps, lam, k = rng.choice([2, 3, 5, 7]), rng.choice([-1, 1]), rng.randint(1, 3), rng.randint(1, 6)
        theta = eps * p ** (lam - 1)
        a_p = rng.choice([F(rng.randint(-30, 30), rng.randint(1, 4)), 2 * F(rng.choice([1, -1]) * p ** (lam - 1))])
        rep = jordan_structure(build_Up_matrix(CASE_COPRIME, a_p, eps, lam, k, p=p))
        roots = [root for root, _ in rep.blocks if root != 0]
        assert all(root * root - a_p * root + theta == 0 for root in roots), (a_p, theta)
        want = [(2,)] if a_p * a_p == 4 * theta else [(1,), (1,)]
        assert [rep.sizes_for(root) for root in roots] == want, (a_p, theta)
        assert rep.sizes_for(F(0)) == ((k - 1,) if k > 1 else ())


def test_jordan_census_m2_double_root_is_m4_shape():
    # weight 3, p = 2: theta = 4, a_p = 4 gives a_p^2 = 4 theta, double
    # root 2 in one 2x2 block; matches the canonical M4 form
    mat = build_Up_matrix(CASE_COPRIME, F(4), 1, 3, 3, p=2)
    rep = jordan_structure(mat)
    assert rep.sizes_for(F(2)) == (2,)
    assert rep.sizes_for(F(0)) == (2,)
    # M4: [[a_p/2, 1], [0, a_p/2]] beside a nilpotent block of size k - 1
    canon = [[F(2), 1, 0, 0],
             [0, F(2), 0, 0],
             [0, 0, 0, 1],
             [0, 0, 0, 0]]
    assert jordan_structure(canon).blocks == rep.blocks


def test_jordan_census_m3_canonical():
    # M3: diag(alpha, beta) beside a nilpotent block of size k - 1, k = 4
    canon = [[F(2), 0, 0, 0, 0],
             [0, F(5), 0, 0, 0],
             [0, 0, 0, 1, 0],
             [0, 0, 0, 0, 1],
             [0, 0, 0, 0, 0]]
    rep = jordan_structure(canon)
    assert rep.sizes_for(F(2)) == (1,)
    assert rep.sizes_for(F(5)) == (1,)
    assert rep.sizes_for(F(0)) == (3,)


def test_m4_unreachable_weight2_trivial():
    # a_q^2 = 4q has no integer solution within the Weil bound for prime q
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        for a in range(-14, 15):
            if a * a <= 4 * q:
                assert a * a != 4 * q


# -- kernel vectors on genuine series -----------------------------------------


def test_eta_product_oracle_values():
    a = eta_product_level11(12)
    assert a[:5] == [1, -2, -1, 2, 1]
    assert a[10] == 1  # a_11


def test_kernel_vector_eta_level11():
    coeffs = eta_product_level11(330)
    f = make_qexp(coeffs)
    for p in (2, 3):
        rep = kernel_vector_check(f, p, order=100)
        assert rep.precondition_ok
        assert rep.kernel_ok
        assert not rep.m4_case
        assert rep.passed


def test_kernel_vector_symbolic_eigenform():
    y = PolyQ.gen()
    f = formal_eigenform(300, {5: y})
    rep = kernel_vector_check(f, 5, order=60)
    assert rep.passed


def test_kernel_vector_m4_branch():
    # weight 3: theta = p^2 = 4 at p = 2; a_p = 4 hits a_p^2 = 4 theta
    f = formal_eigenform(240, {2: F(4)}, weight=3)
    rep = kernel_vector_check(f, 2, order=50)
    assert rep.m4_case and rep.m4_ok and rep.passed


def test_kernel_vector_precondition_failure():
    rng = random.Random(1)
    f = make_qexp([1] + [rng.randint(1, 5) for _ in range(199)])
    rep = kernel_vector_check(f, 2, order=40)
    assert not rep.precondition_ok
    assert not rep.passed


def test_kernel_vector_check_refuses_an_empty_order():
    f = formal_eigenform(300, {5: F(1)})
    for order in (0, -1):
        with pytest.raises(ValueError, match="order must be >= 1"):
            kernel_vector_check(f, 5, order=order)
    assert kernel_vector_check(f, 5, order=1).passed


def test_kernel_vector_needs_unit_eps():
    eps = DirichletCharacter(2)
    f = formal_eigenform(60, {2: F(1)}, eps=eps)
    with pytest.raises(ValueError):
        kernel_vector_check(f, 2, order=10)


# -- oldclass block structure --------------------------------------------------


def oldclass_blocks(q, co_level, a_q, case, eps_q=1):
    """U_q on the divisor-indexed basis {B_d f : d | co_level}, q dividing
    co_level, as (m, leads, basis, matrix): q^m is the exact power of q in
    co_level, leads are the divisors of co_level / q^m, the basis groups
    B^{q,d} = {B_d f, B_{dq} f, ..., B_{dq^m} f} lead by lead, and the
    matrix is block diagonal with one copy of build_Up_matrix's
    (m+1)-square block per lead: the block does not depend on d."""
    m, rest = 0, co_level
    while rest % q == 0:
        m, rest = m + 1, rest // q
    leads = divisors(rest)
    basis = [d * q**j for d in leads for j in range(m + 1)]
    block = build_Up_matrix(case, a_q, eps_q, 2, m, p=q)
    n = len(basis)
    size = m + 1
    matrix = [[block[i % size][j % size] if i // size == j // size else 0 for j in range(n)]
              for i in range(n)]
    return m, leads, basis, matrix


def test_oldclass_blocks_counts():
    m, leads, basis, _ = oldclass_blocks(2, 12, F(-1), CASE_COPRIME)
    assert m == 2 and len(leads) == 2  # two blocks of size 3
    assert basis == [1, 2, 4, 3, 6, 12]
    m, leads, _, _ = oldclass_blocks(3, 27, F(1), CASE_DIVIDES)
    assert len(leads) == 1 and m + 1 == 4
    m, leads, _, _ = oldclass_blocks(5, 30, F(2), CASE_COPRIME)
    assert len(leads) == 4 and m + 1 == 2


def _check_blocks_on_series(q, blocks, f):
    # column j of the matrix expresses U_q(B_{basis[j]} f) on the basis
    _, _, basis, matrix = blocks
    basis_series = [op_B(d, f) for d in basis]
    for j, d in enumerate(basis):
        lhs = op_U(q, basis_series[j])
        rhs = 0 * basis_series[0]
        for i, row in enumerate(matrix):
            if row[j] != 0:
                rhs = rhs + row[j] * basis_series[i]
        assert first_disagreement(lhs, rhs) is None, f"column {d}"


def test_oldclass_block_count_is_sigma0():
    # one block per group lead: the divisors of the prime-to-q part, here
    # against the brute-force list of them
    for q in (2, 3, 5, 7, 11):
        for co_level in range(q, 400, q):
            m, leads, basis, matrix = oldclass_blocks(q, co_level, F(1), CASE_COPRIME)
            rest = co_level // q**m
            assert rest % q
            assert leads == [d for d in range(1, rest + 1) if rest % d == 0]
            assert len(basis) == len(matrix) == len(leads) * (m + 1)


def test_oldclass_blocks_match_series_coprime_case():
    f = formal_eigenform(360, {2: F(-1), 3: F(2)})
    _check_blocks_on_series(2, oldclass_blocks(2, 12, F(-1), CASE_COPRIME), f)


def test_oldclass_blocks_match_series_divides_case():
    # eigen-series with eps(2) = 0 behaves like a form whose level the
    # prime divides: U_2 f = a_2 f
    eps = DirichletCharacter(2)
    f = formal_eigenform(360, {2: F(1), 3: F(-2)}, eps=eps)
    assert first_disagreement(op_U(2, f), F(1) * f) is None
    _check_blocks_on_series(2, oldclass_blocks(2, 12, F(1), CASE_DIVIDES, eps_q=0), f)


# -- alternating Jordan basis --------------------------------------------------


def alternating_basis(a_p, k):
    """For p || M, trivial character and a_p = +-1: the basis C = {f,
    B_p f - a_p f, B_{p^2} f - f, B_{p^3} f - a_p f, ...} as columns on
    {f, B_p f, ..., B_{p^k} f}, and the Jordan form J = a_p (+) one nilpotent
    block of size k that U_p takes on it."""
    n = k + 1
    cols = []
    for j in range(n):
        col = [int(i == j) for i in range(n)]
        if j:
            col[0] -= a_p if j % 2 else 1
        cols.append(col)
    jordan = [[int(1 <= i == j - 1) for j in range(n)] for i in range(n)]
    jordan[0][0] = a_p
    return cols, jordan


def conjugates(a_p, k):
    """M1 C == C J, with M1 the top-left (k+1)-square of build_Up_matrix's
    matrix (which needs k >= 1; the corner at k = 0 is [[a_p]])."""
    cols, jordan = alternating_basis(a_p, k)
    n = k + 1
    m1 = [row[:n] for row in build_Up_matrix(CASE_DIVIDES, a_p, 0, 2, max(k, 1))[:n]]
    c_mat = [[cols[j][i] for j in range(n)] for i in range(n)]
    return qexp_hecke._matmul(m1, c_mat) == qexp_hecke._matmul(c_mat, jordan)


def test_jordan_basis_trivial_char():
    assert conjugates(1, 2)
    assert alternating_basis(1, 2) == ([[1, 0, 0], [-1, 1, 0], [-1, 0, 1]],
                                       [[1, 0, 0], [0, 0, 1], [0, 0, 0]])
    assert conjugates(-1, 1)
    assert alternating_basis(-1, 1)[0] == [[1, 0], [1, 1]]  # {f, B_p f + f}
    assert conjugates(1, 0) and conjugates(-1, 0)
    assert alternating_basis(1, 0)[1] == [[1]]


@pytest.mark.parametrize("a_p", [1, -1])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_jordan_basis_verified_grid(a_p, k):
    assert conjugates(a_p, k)


def test_first_disagreement_and_zero_check():
    f = make_qexp([1, 2, 3, 4])
    g = make_qexp([1, 2, 5, 4])
    assert first_disagreement(f, g) == (3, 3, 5)
    assert all(c == 0 for c in (f - f).coeffs)
