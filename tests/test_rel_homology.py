import hashlib
import random
from array import array
from fractions import Fraction
from operator import lt

import pytest
from hypothesis import given, settings, strategies as st

from windsym import rel_homology
from windsym.bounds_cli import cli_main
from windsym.rel_homology import (
    H1Presentation,
    RelationSpan,
    build_presentation,
    elliptic_point_counts,
    invariant_generators,
    reduce_vector,
    smith_invariants,
)
from windsym.arith import factorize, rank
from windsym.hecke_symbols import winding_image
from windsym.residue_p1 import P1Table, PrimePower
from oracles import (
    Cusp,
    EchelonPresentation,
    apply_mat_to_cusp,
    bruteforce_cusp_equivalent,
    cusp_count_x0,
    cusp_equivalent,
    cusp_representatives,
    eager_permutations,
    fixed_point_shape,
    gamma0_matrices,
    genus_x0,
    get_table,
    hecke_cusp_action,
    orbit_graph_shape,
    prefix_ranks,
    prime_powers,
    sigma1,
    smith_diagonal,
)


def _apply_perm_to_row(row, perm):
    out = {}
    for c, v in row.items():
        out[perm[c]] = out.get(perm[c], 0) + v
    return {c: v for c, v in out.items() if v}


def test_invariant_generators_smallest_case():
    # p = 2: three points 0, 1, oo; sigma swaps 0 <-> oo and fixes 1,
    # tau 3-cycles them.
    table = get_table(2, 1)
    rel = invariant_generators(table)
    assert sorted(tuple(sorted(r.items())) for r in rel.sigma_rows) == [
        ((0, 1), (2, 1)),
        ((1, 1),),
    ]
    assert [tuple(sorted(r.items())) for r in rel.tau_rows] == [((0, 1), (1, 1), (2, 1))]


@pytest.mark.parametrize("p, n", [(2, 1), (11, 1), (3, 3), (5, 2)])
def test_relation_rows_are_invariant_vectors(p, n):
    table = get_table(p, n)
    rel = invariant_generators(table)
    assert len(rel.sigma_rows) <= table.size
    assert len(rel.tau_rows) <= table.size
    for row in rel.sigma_rows:
        assert _apply_perm_to_row(row, table.sigma_perm) == row
    for row in rel.tau_rows:
        assert _apply_perm_to_row(row, table.tau_perm) == row
    # no duplicate rows anywhere
    keys = [tuple(sorted(r.items())) for r in rel.rows]
    assert len(keys) == len(set(keys))


@pytest.mark.parametrize(
    "p, n, qdim",
    [(11, 1, 3), (5, 2, 5), (3, 1, 1)],
)
def test_quotient_dim_examples(p, n, qdim):
    table = get_table(p, n)
    pres = build_presentation(table)
    assert pres.quotient_dim == qdim
    assert pres.quotient_dim == 2 * genus_x0(p**n) + cusp_count_x0(p**n) - 1
    assert pres.relation_rank + pres.quotient_dim == pres.p1_size


@pytest.mark.parametrize("char", [0, 2, 3, 5, 7])
def test_reduce_kills_relations_and_is_well_defined(char):
    table = get_table(13, 1)
    pres = build_presentation(table)

    def coords(vec):  # integer coordinates, read mod char over F_char
        return [x % char if char else x for x in reduce_vector(vec, pres)]

    rel = invariant_generators(table)
    zero = [0] * pres.quotient_dim
    for row in rel.rows:
        assert coords(row) == zero
    v = winding_image(3, table)
    base = coords(v)
    for row in rel.rows[::3]:
        shifted = dict(v.coeffs)
        for c, val in row.items():
            shifted[c] = shifted.get(c, 0) + val
        assert coords(shifted) == base


def test_reduce_linearity_random():
    table = get_table(11, 1)
    pres = build_presentation(table)
    rng = random.Random(5)
    for _ in range(25):
        u = {rng.randrange(12): rng.randint(-5, 5) for _ in range(4)}
        v = {rng.randrange(12): rng.randint(-5, 5) for _ in range(4)}
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        combo = {c: a * u.get(c, 0) + b * v.get(c, 0) for c in set(u) | set(v)}
        lhs = pres.reduce(combo)
        ru, rv = pres.reduce(u), pres.reduce(v)
        assert lhs == [a * x + b * y for x, y in zip(ru, rv)]


def test_reduce_rejects_out_of_range_indices():
    pres = build_presentation(get_table(3, 1))
    with pytest.raises(ValueError):
        pres.reduce({99: 1})


@pytest.mark.parametrize("l", [2, 3, 5, 7])
def test_prime_field_dims_agree_with_rationals(l):
    # all Smith invariants are 1 at these levels, so the echelon dims over
    # F_l and Q must agree with each other and with the integer presentation
    for p, n in [(11, 1), (13, 1), (5, 2)]:
        table = get_table(p, n)
        rel = invariant_generators(table)
        dq = EchelonPresentation(rel, 0).quotient_dim
        dl = EchelonPresentation(rel, l).quotient_dim
        assert dq == dl == build_presentation(table).quotient_dim


def test_smith_diagonal_known_matrices():
    assert smith_diagonal([[1, 0], [0, 1]]) == [1, 1]
    assert smith_diagonal([[0, 0], [0, 0]]) == []
    # det = -8, gcd of entries 2: invariants (2, 4)
    assert smith_diagonal([[2, 4], [6, 8]]) == [2, 4]
    assert smith_diagonal([[2, 0], [0, 3]]) == [1, 6]


@pytest.mark.parametrize("p, n", [(11, 1), (13, 1)])
def test_smith_invariants_all_one(p, n):
    inv = smith_invariants(invariant_generators(get_table(p, n)))
    assert inv and all(v == 1 for v in inv)


def test_smith_certificate_rejects_other_patterns():
    # p = 2: sigma rows {0, 2}, {1}; tau row {0, 1, 2}
    assert smith_invariants(invariant_generators(get_table(2, 1))) == [1, 1]
    for sigma_rows, tau_rows in [
        (({0: 1, 2: 1}, {1: 2}), ({0: 1, 1: 1, 2: 1},)),  # entry 2
        (({0: 1, 2: 1}, {1: 1}), ({0: 1, 1: 1},)),  # tau rows miss column 2
        (({0: 1, 2: 1}, {1: 1, 2: 1}), ({0: 1, 1: 1, 2: 1},)),  # column 2 twice
        (({0: 1, 2: 1}, {1: 1}), ({0: 1, 1: 1, 3: 1},)),  # column out of range
    ]:
        with pytest.raises(ValueError):
            smith_invariants(RelationSpan(3, sigma_rows, tau_rows))


def _differential_levels(rng: random.Random) -> list[tuple[int, int]]:
    """Every prime power up to 100 and a seeded sample of levels between
    400 and 1000, as (p, n)."""
    def prime_powers(lo, hi):
        return [(p, n) for m in range(lo, hi) if len(f := factorize(m)) == 1 for p, n in f.items()]

    return prime_powers(2, 101) + rng.sample(prime_powers(401, 1001), 20)


def _check_counted_shape(table, pres) -> None:
    """The shape H1Presentation counts off sigma against the tree reduce()
    grows, the union-find oracle on the eager permutations, and the genus
    and cusp formulas."""
    p, n = table.pp.p, table.pp.n
    tree_u, _, (free_x, _, _) = pres._forest
    assert len(free_x) == pres.quotient_dim == table.size - pres.relation_rank, (p, n)
    # the tree's edges and the free ones are all the edges
    assert sum(map(lt, range(table.size), table.sigma_perm)) == len(tree_u) + len(free_x)
    assert orbit_graph_shape(p, n) == (pres.relation_rank, pres.quotient_dim, 1), (p, n)
    assert pres.quotient_dim == 2 * genus_x0(p**n) + cusp_count_x0(p**n) - 1, (p, n)


def test_forest_against_echelon_oracle():
    rng = random.Random(2)
    levels = _differential_levels(rng)
    assert len(levels) >= 50
    assert {(2, 1), (3, 1), (2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (7, 2)} <= set(levels)
    for p, n in levels:
        table = get_table(p, n)
        pres = build_presentation(table)
        rel = invariant_generators(table)
        assert pres.relation_rank + pres.quotient_dim == table.size
        _check_counted_shape(table, pres)
        for row in rel.rows:
            assert not any(pres.reduce(row)), (p, n, row)
        v = {rng.randrange(table.size): rng.randint(-9, 9) for _ in range(5)}
        shifted = dict(v)
        for _ in range(5):
            row, k = rng.choice(rel.rows), rng.randint(-3, 3)
            for c, val in row.items():
                shifted[c] = shifted.get(c, 0) + k * val
        assert pres.reduce(shifted) == pres.reduce(v), (p, n)
        images = [winding_image(i, table).coeffs for i in range(1, 7)]
        rows = [pres.reduce(im) for im in images]
        for char in (0, 2, 3, 5, 7):
            oracle = EchelonPresentation(rel, char)
            assert pres.quotient_dim == oracle.quotient_dim, (p, n, char)
            ranks = [rank(rows[:k], char) for k in range(1, 7)]
            assert ranks == prefix_ranks([oracle.reduce(im) for im in images], char), (p, n, char)
        if table.size <= 400:
            dense = [[row.get(c, 0) for c in range(rel.n_cols)] for row in rel.rows]
            assert smith_invariants(rel) == smith_diagonal(dense), (p, n)


# sha256 of repr(reduce(T_i{0,oo})) for i = 1..6, concatenated, pinned from
# the adjacency-list presentation before the flat-array one replaced it
REDUCE_DIGESTS = {
    (2, 10): "cbe24325161af84021efe397b43bd066e1f4995fc93fe6a52808517dd660dfbe",
    (3, 6): "1aaa3f695ee3f3d0a5c181ea9ab0ba10b2131d8854ebfc6fe27c15a63cb2d3cb",
    (5, 4): "a29ce871d4ee627f2b3de529ce7596cf58ea320f9e1a64387ad7d625af25cf1b",
    (7, 3): "0155fb0b69f6a9749cbe41e42f40587a0863af76e44f3c6cb8570c5aa48f0473",
    (11, 1): "308e711c254670fd023d8a166f00b8797e3c51e91237c15b1bb44b58fd5e7037",
    (101, 1): "d901dc50f94b2393966b0c35946380eebbfa1da0b6c7735dcf79478f0d64f6ef",
    (4201, 1): "77b37523dc6f5cdd276e840d68145d4e88ae6c202ec9b32f4013370d18a6d899",
}


@pytest.mark.parametrize("p, n", REDUCE_DIGESTS, ids=[f"{p}^{n}" for p, n in REDUCE_DIGESTS])
def test_quotient_basis_pinned(p, n):
    table = get_table(p, n)
    pres = build_presentation(table)
    h = hashlib.sha256()
    for i in range(1, 7):
        h.update(repr(pres.reduce(winding_image(i, table).coeffs)).encode())
    assert h.hexdigest() == REDUCE_DIGESTS[p, n]


@st.composite
def small_levels(draw):
    """A level with |P^1| <= 400 and two random integer P^1-vectors."""
    pp = draw(prime_powers(limit=399))
    size = pp.modulus + pp.modulus // pp.p
    vec = st.dictionaries(st.integers(0, size - 1), st.integers(-9, 9), max_size=6)
    return pp, draw(vec), draw(vec), draw(st.integers(-3, 3)), draw(st.integers(-3, 3))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(small_levels())
def test_forest_against_echelon_oracle_random_levels(case):
    pp, u, v, a, b = case
    table = get_table(pp.p, pp.n)
    assert table.size <= 400  # p^n <= 399 keeps p^n + p^(n-1) within 400
    pres = build_presentation(table)
    rel = invariant_generators(table)
    zero = [0] * pres.quotient_dim
    for row in rel.rows:
        assert pres.reduce(row) == zero, row
    combo = {c: a * u.get(c, 0) + b * v.get(c, 0) for c in u.keys() | v.keys()}
    assert pres.reduce(combo) == [a * x + b * y for x, y in zip(pres.reduce(u), pres.reduce(v))]
    images = [winding_image(i, table).coeffs for i in range(1, 7)]
    rows = [pres.reduce(im) for im in images]
    for char in (0, 2, 3, 5, 7):
        oracle = EchelonPresentation(rel, char)
        assert pres.quotient_dim == oracle.quotient_dim, char
        ranks = [rank(rows[:k], char) for k in range(1, 7)]
        assert ranks == prefix_ranks([oracle.reduce(im) for im in images], char), char


@settings(derandomize=True, deadline=None, max_examples=50)
@given(prime_powers(limit=5000))
def test_counted_shape_random_levels(pp):
    table = P1Table(pp)
    pres = H1Presentation(table)
    _check_counted_shape(table, pres)
    oracle = EchelonPresentation(invariant_generators(table), 0)
    assert pres.quotient_dim == oracle.quotient_dim, pp


@settings(derandomize=True, deadline=None, max_examples=50)
@given(prime_powers(limit=5000))
def test_tau_is_shifted_sigma(pp):
    # tau.sigma = +1: tau(a) = sigma(a + 1) on affine a (the point after
    # p^n - 1 is 0), and tau maps the infinite branch into the affine points
    sigma, tau = eager_permutations(pp.p, pp.n)
    m = pp.modulus
    assert tau[: m - 1] == sigma[1:m]
    assert tau[m - 1] == sigma[0]
    assert all(y < m for y in tau[m:])
    nu3 = sum(tau[x] == x for x in range(len(tau)))
    assert nu3 == sum(sigma[a + 1] == a for a in range(m - 1))
    pres = H1Presentation(P1Table(pp))
    assert pres._n_vertices == (len(tau) - nu3) // 3 + nu3


def _check_elliptic_counts(pp) -> None:
    """The counted shape against the fixed-point scan of the permutations."""
    table = P1Table(pp)
    pres = H1Presentation(table)
    nu2, nu3 = elliptic_point_counts(pp)
    assert fixed_point_shape(table) == (nu2, nu3, pres._n_vertices, pres.quotient_dim), pp


def test_elliptic_counts_against_fixed_point_scan():
    levels = [(p, n) for m in range(2, 5000) if len(f := factorize(m)) == 1 for p, n in f.items()]
    assert len(levels) > 600 and {(2, 1), (2, 2), (3, 1), (3, 2), (5, 1), (7, 1)} <= set(levels)
    for p, n in levels:
        _check_elliptic_counts(PrimePower(p, n))


@settings(derandomize=True, deadline=None, max_examples=50)
@given(prime_powers(limit=2 * 10**5))
def test_elliptic_counts_against_fixed_point_scan_random_levels(pp):
    _check_elliptic_counts(pp)


def test_homology_builds_neither_tau_nor_tree(capsys, monkeypatch):
    built = []

    class Spy(H1Presentation):
        def __init__(self, table):
            super().__init__(table)
            built.append(self)

    monkeypatch.setattr(rel_homology, "H1Presentation", Spy)
    assert cli_main(["homology", "--p", "4201", "--l", "3"]) == 0
    capsys.readouterr()
    (pres,) = built
    # the record is counted from the elliptic points: no permutation is read
    assert "sigma_perm" not in vars(pres.table)
    assert "tau_perm" not in vars(pres.table)
    assert "_forest" not in vars(pres)
    pres.reduce({0: 1})
    assert {"sigma_perm", "tau_perm"} <= vars(pres.table).keys() and "_forest" in vars(pres)


def test_forest_arrays_are_4_byte():
    pres = H1Presentation(P1Table(PrimePower(101, 2)))
    tree_u, tree_z, free = pres._forest
    for arr in (tree_u, tree_z, *free):
        assert arr.itemsize == 4
    assert len(tree_u) == pres._n_vertices - 1 and len(free[0]) == pres.quotient_dim


def test_reduce_raises_when_the_graph_splits(monkeypatch):
    table = P1Table(PrimePower(11, 1))
    # with tau the identity every point is its own vertex, and the tree from
    # point 0 reaches only the vertices of 0 and sigma(0)
    monkeypatch.setattr(table, "tau_perm", array("q", range(table.size)))
    pres = H1Presentation(table)
    assert pres.quotient_dim == 3  # the counts read no permutation
    with pytest.raises(RuntimeError, match="reaches 2 of 4"):
        pres.reduce({0: 1})


def test_reduce_raises_when_an_edge_is_missing(monkeypatch):
    table = P1Table(PrimePower(11, 1))
    table.tau_perm  # sliced from the true sigma before it is edited
    # sigma fixing 2 and 5 instead of swapping them drops one edge; the tree
    # still reaches all four tau orbits, and leaves one edge too few free
    sigma = array("i", table.sigma_perm)
    assert (sigma[2], sigma[5]) == (5, 2)
    sigma[2], sigma[5] = 2, 5
    monkeypatch.setattr(table, "sigma_perm", sigma)
    pres = H1Presentation(table)
    with pytest.raises(RuntimeError, match="2 edges outside the tree, but the counts give 3"):
        pres.reduce({0: 1})


# -- cusps ------------------------------------------------------------------


def test_cusp_normalization():
    assert Cusp.of(2, 4) == Cusp(1, 2)
    assert Cusp.of(-3, -6) == Cusp(1, 2)
    assert Cusp.of(5, 0) == Cusp(1, 0)
    assert Cusp.of(-7, 0) == Cusp(1, 0)
    with pytest.raises(ValueError):
        Cusp(2, 4)
    assert str(Cusp(1, 0)) == "oo"


@pytest.mark.parametrize("n_level", range(1, 201))
def test_cusp_count_and_pairwise_inequivalence(n_level):
    reps = cusp_representatives(n_level)
    assert len(reps) == cusp_count_x0(n_level)
    for i, x in enumerate(reps):
        for y in reps[i + 1 :]:
            assert not cusp_equivalent(x, y, n_level)
        assert cusp_equivalent(x, x, n_level)


@pytest.mark.parametrize("n_level", [11, 25, 27])
def test_cusp_equivalence_certified_by_matrix_search(n_level):
    mats = gamma0_matrices(n_level, amax=8, gmax=6, tmax=6)
    reps = cusp_representatives(n_level)
    # images under explicit matrices must test equivalent (and the brute
    # search trivially confirms); distinct representatives must test
    # inequivalent and the search must find no connecting matrix.
    for x in reps:
        for mat in mats[:: max(1, len(mats) // 40)]:
            y = apply_mat_to_cusp(mat, x)
            assert cusp_equivalent(x, y, n_level)
    for i, x in enumerate(reps):
        for y in reps[i + 1 :]:
            assert not bruteforce_cusp_equivalent(x, y, mats)


def test_hecke_cusp_action_examples():
    zero, inf = Cusp.of(0, 1), Cusp.of(1, 0)
    for r in (1, 2):
        for cusp in (zero, inf):
            classes = hecke_cusp_action(11, r, cusp)
            assert len(classes) == 1
            rep, count = classes[0]
            assert cusp_equivalent(rep, cusp, 11)
            assert count == sigma1(r)
    with pytest.raises(ValueError):
        hecke_cusp_action(11, 11, zero)


def test_hecke_cusp_action_total_count():
    for n_level, r in [(11, 6), (25, 4)]:
        classes = hecke_cusp_action(n_level, r, Cusp.of(1, 5))
        assert sum(c for _, c in classes) == sigma1(r)
