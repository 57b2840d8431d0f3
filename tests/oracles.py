"""Independent oracles used by the test suite.

Everything here is deliberately computed by a different route than the
library code it checks: classical genus/cusp-count formulas, brute-force
enumerations, pentagonal-number eta expansions, and exhaustive matrix
searches in Gamma_0(N), the general-purpose sparse echelon and dense
Smith form that the library's graph presentation replaced, the
P1Point/normalize representative format that P1Table.index replaced, the
eager sigma/tau permutations and permutation-driven chain walker that the
on-demand actions replaced, the union-find shape of the orbit graph that
the fixed-point counts replaced, the fixed-point scan of sigma and tau that
the elliptic-point counts replaced, the pointwise tau and sigma calls that
the criterion search's crossing primitive P1Table.cross replaced, the
step-by-step walker that the closed-form chain stops replaced, the
coefficient-by-coefficient q-expansion operators that the slice kernels
replaced, the Fraction-series relation suite that the integer L*f
streaming replaced, the two randint draws per Fraction coefficient that the
integer series draw, one rng._randbelow call per value, replaced
(random_series), the one-trial-at-a-time coefficient identity that lane
packing replaced, the Horner fold of whole drawn trials that the lanes
packed from bytes replaced (horner_packed_series), and the
closed formula for the coefficients of T_n.
It also builds the test inputs of the oldclass checks: eigen-series from
prescribed prime coefficients (formal_eigenform).

It holds as well the code that only the tests run: the Gamma_0(N) cusp
classes and the Hecke action T_r on them (Cusp, cusp_representatives,
cusp_equivalent, hecke_cusp_action), the divisor functions behind them and
the classical counts (divisors, euler_phi, sigma1), and the polynomial ring
over Q of the symbolic characteristic-polynomial checks (PolyQ).
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import eq, lt
from typing import Optional

from hypothesis import strategies as st

from windsym import qexp_hecke
from windsym.arith import factorize, is_prime, kronecker
from windsym.qexp_hecke import (
    SERIES_DENOMINATOR_LCM,
    TRIVIAL_CHARACTER,
    DirichletCharacter,
    QExpansion,
    RelationCheck,
    RelationReport,
    _packed_series,
    make_qexp,
)
from windsym.hecke_symbols import SigmaRSet, winding_image
from windsym.residue_p1 import P1Table, PrimePower
from windsym.winding_paths import (
    CHAIN_A,
    CHAIN_B,
    STOP_LEADING,
    STOP_SIGMA_R,
    STOP_WRAPPED,
)


@lru_cache(maxsize=None)
def get_table(p: int, n: int):
    return P1Table(PrimePower(p, n))


def divisors(n: int) -> list[int]:
    divs = [1]
    for p, e in factorize(n).items():
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def sigma1(n: int) -> int:
    """Sum of divisors."""
    out = 1
    for p, e in factorize(n).items():
        out *= (p ** (e + 1) - 1) // (p - 1)
    return out


def euler_phi(n: int) -> int:
    out = n
    for p in factorize(n):
        out = out // p * (p - 1)
    return out


def cusp_count_x0(n_level: int) -> int:
    """Classical cusp count of X_0(N): sum over d | N of phi(gcd(d, N/d))."""
    return sum(euler_phi(gcd(d, n_level // d)) for d in divisors(n_level))


def genus_x0(n_level: int) -> int:
    """Classical genus formula for X_0(N) via index and elliptic point counts."""
    mu = n_level
    for p in factorize(n_level):
        mu = mu // p * (p + 1)
    if n_level % 4 == 0:
        nu2 = 0
    else:
        nu2 = 1
        for p in factorize(n_level):
            nu2 *= (1 + kronecker(-1, p)) if p != 2 else 1
    if n_level % 9 == 0:
        nu3 = 0
    else:
        nu3 = 1
        for p in factorize(n_level):
            nu3 *= (1 + kronecker(-3, p)) if p != 3 else 1
    g = (
        1
        + Fraction(mu, 12)
        - Fraction(nu2, 4)
        - Fraction(nu3, 3)
        - Fraction(cusp_count_x0(n_level), 2)
    )
    assert g.denominator == 1 and g >= 0
    return int(g)


def p1_size_bruteforce(m: int) -> int:
    """Count classes of pairs (c, d) mod m with gcd(c, d, m) = 1 up to unit
    scaling, by raw orbit enumeration.  Only sane for small m."""
    units = [u for u in range(m) if gcd(u, m) == 1]
    seen: set[tuple[int, int]] = set()
    count = 0
    for c in range(m):
        for d in range(m):
            if gcd(gcd(c, d), m) != 1 or (c, d) in seen:
                continue
            count += 1
            for u in units:
                seen.add((c * u % m, d * u % m))
    return count


def winding_pairs_bruteforce(r: int) -> dict[tuple[int, int], int]:
    """Multiset of (w, t) over all tuples 0 <= v < u, 0 <= w < t, ut - vw = r,
    scanning u and t with generous overshoot (no derived bounds assumed)."""
    out: dict[tuple[int, int], int] = {}
    top = 3 * r
    for u in range(1, top + 1):
        for t in range(1, top + 1):
            for v in range(u):
                for w in range(t):
                    if u * t - v * w == r:
                        out[(w, t)] = out.get((w, t), 0) + 1
    return out


def euler_product(trunc: int) -> list[int]:
    """Coefficients of prod_{n>=1} (1 - q^n) up to q^trunc (pentagonal numbers)."""
    e = [0] * (trunc + 1)
    e[0] = 1
    k = 1
    while k * (3 * k - 1) // 2 <= trunc:
        s = -1 if k % 2 else 1
        g1, g2 = k * (3 * k - 1) // 2, k * (3 * k + 1) // 2
        e[g1] += s
        if g2 <= trunc:
            e[g2] += s
        k += 1
    return e


def _poly_mul(a: list[int], b: list[int], trunc: int) -> list[int]:
    out = [0] * (trunc + 1)
    for i, x in enumerate(a):
        if x == 0 or i > trunc:
            continue
        for j, y in enumerate(b):
            if i + j > trunc:
                break
            if y:
                out[i + j] += x * y
    return out


def eta_product_level11(order: int) -> list:
    """Coefficients a_1..a_order of q prod (1-q^n)^2 (1-q^{11n})^2, the weight-2
    newform of level 11, computed from the pentagonal-number expansion."""
    e = euler_product(order)
    e11 = [0] * (order + 1)
    for i in range(0, order + 1, 11):
        e11[i] = e[i // 11]
    f = _poly_mul(e, e, order)
    f = _poly_mul(f, e11, order)
    f = _poly_mul(f, e11, order)
    # multiply by q: a_n = f_{n-1}
    return [Fraction(f[n - 1]) for n in range(1, order + 1)]


# ---------------------------------------------------------------------------
# Cusps of X_0(N)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Cusp:
    """A cusp a/c of P^1(Q) in lowest terms, c >= 0; infinity is (1, 0)."""

    a: int
    c: int

    def __post_init__(self):
        if gcd(self.a, self.c) != 1:
            raise ValueError("cusp must be in lowest terms")
        if self.c < 0 or (self.c == 0 and self.a != 1):
            raise ValueError("cusp not normalized (want c > 0, or (1, 0))")

    @classmethod
    def of(cls, a: int, c: int) -> "Cusp":
        if a == 0 and c == 0:
            raise ValueError("(0, 0) is not a cusp")
        g = gcd(a, c)
        a, c = a // g, c // g
        if c < 0 or (c == 0 and a < 0):
            a, c = -a, -c
        return cls(a, c)

    def __str__(self):
        return "oo" if self.c == 0 else f"{self.a}/{self.c}"


def cusp_equivalent(x: Cusp, y: Cusp, n_level: int) -> bool:
    """Gamma_0(N)-equivalence of cusps by the standard arithmetic criterion:

    a1/c1 ~ a2/c2 iff s1*c2 == s2*c1 mod gcd(c1*c2, N) where ai*si == 1 (mod ci).
    """
    if n_level < 1:
        raise ValueError("level must be positive")
    g = gcd(x.c * y.c, n_level)
    s1 = _inverse_mod_or_one(x.a, x.c)
    s2 = _inverse_mod_or_one(y.a, y.c)
    return (s1 * y.c - s2 * x.c) % g == 0


def _inverse_mod_or_one(a: int, c: int) -> int:
    if c == 0:
        return 1
    if c == 1:
        return 0
    return pow(a % c, -1, c)


def cusp_representatives(n_level: int) -> list[Cusp]:
    """One representative per Gamma_0(N) cusp class: a/c for c | N with
    a running over units modulo gcd(c, N/c), lifted coprime to c."""
    reps = []
    for c in divisors(n_level):
        g = gcd(c, n_level // c)
        for x in range(g):
            if gcd(x, g) != 1:
                continue
            a = x
            while gcd(a, c) != 1:
                a += g
            reps.append(Cusp.of(a, c))
    return reps


def hecke_cusp_action(n_level: int, r: int, x: Cusp) -> list[tuple[Cusp, int]]:
    """Images of a cusp under the T_r correspondence on X_0(N), classified
    up to Gamma_0(N)-equivalence.

    Applies every matrix (r/delta, -beta; 0, delta) with delta | r and
    0 <= beta < delta; the total image count is sigma_1(r).  Requires
    gcd(r, N) = 1.
    """
    if gcd(r, n_level) != 1:
        raise ValueError(f"r={r} must be coprime to the level {n_level}")
    classes: list[tuple[Cusp, int]] = []
    for delta in divisors(r):
        for beta in range(delta):
            img = Cusp.of((r // delta) * x.a - beta * x.c, delta * x.c)
            for i, (rep, cnt) in enumerate(classes):
                if cusp_equivalent(img, rep, n_level):
                    classes[i] = (rep, cnt + 1)
                    break
            else:
                classes.append((img, 1))
    return classes


def gamma0_matrices(n_level: int, amax: int = 12, gmax: int = 12, tmax: int = 12):
    """Explicit elements of Gamma_0(N) with bounded entries."""
    mats = []
    for g in range(-gmax, gmax + 1):
        c = g * n_level
        if c == 0:
            for a in (1, -1):
                for b in range(-tmax, tmax + 1):
                    mats.append((a, b, 0, a))
            continue
        for a in range(-amax, amax + 1):
            if gcd(a, c) != 1:
                continue
            d0 = pow(a, -1, abs(c))
            for t in range(-tmax, tmax + 1):
                d = d0 + t * abs(c)
                b = (a * d - 1) // c
                assert a * d - b * c == 1
                mats.append((a, b, c, d))
    return mats


def apply_mat_to_cusp(mat, cusp):
    a, b, c, d = mat
    return Cusp.of(a * cusp.a + b * cusp.c, c * cusp.a + d * cusp.c)


def bruteforce_cusp_equivalent(x, y, mats) -> bool:
    return any(apply_mat_to_cusp(m, x) == y for m in mats)


# ---------------------------------------------------------------------------
# Relation matrix by general-purpose elimination
# ---------------------------------------------------------------------------


def _normalize_int_row(row: dict[int, int]) -> dict[int, int]:
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return row
    return {c: v // g for c, v in row.items()}


def echelonize(rows: list[dict[int, int]], n_cols: int, char: int):
    """Leftmost-column echelon form of sparse rows over Q (char 0) or F_l.

    Returns pivots as a list of (column, pivot_value, row_dict) in ascending
    column order.  Over Q the rows are gcd-normalized integer vectors.  Among
    the rows that could serve as pivot for a column the sparsest is taken.
    """
    active: dict[int, dict[int, int]] = dict(enumerate(rows))
    col_rows: dict[int, set[int]] = {}
    for rid, row in active.items():
        for c in row:
            col_rows.setdefault(c, set()).add(rid)
    pivots = []
    for c in range(n_cols):
        cands = col_rows.get(c)
        if not cands:
            continue
        piv = min(cands, key=lambda r: (len(active[r]), r))
        cands.discard(piv)
        prow = active.pop(piv)
        for cc in prow:
            if cc != c:
                col_rows[cc].discard(piv)
        pv = prow[c]
        if char:
            pv_inv = pow(pv, -1, char)
        for rid in list(cands):
            r = active[rid]
            rc = r[c]
            newr: dict[int, int] = {}
            if char:
                f = rc * pv_inv % char
                for cc, v in r.items():
                    newr[cc] = v
                for cc, v in prow.items():
                    nv = (newr.get(cc, 0) - f * v) % char
                    if nv:
                        newr[cc] = nv
                    elif cc in newr:
                        del newr[cc]
            else:
                g = gcd(pv, rc)
                mr, mp = pv // g, rc // g
                for cc, v in r.items():
                    newr[cc] = v * mr
                for cc, v in prow.items():
                    nv = newr.get(cc, 0) - mp * v
                    if nv:
                        newr[cc] = nv
                    elif cc in newr:
                        del newr[cc]
                newr = _normalize_int_row(newr)
            for cc in r.keys() - newr.keys():
                col_rows[cc].discard(rid)
            for cc in newr.keys() - r.keys():
                col_rows.setdefault(cc, set()).add(rid)
            if newr:
                active[rid] = newr
            else:
                del active[rid]
        del col_rows[c]
        pivots.append((c, pv, prow))
    return pivots


class EchelonPresentation:
    """Quotient of Z[P^1] by the relation rows, echelonized over one field.

    The relations are taken as given, with no use of their graph structure:
    every row is eliminated against lower-column pivots, and reduce() returns
    Fractions (over Q) or residues (over F_l) on the non-pivot columns.
    """

    def __init__(self, rel, char: int):
        self.char = char
        self._pivots = echelonize(list(rel.rows), rel.n_cols, char)
        pivot_cols = {c for c, _, _ in self._pivots}
        self.free_cols = [c for c in range(rel.n_cols) if c not in pivot_cols]
        self.quotient_dim = len(self.free_cols)

    def reduce(self, coeffs: dict[int, int]) -> list:
        char = self.char
        v = {c: Fraction(x) if not char else x % char for c, x in coeffs.items()}
        for c, pv, prow in self._pivots:
            if c not in v:
                continue
            f = v.pop(c)
            f = f * pow(pv, -1, char) % char if char else f / pv
            if not f:
                continue
            for cc, val in prow.items():
                if cc != c:
                    nv = v.get(cc, 0) - f * val
                    v[cc] = nv % char if char else nv
        return [v.get(c, 0) for c in self.free_cols]


def prefix_ranks(rows: list[list], char: int) -> list[int]:
    """Rank of rows[:k] for k = 1..len(rows), by Gaussian elimination over Q
    or F_l.

    Over F_l each basis row is scaled to 1 at its pivot.  Over Q a row is
    cleared of denominators and kept primitive: a pivot is eliminated by
    multiplying the row by it and subtracting, and the row is then divided
    by the gcd of its entries, so no fraction is ever formed.
    """
    basis = []  # (pivot column, row)
    ranks = []
    for row in rows:
        if char:
            row = [x % char for x in row]
        else:
            den = lcm(*(x.denominator for x in row))
            row = [int(x * den) for x in row]
        for c, b in basis:
            f = row[c]
            if f:
                if char:
                    row = [(x - f * y) % char for x, y in zip(row, b)]
                else:
                    row = [b[c] * x - f * y for x, y in zip(row, b)]
                    g = gcd(*row)
                    if g > 1:
                        row = [x // g for x in row]
        piv = next((c for c, x in enumerate(row) if x), None)
        if piv is not None:
            if char:
                inv = pow(row[piv], -1, char)
                row = [x * inv % char for x in row]
            basis.append((piv, row))
        ranks.append(len(basis))
    return ranks


def smith_diagonal(a: list[list[int]]) -> list[int]:
    """Nonzero Smith invariants of a dense integer matrix (modified in place)."""
    m = len(a)
    n = len(a[0]) if m else 0
    res = []
    t = 0
    while True:
        pi = pj = -1
        best = 0
        for i in range(t, m):
            for j in range(t, n):
                v = abs(a[i][j])
                if v and (best == 0 or v < best):
                    best, pi, pj = v, i, j
        if pi < 0:
            break
        a[t], a[pi] = a[pi], a[t]
        for row in a:
            row[t], row[pj] = row[pj], row[t]
        while True:
            for i in range(t + 1, m):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                    if a[i][t]:
                        a[t], a[i] = a[i], a[t]
            if any(a[i][t] for i in range(t + 1, m)):
                continue
            for j in range(t + 1, n):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    for row in a:
                        row[j] -= q * row[t]
                    if a[t][j]:
                        for row in a:
                            row[t], row[j] = row[j], row[t]
            if any(a[t][j] for j in range(t + 1, n)):
                continue
            piv = a[t][t]
            bad = next(
                (
                    (i, j)
                    for i in range(t + 1, m)
                    for j in range(t + 1, n)
                    if a[i][j] % piv
                ),
                None,
            )
            if bad is None:
                break
            a[t] = [x + y for x, y in zip(a[t], a[bad[0]])]
        res.append(abs(a[t][t]))
        t += 1
        if t >= min(m, n):
            break
    return res


# Levels for the differential tests of the on-demand actions and the chain
# walks: powers of 2, 3, 5 and 7 (elliptic points, infinite branches of
# every depth) and primes up to about 10^4, a seeded sample among them.
DIFFERENTIAL_LEVELS = (
    [(2, n) for n in (1, 2, 3, 5, 8, 11, 13)]
    + [(3, n) for n in (1, 2, 3, 5, 8)]
    + [(5, n) for n in (1, 2, 3, 5)]
    + [(7, n) for n in (1, 2, 3, 4)]
    + [(p, 1) for p in (11, 13, 101, 211, 1009, 4201, 7919, 9973, 10007)]
    + [(p, 1) for p in sorted(random.Random(3).sample(
        [q for q in range(1000, 10000) if is_prime(q)], 6))]
)


# Levels p^n <= limit for the property tests: p is the largest prime at most
# a draw, with extra weight on 2, 3, 5 and 7 so that deep infinite branches
# come up, or a draw from `primes` when given.
@st.composite
def prime_powers(draw, limit=10**12, primes=None):
    if primes:
        p = draw(st.sampled_from(primes))
    else:
        p = draw(st.one_of(st.sampled_from([2, 3, 5, 7]), st.integers(2, limit)))
        while not is_prime(p):
            p -= 1
    n_max = 1
    while p ** (n_max + 1) <= limit:
        n_max += 1
    return PrimePower(p, draw(st.integers(1, n_max)))


KIND_AFFINE = "affine"
KIND_INFINITE = "infinite"


@dataclass(frozen=True)
class P1Point:
    """One representative: (value, 1) if affine, (1, p*value) on the infinite branch."""

    kind: str
    value: int

    def pair(self, pp: PrimePower) -> tuple[int, int]:
        if self.kind == KIND_AFFINE:
            return (self.value, 1)
        return (1, pp.p * self.value)


def normalize(c: int, d: int, pp: PrimePower) -> Optional[P1Point]:
    """Unique representative of the class (c : d), or None when p | gcd(c, d).

    A pair with p dividing both entries defines no point of P^1; callers
    treat the corresponding symbol as zero.  Total function, never raises.
    """
    m = pp.modulus
    p = pp.p
    c %= m
    d %= m
    if c % p == 0 and d % p == 0:
        return None
    if d % p != 0:
        return P1Point(KIND_AFFINE, c * pow(d, -1, m) % m)
    rp = (d * pow(c, -1, m) % m) // p
    return P1Point(KIND_INFINITE, rp)


def normalized_index(c: int, d: int, pp: PrimePower) -> Optional[int]:
    """Index of the class (c : d) through its P1Point: affine points at their
    residue, the infinite branch after them."""
    pt = normalize(c, d, pp)
    if pt is None:
        return None
    if pt.kind == KIND_AFFINE:
        return pt.value
    return pp.modulus + pt.value


def pointwise_sigma(pp: PrimePower, i: int) -> int:
    """sigma of index i through its P1Point: (w, t).sigma = (-t, w)."""
    m = pp.modulus
    w, t = (P1Point(KIND_AFFINE, i) if i < m else P1Point(KIND_INFINITE, i - m)).pair(pp)
    return normalized_index(-t, w, pp)


def pointwise_tau(pp: PrimePower, i: int) -> int:
    """tau of index i through its P1Point: (w, t).tau = (-t, w + t)."""
    m = pp.modulus
    w, t = (P1Point(KIND_AFFINE, i) if i < m else P1Point(KIND_INFINITE, i - m)).pair(pp)
    return normalized_index(-t, w + t, pp)


@lru_cache(maxsize=None)
def eager_permutations(p: int, n: int) -> tuple[list[int], list[int]]:
    """sigma and tau as dense index permutations, by the eager loop over
    every index that P1Table ran at construction before its actions were
    computed on demand, through normalize."""
    pp = PrimePower(p, n)
    size = pp.modulus + pp.modulus // pp.p
    return ([pointwise_sigma(pp, i) for i in range(size)],
            [pointwise_tau(pp, i) for i in range(size)])


def orbit_graph_shape(p: int, n: int) -> tuple[int, int, int]:
    """(relation_rank, quotient_dim, #components) of the graph of tau orbits
    and sigma 2-orbits, from the eager permutations: orbits by following
    cycles, components by union-find over the edges, and
    relation_rank = #sigma orbits + V - #components."""
    sigma, tau = eager_permutations(p, n)
    size = len(sigma)
    orbit = [-1] * size
    n_vertices = 0
    for x in range(size):
        if orbit[x] < 0:
            y = x
            while orbit[y] < 0:
                orbit[y] = n_vertices
                y = tau[y]
            n_vertices += 1
    root = list(range(n_vertices))

    def find(v):
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    components = n_vertices
    sigma_orbits = 0
    for x in range(size):
        if x <= sigma[x]:
            sigma_orbits += 1
        a, b = find(orbit[x]), find(orbit[sigma[x]])
        if a != b:
            root[a] = b
            components -= 1
    rank = sigma_orbits + n_vertices - components
    return rank, size - rank, components


def fixed_point_shape(table: P1Table) -> tuple[int, int, int, int]:
    """(nu2, nu3, V, quotient_dim) of the graph of tau orbits and sigma
    2-orbits, scanned off the table's dense permutations: the sigma- and
    tau-fixed points, the tau orbits counted at their least point, and the
    edges x < sigma x, on a graph taken as connected."""
    sigma, tau = table.sigma_perm, table.tau_perm
    points = range(table.size)
    nu2 = sum(map(eq, sigma, points))
    nu3 = sum(map(eq, tau, points))
    n_vertices = sum(x <= y and x <= tau[y] for x, y in zip(points, tau))
    edges = sum(map(lt, points, sigma))
    return nu2, nu3, n_vertices, edges - n_vertices + 1


def pointwise_vertex(table: P1Table, z: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(orbit, far) of the vertex entered at z: its tau orbit from z, and the
    sigma image of each orbit point, one P1Table.tau or sigma call a point."""
    a = table.tau(z)
    orbit = (z,) if a == z else (z, a, table.tau(a))
    return orbit, tuple(table.sigma(y) for y in orbit)


def crossing(orbit: tuple[int, ...], far: tuple[int, ...], removed) -> tuple[int, tuple[int, ...]]:
    """P1Table.cross read off a vertex's (orbit, far) as pointwise_vertex
    gives them: the orbit's least point, and the sigma images of the orbit
    points after the first that are no fixed point and whose edge's tail
    is not in removed."""
    return min(orbit), tuple(
        y for z, y in zip(orbit[1:], far[1:]) if y != z and min(y, z) not in removed
    )


def pointwise_cross(table: P1Table, x: int, removed) -> tuple[int, tuple[int, ...]]:
    """P1Table.cross on the pointwise route."""
    return crossing(*pointwise_vertex(table, x), removed)


def sigma_r_union(r: int, table: P1Table) -> SigmaRSet:
    """Sigma_r on the union route: the supports of T_1..T_r{0,oo}, each
    listed afresh for this r, less the leading class (1, r)."""
    members = set().union(*(winding_image(k, table).coeffs for k in range(1, r + 1)))
    leading = table.index(1, r)
    members.discard(leading)
    return SigmaRSet(r, frozenset(members), leading)


def chain_definition(label: str, r: int, m: int) -> tuple[int, int, bool]:
    """(start, step, skip_start_check) of a chain, from its definition."""
    if label == CHAIN_A:
        return (-r - 1) % m, -1, False
    if label == CHAIN_B:
        return pow(r, -1, m), -1, True
    return r * pow(r - 1, -1, m) % m, +1, False


def walk_oracle(label: str, r: int, pp: PrimePower, sigma_r) -> tuple:
    """A chain walk read off the eager permutations: (start, visited,
    interval, stop_reason, stop_index), with the start and direction taken
    from the chain's definition."""
    m = pp.modulus
    sigma_perm, tau_perm = eager_permutations(pp.p, pp.n)
    start, step, skip_start_check = chain_definition(label, r, m)
    inter_perm = sigma_perm if step == -1 else tau_perm

    def classify(idx):
        if idx in sigma_r.members:
            return STOP_SIGMA_R
        if idx == sigma_r.leading_index:
            return STOP_LEADING
        return None

    visited: list[int] = []
    interval: list[int] = []
    a = start
    first = True
    stop_reason, stop_index = STOP_WRAPPED, None
    for _ in range(m + 1):
        if not (first and skip_start_check):
            reason = classify(a)
            if reason:
                stop_reason, stop_index = reason, a
                break
        visited.append(a)
        inter = inter_perm[a]
        reason = classify(inter)
        if reason:
            stop_reason, stop_index = reason, inter
            break
        visited.append(inter)
        interval.append(a)
        a = (a + step) % m
        first = False
        if a == start:
            break
    return start, visited, interval, stop_reason, stop_index


def _classify_stop(idx: int, sigma_r) -> str | None:
    if idx in sigma_r.members:
        return STOP_SIGMA_R
    if idx == sigma_r.leading_index:
        return STOP_LEADING
    return None


def stepwise_walk(
    start_affine: int,
    step: int,
    table: P1Table,
    sigma_r,
    skip_start_check: bool,
) -> tuple:
    """A chain walk taken one step at a time with the on-demand actions,
    as the library walked before it read the stop off Sigma_r in closed
    form: (start, visited, interval, stop_reason, stop_index)."""
    m = table.pp.modulus
    inter_of = table.sigma if step == -1 else table.tau
    visited: list[int] = []
    interval: list[int] = []
    a = start_affine
    first = True
    stop_reason, stop_index = STOP_WRAPPED, None
    for _ in range(m + 1):
        idx = a  # affine residue a has table index a
        if not (first and skip_start_check):
            reason = _classify_stop(idx, sigma_r)
            if reason:
                stop_reason, stop_index = reason, idx
                break
        visited.append(idx)
        inter = inter_of(idx)
        reason = _classify_stop(inter, sigma_r)
        if reason:
            stop_reason, stop_index = reason, inter
            break
        visited.append(inter)
        interval.append(a)
        a = (a + step) % m
        first = False
        if a == start_affine:
            stop_reason, stop_index = STOP_WRAPPED, None
            break
    return start_affine, visited, interval, stop_reason, stop_index


# ---------------------------------------------------------------------------
# q-expansion operators coefficient by coefficient, the relation suite on
# Fraction series with every series drawn before the first check, and the
# coefficient identity one trial at a time
# ---------------------------------------------------------------------------


def coeffwise_first_disagreement(f: QExpansion, g: QExpansion):
    """First n within the shared reliable range where the series differ,
    as (n, f_n, g_n); None when they agree."""
    r = min(f.reliable, g.reliable)
    for n in range(1, r + 1):
        if f.raw(n) != g.raw(n):
            return (n, f.raw(n), g.raw(n))
    return None


def coeffwise_op_B(d: int, f: QExpansion) -> QExpansion:
    """B_d: a_n -> a_{n/d}; reliable order grows to min(T, R*d)."""
    if d < 1:
        raise ValueError("d must be >= 1")
    out = [f.raw(n // d) if n % d == 0 else 0 for n in range(1, f.order + 1)]
    return QExpansion(tuple(out), min(f.order, f.reliable * d), f.weight, f.eps)


def coeffwise_op_t(p: int, f: QExpansion) -> QExpansion:
    """t_p: a_n -> a_{np} + eps(p) p^{lambda-1} a_{n/p}; reliable order R//p."""
    if not is_prime(p):
        raise ValueError(f"t_p needs p prime, got {p}")
    fac = f.eps(p) * p ** (f.weight - 1)
    out = []
    for n in range(1, f.order + 1):
        v = f.raw(n * p)
        if fac and n % p == 0:
            v = v + fac * f.raw(n // p)
        out.append(v)
    return QExpansion(tuple(out), f.reliable // p, f.weight, f.eps)


def coeffwise_op_U(q: int, f: QExpansion) -> QExpansion:
    """U_q: a_n -> a_{nq}; reliable order R//q."""
    if not is_prime(q):
        raise ValueError(f"U_q needs q prime, got {q}")
    out = [f.raw(n * q) for n in range(1, f.order + 1)]
    return QExpansion(tuple(out), f.reliable // q, f.weight, f.eps)


def hecke_T_formula(n: int, f: QExpansion, m: int):
    """a_m(T_n f) = sum over d | gcd(m, n) of eps(d) d^{lambda-1} a_{mn/d^2},
    the closed form of the T_n recursion; reads only a_1..a_{mn}."""
    total = 0
    for d in divisors(gcd(m, n)):
        total = total + f.eps(d) * d ** (f.weight - 1) * f.coeff(m * n // (d * d))
    return total


def random_series(
    rng: random.Random, order: int, weight: int = 2, eps=TRIVIAL_CHARACTER
) -> QExpansion:
    """Coefficients n/d, n and d drawn by rng.randint from -20..20 and
    1..12, n first: the one-trial series qexp_hecke._packed_series draws
    (count 1, width 24) divided by L, by the rule it is meant to keep, with
    the same rng state afterwards."""
    coeffs = [Fraction(rng.randint(-20, 20), rng.randint(1, 12)) for _ in range(order)]
    return QExpansion(tuple(coeffs), order, weight, eps)


def fraction_verify_relations(
    order: int = 200,
    trials: int = 50,
    seed: int = 0,
    weight: int = 2,
    eps: DirichletCharacter = TRIVIAL_CHARACTER,
) -> RelationReport:
    """The relation suite qexp_hecke._RELATION_SUITE (read at call time) on
    Fraction series, all drawn up front and checked relation by relation."""
    if order < 8:
        raise ValueError("order must be >= 8")
    rng = random.Random(seed)
    series = [random_series(rng, order, weight, eps) for _ in range(trials)]
    checks = []
    for name, param_list, make in qexp_hecke._RELATION_SUITE:
        for params in param_list:
            failure = ""
            for i, f in enumerate(series):
                lhs, rhs = make(*params, f)
                bad = coeffwise_first_disagreement(lhs, rhs)
                if bad is not None:
                    failure = f"trial {i}: coefficient {bad[0]}: {bad[1]} != {bad[2]}"
                    break
            checks.append(
                RelationCheck(name, str(params), trials, failure == "", failure)
            )
    witness = coeffwise_first_disagreement(
        coeffwise_op_t(3, coeffwise_op_B(3, make_qexp([1], order=order, weight=weight, eps=eps))),
        coeffwise_op_B(3, coeffwise_op_t(3, make_qexp([1], order=order, weight=weight, eps=eps))),
    )
    return RelationReport(order, trials, seed, checks, witness is not None)


def horner_packed_series(
    rng: random.Random, count: int, width: int, order: int, weight: int, eps
) -> QExpansion:
    """sum_i 2^{width(count-1-i)} L f_i for the count trials f_i that
    random_series draws in turn, folded by Horner one whole trial at a time:
    the block qexp_hecke._packed_series packs from bytes, by the randint
    rule and the shift-and-add it is meant to equal."""
    acc = [0] * order
    for _ in range(count):
        f = random_series(rng, order, weight, eps)
        acc = [(a << width) + int(c * SERIES_DENOMINATOR_LCM) for a, c in zip(acc, f.coeffs)]
    return QExpansion(tuple(acc), order, weight, eps)


def per_trial_coefficient_identity(
    nmax: int = 30,
    trials: int = 10,
    seed: int = 1,
    weight: int = 2,
    eps: DirichletCharacter = TRIVIAL_CHARACTER,
) -> RelationCheck:
    """a_1(T_n f) = a_n(f) for all n <= nmax, one integer series L*f of
    order nmax at a time, as verify_coefficient_identity ran before lane
    packing.  Reads qexp_hecke.op_T at call time, so a planted fault
    reaches both."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = random.Random(seed)
    failure = ""
    for i in range(trials):
        f = _packed_series(rng, 1, 24, nmax, weight, eps)
        for n in range(1, nmax + 1):
            if qexp_hecke.op_T(n, f).coeff(1) != f.raw(n):
                failure = f"trial {i}: n={n}"
                break
        if failure:
            break
    return RelationCheck(
        "a_1(T_n f) = a_n(f)", f"n <= {nmax}", trials, failure == "", failure
    )


class PolyQ:
    """Polynomial over Q in one indeterminate y; supports the ring
    operations plus exact division by nonzero scalars."""

    __slots__ = ("c",)

    def __init__(self, coeffs=()):
        if isinstance(coeffs, (int, Fraction)):
            coeffs = (coeffs,)
        c = [Fraction(x) for x in coeffs]
        while c and c[-1] == 0:
            c.pop()
        self.c = tuple(c)

    @classmethod
    def gen(cls) -> "PolyQ":
        return cls((0, 1))

    def _coerce(self, other):
        if isinstance(other, PolyQ):
            return other
        if isinstance(other, (int, Fraction)):
            return PolyQ(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = max(len(self.c), len(o.c))
        a = list(self.c) + [Fraction(0)] * (n - len(self.c))
        for i, v in enumerate(o.c):
            a[i] += v
        return PolyQ(a)

    __radd__ = __add__

    def __neg__(self):
        return PolyQ([-x for x in self.c])

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self.c or not o.c:
            return PolyQ(())
        out = [Fraction(0)] * (len(self.c) + len(o.c) - 1)
        for i, x in enumerate(self.c):
            for j, y in enumerate(o.c):
                out[i + j] += x * y
        return PolyQ(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)) and other != 0:
            return PolyQ([x / other for x in self.c])
        return NotImplemented

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.c == o.c

    def __hash__(self):
        return hash(self.c)

    def __repr__(self):
        if not self.c:
            return "0"
        terms = []
        for i, v in enumerate(self.c):
            if v == 0:
                continue
            if i == 0:
                terms.append(str(v))
            elif i == 1:
                terms.append(f"{v}*y")
            else:
                terms.append(f"{v}*y^{i}")
        return " + ".join(terms)


def formal_eigenform(
    order: int,
    ap_values: dict,
    weight: int = 2,
    eps: DirichletCharacter = TRIVIAL_CHARACTER,
) -> QExpansion:
    """Normalized series (a_1 = 1) built from prescribed prime coefficients
    by the Hecke recursion and multiplicativity, so t_p f = a_p f holds
    exactly for every prime p (with a_p = 0 where unspecified)."""
    a: list = [0] * (order + 1)
    a[1] = 1
    for n in range(2, order + 1):
        p = min(factorize(n))
        pk, rest = p, n // p
        while rest % p == 0:
            pk *= p
            rest //= p
        if rest > 1:
            a[n] = a[pk] * a[rest]
        elif pk == p:
            a[n] = ap_values.get(p, 0)
        else:
            fac = eps(p) * p ** (weight - 1)
            a[n] = a[p] * a[pk // p] - fac * a[pk // (p * p)]
    return QExpansion(tuple(a[1:]), order, weight, eps)
