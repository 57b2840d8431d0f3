"""Independent oracles used by the test suite.

Everything here is deliberately computed by a different route than the
library code it checks: classical genus/cusp-count formulas, brute-force
enumerations, pentagonal-number eta expansions, and exhaustive matrix
searches in Gamma_0(N), the general-purpose sparse echelon and dense
Smith form that the library's graph presentation replaced, and the eager
sigma/tau permutations and permutation-driven chain walker that the
on-demand actions replaced.
"""

import random
from fractions import Fraction
from functools import lru_cache
from math import gcd

from windsym.arith import divisors, euler_phi, factorize, is_prime, kronecker
from windsym.residue_p1 import KIND_AFFINE, KIND_INFINITE, P1Point, P1Table, PrimePower
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
    from windsym.rel_homology import Cusp

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
    (Fractions) or F_l."""
    basis = []  # (pivot column, row scaled to 1 at the pivot)
    ranks = []
    for row in rows:
        row = [Fraction(x) if not char else x % char for x in row]
        for c, b in basis:
            f = row[c]
            if f:
                row = [x - f * y for x, y in zip(row, b)]
                if char:
                    row = [x % char for x in row]
        piv = next((c for c, x in enumerate(row) if x), None)
        if piv is not None:
            inv = pow(row[piv], -1, char) if char else 1 / row[piv]
            basis.append((piv, [x * inv % char if char else x * inv for x in row]))
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


@lru_cache(maxsize=None)
def eager_permutations(p: int, n: int) -> tuple[list[int], list[int]]:
    """sigma and tau as dense index permutations, by the eager loop over an
    enumerated point list that P1Table ran at construction before its
    actions were computed on demand."""
    pp = PrimePower(p, n)
    table = get_table(p, n)
    m = pp.modulus
    mp = m // pp.p
    points = tuple(
        [P1Point(KIND_AFFINE, r) for r in range(m)]
        + [P1Point(KIND_INFINITE, r) for r in range(mp)]
    )
    sigma_perm = [0] * table.size
    tau_perm = [0] * table.size
    for i, pt in enumerate(points):
        w, t = pt.pair(pp)
        sigma_perm[i] = table.index(-t, w)
        tau_perm[i] = table.index(-t, w + t)
    return sigma_perm, tau_perm


def walk_oracle(label: str, r: int, pp: PrimePower, sigma_r) -> tuple:
    """A chain walk read off the eager permutations: (start, visited,
    interval, stop_reason, stop_index), with the start and direction taken
    from the chain's definition."""
    m = pp.modulus
    sigma_perm, tau_perm = eager_permutations(pp.p, pp.n)
    if label == CHAIN_A:
        start, step, skip_start_check = (-r - 1) % m, -1, False
    elif label == CHAIN_B:
        start, step, skip_start_check = pow(r, -1, m), -1, True
    else:
        start, step, skip_start_check = r * pow(r - 1, -1, m) % m, +1, False
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
