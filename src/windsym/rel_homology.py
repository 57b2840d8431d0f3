"""Relative homology of X_0(p^n) presented on Manin symbols, plus cusp classes.

The presentation comes from the exact sequence

    Z[P^1]^sigma x Z[P^1]^tau --phi_1--> Z[P^1] --phi_2--> H_1(X_0(p^n), cusps; Z) --> 0

so the relation space is the span of the sigma-invariant and tau-invariant
submodules.  Those submodules are generated by the orbit sums x + x.sigma and
x + x.tau + x.tau^2 together with the fixed points themselves (an orbit of
size one contributes the point, not twice the point, which is why the
quotient is torsion free).

The relations are a graph.  A sigma-fixed point dies.  A sigma 2-orbit
{x, y} with x < y leaves one generator e_y = -e_x: an edge of a directed
graph whose vertices are the tau orbits, with its head at the orbit of y and
its tail at the orbit of x.  The tau relation of an orbit is then that
vertex's row of the incidence matrix; the graph is the dual graph of the
Farey triangulation of X_0(p^n).  An incidence matrix has rank
V - #components over Z and over every field, so

    relation_rank = #sigma orbits + V - #components

and the quotient is free on the edges outside a spanning forest.  The forest
is grown breadth first from the lowest unvisited vertex, which makes the
basis, and hence every downstream coordinate, reproducible bit for bit.
reduce() solves integer vertex potentials pi along the tree so that
c - delta(pi) vanishes on the tree edges; its values on the other edges are
the coordinates.  They are integers, valid over Q and, read mod l, over
every F_l.

Torsion freeness is certified, not assumed: when the sigma rows and the tau
rows each partition the columns with 0/1 entries, the relation matrix is the
incidence matrix of a bipartite graph (a node per row, an edge per column),
which is totally unimodular, so every nonzero Smith invariant is 1.

The cusp half of the module decides Gamma_0(N)-equivalence of cusps and
applies Hecke correspondences T_r (gcd(r, N) = 1) to cusp classes via the
matrix set {(r/delta, -beta; 0, delta) : delta | r, 0 <= beta < delta}.
"""

from dataclasses import dataclass
from math import gcd

from .arith import divisors, euler_phi, is_prime
from .residue_p1 import P1Table


@dataclass(frozen=True)
class FieldSpec:
    """Coefficient field: the rationals (char 0) or a prime field F_l."""

    char: int

    def __post_init__(self):
        if self.char != 0 and not is_prime(self.char):
            raise ValueError(f"{self.char} is not prime")

    @classmethod
    def rationals(cls) -> "FieldSpec":
        return cls(0)

    @classmethod
    def prime_field(cls, l: int) -> "FieldSpec":
        return cls(l)

    @property
    def label(self) -> str:
        return "Q" if self.char == 0 else f"F{self.char}"


@dataclass(frozen=True)
class RelationSpan:
    """Sparse integer rows spanning Z[P^1]^sigma + Z[P^1]^tau.

    sigma_rows come first: one orbit sum x + x.sigma per two-element orbit
    and one singleton row per sigma-fixed point; tau_rows follow with the
    analogous x + x.tau + x.tau^2 pattern.
    """

    n_cols: int
    sigma_rows: tuple[dict, ...]
    tau_rows: tuple[dict, ...]

    @property
    def rows(self) -> tuple[dict, ...]:
        return self.sigma_rows + self.tau_rows


def invariant_generators(table: P1Table) -> RelationSpan:
    """Orbit-sum generators of the sigma- and tau-invariant submodules."""
    sigma_rows = []
    seen: set[int] = set()
    for x in range(table.size):
        if x in seen:
            continue
        y = table.sigma_perm[x]
        if y == x:
            sigma_rows.append({x: 1})
            seen.add(x)
        else:
            sigma_rows.append({x: 1, y: 1})
            seen.update((x, y))
    tau_rows = []
    seen = set()
    for x in range(table.size):
        if x in seen:
            continue
        y = table.tau_perm[x]
        if y == x:
            tau_rows.append({x: 1})
            seen.add(x)
        else:
            z = table.tau_perm[y]
            row: dict[int, int] = {}
            for v in (x, y, z):
                row[v] = row.get(v, 0) + 1
            tau_rows.append(row)
            seen.update((x, y, z))
    return RelationSpan(table.size, tuple(sigma_rows), tuple(tau_rows))


def _bfs_forest(n_vertices: int, tails: list[int], heads: list[int]) -> list[tuple[int, int, int]]:
    """Breadth-first spanning forest of the multigraph with edges e from
    tails[e] to heads[e], rooted at the lowest vertex of each component.

    Returns (vertex, parent, edge) for every non-root vertex in visiting
    order.  The edges listed are the tree edges, and n_vertices minus their
    number is the number of components.
    """
    adjacent: list[list[int]] = [[] for _ in range(n_vertices)]
    for e, (t, h) in enumerate(zip(tails, heads)):
        adjacent[t].append(e)
        adjacent[h].append(e)
    seen = [False] * n_vertices
    steps = []
    for root in range(n_vertices):
        if seen[root]:
            continue
        seen[root] = True
        queue = [root]
        for u in queue:  # the queue grows while it is read
            for e in adjacent[u]:
                w = heads[e] if tails[e] == u else tails[e]
                if not seen[w]:
                    seen[w] = True
                    steps.append((w, u, e))
                    queue.append(w)
    return steps


class H1Presentation:
    """Integer presentation of H_1(X_0(p^n), cusps) on the graph of tau
    orbits and sigma 2-orbits.

    quotient_dim = |P^1| - relation_rank is the number of edges outside the
    spanning forest; reduce() maps any integer P^1-vector to its integer
    coordinates on those edges.  Immutable after construction.
    """

    def __init__(self, table: P1Table):
        self.table = table
        self.p1_size = size = table.size
        sigma, tau = table.sigma_perm, table.tau_perm
        vertex = [-1] * size
        n_vertices = 0
        for x in range(size):
            if vertex[x] < 0:
                vertex[x] = vertex[tau[x]] = vertex[tau[tau[x]]] = n_vertices
                n_vertices += 1
        # point -> (edge, sign) with e_y = +edge and e_x = -edge; sign 0 dies
        self._edge = [0] * size
        self._sign = [0] * size
        tails: list[int] = []
        heads: list[int] = []
        sigma_orbits = 0
        for x in range(size):
            y = sigma[x]
            if y < x:
                continue
            sigma_orbits += 1
            if y > x:
                self._edge[x] = self._edge[y] = len(tails)
                self._sign[x], self._sign[y] = -1, 1
                tails.append(vertex[x])
                heads.append(vertex[y])
        steps = _bfs_forest(n_vertices, tails, heads)
        in_tree = [False] * len(tails)
        for _, _, e in steps:
            in_tree[e] = True
        self._n_vertices = n_vertices
        self._n_edges = len(tails)
        # pi(w) = pi(u) + c(e) when the tree edge e runs u -> w, minus when w -> u
        self._tree = [(w, u, e, 1 if tails[e] == u else -1) for w, u, e in steps]
        self._free = [(e, heads[e], tails[e]) for e in range(len(tails)) if not in_tree[e]]
        self.relation_rank = sigma_orbits + len(steps)
        self.quotient_dim = len(self._free)

    def reduce(self, coeffs: dict[int, int]) -> list[int]:
        """Integer coordinates of a sparse integer P^1-vector in the quotient
        basis, one per edge outside the spanning forest."""
        c = [0] * self._n_edges
        for i, val in coeffs.items():
            if not 0 <= i < self.p1_size:
                raise ValueError(f"index {i} outside P^1 of size {self.p1_size}")
            if self._sign[i]:
                c[self._edge[i]] += self._sign[i] * val
        pi = [0] * self._n_vertices
        for w, u, e, s in self._tree:
            pi[w] = pi[u] + s * c[e]
        return [c[e] - pi[h] + pi[t] for e, h, t in self._free]

    def summary(self) -> dict:
        """JSON-ready record of the presentation's shape."""
        return {
            "schema": 1,
            "p": self.table.pp.p,
            "n": self.table.pp.n,
            "p1_size": self.p1_size,
            "relation_rank": self.relation_rank,
            "quotient_dim": self.quotient_dim,
        }


def build_presentation(table: P1Table) -> H1Presentation:
    return H1Presentation(table)


def reduce_vector(v, pres: H1Presentation) -> list[int]:
    """Reduce a SymbolVector (or raw index->coefficient dict) to quotient coordinates."""
    coeffs = getattr(v, "coeffs", v)
    vt = getattr(v, "table", None)
    if vt is not None and vt.size != pres.p1_size:
        raise ValueError("vector and presentation are indexed by different tables")
    return pres.reduce(coeffs)


def smith_invariants(rel: RelationSpan) -> list[int]:
    """Nonzero elementary divisors of the relation matrix, by certificate.

    The sigma rows and the tau rows must each partition the columns with
    0/1 entries.  Then each column holds one 1 from each family, so the
    matrix is the incidence matrix of a bipartite graph with a node per row
    and an edge per column.  Such a matrix is totally unimodular: every
    nonzero elementary divisor is 1, and there are #rows - #components of
    them.  Raises ValueError when the pattern does not hold.
    """
    owners = []
    for family, rows in (("sigma", rel.sigma_rows), ("tau", rel.tau_rows)):
        owner = [-1] * rel.n_cols
        for i, row in enumerate(rows):
            for c, v in row.items():
                if v != 1 or not 0 <= c < rel.n_cols or owner[c] >= 0:
                    raise ValueError(f"{family} rows do not partition the columns with 0/1 entries")
                owner[c] = i
        if -1 in owner:
            raise ValueError(f"{family} rows miss column {owner.index(-1)}")
        owners.append(owner)
    n_sigma = len(rel.sigma_rows)
    tree = _bfs_forest(n_sigma + len(rel.tau_rows), owners[0], [n_sigma + i for i in owners[1]])
    return [1] * len(tree)


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
    if len(reps) != sum(euler_phi(gcd(c, n_level // c)) for c in divisors(n_level)):
        raise RuntimeError(f"cusp count of X_0({n_level}) disagrees with sum phi(gcd(c, N/c))")
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


__all__ = [
    "FieldSpec",
    "RelationSpan",
    "H1Presentation",
    "Cusp",
    "invariant_generators",
    "build_presentation",
    "reduce_vector",
    "smith_invariants",
    "cusp_equivalent",
    "cusp_representatives",
    "hecke_cusp_action",
]
