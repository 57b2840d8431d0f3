"""Relative homology of X_0(p^n) presented on Manin symbols.

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

and the quotient is free on the edges outside a spanning forest.  sigma and
tau generate SL_2(Z), which acts transitively on P^1, so the graph has one
component, and its shape is a count of elliptic points: with nu2 the
sigma-fixed and nu3 the tau-fixed points there are (|P^1| - nu2)/2 edges
and V = (|P^1| - nu3)/3 + nu3 vertices.  nu2 and nu3 are the classical
elliptic-point counts of Gamma_0(p^n) (Shimura, Introduction to the
Arithmetic Theory of Automorphic Functions, Prop. 1.43), read off a
Kronecker symbol in O(log p), so the shape reads no permutation (see
elliptic_point_counts).  Only reduce() needs the graph, and no command
runs it: the criterion decides its rank on the few edges the Hecke images
touch (see hecke_symbols), so reduce() now serves the tests, as a second
route to that rank, and the benchmark's traced replay.  Its spanning tree
is grown on the first reduce(), breadth first from the vertex of point 0,
which makes the basis, and hence every downstream coordinate, reproducible
bit for bit; the tree, walked on sigma and tau, must reach every counted
vertex and leave exactly the counted number of edges outside it, or
reduce() raises RuntimeError.  reduce() solves integer vertex potentials pi
along the tree so that c - delta(pi) vanishes on the tree edges; its values
on the other edges are the coordinates.  They are integers, valid over Q
and, read mod l, over every F_l.

Torsion freeness is certified, not assumed: when the sigma rows and the tau
rows each partition the columns with 0/1 entries, the relation matrix is the
incidence matrix of a bipartite graph (a node per row, an edge per column),
which is totally unimodular, so every nonzero Smith invariant is 1.
smith_invariants checks that pattern on invariant_generators' rows, for
the tests; `homology --smith` prints the relation_rank ones it certifies.

The Gamma_0(N) cusp classes and their Hecke action, which only the tests
read, live in tests/oracles.py.
"""

from array import array
from dataclasses import dataclass
from functools import cached_property
from operator import lt

from .arith import kronecker
from .residue_p1 import P1Table, PrimePower


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
    """Orbit-sum generators of the sigma- and tau-invariant submodules, one
    row per orbit at its least point x, in the order of x.  An orbit has one
    point or all of sigma's two or tau's three, so a fixed point's row is
    {x: 1}.

    Kept for the traced replay and the tests' second route (ROADMAP item 8).
    """
    sigma, tau = table.sigma_perm, table.tau_perm
    sigma_rows = tuple({x: 1, sigma[x]: 1} for x in range(table.size) if x <= sigma[x])
    tau_rows = tuple(
        {x: 1, tau[x]: 1, tau[tau[x]]: 1}
        for x in range(table.size)
        if x <= tau[x] and x <= tau[tau[x]]
    )
    return RelationSpan(table.size, sigma_rows, tau_rows)


def elliptic_point_counts(pp: PrimePower) -> tuple[int, int]:
    """(nu2, nu3): the points of P^1(Z/p^n Z) fixed by sigma and by tau.

    sigma fixes the affine a with a^2 = -1 and tau those with
    a^2 + a + 1 = 0 (mod p^n); neither fixes a point of the infinite branch,
    which each maps into the affine points.  When p does not divide the
    discriminant (-4 for x^2 + 1, -3 for x^2 + x + 1), each root mod p lifts
    uniquely to every p^n (Hensel), so there are 1 + (-1|p) and 1 + (-3|p)
    of them.  At p = 2 for nu2, and at p = 3 for nu3, the root a = 1 exists
    mod p but lifts to no p^n with n >= 2.
    """
    p, n = pp.p, pp.n
    nu2 = int(n == 1) if p == 2 else 1 + kronecker(-1, p)
    nu3 = int(n == 1) if p == 3 else 1 + kronecker(-3, p)
    return nu2, nu3


class H1Presentation:
    """Integer presentation of H_1(X_0(p^n), cusps) on the graph of tau
    orbits and sigma 2-orbits.

    The shape is counted from the elliptic points alone (see
    elliptic_point_counts): the edges are the (|P^1| - nu2)/2 sigma
    2-orbits, and every tau orbit but the nu3 fixed points has three
    points.  sigma and tau generate SL_2(Z), which acts transitively on
    P^1, so the graph is connected and

        quotient_dim = #edges - V + 1,  relation_rank = |P^1| - quotient_dim.

    So construction is O(log p) at any level and reads no permutation.
    reduce() maps any integer P^1-vector to its integer coordinates on the
    quotient_dim edges outside a spanning tree.  The tree is the only part
    that reads sigma_perm and tau_perm, and so the only part that
    MAX_P1_SIZE limits; it is grown on the first reduce() and cached, and
    the presentation is otherwise immutable.

    Nothing is stored per vertex or per edge beyond flat arrays.  Vertices
    are numbered in visiting order, and an edge is named by its tail, the
    lower point x of its sigma 2-orbit {x, sigma x}.  A vertex reads its (at
    most three) edges off its own points, in increasing tail order, which is
    the order an adjacency list built edge by edge would hold; so the tree
    is the breadth-first one rooted at the vertex of point 0.  It is kept as
    parallel arrays (parent, point of the parent on the tree edge) indexed
    by the vertex it reaches minus one, the edges outside it as (tail, head
    vertex, tail vertex) in tail order.
    """

    def __init__(self, table: P1Table):
        self.table = table
        self.p1_size = size = table.size
        nu2, nu3 = elliptic_point_counts(table.pp)
        self._n_vertices = (size - nu3) // 3 + nu3
        self.quotient_dim = (size - nu2) // 2 - self._n_vertices + 1
        self.relation_rank = size - self.quotient_dim

    @cached_property
    def _forest(self) -> tuple:
        """(tree parents, tree points, (free tails, heads, tail vertices)),
        grown breadth first from the vertex of point 0."""
        size, sigma, tau = self.p1_size, self.table.sigma_perm, self.table.tau_perm
        # 1 at each edge's tail, 2 once the edge is in the tree
        tails = bytearray(map(lt, range(size), sigma))
        vertex = array("i", [-1]) * size  # point -> vertex, -1 until reached
        vertex[0] = vertex[tau[0]] = vertex[tau[tau[0]]] = 0
        entry = array("i", [0])  # vertex -> the point it was reached at
        tree_u, tree_z = array("i"), array("i")
        u = 0
        while u < len(entry):
            a = entry[u]
            b = tau[a]
            # the edges of u that lead to unreached vertices, by tail
            out = []
            for z in (a,) if b == a else (a, b, tau[b]):
                y = sigma[z]
                if vertex[y] < 0:
                    out.append((y if y < z else z, z, y))
            out.sort()
            for x, z, y in out:
                if vertex[y] >= 0:  # an earlier edge of u reached it
                    continue
                ty = tau[y]
                vertex[y] = vertex[ty] = vertex[tau[ty]] = len(entry)
                entry.append(y)
                tree_u.append(u)
                tree_z.append(z)
                tails[x] = 2
            u += 1
        if len(entry) != self._n_vertices:
            raise RuntimeError(
                f"the tree from point 0 reaches {len(entry)} of {self._n_vertices} tau orbits"
            )
        free_x, free_h, free_t = array("i"), array("i"), array("i")
        x = tails.find(1)
        while x >= 0:
            free_x.append(x)
            free_h.append(vertex[sigma[x]])
            free_t.append(vertex[x])
            x = tails.find(1, x + 1)
        if len(free_x) != self.quotient_dim:
            raise RuntimeError(
                f"{len(free_x)} edges outside the tree, but the counts give {self.quotient_dim}"
            )
        return tree_u, tree_z, (free_x, free_h, free_t)

    def reduce(self, coeffs: dict[int, int]) -> list[int]:
        """Integer coordinates of a sparse integer P^1-vector in the quotient
        basis, one per edge outside the spanning tree.

        The edge through a point z carries g[z] = c[sigma z] - c[z] read from
        z's end (a sigma-fixed point cancels itself), so a tree edge from u
        through its point z to w gives pi(w) = pi(u) + g[z], and the
        coordinate of the edge with tail x is g[x] - pi(head) + pi(tail).
        """
        tree_u, tree_z, free = self._forest
        size, sigma = self.p1_size, self.table.sigma_perm
        g = [0] * size
        for i, val in coeffs.items():
            if not 0 <= i < size:
                raise ValueError(f"index {i} outside P^1 of size {size}")
            g[i] -= val
            g[sigma[i]] += val
        pi = [0]  # vertex w > 0 is reached by the tree edge w - 1
        grow = pi.append
        for u, z in zip(tree_u, tree_z):
            grow(pi[u] + g[z])
        return [g[x] - pi[h] + pi[t] for x, h, t in zip(*free)]


# Kept for the traced replay and the tests' second route (ROADMAP item 8).
build_presentation = H1Presentation


def reduce_vector(v, pres: H1Presentation) -> list[int]:
    """Reduce a SymbolVector (or raw index->coefficient dict) to quotient coordinates.

    Kept for the traced replay and the tests' second route (ROADMAP item 8).
    """
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

    Kept for the traced replay and the tests' second route (ROADMAP item 8).
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
    # a union-find over the rows: each column that joins two components
    # removes one, so the joins number #rows - #components
    n_sigma = len(rel.sigma_rows)
    parent = list(range(n_sigma + len(rel.tau_rows)))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]  # path halving
        return v

    joins = 0
    for s, t in zip(*owners):
        a, b = find(s), find(n_sigma + t)
        if a != b:
            parent[a] = b
            joins += 1
    return [1] * joins


__all__ = [
    "RelationSpan",
    "H1Presentation",
    "elliptic_point_counts",
    "invariant_generators",
    "build_presentation",
    "reduce_vector",
    "smith_invariants",
]
