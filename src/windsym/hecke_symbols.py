"""Hecke images of {0, oo} on Manin symbols and the criterion rank test.

T_r{0, oo} is the sum of the classes of (w, t) over all integer tuples
(u, v, w, t) with 0 <= v < u, 0 <= w < t and ut - vw = r, where classes with
p | gcd(w, t) are dropped.  Admissible tuples satisfy u + t - 1 <= r (from
ut - vw >= ut - (u-1)(t-1)), so enumeration is O(r^3) and independent of the
level.

Sigma_r is the set of classes of T_1{0,oo}, ..., T_r{0,oo} less the leading
class (1, r); the written lower bound 0 on the determinant is unreachable
under the strict inequalities, so determinants run over 1..r.  As Sigma_r is
Sigma_{r-1} with (1, r-1) put back, the classes of T_r{0,oo} added and (1, r)
taken out, sigma_r_sets lists each image once: every Sigma_r up to r_max
costs O(r_max^4), as Sigma_{r_max} alone does.

The rank test checks F_l-linear independence of T_1{0,oo}, ..., T_{sd}{0,oo}
in H_1(X_0(p^n), cusps), with s the smallest prime different from p; that
independence is the sufficient criterion ruling out degree-d points of
prime-power order, and it is guaranteed once p^n clears the threshold
C^2 (sd)^6 of windsym.bounds.  It is decided on the few edges S the images
touch, in the graph G of tau orbits and sigma 2-orbits that presents H_1
(see rel_homology), so no dense permutation, spanning tree or quotient
coordinate is built.

The paper's proof reads the rank off one leading class per operator, and
the test reads it the same way.  T_r has coefficient +-1 on its pivot edge
e_r (the loop {0, oo} for r = 1, the edge [1/r | -r] past it), and no T_i
with i < r touches e_r.  This is checked on the images: among the prime
powers below 3000 with d <= 3 it fails at 36 pairs (p^n, d), each with
p^n < sd(sd + 1), the largest 64 at d = 3.  When the two ends of each
pivot edge are joined in G minus S, the rank is sd over Q and over every
F_l, with no elimination.  So the rank takes one of two routes.  Where the
rows are triangular on the pivots, one bidirectional search of e_2..e_sd
(e_1 is a loop), all of S removed, looks for those joins: it crosses each
graph edge by one P1Table.cross call and stops once both ends reach the
region already joined, in 1,075 crossings at 2^13 (d = 1), 10,872 at
p = 266261 (d = 2), 26,761 at p = 1000003 (d = 2) and 49,929 at
p = 3032641 (d = 3).  Where a pivot splits, or the rows are not
triangular, the components of the ends of S are labelled exactly and the
rank is eliminated once per field.

At d = 1 with p odd (imax = 2) S is always the same two edges, read off
the images rather than searched for: T_1 and T_2 touch only the points 0
and 1/2, so S is the loop {0, oo}, whose ends share the tau orbit
{0, -1, oo}, and the pivot e_2 = {1/2, -2}, whose ends never do.  There, in
the guaranteed regime, a walk certificate joins e_2 before any search.  A
path in the graph is a word in the right actions of sigma and tau: from a
point y, the letter A = tau.sigma = [[1, 0], [1, 1]] crosses the edge at
y.tau and the letter B = tau^2.sigma = -[[1, 1], [0, 1]] the edge at
y.tau^2.  The point 1/2 is the bottom row of g = [[0, -1], [1, 2]] in
SL_2(Z), so for gamma = [[a, b], [p^n, d']] in Gamma_0(p^n), with a scanned
outward from p^n/phi, W = +-g^-1 [[1, -1], [0, 1]] gamma g sigma tau^2 has
(1/2).W = (sigma 1/2).tau^2, and when W is nonnegative it is exactly one
word in A and B, read off by Euclid on its rows (its Stern-Brocot path), of
O(log p^n) letters.  Only the first such word is walked; it closes at
every level tried past 4160.  Walking it on P1Table.sigma and tau, the ends
count as joined only if no crossed edge has its tail in S and the last
point lies in the tau orbit of sigma 1/2 = -2, so the walk is its own
certificate and nothing about gamma is trusted.  When it does not close,
the pivots are searched as at any other level, so no output depends on
the walk.  At p = 1000003 the whole criterion makes 92 sigma and tau calls
where the search made 27,861 crossings, and at p = 9999991 102 against
203,064.  Two gates, read off the input, keep it where the search is
costly and the walk closes: below the threshold the search costs a few hundred crossings (about 250 on
average at the odd prime powers in (25, 4160)); at d >= 2 the edges of S
of small height hem the ends in, so most walks do not close (at p = 266261,
3 of the 5 edges between distinct vertices at d = 2 and 10 of 11 at d = 3),
and their failed walks cost more than the crossings the others save (with
up to twelve words per edge, 0.042 s for the search alone, against 0.056 s
and 0.104 s walking first).
"""

from array import array
from dataclasses import dataclass, field as dc_field
from itertools import chain
from math import gcd, isqrt
from typing import Iterator, Optional

from .arith import is_prime, rank
from .bounds import criterion_threshold, regime_threshold
from .residue_p1 import MAX_HECKE_R, P1Table, PrimePower


@dataclass
class SymbolVector:
    """Sparse vector over P^1 indices; no explicit zero entries."""

    table: P1Table
    coeffs: dict[int, int] = dc_field(default_factory=dict)


def admissible_pairs(k: int) -> Iterator[tuple[int, int, int]]:
    """Yield (w, t, multiplicity) over tuples with determinant exactly k.

    Enumeration order: t ascending, w ascending, u ascending with v
    determined.  For w = 0 the determinant forces u = k/t and every
    v in 0..u-1 works, hence multiplicity u.
    """
    for t in range(1, k + 1):
        for w in range(t):
            if w == 0:
                if k % t == 0:
                    yield (0, t, k // t)
            else:
                for u in range(1, k + 2 - t):
                    num = u * t - k
                    if num >= 0 and num % w == 0 and num // w < u:
                        yield (w, t, 1)


def winding_image(r: int, table: P1Table) -> SymbolVector:
    """The vector of T_r{0, oo} in Z[P^1]."""
    if r < 1:
        raise ValueError("r must be >= 1")
    coeffs = {}  # multiplicities are positive, so no sum reaches zero
    for w, t, mult in admissible_pairs(r):
        idx = table.index(w, t)
        if idx is not None:
            coeffs[idx] = coeffs.get(idx, 0) + mult
    return SymbolVector(table, coeffs)


@dataclass(frozen=True)
class SigmaRSet:
    """Classes reachable by T_i{0,oo} for i <= r, minus the leading class (1, r)."""

    r: int
    members: frozenset[int]
    leading_index: int


def sigma_r_sets(table: P1Table, r_min: int, r_max: int) -> Iterator[SigmaRSet]:
    """Sigma_r for r = r_min..r_max in turn: one union grows by the classes
    of T_r{0,oo} alone at each r from 1, so each image is listed once."""
    if r_min < 1:
        raise ValueError("r must be >= 1")
    classes = set()
    for r in range(1, r_max + 1):
        classes.update(winding_image(r, table).coeffs)
        if r >= r_min:
            leading = table.index(1, r)  # 1 is a unit, so (1 : r) is always a point
            yield SigmaRSet(r, frozenset(classes - {leading}), leading)


def sigma_r_set(r: int, table: P1Table) -> SigmaRSet:
    """Sigma_r alone: the one-r case of sigma_r_sets."""
    return next(sigma_r_sets(table, r, r))


def _all_joined(table: P1Table, removed: set[int], tails: list[int], heads: dict[int, int]) -> bool:
    """Whether every edge x -> heads[x] of S, x in tails, has its two ends
    joined in G minus S, the edges whose tails are in removed.

    Each edge is searched from both ends: a ball grows from each, one layer
    at a time on the side with the smaller frontier, and a frontier holds
    the far points of edges not yet crossed.  Crossing an edge names the
    vertex beyond, and lists its other edges, by one P1Table.cross call; a
    ball starts at an end point, whose own edge is in S.  The region J, one
    bit per point, holds the vertices of the first edge's balls and of every
    later edge's balls once they are shown joined to J, so all of J lies in
    one component.  An edge is joined when its balls meet, or when both have
    reached J.  While later edges remain, a ball inside J counts its
    frontier four times over, so the search leans to the side still
    outside, whose ball J then gains for those edges; on the last edge
    both sides weigh alike.  A ball that runs out has swept its whole
    component without the other end: G minus S is split.  Each edge's
    balls are dropped after it.
    """
    cross = table.cross
    region = bytearray((table.size >> 3) + 1)  # J: vertex w is bit w & 7 of byte w >> 3
    seeded = False
    for x in tails:
        shift = 2 if x != tails[-1] else 0  # log2 of the weight of a frontier inside J
        balls, fronts, inside = [], [], [0, 0]
        for k, e in enumerate((x, heads[x])):
            w, far = cross(e, removed)
            balls.append({w})
            fronts.append(far)
            inside[k] = region[w >> 3] >> (w & 7) & 1
        met = balls[0] == balls[1]
        while not (met or inside[0] and inside[1]):
            k = len(fronts[1]) << shift * inside[1] < len(fronts[0]) << shift * inside[0]
            mine, other, outside = balls[k], balls[not k], not inside[k]
            layer = []
            for y in fronts[k]:
                w, far = cross(y, removed)
                if w in mine:
                    continue
                if w in other:
                    met = True
                    break
                mine.add(w)
                layer += far
                if outside and region[w >> 3] >> (w & 7) & 1:
                    inside[k], outside = 1, False
                    if inside[not k]:
                        break
            else:
                if not layer:
                    return False
                fronts[k] = layer
        if not seeded or inside[0] or inside[1]:
            for w in chain(*balls):
                region[w >> 3] |= 1 << (w & 7)
            seeded = True
    return True


def _component_labels(table: P1Table, removed: set[int], ends: list[int]) -> list[int]:
    """For each point of ends, the component of G minus the edges whose
    tails are in removed that holds its vertex, numbered from 0 in order of
    first appearance.  Each end's own edge must be in removed.

    One breadth-first search, on P1Table.cross, sweeps each component that
    holds an end, so this costs O(|P^1|) when a component is large; the
    caller's size limit bounds it.
    """
    cross = table.cross
    label = array("i", [-1]) * table.size  # vertex -> component, -1 until reached
    out, n = [], 0
    for s in ends:
        w, far = cross(s, removed)
        if label[w] < 0:
            label[w] = n
            queue = array("q", far)  # the far points of edges not yet crossed
            for y in queue:  # the queue grows while it is read
                v, far = cross(y, removed)
                if label[v] < 0:
                    label[v] = n
                    queue.extend(far)
            n += 1
        out.append(label[w])
    return out


_Matrix = tuple[tuple[int, int], tuple[int, int]]

# W = P gamma Q for gamma in Gamma_0(p^n), with g = [[0, -1], [1, 2]] in
# SL_2(Z), whose bottom row (1, 2) is the point 1/2: P = g^-1 [[1, -1], [0, 1]]
# takes 1/2 to (0 : 1), which gamma fixes, and Q = g sigma tau^2 takes
# (0 : 1) to (sigma 1/2).tau^2
_P = ((2, -1), (-1, 1))
_Q = ((-1, 1), (1, -2))
_WALK_SCAN = 64  # values of a tried


def _mul(x: _Matrix, y: _Matrix) -> _Matrix:
    (a, b), (c, d) = x
    (e, f), (g, h) = y
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


def _letters(w: _Matrix, cap: int) -> Optional[list[int]]:
    """The word in A = [[1, 0], [1, 1]] (0) and B = [[1, 1], [0, 1]] (1)
    equal to +-w, first letter first, or None when neither w nor -w is
    nonnegative or the word has more than cap letters.  A nonnegative
    matrix of determinant 1 other than I has one row at least the other
    entrywise, so it is A w' or B w' with w' nonnegative: the word is
    unique, its Stern-Brocot path."""
    (a, b), (c, d) = w
    if min(a, b, c, d) < 0:
        a, b, c, d = -a, -b, -c, -d
        if min(a, b, c, d) < 0:
            return None
    out = []
    while b or c:
        if len(out) == cap:
            return None
        if c >= a and d >= b:
            out.append(0)
            c, d = c - a, d - b
        else:
            out.append(1)
            a, b = a - c, b - d
    return out


def _first_word(m: int) -> Optional[list[int]]:
    """The first word W in A and B with 1/2.W = (sigma 1/2).tau^2 at level
    m = p^n, p odd, or None: W = +-P gamma Q for gamma = [[a, b], [m, d]] in
    Gamma_0(m), taken where W is nonnegative, with at most 4 log2(m) + 8
    letters.  a runs outward from floor(m/phi) over _WALK_SCAN values, so
    m/a has small partial quotients at first and the words are short."""
    cap = 4 * m.bit_length() + 8
    a0 = (isqrt(5 * m * m) - m) // 2
    for k in range(_WALK_SCAN):
        a = a0 + (k + 1) // 2 * (-1) ** k
        if gcd(a, m) != 1:
            continue
        d = pow(a, -1, m)
        word = _letters(_mul(_mul(_P, ((a, (a * d - 1) // m), (m, d))), _Q), cap)
        if word is not None:
            return word
    return None


def _walk_joins(table: P1Table, x: int, head: int, removed: set[int]) -> bool:
    """Whether the word of _first_word, walked from x (1/2, whose edge of S
    leads to head) on P1Table.sigma and tau, ends in head's tau orbit having
    crossed no edge whose tail is in removed: a path from x's vertex to
    head's in G minus S.  Letter A crosses the edge at y.tau, letter B the
    edge at y.tau^2."""
    word = _first_word(table.pp.modulus)
    if word is None:
        return False
    sigma, tau = table.sigma, table.tau
    y = x
    for letter in word:
        z = tau(tau(y)) if letter else tau(y)
        y = sigma(z)
        if y != z and min(y, z) in removed:
            return False
    t = tau(head)
    return y in (head, t, tau(t))


def _pivots(table: P1Table, tails: list[int], rows: list[list[int]]) -> Optional[list[int]]:
    """The tails of the pivot edges e_1..e_imax, one per image row, when the
    rows are triangular on them with +-1 pivots, else None.  e_1 is the loop
    {0, oo}, through the class (0 : 1) of T_1{0,oo}; past it e_r is the edge
    [1/r | -r] through T_r's leading class (1 : r).  Row r must be +-1 on
    e_r, and rows 1..r-1 zero there.  This is the paper's leading-class
    argument; it can fail below p^n = imax (imax + 1), where small
    rationals meet mod p^n."""
    column = {x: j for j, x in enumerate(tails)}
    out = []
    for r, row in enumerate(rows, 1):
        x = table.index(0, 1) if r == 1 else table.index(1, r)
        j = column.get(min(x, table.sigma(x)))  # None when sigma fixes x
        if j is None or row[j] not in (1, -1) or any(earlier[j] for earlier in rows[: r - 1]):
            return None
        out.append(tails[j])
    return out


def _span_matrices(pp: PrimePower, imax: int) -> tuple[Optional[list[list[int]]], list[list[int]]]:
    """(cut rows, image rows) of T_1..T_imax{0,oo} over the edges S that
    the images touch, one column per edge in tail order (see
    hecke_span_rank).  The cut rows are None when the pivot edges decide
    the rank, which is then imax over every field, else one row for each of
    the k components of G minus S but the last.

    Two routes.  When _pivots finds the rows triangular with +-1 pivots, a
    pivot edge whose ends are joined in G minus S meets no cut row, so when
    every one is joined the pivot columns alone give rank imax.  At
    imax = 2 (d = 1) with p > 2 (there is no point 1/2 at p = 2), in the
    guaranteed regime p^n >= C^2 imax^6, the walk of _walk_joins from 1/2
    tries the one pivot that is not a loop first (see the module
    docstring); otherwise one _all_joined searches the pivots, with all of
    S removed.  When a pivot is left split, or the rows are not triangular,
    the components are labelled and the cut rows built.  The integers
    serve every field.  A level past MAX_P1_SIZE is refused before any
    image or search.
    """
    table = P1Table(pp)
    table.check_size_limit()
    images = [winding_image(i, table).coeffs for i in range(1, imax + 1)]
    heads = {}  # tail x -> sigma x, for the edges of S
    for c in images:
        for z in c:
            y = table.sigma(z)
            if y != z:
                heads[min(y, z)] = max(y, z)
    tails = sorted(heads)
    rows = [[c.get(heads[x], 0) - c.get(x, 0) for x in tails] for c in images]
    removed = set(tails)
    pivots = _pivots(table, tails, rows)
    if pivots:
        if imax == 2 and pp.p > 2 and pp.modulus >= regime_threshold(pp.p, imax):
            half = (pp.modulus + 1) // 2  # the point 1/2, the tail of the one bridge
            if _walk_joins(table, half, heads[half], removed):
                return None, rows
        if _all_joined(table, removed, pivots[1:], heads):  # e_1 is a loop
            return None, rows
    label = _component_labels(table, removed, [e for x in tails for e in (x, heads[x])])
    cuts = [
        [(h == k) - (t == k) for t, h in zip(label[0::2], label[1::2])]
        for k in range(max(label))
    ]
    return cuts, rows


def hecke_span_rank(pp: PrimePower, imax: int, l: int) -> int:
    """Rank of {T_i{0,oo} : 1 <= i <= imax} in H_1(X_0(p^n), cusps) over F_l,
    or over Q when l = 0, decided on the few edges the images touch.

    A P^1-vector c is the edge vector g[x] = c[sigma x] - c[x] on the graph
    G whose vertices are the tau orbits and whose edges are the sigma
    2-orbits {x, sigma x}, named by the tail x < sigma x; it vanishes in
    H_1 exactly when g is the gradient of vertex potentials.  Let S be the
    edges through the images' supports.  A gradient that vanishes off S has
    its potential constant on each component of G minus S, so on S the
    gradients are spanned by one cut row per component C: +1 on the edges
    with their head in C, -1 on those with their tail in C.  They are the
    incidence rows of the connected graph of the k components and S, so
    they sum to zero and any k - 1 are independent over every field: the
    rank is rank(k - 1 cut rows + image rows) - (k - 1), over |S| columns.

    The paper's proof gives each T_r a pivot edge e_r of S on which it has
    coefficient +-1 and no T_i with i < r has any (see _pivots).  A cut row
    is zero on an edge whose ends lie in one component, so when the ends of
    every pivot edge are joined in G minus S the image rows are triangular
    with unit diagonal on columns no cut row touches: the rank is imax over
    Q and every F_l, and no cut row is built and no elimination runs.  One
    bidirectional search of _all_joined decides it, or at d = 1 with p odd,
    in the guaranteed regime, a walk of O(log p^n) sigma and tau steps (see
    _span_matrices).  Otherwise, where a pivot splits or the rows are not
    triangular on the pivots, _component_labels labels the components of
    the ends of S exactly, and the rank comes from one elimination per
    field.  The search and the labels cross each graph edge by one O(1)
    P1Table.cross call (one modular inversion), which names the vertex
    beyond and lists its other edges, and read no dense permutation.
    """
    if l and not is_prime(l):
        raise ValueError(f"{l} is not prime")
    if imax < 0:
        raise ValueError("imax must be >= 0")
    if imax == 0:
        return 0
    cuts, rows = _span_matrices(pp, imax)
    if cuts is None:
        return imax
    return rank(cuts + rows, l) - len(cuts)


@dataclass
class CriterionReport:
    """Outcome of the independence test (criterion condition) for one
    (p, n, d, l): the rank achieved and the threshold C^2 (sd)^6 are stored,
    and the required rank sd, the verdict and whether p^n clears the
    threshold are read off them."""

    p: int
    n: int
    d: int
    s: int
    l: int
    achieved_rank: int
    threshold: int

    @property
    def required_rank(self) -> int:
        return self.s * self.d

    @property
    def passed(self) -> bool:
        return self.achieved_rank == self.required_rank

    @property
    def threshold_satisfied(self) -> bool:
        return self.p**self.n >= self.threshold

    def to_json(self) -> dict:
        out = {
            "schema": 1,
            "p": self.p,
            "n": self.n,
            "d": self.d,
            "s": self.s,
            "l": self.l,
            "required_rank": self.required_rank,
            "achieved_rank": self.achieved_rank,
            "pass": self.passed,
            "threshold": self.threshold,
            "threshold_satisfied": self.threshold_satisfied,
        }
        if self.l == self.p:
            out["warning"] = "l equals p; the test is normally run with l != p"
        return out


def check_kamienny_condition3(p: int, n: int, d: int, l: int) -> CriterionReport:
    """Rank of T_1{0,oo}, ..., T_{sd}{0,oo} over F_l against the required sd.

    The threshold flag records whether p^n >= C^2 (sd)^6, the regime where
    independence is guaranteed; outside it the report still carries the
    computed rank without asserting anything.  An l that is not prime
    (hecke_span_rank proves it), an s*d above MAX_HECKE_R, or a level whose
    |P^1| exceeds MAX_P1_SIZE, is refused with ValueError before any image
    is listed or any search started.
    """
    if l < 2:  # 0 would ask hecke_span_rank for Q; it refuses every other non-prime l
        raise ValueError(f"{l} is not prime")
    pp = PrimePower(p, n)
    thr = criterion_threshold(p, d)
    required = thr.s * d
    if required > MAX_HECKE_R:
        raise ValueError(f"s*d = {required} exceeds the limit {MAX_HECKE_R}")
    achieved = hecke_span_rank(pp, required, l)
    return CriterionReport(p, n, d, thr.s, l, achieved, thr.threshold)


__all__ = [
    "SymbolVector",
    "SigmaRSet",
    "CriterionReport",
    "admissible_pairs",
    "winding_image",
    "sigma_r_set",
    "sigma_r_sets",
    "hecke_span_rank",
    "check_kamienny_condition3",
]
