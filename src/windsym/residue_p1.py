"""The projective line over Z/p^n Z: representatives, indices, actions.

Points of P^1(Z/p^n Z) are carried as indices.  The representative set is
the affine points (r, 1) for r mod p^n followed by the infinite branch
(1, p*r') for r' mod p^{n-1}, so there are p^n + p^{n-1} indices and the
index of an affine point equals its residue.  P1Table is the only place
that knows this format: index(c, d) reaches the index of the class (c : d)
by one modular inverse, and pair(i) reads the representative back.

sigma = [[0,1],[-1,0]] and tau = [[0,-1],[1,-1]] act on the right:

    (w, t).sigma = (-t, w)        (w, t).tau = (-t, w + t)

so tau.sigma is +1 on affine coordinates and sigma.tau^2 is -1.  Each action
is computed on demand for one index by modular arithmetic, which is all the
chain walks need; cross(x, removed) names the vertex (tau orbit) entered at
x by its least point and lists the far points of its other edges, from one
modular inversion, which is how the criterion's graph search crosses an
edge.  The dense index permutations, which relation building sweeps in
full, are built on first use into arrays of 4-byte integers (every index
is below MAX_P1_SIZE < 2^31): sigma by one batch inversion, and tau sliced
out of sigma, since (a, 1).tau = (-1 : a + 1) = (a + 1, 1).sigma makes
tau(a) = sigma(a + 1) on affine a, and the infinite branch's tau reads
sigma at 1 + pj.  They are the only part of a table whose memory grows
with |P^1|, so the size limit MAX_P1_SIZE guards them; the criterion's
graph search, which reads neither, checks the same limit
(check_size_limit) before it starts.
"""

from array import array
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from typing import Optional

from .arith import is_prime

# Largest |P^1| = p^n + p^{n-1} whose dense permutations a table builds; it
# is below 2^31, so every index fits the 4-byte arrays.  At this size the two
# permutations take 80 MB (tau is copied out of sigma, so building it holds
# nothing else of that size).  Only `p1 --verify` reads them.  `criterion`
# searches the graph from the few edges the Hecke images touch, and for it
# the limit bounds that search, whose cost grows with the level (about 0.2 s
# at |P^1| = 3032642 with d = 3 on a 2-vCPU host, each edge crossed by one
# P1Table.cross call) and whose other route labels components in one 4-byte
# array of |P^1| entries.  `homology --smith` prints relation_rank
# ~ 5|P^1|/6 ones, which the limit bounds; the `homology` record itself is
# counted from the elliptic points, so it runs at any level.
MAX_P1_SIZE = 10**7


@dataclass(frozen=True)
class PrimePower:
    """A verified prime power p^n (n >= 1).

    p is checked by arith.is_prime, whose verdict is proven only for p below
    about 3.3e24; above that it rests on an extended Miller-Rabin witness set
    with no known counterexample.
    """

    p: int
    n: int
    modulus: int = field(init=False)  # p^n

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("exponent must be >= 1")
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        object.__setattr__(self, "modulus", self.p**self.n)


class P1Table:
    """P^1(Z/p^n Z) as p^n + p^{n-1} indices in deterministic order, with
    the sigma and tau actions on them.

    Affine points (r, 1) come first, ordered by residue, then the infinite
    branch (1, p*r') ordered by r'.  This ordering fixes every downstream
    matrix layout.  Construction is O(1) at any level: index, pair, sigma
    and tau cost O(1) modular arithmetic each.  The dense permutations
    sigma_perm and tau_perm (the latter sliced out of the former) are built
    on first read, as array('i'), and cached on the table; reading one
    raises ValueError when |P^1| exceeds MAX_P1_SIZE, before any per-point
    work.
    """

    def __init__(self, pp: PrimePower):
        self.pp = pp
        self.size = pp.modulus + pp.modulus // pp.p

    def index(self, c: int, d: int) -> Optional[int]:
        """Index of the class (c : d), or None when p divides both entries.

        With d a unit the class is the affine point (c/d, 1); otherwise c is
        a unit and the class is (1, d/c), where d/c = p*r' sits at m + r'.
        """
        p, m = self.pp.p, self.pp.modulus
        if d % p:
            return c * pow(d, -1, m) % m
        if c % p:
            return m + d * pow(c, -1, m) % m // p
        return None

    def pair(self, i: int) -> tuple[int, int]:
        """The representative (w, t) of index i."""
        m = self.pp.modulus
        if i < m:
            return (i, 1)
        return (1, self.pp.p * (i - m))

    def sigma(self, i: int) -> int:
        """Index of pair(i).sigma = (-t, w)."""
        w, t = self.pair(i)
        return self.index(-t, w)

    def tau(self, i: int) -> int:
        """Index of pair(i).tau = (-t, w + t)."""
        w, t = self.pair(i)
        return self.index(-t, w + t)

    def cross(self, x: int, removed) -> tuple[int, tuple[int, ...]]:
        """(name, far) for the vertex entered at point x: name is the least
        point of the tau orbit (x, tau x, tau^2 x), and far holds the sigma
        image of tau x, then of tau^2 x, except images equal to their point
        (sigma-fixed points are no edge) and edges whose tail, the smaller
        of the two, is in removed.  The edge through x itself is not
        listed; when tau fixes x, far is empty.

        From pair(x) = (w, t) the orbit is (w : t), (-t : w + t),
        (-(w + t) : w) and its sigma images are (-t : w), (w + t : t),
        (w : w + t), so every index is read by index()'s rule with the
        inverse of w, t or w + t, one pow in all.  An affine (x, 1) needs
        1/x and 1/(x + 1), or the one of them that is a unit (x and x + 1
        are never both multiples of p); when both are, they come from one
        pow of x(x + 1), the orbit is (x, -1/(x+1), -(x+1)/x) with images
        (x + 1, x/(x + 1)) beyond x's own -1/x, and tau fixes x exactly
        when -1/(x+1) = x.  The infinite (1, pj) needs 1/(1 + pj).
        """
        p, m = self.pp.p, self.pp.modulus
        if x >= m:  # (1, t) with t = pj: 1 + t is a unit, and tau fixes no such point
            t = p * (x - m)
            u = 1 + t
            iu = pow(u, -1, m)
            a, b, fa, fb = -t * iu % m, m - u, m + t * iu % m // p, iu
        else:
            y = x + 1
            if x % p == 0:  # (x : 1) with p | x, so x + 1 is a unit
                iy = pow(y, -1, m)
                a, b, fa, fb = m - iy, m + -x * iy % m // p, y, x * iy % m
            elif y % p == 0:  # p | x + 1
                ix = pow(x, -1, m)
                a, b, fa, fb = m + -y % m // p, -y * ix % m, y % m, m + y * ix % m // p
            else:
                ixy = pow(x * y, -1, m)  # both inverses from one pow
                ix, iy = ixy * y % m, ixy * x % m
                a = m - iy
                if a == x:
                    return x, ()
                b, fa, fb = m - y * ix % m, y, x * iy % m
        name = x if x < a and x < b else a if a < b else b
        if fa != a and (fa if fa < a else a) not in removed:
            if fb != b and (fb if fb < b else b) not in removed:
                return name, (fa, fb)
            return name, (fa,)
        if fb != b and (fb if fb < b else b) not in removed:
            return name, (fb,)
        return name, ()

    def check_size_limit(self) -> None:
        """Raise ValueError when |P^1| exceeds MAX_P1_SIZE."""
        if self.size > MAX_P1_SIZE:
            pp = self.pp
            raise ValueError(
                f"|P^1(Z/{pp.p}^{pp.n} Z)| = {self.size} exceeds the limit {MAX_P1_SIZE}"
            )

    @cached_property
    def sigma_perm(self) -> array:
        """sigma(i) for every index, with all affine inverses from one pow.

        On a unit a, sigma(a) = (-1 : a) = -1/a, and sigma(m - a) = 1/a, so
        the inverses of 1..m/2 give every unit.  They come from Montgomery's
        batch inversion: prefix products, one pow, then a backward pass that
        peels one factor off at a time.  Multiples of p stand in as 1 there;
        their images, and the infinite branch's, are arithmetic progressions
        written by slice assignment.
        """
        self.check_size_limit()
        p, m, size = self.pp.p, self.pp.modulus, self.size
        k, half = m // p, m // 2
        factors = array("i", range(half + 1))
        factors[::p] = array("i", [1]) * (half // p + 1)
        prefix = array("i", accumulate(factors, lambda x, y: x * y % m))
        perm = array("i", [0]) * size
        inv = pow(prefix[half], -1, m)  # 1 / (product of the units in 1..m/2)
        for a in range(half, 0, -1):
            inv_a = inv * prefix[a - 1] % m
            inv = inv * factors[a] % m
            perm[a] = m - inv_a
            perm[m - a] = inv_a
        # (pj, 1).sigma = (-1 : pj) = (1, -pj) sits at m + (k - j) mod k
        perm[0] = m
        perm[p:m:p] = array("i", range(m + k - 1, m, -1))
        # (1, pj).sigma = (-pj, 1) is the affine point -pj mod m
        perm[m] = 0
        perm[m + 1 :] = array("i", range(m - p, 0, -p))
        return perm

    @cached_property
    def tau_perm(self) -> array:
        """tau(i) for every index, sliced out of sigma_perm.

        tau(a) = sigma(a + 1) on affine a, so the affine part is sigma_perm
        shifted down by one, with tau(p^n - 1) = sigma(0) at its end.  On
        the infinite branch (1, pj).tau = (-pj : 1 + pj) is the affine
        point -1 + 1/(1 + pj) = -1 - sigma(1 + pj), so tau(p^n + j) is
        p^n - 1 - sigma(1 + pj): no point takes a tau() call.
        """
        self.check_size_limit()
        p, m, sigma = self.pp.p, self.pp.modulus, self.sigma_perm
        perm = array("i", [0]) * self.size
        memoryview(perm)[: m - 1] = memoryview(sigma)[1:m]  # no temporary copy
        perm[m - 1] = sigma[0]
        perm[m:] = array("i", map((m - 1).__sub__, sigma[1:m:p]))
        return perm


__all__ = [
    "MAX_P1_SIZE",
    "PrimePower",
    "P1Table",
]
