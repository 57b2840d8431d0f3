"""The projective line over Z/p^n Z: representatives, normalization, actions.

Points of P^1(Z/p^n Z) are carried as indices into a precomputed table.  The
representative set is the affine points (r, 1) for r mod p^n followed by the
infinite branch (1, p*r') for r' mod p^{n-1}, so the table has p^n + p^{n-1}
entries and the index of an affine point equals its residue.

sigma = [[0,1],[-1,0]] and tau = [[0,-1],[1,-1]] act on the right:

    (w, t).sigma = (-t, w)        (w, t).tau = (-t, w + t)

so tau.sigma is +1 on affine coordinates and sigma.tau^2 is -1.  Both actions
are stored as dense index permutations, built once, because downstream walks
and relation building apply them constantly.
"""

from dataclasses import dataclass
from typing import Optional

from .arith import is_prime

KIND_AFFINE = "affine"
KIND_INFINITE = "infinite"


@dataclass(frozen=True)
class PrimePower:
    """A verified prime power p^n (n >= 1)."""

    p: int
    n: int
    modulus: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("exponent must be >= 1")
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        m = self.p**self.n
        if self.modulus == 0:
            object.__setattr__(self, "modulus", m)
        elif self.modulus != m:
            raise ValueError("modulus does not equal p^n")


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


class P1Table:
    """Enumerated P^1(Z/p^n Z) with sigma/tau permutations: p^n + p^{n-1}
    points in deterministic order.

    Affine points come first, ordered by residue, then the infinite branch
    ordered by r'.  This ordering fixes every downstream matrix layout.
    Immutable after construction; safe for concurrent reads.
    """

    def __init__(self, pp: PrimePower):
        self.pp = pp
        m = pp.modulus
        mp = m // pp.p
        self.size = m + mp
        self.points: tuple[P1Point, ...] = tuple(
            [P1Point(KIND_AFFINE, r) for r in range(m)]
            + [P1Point(KIND_INFINITE, r) for r in range(mp)]
        )
        self.sigma_perm = [0] * self.size
        self.tau_perm = [0] * self.size
        for i, pt in enumerate(self.points):
            w, t = pt.pair(pp)
            self.sigma_perm[i] = self.index(-t, w)
            self.tau_perm[i] = self.index(-t, w + t)

    def index(self, c: int, d: int) -> Optional[int]:
        """Index of the class (c : d), or None when the pair defines no point."""
        pt = normalize(c, d, self.pp)
        if pt is None:
            return None
        if pt.kind == KIND_AFFINE:
            return pt.value
        return self.pp.modulus + pt.value


__all__ = [
    "KIND_AFFINE",
    "KIND_INFINITE",
    "PrimePower",
    "P1Point",
    "P1Table",
    "normalize",
]
