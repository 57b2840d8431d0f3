"""The projective line over Z/p^n Z: representatives, normalization, actions.

Points of P^1(Z/p^n Z) are carried as indices.  The representative set is
the affine points (r, 1) for r mod p^n followed by the infinite branch
(1, p*r') for r' mod p^{n-1}, so there are p^n + p^{n-1} indices and the
index of an affine point equals its residue.

sigma = [[0,1],[-1,0]] and tau = [[0,-1],[1,-1]] act on the right:

    (w, t).sigma = (-t, w)        (w, t).tau = (-t, w + t)

so tau.sigma is +1 on affine coordinates and sigma.tau^2 is -1.  Each action
is computed on demand for one index by modular arithmetic, which is all the
chain walks need.  The dense index permutations, which relation building
sweeps in full, are built from those on first use.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .arith import is_prime

KIND_AFFINE = "affine"
KIND_INFINITE = "infinite"

# Largest |P^1| = p^n + p^{n-1} a table may have: at this size the dense
# permutations are two lists of 10^7 Python ints, roughly 0.8 GB.
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
    """P^1(Z/p^n Z) as p^n + p^{n-1} indices in deterministic order, with
    the sigma and tau actions on them.

    Affine points come first, ordered by residue, then the infinite branch
    ordered by r'.  This ordering fixes every downstream matrix layout.
    Construction is O(1): pair, index, sigma and tau cost O(1) modular
    arithmetic each, and the dense permutations sigma_perm and tau_perm are
    built on first read and cached on the table.  Raises ValueError when
    |P^1| exceeds MAX_P1_SIZE.
    """

    def __init__(self, pp: PrimePower):
        self.pp = pp
        self.size = pp.modulus + pp.modulus // pp.p
        if self.size > MAX_P1_SIZE:
            raise ValueError(
                f"|P^1(Z/{pp.p}^{pp.n} Z)| = {self.size} exceeds the limit {MAX_P1_SIZE}"
            )

    def index(self, c: int, d: int) -> Optional[int]:
        """Index of the class (c : d), or None when the pair defines no point."""
        pt = normalize(c, d, self.pp)
        if pt is None:
            return None
        if pt.kind == KIND_AFFINE:
            return pt.value
        return self.pp.modulus + pt.value

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

    @cached_property
    def sigma_perm(self) -> list[int]:
        return [self.sigma(i) for i in range(self.size)]

    @cached_property
    def tau_perm(self) -> list[int]:
        return [self.tau(i) for i in range(self.size)]


__all__ = [
    "KIND_AFFINE",
    "KIND_INFINITE",
    "MAX_P1_SIZE",
    "PrimePower",
    "P1Point",
    "P1Table",
    "normalize",
]
