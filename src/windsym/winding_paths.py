"""Chain walks through P^1(Z/p^n Z) avoiding the obstruction set Sigma_r.

Three chains, all tracked on affine coordinates:

  A       starts at the class of (-r-1, 1) = (1/r).tau^2 and steps backwards
          (sigma then tau^2, i.e. -1 on the affine coordinate);
  B       (p not dividing r) starts at the class (1, r) itself, stepping
          backwards the same way;
  B'      (p dividing r) starts at (r, r-1) = (1/r).sigma tau^2 sigma, where
          r - 1 is invertible, and advances by tau sigma (+1).

Each step visits the main-track vertex and one intermediate: the sigma image
for the backward chains, the tau image for the forward chain.  Those are
exactly the vertices whose membership in Sigma_r matters when propagating
the sigma-invariant and tau-invariant coefficients along the walk, so the
walk stops at the first of them lying in Sigma_r or equal to the leading
class (1, r).  Each intermediate is computed on demand by table.sigma or
table.tau, so a walk costs O(its length) and builds no permutation.  The
affine residues of main vertices visited with a clean intermediate form the
chain's interval; in regime (r <= D, the bound positive) its length is at
least p^n/D - D - 2 for chain A and p^n/D^2 - 2 for B and B', as exact
rational inequalities.

The inverse-pair search takes two intervals A, B inside {1..p^n - 1} and
finds y in A, z in B with y*z = -1 mod p^n; the analytic lemma guarantees a
pair exists once |A|*|B| >= C'*p^{3n/2} with C' = 8 for odd p and 8*sqrt(2)
for p = 2.  Thresholds are compared exactly by squaring, never in floats.
"""

from dataclasses import dataclass
from fractions import Fraction

from .arith import ceil_isqrt
from .hecke_symbols import SigmaRSet
from .residue_p1 import P1Table, PrimePower

STOP_SIGMA_R = "hit_sigma_r"
STOP_LEADING = "hit_leading_class"
STOP_WRAPPED = "wrapped"

CHAIN_A = "A"
CHAIN_B = "B"
CHAIN_B_PRIME = "Bprime"


@dataclass
class Chain:
    """Result of one walk: visited vertices (mains and intermediates, in
    order), the interval of clean affine residues, and why the walk stopped."""

    label: str
    start_index: int
    visited: list[int]
    interval: list[int]
    stop_reason: str
    stop_index: int | None

    @property
    def interval_length(self) -> int:
        return len(self.interval)


def _classify_stop(idx: int, sigma_r: SigmaRSet) -> str | None:
    if idx in sigma_r.members:
        return STOP_SIGMA_R
    if idx == sigma_r.leading_index:
        return STOP_LEADING
    return None


def _walk(
    label: str,
    start_affine: int,
    step: int,
    table: P1Table,
    sigma_r: SigmaRSet,
    skip_start_check: bool,
) -> Chain:
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
    return Chain(label, start_affine, visited, interval, stop_reason, stop_index)


def walk_chain_A(r: int, table: P1Table, sigma_r: SigmaRSet) -> Chain:
    """Backward walk from (-r-1, 1), stepping by sigma then tau^2."""
    if r < 1:
        raise ValueError("r must be >= 1")
    start = (-r - 1) % table.pp.modulus
    return _walk(CHAIN_A, start, -1, table, sigma_r, skip_start_check=False)


def walk_chain_B(r: int, table: P1Table, sigma_r: SigmaRSet) -> Chain:
    """Backward walk from the class (1, r) itself; needs p not dividing r.

    The start is the leading class, so the stop check is skipped there and
    only applies from the first step onwards.
    """
    pp = table.pp
    if r % pp.p == 0:
        raise ValueError("p divides r: use walk_chain_B_prime")
    start = pow(r, -1, pp.modulus)
    return _walk(CHAIN_B, start, -1, table, sigma_r, skip_start_check=True)


def walk_chain_B_prime(r: int, table: P1Table, sigma_r: SigmaRSet) -> Chain:
    """Forward walk from the class (r, r-1), stepping by tau then sigma;
    needs p dividing r (so r - 1 is invertible and the track is affine)."""
    pp = table.pp
    if r % pp.p != 0:
        raise ValueError("p does not divide r: use walk_chain_B")
    start = r * pow(r - 1, -1, pp.modulus) % pp.modulus
    return _walk(CHAIN_B_PRIME, start, +1, table, sigma_r, skip_start_check=False)


def interval_bound(label: str, pp: PrimePower, d_param: int) -> Fraction:
    """Exact rational lower bound for a chain's interval length at parameter D."""
    if d_param < 1:
        raise ValueError("D must be >= 1")
    if label == CHAIN_A:
        return Fraction(pp.modulus, d_param) - d_param - 2
    if label in (CHAIN_B, CHAIN_B_PRIME):
        return Fraction(pp.modulus, d_param**2) - 2
    raise ValueError(f"unknown chain label {label!r}")


@dataclass(frozen=True)
class IntervalPair:
    """Two intervals of consecutive integers, each given as (start, length)."""

    a_start: int
    a_len: int
    b_start: int
    b_len: int

    def __post_init__(self):
        if self.a_len < 1 or self.b_len < 1:
            raise ValueError("interval lengths must be >= 1")


def find_inverse_pair(pair: IntervalPair, pp: PrimePower) -> tuple[int, int] | None:
    """Smallest y in A coprime to p with z = -y^{-1} mod p^n landing in B.

    Scans the smaller interval (the map y <-> z is an involution), so the
    cost is O(min(|A|,|B|) log p^n).  Returns None when no pair exists.
    """
    m = pp.modulus
    for start, length in ((pair.a_start, pair.a_len), (pair.b_start, pair.b_len)):
        if start < 1 or start + length - 1 > m - 1:
            raise ValueError("interval must lie inside {1..p^n - 1}")
    a_lo, a_hi = pair.a_start, pair.a_start + pair.a_len - 1
    b_lo, b_hi = pair.b_start, pair.b_start + pair.b_len - 1
    found = None
    if pair.b_len < pair.a_len:
        for z in range(b_lo, b_hi + 1):
            if z % pp.p == 0:
                continue
            y = -pow(z, -1, m) % m
            if a_lo <= y <= a_hi and (found is None or y < found[0]):
                found = (y, z)
    else:
        for y in range(a_lo, a_hi + 1):
            if y % pp.p == 0:
                continue
            z = -pow(y, -1, m) % m
            if b_lo <= z <= b_hi:
                found = (y, z)
                break
    if found is None:
        return None
    y, z = found
    if (y * z + 1) % m or not (a_lo <= y <= a_hi) or not (b_lo <= z <= b_hi):
        raise RuntimeError("inverse-pair post-check failed")
    return found


@dataclass(frozen=True)
class Lemma53Requirement:
    """Exact product threshold |A|*|B| >= C' * p^{3n/2} for the inverse-pair
    guarantee; compared by squaring so no floating point is involved."""

    c_prime_label: str
    c_prime_squared: int
    p_pow_3n: int
    min_product: int

    def satisfied(self, product: int) -> bool:
        return product > 0 and product * product >= self.c_prime_squared * self.p_pow_3n


def lemma53_requirement(pp: PrimePower) -> Lemma53Requirement:
    c2 = 128 if pp.p == 2 else 64
    label = "8*sqrt(2)" if pp.p == 2 else "8"
    p3n = pp.p ** (3 * pp.n)
    return Lemma53Requirement(label, c2, p3n, ceil_isqrt(c2 * p3n))


__all__ = [
    "STOP_SIGMA_R",
    "STOP_LEADING",
    "STOP_WRAPPED",
    "CHAIN_A",
    "CHAIN_B",
    "CHAIN_B_PRIME",
    "Chain",
    "IntervalPair",
    "Lemma53Requirement",
    "walk_chain_A",
    "walk_chain_B",
    "walk_chain_B_prime",
    "interval_bound",
    "find_inverse_pair",
    "lemma53_requirement",
]
