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
class (1, r).  That stop is read off Sigma_r rather than found by stepping:
each obstruction is met as a main vertex at most once, at a step fixed by
its residue, and as an intermediate at most once, at the step whose main
vertex is its preimage under sigma or tau (computed on demand).  So the stop
is the earliest of O(|Sigma_r|) meetings, a walk costs O(|Sigma_r|) whatever
p^n is, and no permutation is built.  The affine residues of main vertices
visited with a clean intermediate form the chain's interval; in regime
(r <= D, the bound positive) its length is at least p^n/D - D - 2 for chain
A and p^n/D^2 - 2 for B and B', as exact rational inequalities.

The inverse-pair search takes two intervals A, B inside {1..p^n - 1} and
finds y in A, z in B with y*z = -1 mod p^n; the analytic lemma guarantees a
pair exists once |A|*|B| >= C'*p^{3n/2} with C' = 8 for odd p and 8*sqrt(2)
for p = 2.  Thresholds are compared exactly by squaring, never in floats.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .arith import ceil_isqrt
from .bounds import c_squares
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
    """Result of one walk, kept in closed form: the start, the direction,
    how many clean steps were taken, and why and where the walk stopped.

    The interval (the clean affine residues, in walk order) and the visited
    vertices (each main vertex followed by its intermediate, then the main
    vertex whose intermediate stopped the walk, if one did) are rebuilt from
    those on first read, at O(interval length) cost.
    """

    label: str
    start_index: int
    step: int
    interval_length: int
    stop_reason: str
    stop_index: int | None
    stopped_on_intermediate: bool
    table: P1Table = field(repr=False, compare=False)

    @property
    def visited_count(self) -> int:
        return 2 * self.interval_length + self.stopped_on_intermediate

    @cached_property
    def interval(self) -> list[int]:
        m = self.table.pp.modulus
        return [(self.start_index + self.step * k) % m for k in range(self.interval_length)]

    @cached_property
    def visited(self) -> list[int]:
        inter_of = self.table.sigma if self.step == -1 else self.table.tau
        out: list[int] = []
        for a in self.interval:
            out += (a, inter_of(a))
        if self.stopped_on_intermediate:
            m = self.table.pp.modulus
            out.append((self.start_index + self.step * self.interval_length) % m)
        return out


def _walk(
    label: str,
    start_affine: int,
    step: int,
    table: P1Table,
    sigma_r: SigmaRSet,
    skip_start_check: bool,
) -> Chain:
    """For k = 0..p^n - 1 the walk checks the main vertex a_k = start +
    k*step mod p^n, then its intermediate, which is x exactly when a_k is
    x's preimage: sigma(x) on the backward chains (sigma is an involution),
    tau(tau(x)) on B' (tau has order 3)."""
    m = table.pp.modulus
    preimage = table.sigma if step == -1 else (lambda x: table.tau(table.tau(x)))
    meetings = []  # (k, 0 for main or 1 for intermediate, x)
    for x in sigma_r.members | {sigma_r.leading_index}:
        if not 0 <= x < table.size:
            continue
        if x < m:  # affine residue x has table index x
            k = step * (x - start_affine) % m
            if k or not skip_start_check:
                meetings.append((k, 0, x))
        a = preimage(x)
        if a < m:
            meetings.append((step * (a - start_affine) % m, 1, x))
    if not meetings:
        return Chain(label, start_affine, step, m, STOP_WRAPPED, None, False, table)
    k, phase, x = min(meetings)
    reason = STOP_SIGMA_R if x in sigma_r.members else STOP_LEADING
    return Chain(label, start_affine, step, k, reason, x, phase == 1, table)


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
    c2 = c_squares(pp.p)[0]
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
