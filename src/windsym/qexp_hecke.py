"""Formal Hecke calculus on truncated q-expansions with exact coefficients.

Operators, acting on f = sum_{n>=1} a_n x^n of weight lambda and character
eps (eps(n) = 0 whenever gcd(n, N) > 1):

    t_p(f) = sum (a_{np} + eps(p) p^{lambda-1} a_{n/p}) x^n     p prime
    U_q(f) = sum a_{nq} x^n                                     q prime
    B_d(f) = sum a_n x^{nd}

with a_{n/m} = 0 when m does not divide n.  (In some displays of the U_q
definition the running index is printed as np; it is read as nq here, i.e.
U_q extracts every q-th coefficient, consistent with U_q B_q = id.)

Truncation is an artifact of the implementation, so every series carries a
reliable order R alongside its stored order T: B_d turns R into min(T, R*d),
while t_p and U_q consume high coefficients and leave only floor(R/p).
Comparisons beyond R are forbidden; the guarded accessor enforces that.

The operators act on the coefficient tuple by slices: U_q reads
coeffs[q-1::q], B_d writes coeffs into every d-th slot of a zero list, and
t_p adds eps(p) p^{lambda-1} a_j only at the T//p positions jp of the U_p
slice.  They are Q-linear with integer factors, so verify_relations and
verify_coefficient_identity run on L*f, L = lcm(1..12) the common
denominator of the random series, in integer arithmetic: a relation holds
on f exactly when it holds on L*f.

Both checks run on one engine, _first_failures, which packs the trials
f_0..f_{k-1} into lanes of W bits, P = sum_i 2^{W(k-1-i)} L f_i, drawn
straight into the lanes (_packed_series); each side of a check, being
Z-linear in f, maps P to the packing of its values on the trials.  When
every coefficient of either side lies in [-B, B] on every trial and
2B < 2^{W-1}, two packings are equal exactly when every lane agrees, so one
comparison on P checks all k trials.  A block packs at most
max(1, _LANE_BUDGET // order) trials, which keeps memory O(order) whatever
the number of trials; a block whose packed sides differ is replayed one
trial at a time to name each failing check's first trial, and no block is
drawn once every check has failed.  The draw is most of the cost: about
three quarters (0.65-0.77 over 20 seeds) of an order-300, 100-trial
`qexp verify-relations` run.

Composite operators follow T_{p^{k+1}} = T_p T_{p^k} - eps(p) p^{lambda-1}
T_{p^{k-1}} on prime powers and multiplicativity across coprime factors,
which yields the pairing identity a_1(T_n f) = a_n(f) for every series.

The oldclass machinery realizes U_p on the span of {B_{p^j} f} for a
normalized eigen-series f: the matrix is (M1) with head entry a_p and a
superdiagonal of ones when p divides the underlying level M, and (M2) with
head column (a_p, -eps(p)p^{lambda-1}) when it does not; the characteristic
polynomial in the second case is (X^2 - a_p X + eps(p)p^{lambda-1}) X^{k-1}.
build_Up_matrix is the one construction of these matrices.  The Jordan
census is read off them, and the kernel vector is checked on genuine
truncated series.  The forms derived from them, the canonical M3/M4, the
alternating Jordan basis in trivial character and the block-diagonal
structure for general co-level, are checked in tests/test_qexp_hecke.py on
build_Up_matrix's matrices and, for the blocks, on genuine series.

Coefficient rings: exact rationals (fractions.Fraction) and the quadratic
extension Q(sqrt(D)) (class Quad, any nonsquare D, compared by value).
Both support ring operations, equality, and exact division by nonzero
integers, which is all the calculus needs.  Matrices stay rational: the
Jordan census takes its ranks over Q (arith.rank), and Quad only names the
irrational roots.

No command runs jordan_structure or kernel_vector_check: they check the
paper's lemma on U_p over the oldclass span (cases M1-M4), for the tests
and the acceptance suite.
"""

import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import gcd, isqrt, lcm

from .arith import factorize, is_prime, kronecker, rank

# ---------------------------------------------------------------------------
# Coefficient rings
# ---------------------------------------------------------------------------


class Quad:
    """Element a + b*sqrt(disc) of Q(sqrt(disc)), disc a nonsquare integer.

    Radicands whose product is a square name one field, whose elements
    compare, hash and combine by value: Quad(-28, 1, 1/2) == Quad(-7, 1, 1),
    as b*sqrt(disc) is fixed by b^2 disc and the sign of b.  Mixing any
    other two fields is refused.

    It names the roots of X^2 - a_p X + eps(p) p^{lambda-1} that the
    oldclass lemma's case M3 puts on the diagonal when they are irrational
    (see jordan_structure)."""

    __slots__ = ("disc", "a", "b")

    def __init__(self, disc: int, a=0, b=0):
        if not isinstance(disc, int):
            raise ValueError("disc must be an integer")
        if disc >= 0 and isqrt(disc) ** 2 == disc:
            raise ValueError("disc must not be a square")
        self.disc = disc
        self.a = Fraction(a)
        self.b = Fraction(b)

    def _coerce(self, other):
        """other over d = self.disc, or None: a radicand e with d e = r^2 has
        sqrt(e) = (r/|d|) sqrt(d); r/d is wrong when d and e are negative."""
        if isinstance(other, Quad):
            if other.disc == self.disc:
                return other
            de = self.disc * other.disc
            r = isqrt(max(de, 0))
            if r * r != de:
                raise ValueError("mixing different quadratic fields")
            return Quad(self.disc, other.a, other.b * Fraction(r, abs(self.disc)))
        if isinstance(other, (int, Fraction)):
            return Quad(self.disc, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Quad(self.disc, self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self):
        return Quad(self.disc, -self.a, -self.b)

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
        return Quad(
            self.disc,
            self.a * o.a + self.disc * self.b * o.b,
            self.a * o.b + self.b * o.a,
        )

    __rmul__ = __mul__

    def inv(self) -> "Quad":
        nrm = self.a * self.a - self.disc * self.b * self.b
        if nrm == 0:
            raise ZeroDivisionError("zero element of a quadratic field")
        return Quad(self.disc, self.a / nrm, -self.b / nrm)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inv()

    def _key(self):
        return self.a, self.b * self.b * self.disc, (self.b > 0) - (self.b < 0)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Quad(self.disc, other)
        if isinstance(other, Quad):
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self.a) if self.b == 0 else hash(self._key())

    def __repr__(self):
        if self.b == 0:
            return str(self.a)
        return f"{self.a} + {self.b}*sqrt({self.disc})"


# ---------------------------------------------------------------------------
# Dirichlet characters (trivial and quadratic instances)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DirichletCharacter:
    """Character handle with integer values: trivial, or quadratic via the
    Kronecker symbol of a fundamental discriminant, whose absolute value
    divides the modulus (that symbol has period |disc|, so eps is then a
    character mod modulus).  eps(n) = 0 whenever gcd(n, modulus) > 1."""

    modulus: int
    disc: int = 1

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError("modulus must be >= 1")
        disc = self.disc
        if disc == 1:
            return
        # fundamental: squarefree and 1 mod 4, or 4m with m squarefree and 2 or 3 mod 4
        core = disc if disc % 4 == 1 else disc // 4 if disc % 16 in (8, 12) else 0
        if core == 0 or any(e > 1 for e in factorize(abs(core)).values()):
            raise ValueError("disc must be a fundamental discriminant")
        if self.modulus % abs(disc):
            raise ValueError(f"|disc| = {abs(disc)} does not divide the modulus {self.modulus}")

    @classmethod
    def trivial(cls, modulus: int = 1) -> "DirichletCharacter":
        return cls(modulus, 1)

    @classmethod
    def quadratic(cls, disc: int) -> "DirichletCharacter":
        return cls(abs(disc), disc)

    def __call__(self, n: int) -> int:
        if self.modulus > 1 and gcd(n, self.modulus) != 1:
            return 0
        if self.disc == 1:
            return 1
        return kronecker(self.disc, n)


TRIVIAL_CHARACTER = DirichletCharacter.trivial(1)


# ---------------------------------------------------------------------------
# Truncated q-expansions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QExpansion:
    """Exact coefficients a_1..a_T with a reliable order R <= T.

    Coefficients beyond R are carried but untrusted; coeff() refuses to read
    them.  Weight and character ride along so operators can form
    eps(p) p^{lambda - 1} without extra bookkeeping.
    """

    coeffs: tuple
    order: int
    reliable: int
    weight: int = 2
    eps: DirichletCharacter = TRIVIAL_CHARACTER

    def __post_init__(self):
        if len(self.coeffs) != self.order:
            raise ValueError("need exactly `order` coefficients a_1..a_T")
        if not 0 <= self.reliable <= self.order:
            raise ValueError("reliable order must satisfy 0 <= R <= T")

    def raw(self, n: int):
        """Stored coefficient a_n, 0 outside 1..T.  No reliability guard;
        operator internals only."""
        if 1 <= n <= self.order:
            return self.coeffs[n - 1]
        return 0

    def coeff(self, n: int):
        """Coefficient a_n, refusing indices beyond the reliable order."""
        if not 1 <= n <= self.reliable:
            raise ValueError(f"a_{n} requested but only a_1..a_{self.reliable} are reliable")
        return self.coeffs[n - 1]

    def _compatible(self, other: "QExpansion"):
        if (
            self.order != other.order
            or self.weight != other.weight
            or self.eps != other.eps
        ):
            raise ValueError("series have different order, weight, or character")

    def _combine(self, other, op):
        """op applied coefficientwise; reliable to the lesser of the two."""
        if not isinstance(other, QExpansion):
            return NotImplemented
        self._compatible(other)
        return QExpansion(
            tuple(map(op, self.coeffs, other.coeffs)),
            self.order,
            min(self.reliable, other.reliable),
            self.weight,
            self.eps,
        )

    def __add__(self, other):
        return self._combine(other, operator.add)

    def __sub__(self, other):
        return self._combine(other, operator.sub)

    def __rmul__(self, scalar):
        return QExpansion(
            tuple(scalar * x for x in self.coeffs),
            self.order,
            self.reliable,
            self.weight,
            self.eps,
        )


def make_qexp(coeffs, order=None, weight=2, eps=TRIVIAL_CHARACTER, reliable=None):
    """Series from a list of coefficients a_1, a_2, ... (padded with zeros)."""
    coeffs = list(coeffs)
    if order is None:
        order = len(coeffs)
    coeffs = coeffs[:order] + [0] * (order - len(coeffs))
    if reliable is None:
        reliable = order
    return QExpansion(tuple(coeffs), order, reliable, weight, eps)


def first_disagreement(f: QExpansion, g: QExpansion):
    """First n within the shared reliable range where the series differ,
    as (n, f_n, g_n); None when they agree."""
    r = min(f.reliable, g.reliable)
    a, b = f.coeffs[:r], g.coeffs[:r]
    if a == b:
        return None
    for n, (x, y) in enumerate(zip(a, b), 1):
        if x != y:
            return (n, x, y)


# ---------------------------------------------------------------------------
# Operators
# ---------------------------------------------------------------------------


def op_B(d: int, f: QExpansion) -> QExpansion:
    """B_d: a_n -> a_{n/d}; reliable order grows to min(T, R*d)."""
    if d < 1:
        raise ValueError("d must be >= 1")
    out = [0] * f.order
    out[d - 1 :: d] = f.coeffs[: f.order // d]
    return QExpansion(
        tuple(out), f.order, min(f.order, f.reliable * d), f.weight, f.eps
    )


def op_t(p: int, f: QExpansion) -> QExpansion:
    """t_p: a_n -> a_{np} + eps(p) p^{lambda-1} a_{n/p}; reliable order R//p."""
    if not is_prime(p):
        raise ValueError(f"t_p needs p prime, got {p}")
    fac = f.eps(p) * p ** (f.weight - 1)
    out = _every(p, f)
    if fac:
        # a zero a_j leaves v as it is: v + 0 would copy a big int
        out[p - 1 :: p] = [v if a == 0 else v + fac * a for v, a in zip(out[p - 1 :: p], f.coeffs)]
    return QExpansion(tuple(out), f.order, f.reliable // p, f.weight, f.eps)


def op_U(q: int, f: QExpansion) -> QExpansion:
    """U_q: a_n -> a_{nq}; reliable order R//q."""
    if not is_prime(q):
        raise ValueError(f"U_q needs q prime, got {q}")
    return QExpansion(
        tuple(_every(q, f)), f.order, f.reliable // q, f.weight, f.eps
    )


def _every(q: int, f: QExpansion) -> list:
    """a_q, a_2q, ..., a_Tq as a list, with a_m = 0 for m > T."""
    out = list(f.coeffs[q - 1 :: q])
    out += [0] * (f.order - len(out))
    return out


def op_T(n: int, f: QExpansion) -> QExpansion:
    """Composite Hecke operator T_n.

    Prime powers follow T_{p^{k+1}} = T_p T_{p^k} - eps(p) p^{lambda-1}
    T_{p^{k-1}} and coprime factors compose; for p dividing the character
    modulus eps(p) = 0, so T_p degenerates to U_p as it should.  Satisfies
    a_1(T_n f) = a_n(f).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    g = f
    for p, e in sorted(factorize(n).items()):
        g = _op_T_prime_power(p, e, g)
    return g


def _op_T_prime_power(p: int, e: int, f: QExpansion) -> QExpansion:
    fac = f.eps(p) * p ** (f.weight - 1)
    prev, cur = f, op_t(p, f)
    for _ in range(e - 1):
        nxt = op_t(p, cur)
        if fac:
            nxt = nxt - fac * prev
        prev, cur = cur, nxt
    return cur


# lcm(1..12): the denominator d of every drawn coefficient n/d divides it.
SERIES_DENOMINATOR_LCM = 27720

# L // d at index d = 1..12 (index 0 is never drawn).
_QUOTIENTS = (0, *(SERIES_DENOMINATOR_LCM // d for d in range(1, 13)))


def _packed_series(
    rng: random.Random, count: int, width: int, order: int, weight: int, eps
) -> QExpansion:
    """sum_i 2^{width(count-1-i)} L f_i for the count trials f_i drawn in
    turn (see _integral_series), each shifted into the lanes by Horner as
    its coefficients are drawn: no trial is held apart from the block.

    Each draw is the rng._randbelow call that rng.randint(-20, 20) and
    rng.randint(1, 12) end in (CPython 3.10-3.13 implement randint(a, b)
    as randrange(a, b + 1), and randrange(a, b) as a + _randbelow(b - a)),
    so the values, their order and the rng state afterwards are those of
    the two randint calls per coefficient, without their argument checks
    and extra frames; L // d is read from _QUOTIENTS."""
    randbelow = rng._randbelow
    acc = [0] * order
    for _ in range(count):
        acc = [(a << width) + (randbelow(41) - 20) * _QUOTIENTS[randbelow(12) + 1] for a in acc]
    return QExpansion(tuple(acc), order, order, weight, eps)


def _integral_series(
    rng: random.Random, order: int, weight: int = 2, eps=TRIVIAL_CHARACTER
) -> QExpansion:
    """Integer coefficients n * (L // d), L = SERIES_DENOMINATOR_LCM, for
    n and d drawn uniformly from -20..20 and 1..12, n first: L times the
    series whose coefficients are the fractions n/d.  The one-lane call of
    _packed_series, which holds the draw."""
    return _packed_series(rng, 1, 0, order, weight, eps)


# ---------------------------------------------------------------------------
# Relation verification
# ---------------------------------------------------------------------------


@dataclass
class RelationCheck:
    name: str
    params: str
    trials: int
    passed: bool
    failure: str = ""

    def to_json(self) -> dict:
        out = {
            "relation": self.name,
            "params": self.params,
            "trials": self.trials,
            "pass": self.passed,
        }
        if self.failure:
            out["failure"] = self.failure
        return out


@dataclass
class RelationReport:
    order: int
    trials: int
    seed: int
    checks: list
    witness_params: str = ""
    witness_found: bool = False

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "order": self.order,
            "trials": self.trials,
            "seed": self.seed,
            "checks": [c.to_json() for c in self.checks],
            "coprimality_witness": {
                "params": self.witness_params,
                "inequality_witnessed": self.witness_found,
            },
            "pass": self.all_passed,
        }


# Each side must be Z-linear in f: the checks run on L*f and on lane-packed
# sums of trials (see verify_relations).  The lane width also assumes each
# side is built from op_B, op_U and op_t, whose entries under the trivial
# character are nonnegative and dominate those under any other.
_RELATION_SUITE = [
    ("B_d B_e = B_e B_d", [(2, 3), (4, 6)], lambda a, b, f: (op_B(a, op_B(b, f)), op_B(b, op_B(a, f)))),
    ("t_p B_d = B_d t_p, gcd(p,d)=1", [(2, 3), (3, 4), (5, 6)], lambda p, d, f: (op_t(p, op_B(d, f)), op_B(d, op_t(p, f)))),
    ("t_p t_q = t_q t_p", [(2, 3), (5, 7)], lambda p, q, f: (op_t(p, op_t(q, f)), op_t(q, op_t(p, f)))),
    ("t_p U_q = U_q t_p, p != q", [(3, 2), (2, 5)], lambda p, q, f: (op_t(p, op_U(q, f)), op_U(q, op_t(p, f)))),
    ("U_q U_r = U_r U_q", [(2, 3), (3, 5)], lambda q, r, f: (op_U(q, op_U(r, f)), op_U(r, op_U(q, f)))),
    ("U_q B_d = B_d U_q, gcd(q,d)=1", [(2, 3), (3, 10)], lambda q, d, f: (op_U(q, op_B(d, f)), op_B(d, op_U(q, f)))),
    ("U_q B_{q^k} = B_{q^{k-1}}", [(2, 1), (2, 2), (3, 2)], lambda q, k, f: (op_U(q, op_B(q**k, f)), op_B(q ** (k - 1), f))),
]


# |n| <= 20 for _integral_series's numerators, so |a_n(L f)| <= _SERIES_BOUND.
_SERIES_BOUND = 20 * SERIES_DENOMINATOR_LCM

# Coefficient lanes per packed block: a block packs at most
# max(1, _LANE_BUDGET // order) trials.  At order 300 that is 27 trials,
# which already shares out the per-coefficient interpreter cost; wider
# blocks run no faster and only add memory (2**16 doubled the tracemalloc
# peak of an order-300, 100-trial verify op).
_LANE_BUDGET = 2**13

# Largest --order of `qexp verify-relations`.  Past _LANE_BUDGET a block
# holds one trial, so a run costs about trials times a superlinear function
# of the order: order 20000 over 100 trials takes 2.9-3.4 s and 19.1-19.3 MB
# in a child process on a shared 2-vCPU host (4 runs), and order 10^6 over
# one trial ran past 30 s (an older measurement, not re-run).
MAX_QEXP_ORDER = 20000

# Largest --trials of `qexp verify-relations`.  A run's cost is linear in the
# trials at a fixed order: in a child process on a shared 2-vCPU host 1000
# trials take 0.25-0.28 s at order 300 and 10^5 take 1.2-1.8 s at order 8
# (3 runs each), while at order MAX_QEXP_ORDER each 100 trials take
# 2.9-3.4 s, so 1000 trials there take about 30-35 s.
MAX_QEXP_TRIALS = 1000

# Largest --k of `qexp up-matrix`.  charpoly (Faddeev-LeVerrier) takes k + 1
# products of (k+1)-square matrices whose rational entries grow with k: on a
# 2-vCPU host k = 20 takes 0.6 s, k = 30 takes 2.6 s and k = 40 takes 10 s.
MAX_UP_MATRIX_K = 30


def _lane_width(bound: int) -> int:
    """Smallest W with 2 * bound < 2^(W-1): lanes holding values in
    [-bound, bound] then agree exactly when their packings do."""
    return (2 * bound).bit_length() + 1


def _suite_bound(cases, order: int, weight: int) -> int:
    """Largest coefficient of either side of any case on the constant series
    _SERIES_BOUND under the trivial character: a bound on every side's
    coefficients on every L*f (see verify_relations)."""
    top = make_qexp([_SERIES_BOUND] * order, weight=weight)
    return max(
        abs(c) for _, params, make in cases for side in make(*params, top) for c in side.coeffs
    )


def _hecke_norm(n: int, weight: int) -> int:
    """Bound on the absolute row sums of T_n at this weight, for any
    character with values in {-1, 0, 1} (see verify_coefficient_identity)."""
    out = 1
    for p, e in factorize(n).items():
        q = p ** (weight - 1)
        prev, cur = 1, 1 + q
        for _ in range(e - 1):
            prev, cur = cur, (1 + q) * cur + q * prev
        out *= cur
    return out


def _first_failures(sides, width: int, order: int, trials: int, seed: int, weight: int, eps) -> list:
    """For each side function f -> (lhs, rhs), the first failing trial as
    (i, first_disagreement(lhs, rhs)), or None when every trial agrees.

    The trials are the series _integral_series(random.Random(seed), ...)
    draws in turn, packed in blocks as the module docstring describes.
    Only the cases that have not failed yet run on a block.  A case whose
    packed sides differ on a block where no single trial fails it is not
    Z-linear, and RuntimeError is raised.
    """
    rng = random.Random(seed)
    failures = [None] * len(sides)
    size = max(1, _LANE_BUDGET // order)
    for start in range(0, trials, size):
        if None not in failures:
            break
        stop = min(start + size, trials)
        state = rng.getstate()
        packed = _packed_series(rng, stop - start, width, order, weight, eps)
        bad = [
            j
            for j, side in enumerate(sides)
            if failures[j] is None and first_disagreement(*side(packed)) is not None
        ]
        if not bad:
            continue
        replay = random.Random()
        replay.setstate(state)
        for i in range(start, stop):
            f = _integral_series(replay, order, weight, eps)
            for j in bad:
                if failures[j] is None:
                    diff = first_disagreement(*sides[j](f))
                    if diff is not None:
                        failures[j] = (i, diff)
        if any(failures[j] is None for j in bad):
            raise RuntimeError("packed sides differ on no single trial: a side is not Z-linear")
    return failures


def verify_relations(
    order: int = 200,
    trials: int = 50,
    seed: int = 0,
    weight: int = 2,
    eps: DirichletCharacter = TRIVIAL_CHARACTER,
) -> RelationReport:
    """Check the commutation relations on seeded pseudo-random series.

    Every relation is compared coefficientwise up to the tracked reliable
    order of both sides.  Also hunts the expected counterexample showing
    t_p B_d = B_d t_p genuinely needs gcd(p, d) = 1 (p = d = 3 fails at the
    first coefficient already for f = x).

    The series f have coefficients n/d drawn from random.Random(seed), and
    _integral_series draws them scaled by L = lcm(1..12) to integers: the
    operators are Q-linear, so a relation holds on f exactly when it holds
    on L*f, and a failure prints the coefficients divided back by L.

    Each case of the suite is one side function of the lane-packed engine
    _first_failures, which checks all trials of a block at once on
    P = sum_i 2^{W(k-1-i)} L f_i.  The lane width W is derived, not guessed:
    |a_n(L f)| <= M = 20 L, and under the trivial character every operator
    has nonnegative entries that dominate the true ones (eps takes values in
    {-1, 0, 1}), so each case run once on the constant series M bounds
    either side on every trial by the largest coefficient B, and W is the
    smallest width with 2B < 2^{W-1}.  A block whose packed sides differ is
    replayed one trial at a time, which names each failing check's first
    trial (linearity guarantees one); a failed check skips later blocks.
    """
    if order < 8:
        raise ValueError("order must be >= 8")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    cases = [
        (name, params, make)
        for name, param_list, make in _RELATION_SUITE
        for params in param_list
    ]
    width = _lane_width(_suite_bound(cases, order, weight))
    firsts = _first_failures(
        [partial(make, *params) for _, params, make in cases], width, order, trials, seed, weight, eps
    )
    checks = []
    for (name, params, _), first in zip(cases, firsts):
        failure = ""
        if first is not None:
            i, (n, x, y) = first
            x, y = Fraction(x, SERIES_DENOMINATOR_LCM), Fraction(y, SERIES_DENOMINATOR_LCM)
            failure = f"trial {i}: coefficient {n}: {x} != {y}"
        checks.append(RelationCheck(name, str(params), trials, first is None, failure))
    witness = first_disagreement(
        op_t(3, op_B(3, make_qexp([1], order=order, weight=weight, eps=eps))),
        op_B(3, op_t(3, make_qexp([1], order=order, weight=weight, eps=eps))),
    )
    return RelationReport(
        order,
        trials,
        seed,
        checks,
        witness_params="t_3 B_3 vs B_3 t_3 on f = x",
        witness_found=witness is not None,
    )


def verify_coefficient_identity(
    nmax: int = 30,
    order: int | None = None,
    trials: int = 10,
    seed: int = 1,
    weight: int = 2,
    eps: DirichletCharacter = TRIVIAL_CHARACTER,
) -> RelationCheck:
    """a_1(T_n f) = a_n(f) for all n <= nmax on seeded random series, run on
    the integer series L*f by the lane-packed engine of verify_relations.

    The identity is one case whose two sides are the order-nmax series
    (a_1(T_n f))_n and (a_n(f))_n, so the first disagreement names the n a
    failing trial fails at.  a_1(T_n f) reads only a_1..a_n, so the trials
    are drawn at order nmax unless an order is given, and T_n runs on the
    head a_1..a_nmax of each series, where coeff(1) still refuses a
    coefficient past the reliable order.  The lane width comes from the
    Hecke-recursion norm N(T_n), a bound on the sum of absolute entries in
    any row of T_n for any character with values in {-1, 0, 1}: with
    q = p^{lambda-1}, N(T_p) = 1 + q,
    N(T_{p^{k+1}}) <= (1 + q) N(T_{p^k}) + q N(T_{p^{k-1}}),
    and N is submultiplicative over the coprime factors T_n composes.  So
    both sides lie in [-B, B] with B = 20 L max_n N(T_n).
    """
    if nmax < 1:
        raise ValueError("nmax must be >= 1")
    if order is None:
        order = nmax
    if order < nmax:
        raise ValueError("order must be >= nmax")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    width = _lane_width(
        _SERIES_BOUND * max(_hecke_norm(n, weight) for n in range(1, nmax + 1))
    )

    def sides(f):
        head = QExpansion(f.coeffs[:nmax], nmax, nmax, weight, eps)
        return make_qexp([op_T(n, head).coeff(1) for n in range(1, nmax + 1)]), make_qexp(head.coeffs)

    (first,) = _first_failures([sides], width, order, trials, seed, weight, eps)
    failure = "" if first is None else f"trial {first[0]}: n={first[1][0]}"
    return RelationCheck(
        "a_1(T_n f) = a_n(f)", f"n <= {nmax}", trials, first is None, failure
    )


# ---------------------------------------------------------------------------
# Oldclass matrices
# ---------------------------------------------------------------------------

CASE_DIVIDES = "divides"  # p | M: U_p restricted from level M
CASE_COPRIME = "coprime"  # p coprime to M: U_p = a_p - eps(p)p^{lambda-1} B_p on f


def build_Up_matrix(
    case: str, a_p, eps_p: int, lam: int, k: int, p: int | None = None
) -> list:
    """Rows of the matrix of U_p on the oldclass basis {f, B_p f, ...,
    B_{p^k} f}, columns giving the images of basis vectors.

    case "divides" (p | M): head entry a_p, superdiagonal of ones (M1).
    case "coprime" (p coprime to M): head column (a_p, -eps_p * p^{lam-1}),
    superdiagonal of ones (M2); the prime p itself is needed to form that
    entry, and lam >= 1 keeps it an integer.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if lam < 1:
        raise ValueError("lam must be >= 1")
    if p is not None and not is_prime(p):
        raise ValueError(f"{p} is not prime")
    entries = [[int(i == j - 1) for j in range(k + 1)] for i in range(k + 1)]
    entries[0][0] = a_p
    if case == CASE_DIVIDES:
        return entries
    if case == CASE_COPRIME:
        if p is None:
            raise ValueError("case 'coprime' needs the prime p")
        entries[1][0] = -(eps_p * p ** (lam - 1))
        return entries
    raise ValueError(f"unknown case {case!r}; use 'divides' or 'coprime'")


def _div_scalar(x, k: int):
    if isinstance(x, int):
        return Fraction(x, k)
    return x / k


def _matmul(a, b):
    n, m, l = len(a), len(b), len(b[0])
    return [
        [sum(a[i][t] * b[t][j] for t in range(m)) for j in range(l)] for i in range(n)
    ]


def _mat_add_scalar(a, c):
    out = [row[:] for row in a]
    for i in range(len(a)):
        out[i][i] = out[i][i] + c
    return out


def charpoly(matrix) -> list:
    """Characteristic polynomial coefficients [c_0, ..., c_n] (monic) of a
    square matrix over any exact ring with division by integers
    (Faddeev-LeVerrier)."""
    n = len(matrix)
    coeffs: list = [0] * (n + 1)
    coeffs[n] = 1
    mk = [row[:] for row in matrix]
    for k in range(1, n + 1):
        tr = mk[0][0]
        for i in range(1, n):
            tr = tr + mk[i][i]
        ck = -_div_scalar(tr, k)
        coeffs[n - k] = ck
        if k < n:
            mk = _matmul(matrix, _mat_add_scalar(mk, ck))
    return coeffs


@dataclass
class JordanReport:
    """Jordan census: eigenvalues with their block sizes, largest first."""

    blocks: list  # list of (eigenvalue, tuple_of_sizes)

    def sizes_for(self, eig):
        for e, sizes in self.blocks:
            if e == eig:
                return sizes
        return ()


def jordan_structure(matrix) -> JordanReport:
    """Jordan block census of a rational matrix A whose characteristic
    polynomial is a power of X times a factor of degree at most two (the
    shape every oldclass matrix here has), read over Q.

    For each monic irreducible factor f of the characteristic polynomial (X,
    X - lambda, or an irreducible quadratic), f(A) is invertible on the other
    roots' generalized eigenspaces and conjugate roots have the same blocks,
    so each root of f has (rank f(A)^{j-1} - rank f(A)^j) / deg f blocks of
    size at least j, by arith.rank on L f(A) (L clears its denominators) and
    its powers.  The roots of an irreducible X^2 + bX + c whose discriminant
    is u/v in lowest terms are named Quad(u v, -b/2, +-1/(2v)): nothing is
    factorised and no matrix over Q(sqrt(u v)) is built.

    This checks the paper's lemma on U_p over the oldclass span {B_{p^j} f}:
    the census of M1 (p dividing the level), and of M2, whose Jordan form is
    M3 (distinct roots) or M4 (a double root) beside a nilpotent block.
    """
    a = [[Fraction(x) if isinstance(x, int) else x for x in row] for row in matrix]
    if not all(isinstance(x, Fraction) for row in a for x in row):
        raise ValueError("jordan_structure expects rational entries")
    cp = charpoly(a)
    m0 = next(i for i, c in enumerate(cp) if c != 0)
    rest = cp[m0:]
    factors = []  # (coefficients c_0..c_{k-1} of a monic factor, its roots)
    if len(rest) == 2:
        factors.append((rest[:1], [-rest[0]]))
    elif len(rest) == 3:
        c, b = rest[0], rest[1]
        disc = b * b - 4 * c
        v = disc.numerator * disc.denominator
        r = isqrt(max(v, 0))
        if r * r == v:  # rational roots, one when disc = 0
            sc = Fraction(r, disc.denominator)
            factors += [([-x], [x]) for x in dict.fromkeys(((-b + sc) / 2, (-b - sc) / 2))]
        else:
            h = Fraction(1, 2 * disc.denominator)
            factors.append((rest[:2], [Quad(v, -b / 2, h), Quad(v, -b / 2, -h)]))
    elif len(rest) > 3:
        raise NotImplementedError("characteristic polynomial not of oldclass shape")
    if m0 > 0:
        factors.append(([0], [Fraction(0)]))
    blocks = []
    for low, roots in factors:
        f_a = _mat_add_scalar(a, low[-1])  # f(A) by Horner
        for c in reversed(low[:-1]):
            f_a = _mat_add_scalar(_matmul(a, f_a), c)
        den = lcm(*(x.denominator for row in f_a for x in row))
        f_a = [[x.numerator * (den // x.denominator) for x in row] for row in f_a]
        ranks, power = [len(a), rank(f_a, 0)], f_a
        while ranks[-2] != ranks[-1]:
            power = _matmul(power, f_a)
            ranks.append(rank(power, 0))
        at_least = [(r - s) // len(low) for r, s in zip(ranks, ranks[1:])]  # blocks of size >= j
        sizes = tuple(sum(g >= i for g in at_least) for i in range(1, at_least[0] + 1))
        blocks += [(root, sizes) for root in roots]
    return JordanReport(blocks)


# ---------------------------------------------------------------------------
# Kernel vectors on genuine series
# ---------------------------------------------------------------------------


@dataclass
class KernelCheckReport:
    precondition_ok: bool
    kernel_ok: bool | None
    m4_case: bool
    m4_ok: bool | None
    checked_order: int
    detail: str = ""

    @property
    def passed(self) -> bool:
        return bool(
            self.precondition_ok and self.kernel_ok and self.m4_ok is not False
        )


def kernel_vector_check(f: QExpansion, p: int, order: int) -> KernelCheckReport:
    """For a normalized t_p eigen-series f (checked first), verify that U_p
    annihilates B_{p^2} f - (a_p/theta) B_p f + (1/theta) f up to the given
    order, theta = eps(p) p^{lambda-1}.

    When a_p^2 = 4 theta, additionally checks that a_p f - 2 theta B_p f is
    a U_p eigenvector for the eigenvalue a_p/2 (the M4 branch; excluded for
    weight 2 and trivial character, but kept).

    These are the kernel and eigenvectors of the paper's lemma on U_p over
    the oldclass span (cases M2-M4), checked on genuine series.
    """
    if not is_prime(p):
        raise ValueError("p must be prime")
    if order < 1:
        raise ValueError("order must be >= 1")
    theta = f.eps(p) * p ** (f.weight - 1)
    if theta == 0:
        raise ValueError("eps(p) = 0: the kernel combination needs p coprime to the modulus")
    if f.raw(1) != 1:
        return KernelCheckReport(False, None, False, None, 0, "series not normalized (a_1 != 1)")
    tp = op_t(p, f)
    a_p = tp.raw(1)
    bad = first_disagreement(tp, a_p * f)
    if bad is not None:
        return KernelCheckReport(
            False, None, False, None, 0,
            f"not a t_{p} eigen-series: coefficient {bad[0]}",
        )
    v = op_B(p * p, f) - _div_scalar(a_p, theta) * op_B(p, f) + Fraction(1, theta) * f
    w = op_U(p, v)
    if w.reliable < order:
        raise ValueError(
            f"series too short: U_{p} image reliable to {w.reliable} < {order}"
        )
    kernel_ok = all(c == 0 for c in w.coeffs[:order])
    m4_case = a_p * a_p == 4 * theta
    m4_ok = None
    if m4_case:
        u = a_p * f - (2 * theta) * op_B(p, f)
        lhs = 2 * op_U(p, u)
        rhs = a_p * u
        if min(lhs.reliable, rhs.reliable) < order:
            raise ValueError(f"series too short for the order-{order} eigenvector check")
        bad = first_disagreement(lhs, rhs)
        m4_ok = bad is None or bad[0] > order
    return KernelCheckReport(True, kernel_ok, m4_case, m4_ok, order)


__all__ = [
    "Quad",
    "DirichletCharacter",
    "TRIVIAL_CHARACTER",
    "QExpansion",
    "make_qexp",
    "first_disagreement",
    "op_B",
    "op_t",
    "op_U",
    "op_T",
    "SERIES_DENOMINATOR_LCM",
    "RelationCheck",
    "RelationReport",
    "verify_relations",
    "verify_coefficient_identity",
    "MAX_QEXP_ORDER",
    "MAX_QEXP_TRIALS",
    "MAX_UP_MATRIX_K",
    "CASE_DIVIDES",
    "CASE_COPRIME",
    "build_Up_matrix",
    "charpoly",
    "JordanReport",
    "jordan_structure",
    "KernelCheckReport",
    "kernel_vector_check",
]
