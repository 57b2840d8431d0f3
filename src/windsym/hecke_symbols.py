"""Hecke images of {0, oo} on Manin symbols and the criterion rank test.

T_r{0, oo} is the sum of the classes of (w, t) over all integer tuples
(u, v, w, t) with 0 <= v < u, 0 <= w < t and ut - vw = r, where classes with
p | gcd(w, t) are dropped.  Admissible tuples satisfy u + t - 1 <= r (from
ut - vw >= ut - (u-1)(t-1)), so enumeration is O(r^3) and independent of the
level.

Sigma_r collects every class occurring for some determinant value in 1..r,
minus the leading class (1, r).  The written lower bound 0 on the determinant
is unreachable under the strict inequalities, so determinants run over 1..r.

The rank test checks F_l-linear independence of T_1{0,oo}, ..., T_{sd}{0,oo}
in the quotient presentation, with s the smallest prime different from p;
that independence is the sufficient criterion ruling out degree-d points of
prime-power order, and it is guaranteed once p^n clears the threshold
C^2 (sd)^6 with C^2 = 65 (129 when p = 2).
"""

from dataclasses import dataclass, field as dc_field
from typing import Iterator, Optional

from .arith import is_prime, smallest_prime_excluding
from .rel_homology import H1Presentation, build_presentation, reduce_vector
from .residue_p1 import MAX_HECKE_R, P1Table, PrimePower


@dataclass
class SymbolVector:
    """Sparse vector over P^1 indices; no explicit zero entries."""

    table: P1Table
    coeffs: dict[int, int] = dc_field(default_factory=dict)

    def add_term(self, idx: int, c: int) -> None:
        v = self.coeffs.get(idx, 0) + c
        if v:
            self.coeffs[idx] = v
        elif idx in self.coeffs:
            del self.coeffs[idx]

    def total(self) -> int:
        return sum(self.coeffs.values())

    def support(self) -> set[int]:
        return set(self.coeffs)


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
    out = SymbolVector(table)
    for w, t, mult in admissible_pairs(r):
        idx = table.index(w, t)
        if idx is not None:
            out.add_term(idx, mult)
    return out


@dataclass(frozen=True)
class SigmaRSet:
    """Classes reachable by T_i{0,oo} for i <= r, minus the leading class (1, r)."""

    r: int
    members: frozenset[int]
    leading_index: int

    def __contains__(self, idx: int) -> bool:
        return idx in self.members


def sigma_r_set(r: int, table: P1Table) -> SigmaRSet:
    if r < 1:
        raise ValueError("r must be >= 1")
    members: set[int] = set()
    for k in range(1, r + 1):
        for w, t, _ in admissible_pairs(k):
            idx = table.index(w, t)
            if idx is not None:
                members.add(idx)
    leading = table.index(1, r)
    if leading is None:
        raise RuntimeError(f"(1, {r}) defines no point of P^1")
    members.discard(leading)
    return SigmaRSet(r, frozenset(members), leading)


def _coordinate_rank(rows: list[list[int]], char: int) -> int:
    """Rank of small dense integer coordinate rows over Q (char 0) or F_l.

    Each elimination step replaces a row by pivot * row - entry * pivot_row,
    taken mod l over F_l.  Over Q this is fraction-free (Bareiss) elimination:
    dividing by the previous pivot is exact, so entries stay integers of the
    size of a minor and no division ever rounds.
    """
    rows = [[x % char for x in r] if char else list(r) for r in rows]
    rows = [r for r in rows if any(r)]
    rank = 0
    prev = 1
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pr = rows[rank]
        pv = pr[c]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c]
            new = [pv * x - f * y for x, y in zip(rows[i], pr)]
            rows[i] = [v % char for v in new] if char else [v // prev for v in new]
        prev = pv
        rank += 1
        if rank == len(rows):
            break
    return rank


def hecke_span_rank(
    pp: PrimePower,
    imax: int,
    l: int,
    presentation: Optional[H1Presentation] = None,
) -> int:
    """Rank of {T_i{0,oo} : 1 <= i <= imax} in the quotient over F_l, or
    over Q when l = 0.

    The images are reduced once, to integer coordinates; only the rank is
    taken over the field.
    """
    if l and not is_prime(l):
        raise ValueError(f"{l} is not prime")
    if imax < 0:
        raise ValueError("imax must be >= 0")
    if imax == 0:
        return 0
    if presentation is None:
        presentation = build_presentation(P1Table(pp))
    rows = [
        reduce_vector(winding_image(i, presentation.table), presentation)
        for i in range(1, imax + 1)
    ]
    return _coordinate_rank(rows, l)


@dataclass
class CriterionThreshold:
    """The level C^2 (sd)^6 from which the rank test is guaranteed to pass."""

    p: int
    d: int
    s: int
    c_squared: int
    threshold: int

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "p": self.p,
            "d": self.d,
            "s": self.s,
            "c_squared": self.c_squared,
            "threshold": self.threshold,
        }


def criterion_threshold(p: int, d: int) -> CriterionThreshold:
    """Independence threshold C^2 (sd)^6, s the smallest prime != p."""
    if not is_prime(p):
        raise ValueError("p must be prime")
    if d < 1:
        raise ValueError("d must be >= 1")
    s = smallest_prime_excluding(p)
    c2 = 129 if p == 2 else 65
    return CriterionThreshold(p, d, s, c2, c2 * (s * d) ** 6)


@dataclass
class CriterionReport:
    """Outcome of the independence test (criterion condition) for one (p, n, d, l)."""

    p: int
    n: int
    d: int
    s: int
    l: int
    required_rank: int
    achieved_rank: int
    passed: bool
    threshold: int
    threshold_satisfied: bool
    l_equals_p: bool

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
        if self.l_equals_p:
            out["warning"] = "l equals p; the test is normally run with l != p"
        return out


def check_kamienny_condition3(p: int, n: int, d: int, l: int) -> CriterionReport:
    """Rank of T_1{0,oo}, ..., T_{sd}{0,oo} over F_l against the required sd.

    The threshold flag records whether p^n >= C^2 (sd)^6, the regime where
    independence is guaranteed; outside it the report still carries the
    computed rank without asserting anything.  An s*d above MAX_HECKE_R is
    refused with ValueError before the table or any image is built.
    """
    if not is_prime(l):
        raise ValueError(f"l={l} must be prime")
    pp = PrimePower(p, n)
    thr = criterion_threshold(p, d)
    required = thr.s * d
    if required > MAX_HECKE_R:
        raise ValueError(f"s*d = {required} exceeds the limit {MAX_HECKE_R}")
    achieved = hecke_span_rank(pp, required, l)
    return CriterionReport(
        p=p,
        n=n,
        d=d,
        s=thr.s,
        l=l,
        required_rank=required,
        achieved_rank=achieved,
        passed=achieved == required,
        threshold=thr.threshold,
        threshold_satisfied=pp.modulus >= thr.threshold,
        l_equals_p=l == p,
    )


__all__ = [
    "SymbolVector",
    "SigmaRSet",
    "CriterionThreshold",
    "CriterionReport",
    "admissible_pairs",
    "winding_image",
    "sigma_r_set",
    "hecke_span_rank",
    "criterion_threshold",
    "check_kamienny_condition3",
]
