"""The paper's closed-form bounds, in exact integer and rational arithmetic:
the order bound 2(1 + l^d) with its per-case variants, the independence
threshold C^2 (sd)^6 (s the smallest prime other than p), the per-prime
torsion bound, that threshold times l^d - 1 for the auxiliary prime l
(65 (3^d - 1)(2d)^6 for p not in {2, 3}, 65 (5^d - 1)(2d)^6 for p = 3 and
129 (3^d - 1)(3d)^6 for p = 2), and the exact consistency checks of the
constants C' (of the inverse-pair lemma) and C with
lambda = (42119/42120)(379079/379080).

This module imports only the standard library and arith, so evaluating a
bound loads no layer.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .arith import is_prime, smallest_prime_excluding


def c_squares(p: int) -> tuple[int, int]:
    """(C'^2, C^2) at the prime p: C' of the inverse-pair lemma
    |A||B| >= C' p^{3n/2}, C of the threshold.  C' = 8 and C^2 = 65 for odd
    p, C' = 8 sqrt(2) and C^2 = 129 for p = 2."""
    return (128, 129) if p == 2 else (64, 65)


def auxiliary_prime(p: int) -> int:
    """The prime l of good reduction whose l^d - 1 relates the reduced
    prime-power order to the original one: 5 at p = 3, else 3."""
    return 5 if p == 3 else 3


def regime_threshold(p: int, imax: int) -> int:
    """C^2 imax^6: from this level p^n on, T_1..T_imax{0,oo} are guaranteed
    independent (imax = sd in the criterion)."""
    return c_squares(p)[1] * imax**6


@dataclass
class BoundReport:
    """One evaluated bound formula with its exact value and tagged variants."""

    formula: str
    inputs: dict
    value: int
    variants: dict | None = None
    notes: str = ""

    def to_json(self) -> dict:
        out = {"schema": 1, "formula": self.formula, "inputs": self.inputs,
               "value": self.value}
        if self.variants:
            out["variants"] = self.variants
        if self.notes:
            out["notes"] = self.notes
        return out


def prop11_bound(l: int, d: int) -> int:
    """Order bound 2(1 + l^d) for the surviving reduction cases."""
    if not is_prime(l):
        raise ValueError(f"{l} is not prime")
    if d < 1:
        raise ValueError("d must be >= 1")
    return 2 * (1 + l**d)


def prop11_report(l: int, d: int) -> BoundReport:
    """The 2(1 + l^d) bound plus the sharper per-case variants.

    The Weil variant (l^{d/2} + 1)^2 is irrational for odd d; its value is
    reported as the exact integer floor l^d + 1 + isqrt(4 l^d) (equality for
    even d).  Additive reduction bounds the point order by 1, 3, or 4
    according to p >= 5, p = 3, p = 2.
    """
    value = prop11_bound(l, d)
    ld = l**d
    variants = {
        "weil_good_reduction": ld + 1 + isqrt(4 * ld),
        "split_multiplicative": ld - 1,
        "twisted_multiplicative_neutral": ld + 1,
        "twisted_multiplicative_general": 2 * (1 + ld),
        "additive_p_ge_5": 1,
        "additive_p_3": 3,
        "additive_p_2": 4,
    }
    return BoundReport(
        "2(1+l^d)",
        {"l": l, "d": d},
        value,
        variants,
        "weil variant reported as exact integer floor; equality when d is even",
    )


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
        raise ValueError(f"{p} is not prime")
    if d < 1:
        raise ValueError("d must be >= 1")
    s = smallest_prime_excluding(p)
    return CriterionThreshold(p, d, s, c_squares(p)[1], regime_threshold(p, s * d))


def cor18_bound(p: int, d: int) -> int:
    """Torsion bound for prime-power order p^n over a degree-d field: the
    threshold C^2 (sd)^6 times l^d - 1, l the auxiliary prime."""
    return criterion_threshold(p, d).threshold * (auxiliary_prime(p) ** d - 1)


LAMBDA_FACTORS = (Fraction(42119, 42120), Fraction(379079, 379080))


@dataclass
class ConstantsReport:
    lam: Fraction
    checks: list  # (name, holds, margin as Fraction)

    @property
    def all_passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "lambda": str(self.lam),
            "checks": [
                {"name": name, "pass": ok, "margin": str(margin)}
                for name, ok, margin in self.checks
            ],
            "pass": self.all_passed,
        }


def constants_consistency() -> ConstantsReport:
    """Exact rational verification of the constants behind the thresholds.

    lambda is the product (42119/42120)(379079/379080); the walk intervals
    give |A||B| >= lambda p^{2n}/D^3, and the inverse-pair lemma needs
    C' p^{3n/2}, so the thresholds work iff C'^2/lambda^2 <= C^2 for odd p
    and for p = 2.  Also re-derives the two interval-size prerequisites
    used to introduce lambda.
    """
    lam = LAMBDA_FACTORS[0] * LAMBDA_FACTORS[1]
    lam2 = lam * lam
    odd, two = c_squares(3), c_squares(2)
    checks = [(f"{cp2}/lambda^2 <= {c2}", cp2 / lam2 <= c2, c2 - cp2 / lam2)
              for cp2, c2 in (odd, two)]
    # p^n/D^2 >= C^2 D^4 >= C^2 6^4 = 2*42120 for D >= 6 and odd p, so
    # subtracting 2 costs at most a (1/42120)-fraction of p^n/D^2.
    c2 = odd[1]
    checks += [
        ("lambda < 1", lam < 1, 1 - lam),
        (f"{c2}*6^4 >= 2*42120 (interval A prerequisite)", c2 * 6**4 >= 2 * 42120,
         Fraction(c2 * 6**4 - 2 * 42120)),
        ("D+2 <= (4/3)D for D >= 6 (boundary exact)", 3 * (6 + 2) <= 4 * 6,
         Fraction(4 * 6 - 3 * (6 + 2))),
    ]
    # the linear inequality 3(D+2) <= 4D has positive slope in D, so the
    # boundary check at D = 6 settles every D >= 6; spot-check anyway.
    spot = all(3 * (d + 2) <= 4 * d for d in range(6, 200))
    checks.append(("D+2 <= (4/3)D for 6 <= D < 200 (spot check)", spot, Fraction(0)))
    return ConstantsReport(lam, checks)


__all__ = [
    "BoundReport", "ConstantsReport", "CriterionThreshold", "LAMBDA_FACTORS",
    "auxiliary_prime", "c_squares", "constants_consistency", "cor18_bound",
    "criterion_threshold", "prop11_bound", "prop11_report",
    "regime_threshold",
]
