"""Reference values the benchmark checks the CLI's outputs against.

Everything here is the benchmark's own code and reaches its answer by a
different route from the library: trial division instead of Miller-Rabin,
the classical genus and cusp-count formulas of X_0(N) instead of a
presentation, determinants and interpolation instead of Faddeev-LeVerrier,
and a scan from the other end for inverse pairs.
"""

from fractions import Fraction
from math import gcd


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def next_prime(n: int) -> int:
    """Smallest prime >= n."""
    while not is_prime(n):
        n += 1
    return n


def prime_powers_up_to(limit: int) -> list[tuple[int, int]]:
    """All (p, n) with p prime, n >= 1 and p^n <= limit, sorted by p^n."""
    out = []
    for p in range(2, limit + 1):
        if is_prime(p):
            v, n = p, 1
            while v <= limit:
                out.append((p, n))
                v *= p
                n += 1
    return sorted(out, key=lambda pn: pn[0] ** pn[1])


def p1_size(p: int, n: int) -> int:
    return p**n + p ** (n - 1)


def smallest_prime_other_than(p: int) -> int:
    return 3 if p == 2 else 2


def criterion_threshold(p: int, d: int) -> int:
    """C^2 (sd)^6 with C^2 = 129 for p = 2 and 65 otherwise."""
    s = smallest_prime_other_than(p)
    return (129 if p == 2 else 65) * (s * d) ** 6


# Levels p^n <= 2000 at which T_1{0,oo}, ..., T_s{0,oo} are dependent over
# F_l for every l in {2, 3, 5, 7} (d = 1); every other level <= 2000 passes.
CRITERION_EXCEPTIONS = frozenset({2, 3, 4, 5, 7, 8, 9, 13, 16, 25})


def _euler_phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def _kronecker_minus4(p: int) -> int:
    return 0 if p == 2 else (1 if p % 4 == 1 else -1)


def _kronecker_minus3(p: int) -> int:
    return 0 if p == 3 else (1 if p % 3 == 1 else -1)


def cusp_count(p: int, n: int) -> int:
    level = p**n
    return sum(
        _euler_phi(gcd(p**e, level // p**e)) for e in range(n + 1)
    )


def genus_x0(p: int, n: int) -> int:
    """Genus of X_0(p^n) from the index, elliptic points and cusps."""
    mu = p1_size(p, n)
    nu2 = 0 if p == 2 and n >= 2 else 1 + _kronecker_minus4(p)
    nu3 = 0 if p == 3 and n >= 2 else 1 + _kronecker_minus3(p)
    g = 1 + Fraction(mu, 12) - Fraction(nu2, 4) - Fraction(nu3, 3) - Fraction(cusp_count(p, n), 2)
    if g.denominator != 1:
        raise ArithmeticError(f"non-integral genus for {p}^{n}")
    return int(g)


def relative_homology_rank(p: int, n: int) -> int:
    """Rank of H_1(X_0(p^n), cusps): 2g + c - 1."""
    return 2 * genus_x0(p, n) + cusp_count(p, n) - 1


def _det(rows: list[list[Fraction]]) -> Fraction:
    a = [list(r) for r in rows]
    size = len(a)
    det = Fraction(1)
    for c in range(size):
        piv = next((i for i in range(c, size) if a[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        for i in range(c + 1, size):
            f = a[i][c] / a[c][c]
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return det


def charpoly(entries: list[list[Fraction]]) -> list[Fraction]:
    """Coefficients [c_0, ..., c_n] of det(x I - M), by evaluating the
    determinant at x = 0..n and Lagrange interpolation."""
    size = len(entries)
    xs = list(range(size + 1))
    ys = [
        _det([[Fraction(int(i == j) * x) - entries[i][j] for j in range(size)] for i in range(size)])
        for x in xs
    ]
    coeffs = [Fraction(0)] * (size + 1)
    for i, xi in enumerate(xs):
        basis = [Fraction(1)]  # prod_{j != i} (x - xj), lowest degree first
        denom = Fraction(1)
        for j, xj in enumerate(xs):
            if j == i:
                continue
            basis = [Fraction(0)] + basis
            for k in range(len(basis) - 1):
                basis[k] -= xj * basis[k + 1]
            denom *= xi - xj
        for k, b in enumerate(basis):
            coeffs[k] += ys[i] * b / denom
    return coeffs


def up_matrix(case: str, a_p: Fraction, eps_p: int, lam: int, k: int, p: int) -> list[list[Fraction]]:
    """U_p on the oldclass basis: a_p in the corner, ones on the
    superdiagonal, and -eps_p p^(lam-1) below the corner when p is coprime
    to the level."""
    size = k + 1
    m = [[Fraction(int(j == i + 1)) for j in range(size)] for i in range(size)]
    m[0][0] = a_p
    if case == "coprime":
        m[1][0] = Fraction(-eps_p * p ** (lam - 1))
    return m


def inverse_pair_exists(a: tuple[int, int], b: tuple[int, int], modulus: int, p: int) -> tuple[int, int] | None:
    """Some (y, z) with y in [a0, a1], z in [b0, b1] and y z = -1 mod p^n,
    scanning B from its top end; None when there is none."""
    a_lo, a_hi = a
    b_lo, b_hi = b
    for z in range(b_hi, b_lo - 1, -1):
        if z % p:
            y = -pow(z, -1, modulus) % modulus
            if a_lo <= y <= a_hi:
                return y, z
    return None


def lemma53_satisfied(product: int, p: int, n: int) -> bool:
    """|A||B| >= C' p^(3n/2), squared: C'^2 = 128 for p = 2, else 64."""
    return product > 0 and product * product >= (128 if p == 2 else 64) * p ** (3 * n)
