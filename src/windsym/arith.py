"""Integer and modular arithmetic helpers shared across the package."""

from functools import lru_cache
from itertools import compress
from math import gcd, isqrt, log2, prod

# Witness set proven deterministic for n < 3.317e24 (Sorenson-Webster).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin.

    Proven correct for n below ~3.3e24; above that the same witness set is
    extended with the first 64 primes (no counterexample is known, and the
    desk-scale inputs here stay far below the proven bound anyway).
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    bases = _MR_BASES
    if n >= _MR_LIMIT:
        bases = tuple(p for p in range(2, 312) if is_prime(p))
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division (desk-scale inputs)."""
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def iroot(x: int, k: int) -> int:
    """floor(x^(1/k)) for x >= 0 and k >= 1, by Newton's method on integers.

    Any start at or above the root works: each step
    ((k-1) r + x // r^(k-1)) // k stays at or above it while r is above it,
    so the steps fall to the root and stop there.  The start is 2^(log2(x)/k)
    from a float log2 of x's top 64 bits, raised by a small margin, so a few
    quadratically converging steps remain; should rounding leave it with
    r^k < x, it is 2^ceil(bits/k) instead, which is always above the root
    but can take about k steps to come down from twice the root.
    """
    if x < 2:
        return x
    bits = x.bit_length()
    shift = max(bits - 64, 0)
    e = (log2(x >> shift) + shift) / k + 2.0**-30
    low = max(int(e) - 52, 0)  # 2^(e - low) < 2^53 stays exact as a float
    r = (int(2.0 ** (e - low)) + 1) << low
    if r**k < x:
        r = 1 << -(-bits // k)
    while True:
        s = ((k - 1) * r + x // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


@lru_cache(maxsize=1)
def _small_primorial() -> int:
    """The product of the primes below 2^16 (94,027 bits), sieved on first use."""
    sieve = bytearray([1]) * (1 << 16)
    sieve[:2] = b"\0\0"
    for q in range(2, 1 << 8):
        if sieve[q]:
            sieve[q * q :: q] = bytes(len(range(q * q, 1 << 16, q)))
    return prod(compress(range(1 << 16), sieve))


def prime_power(n: int) -> tuple[int, int] | None:
    """(p, e) with n = p^e, p prime and e >= 1, or None.

    One gcd with the product of the primes below 2^16 gives the product g
    of n's prime factors below 2^16.  When g > 1 it must be p itself (a
    prime below 2^16), and n a power of it; so a value with a small factor
    is settled in milliseconds at any size.  Otherwise every prime factor of
    n is above 2^16, so n = r^q with q > 1 needs 16q < log2(n).  Exact q-th
    roots, for primes q from 2 up to that bound, strip n down to a base r
    that is no perfect power, with n = r^e; were n some p^f, r would be p,
    so n is a prime power exactly when r is prime.  That is O(log n)
    integer roots and one primality test, at any size of p.
    """
    if n < 2:
        return None
    g = gcd(n, _small_primorial())
    if g > 1:
        if g >> 16 or not is_prime(g):  # two or more primes below 2^16 divide n
            return None
        e = 0
        while n % g == 0:
            n //= g
            e += 1
        return (g, e) if n == 1 else None
    e, q = 1, 2
    while 16 * q < n.bit_length():
        r = iroot(n, q)
        if r**q == n:
            n, e = r, e * q
        else:
            q += 1
            while not is_prime(q):
                q += 1
    return (n, e) if is_prime(n) else None


def divisors(n: int) -> list[int]:
    divs = [1]
    for p, e in factorize(n).items():
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def sigma1(n: int) -> int:
    """Sum of divisors."""
    out = 1
    for p, e in factorize(n).items():
        out *= (p ** (e + 1) - 1) // (p - 1)
    return out


def euler_phi(n: int) -> int:
    out = n
    for p in factorize(n):
        out = out // p * (p - 1)
    return out


def smallest_prime_excluding(p: int) -> int:
    """Smallest prime different from p."""
    q = 2
    while q == p or not is_prime(q):
        q += 1
    return q


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n)."""
    if n == 0:
        return 1 if abs(a) == 1 else 0
    k = 1
    if n < 0:
        n = -n
        if a < 0:
            k = -1
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            k = -k
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                k = -k
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            k = -k
        a %= n
    return k if n == 1 else 0


def ceil_isqrt(v: int) -> int:
    """Smallest integer m with m*m >= v (v >= 0)."""
    s = isqrt(v)
    return s if s * s == v else s + 1


def rank(rows: list[list[int]], char: int) -> int:
    """Rank of small dense integer rows over Q (char 0) or F_l (char l): the
    package's one row elimination, for the criterion and the Jordan census.

    Each step replaces a row by pivot * row - entry * pivot_row, taken mod l
    over F_l.  Over Q this is fraction-free (Bareiss) elimination: dividing
    by the previous pivot is exact, so entries stay integers of the size of
    a minor and no division ever rounds.
    """
    rows = [[x % char for x in r] if char else list(r) for r in rows]
    rows = [r for r in rows if any(r)]
    found = 0
    prev = 1
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(found, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[found], rows[piv] = rows[piv], rows[found]
        pr = rows[found]
        pv = pr[c]
        for i in range(found + 1, len(rows)):
            f = rows[i][c]
            new = [pv * x - f * y for x, y in zip(rows[i], pr)]
            rows[i] = [v % char for v in new] if char else [v // prev for v in new]
        prev = pv
        found += 1
        if found == len(rows):
            break
    return found


__all__ = [
    "is_prime",
    "factorize",
    "iroot",
    "prime_power",
    "divisors",
    "sigma1",
    "euler_phi",
    "smallest_prime_excluding",
    "kronecker",
    "ceil_isqrt",
    "rank",
]
