"""Shared integer machinery: prime sieves, factorization, exact roots of unity.

All bulk tables live in a SieveContext, built once per bound N and cached,
so that several functions sieved at the same N share the primes and the
additive statistics (Omega, omega, squarefree mask, tau, radical).  The primes
come from a boolean sieve of Eratosthenes; every statistic is built on first
use, and Omega and tau start from a copy of omega.

Every sieve over [1, N] splits the primes at sqrt(N).  A small prime p <= sqrt(N)
gets one strided slice per prime power p^k <= N.  The large primes q > sqrt(N)
share one vectorized pass, `large_prime_multiples`: every n <= N has at most
one such factor, and it is the largest, so each n is touched at most once and
after all of its small primes.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InputError, ResourceError

__all__ = [
    "e",
    "RootOfUnity",
    "Zero",
    "ZERO",
    "ONE",
    "MINUS_ONE",
    "snap_root_of_unity",
    "SieveContext",
    "get_context",
    "primes_upto",
    "large_prime_multiples",
    "factorize",
    "is_prime",
    "totient",
    "mem_cap_bytes",
    "check_budget",
    "geometric_grid",
    "grid_sums",
    "running_means",
    "residue_sums",
    "class_sums",
]


def e(x):
    """e(x) = exp(2*pi*i*x); accepts scalars or numpy arrays."""
    return np.exp(2j * np.pi * x)


def roots_of_unity(j: np.ndarray, b: int) -> np.ndarray:
    """e(j/b) at each integer j of an array (of int or float dtype), with
    exact 0 and +-1 components snapped.

    Snapping makes the order-1, -2 and -4 roots exact, so catalog values
    like lambda(n) and chi mod 4 compare exactly against +-1 and +-i.  Each
    root is computed on its own, so e(j/b) is the same bits whatever else j
    holds: roots_of_unity(j, b) is root_table(b)[j].
    """
    roots = e(j / b)
    for part in (roots.real, roots.imag):
        part[np.abs(part) < 1e-14] = 0.0
        part[np.abs(part - 1.0) < 1e-14] = 1.0
        part[np.abs(part + 1.0) < 1e-14] = -1.0
    return roots


def root_table(b: int) -> np.ndarray:
    """The b-th roots of unity e(j/b), j = 0, ..., b - 1, snapped."""
    # 40 B per root, the ru_maxrss growth at b = 10^6, 10^7 and 3 * 10^7: the
    # float angles (8), 2 pi i times them (16) and their exponentials (16)
    check_budget(40 * b, f"a table of the {b}-th roots of unity")
    return roots_of_unity(np.arange(b), b)


# --------------------------------------------------------------------------
# Exact value representations

@dataclass(frozen=True)
class Zero:
    """The exact complex value 0 (used as a level-set target)."""

    def __repr__(self):
        return "Zero()"

    @property
    def value(self) -> complex:
        return 0j


ZERO = Zero()


@dataclass(frozen=True)
class RootOfUnity:
    """The exact root of unity e(num/den), stored as a reduced fraction mod 1."""

    num: int
    den: int

    def __post_init__(self):
        if self.den <= 0:
            raise InputError(f"root of unity needs a positive denominator, got {self.den}")
        g = math.gcd(self.num % self.den, self.den)
        object.__setattr__(self, "num", (self.num % self.den) // g)
        object.__setattr__(self, "den", self.den // g)

    @property
    def value(self) -> complex:
        return complex(e(self.num / self.den))

    def __mul__(self, other: "RootOfUnity") -> "RootOfUnity":
        d = self.den * other.den
        return RootOfUnity(self.num * other.den + other.num * self.den, d)

    def __pow__(self, k: int) -> "RootOfUnity":
        return RootOfUnity(self.num * k, self.den)

    def __repr__(self):
        if self.den == 1:
            return "RootOfUnity(1)"
        if (self.num, self.den) == (1, 2):
            return "RootOfUnity(-1)"
        return f"e({self.num}/{self.den})"


ONE = RootOfUnity(0, 1)
MINUS_ONE = RootOfUnity(1, 2)


def snap_root_of_unity(z: complex, max_den: int = 64) -> RootOfUnity | None:
    """Snap a unimodular complex number to an exact root of unity.

    Returns None when |z| is not within 1e-9 of 1, or no e(a/q) with
    q <= max_den lies within 1e-9 of z.
    """
    if abs(abs(z) - 1.0) > 1e-9:
        return None
    theta = math.atan2(z.imag, z.real) / (2 * math.pi) % 1.0
    cand = Fraction(theta).limit_denominator(max_den)
    r = RootOfUnity(cand.numerator, cand.denominator)
    if abs(r.value - z) <= 1e-9:
        return r
    return None


# --------------------------------------------------------------------------
# Memory budget

DEFAULT_MEM_CAP_MB = 4096


def mem_cap_bytes() -> int:
    """Configured memory cap for sieves and twist scans (env MULTFUN_MEM_CAP_MB,
    a positive number of megabytes, default 4096).

    A twist scan is charged for one chunk of K primes, about 16 MB: 8 B per
    prime for each row it holds, per scanned t (the t >= 0 of a grid that is
    its own negation, else every t) cos(t log p), sin(t log p) when f or a
    character is complex and a scratch row when both are, and per character
    the real part of its conjugate values, the imaginary part too when some
    character is complex."""
    raw = os.environ.get("MULTFUN_MEM_CAP_MB", "").strip() or str(DEFAULT_MEM_CAP_MB)
    if not raw.isdecimal() or int(raw) < 1:
        raise InputError(f"MULTFUN_MEM_CAP_MB must be a positive integer (megabytes), "
                         f"got {raw!r}")
    return int(raw) * 1024 * 1024


def check_budget(nbytes: int, what: str) -> None:
    """Check one allocation of nbytes against the cap; calls keep no running total."""
    cap = mem_cap_bytes()
    if nbytes > cap:
        raise ResourceError(
            f"{what} needs ~{nbytes // (1024*1024)} MB, above the cap of "
            f"{cap // (1024*1024)} MB (MULTFUN_MEM_CAP_MB)"
        )


# --------------------------------------------------------------------------
# Sieve context

def _prime_mask(N: int) -> np.ndarray:
    """Boolean sieve of Eratosthenes: entry n is True exactly for the primes n <= N."""
    is_p = np.ones(N + 1, dtype=bool)
    is_p[:2] = False
    for p in range(2, math.isqrt(N) + 1):
        if is_p[p]:
            is_p[p * p :: p] = False
    return is_p


def large_prime_multiples(Q: np.ndarray, N: int):
    """All multiples m*q <= N of the sorted primes q > sqrt(N) in Q.

    Yields (m * Q[:c], c) for m = 1, 2, ..., N // Q[0], where Q[:c] are the
    primes q <= N // m; a caller updates its table at the returned indices
    with values taken from the first c entries of its per-prime arrays.  As
    n <= N has at most one prime factor above sqrt(N), no index repeats
    across the whole pass, so a plain `a[idx] op= v` is exact.
    """
    if len(Q) == 0:
        return
    for m in range(1, N // int(Q[0]) + 1):
        c = int(np.searchsorted(Q, N // m, "right"))
        yield m * Q[:c], c


_TAU_INT16_MAX_N = 10 ** 15


class SieveContext:
    """The primes up to N, split at sqrt(N); the additive statistics built lazily."""

    def __init__(self, N: int):
        if N < 1:
            raise InputError(f"sieve bound must be >= 1, got {N}")
        # per entry the context holds at most 14 bytes, 12 below the charge:
        # the prime mask (1) while the primes are sieved, the int8 Omega,
        # omega and squarefree tables (3), the int16 tau (2) and the radical
        # (8); the primes add 8 per prime, and a caller's tables are charged by it
        check_budget(26 * (N + 1), f"sieve context for N={N}")
        self.N = N
        self.primes = np.flatnonzero(_prime_mask(N)).astype(np.int64)
        self.primes.flags.writeable = False
        split = int(np.searchsorted(self.primes, math.isqrt(N), "right"))
        self.small_primes: list[int] = self.primes[:split].tolist()
        self.large_primes = self.primes[split:]
        self._cache: dict[str, np.ndarray] = {}

    def _lazy(self, key, builder):
        if key not in self._cache:
            arr = builder()
            arr.flags.writeable = False
            self._cache[key] = arr
        return self._cache[key]

    @property
    def big_omega(self) -> np.ndarray:
        """Omega(n): prime factors counted with multiplicity (int8), derived
        from omega: a copy of it plus 1 at each multiple of each p^k, k >= 2."""

        def build():
            om = self.small_omega.copy()
            for p in self.small_primes:
                pk = p * p
                while pk <= self.N:
                    om[pk::pk] += 1
                    pk *= p
            return om

        return self._lazy("big_omega", build)

    @property
    def small_omega(self) -> np.ndarray:
        """omega(n): distinct prime divisors (int8)."""

        def build():
            w = np.zeros(self.N + 1, dtype=np.int8)
            for p in self.small_primes:
                w[p::p] += 1
            for idx, _ in large_prime_multiples(self.large_primes, self.N):
                w[idx] += 1
            return w

        return self._lazy("small_omega", build)

    @property
    def squarefree(self) -> np.ndarray:
        """Boolean mask of squarefree n (index 0 is False)."""

        def build():
            m = np.ones(self.N + 1, dtype=bool)
            m[0] = False
            for p in self.small_primes:
                pp = p * p
                m[pp::pp] = False
            return m

        return self._lazy("squarefree", build)

    @property
    def tau(self) -> np.ndarray:
        """tau(n): number of divisors, derived from omega: 2^omega(n), then
        (k + 1) / k at each multiple of each p^k, k >= 2.  int16, which holds
        every tau(n) for n <= 10^15 (the largest is 26880); int32 above.  A
        partial product never exceeds the final tau(n), and each update
        divides before it multiplies, so no entry wraps."""

        def build():
            dtype = np.int16 if self.N <= _TAU_INT16_MAX_N else np.int32
            t = np.left_shift(1, self.small_omega, dtype=dtype)
            t[0] = 0
            for p in self.small_primes:
                pk, j = p * p, 2
                while pk <= self.N:
                    sl = t[pk::pk]
                    sl //= j
                    sl *= j + 1
                    pk *= p
                    j += 1
            return t

        return self._lazy("tau", build)

    @property
    def radical(self) -> np.ndarray:
        """rad(n): product of distinct primes dividing n (int64)."""

        def build():
            r = np.ones(self.N + 1, dtype=np.int64)
            r[0] = 0
            for p in self.small_primes:
                r[p::p] *= p
            for idx, c in large_prime_multiples(self.large_primes, self.N):
                r[idx] *= self.large_primes[:c]
            return r

        return self._lazy("radical", build)


_CONTEXTS: dict[int, SieveContext] = {}
_MAX_CONTEXTS = 2


def get_context(N: int) -> SieveContext:
    """Cached SieveContext; at most a couple kept alive at once."""
    if N in _CONTEXTS:
        return _CONTEXTS[N]
    ctx = SieveContext(N)
    while len(_CONTEXTS) >= _MAX_CONTEXTS:
        _CONTEXTS.pop(next(iter(_CONTEXTS)))
    _CONTEXTS[N] = ctx
    return ctx


def primes_upto(P: int) -> np.ndarray:
    """Primes <= P as an int64 array; a cutoff below 2 leaves none, and is refused."""
    if P < 2:
        raise InputError(f"prime cutoff must be >= 2, got {P}")
    return get_context(P).primes


GRID_PER_DECADE = 8
_SUM_BLOCK = 1 << 16


def geometric_grid(lo: int, hi: int) -> np.ndarray:
    """Ascending integer grid, about GRID_PER_DECADE points per decade, from lo
    (hi when hi < lo) ending exactly at hi."""
    if hi < lo:
        lo = hi
    npts = max(2, int(GRID_PER_DECADE * math.log10(max(hi, 10) / lo + 1)) + 2)
    g = np.unique(np.geomspace(lo, hi, npts).astype(np.int64))
    if g[-1] != hi:
        g = np.append(g, hi)
    return g


def grid_sums(x: np.ndarray, ends: np.ndarray, running=np.cumsum, empty=0.0) -> np.ndarray:
    """running(x)[e - 1] for each e in the ascending ends, empty where e = 0.
    running (np.cumsum or np.cumprod) works in order, so blocks of _SUM_BLOCK
    entries, each later one run after the carry from the one before it, give
    the values of one whole running(x)."""
    out = [np.full(np.count_nonzero(ends == 0), empty, np.result_type(empty, running(x[:0])))]
    for lo in range(0, int(ends.max(initial=0)), _SUM_BLOCK):
        block = x[lo : lo + _SUM_BLOCK]
        run = running(np.concatenate(([carry], block)))[1:] if lo else running(block)
        carry = run[-1]
        out.append(run[ends[(ends > lo) & (ends <= lo + _SUM_BLOCK)] - 1 - lo])
    return np.concatenate(out)


def running_means(x: np.ndarray, grid: np.ndarray) -> list:
    """(m, mean of x[:m]) for each m in the ascending grid, 1 <= m <= len(x)."""
    return list(zip(grid.tolist(), (grid_sums(x, grid) / grid).tolist()))


def residue_sums(c: np.ndarray, res: np.ndarray, q: int) -> np.ndarray:
    """Complex class sums: entry a is the sum of c[i] over the i with res[i] == a,
    for a = 0..q-1 in increasing order.  The real and imaginary parts are each
    one np.bincount, so the sums run in index order."""
    out = np.zeros(q, dtype=np.complex128)
    out.real = np.bincount(res, weights=c.real, minlength=q)
    out.imag = np.bincount(res, weights=c.imag, minlength=q)
    return out


def class_sums(window: np.ndarray, q: int, first: int) -> np.ndarray:
    """residue_sums for a contiguous window: entry a is the sum of window[i]
    over the i with first + i == a (mod q), where window[0] sits at index
    first.  Slice k of stride q holds the class of first + k; numpy sums each
    slice pairwise, with no index array or modulo pass."""
    sums = np.array([window[k::q].sum() for k in range(q)], dtype=np.complex128)
    return np.roll(sums, first)


# --------------------------------------------------------------------------
# Scalar factorization (64-bit), Miller-Rabin + Pollard's rho

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_TRIAL_BOUND = 1000


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


_RHO_BLOCK = 128


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of the composite n: Brent's variant of Pollard's rho.

    The walk y -> y^2 + c mod n is compared with a saved point x that moves
    to y at each power-of-two step count.  The products of x - y mod n are
    batched into one gcd per block of _RHO_BLOCK steps; a block whose gcd is
    n is replayed one step at a time from its start.  A walk that still ends
    at n is retried with the next seed.
    """
    if n % 2 == 0:
        return 2
    seed = 1
    while True:
        c = 1 + seed
        y, r, acc, d = 2 + seed, 1, 1, 1
        while d == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and d == 1:
                block_start = y
                for _ in range(min(_RHO_BLOCK, r - k)):
                    y = (y * y + c) % n
                    acc = acc * (x - y) % n
                d = math.gcd(acc, n)
                k += _RHO_BLOCK
            r *= 2
        if d == n:
            y, d = block_start, 1
            while d == 1:
                y = (y * y + c) % n
                d = math.gcd(x - y, n)
        if d != n:
            return d
        seed += 1


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as sorted (p, exponent) pairs."""
    if n < 1:
        raise InputError(f"cannot factor {n}; need n >= 1")
    if n >= 1 << 63:
        raise InputError(f"n = {n} exceeds the 64-bit input range")
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    # trial division by 6k-1 and 6k+1 (from 41 = 6*7-1) up to a small bound, then rho
    f = 41
    while f < _TRIAL_BOUND and f * f <= n:
        for d in (f, f + 2):
            while n % d == 0:
                out[d] = out.get(d, 0) + 1
                n //= d
        f += 6
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return sorted(out.items())


def totient(n: int) -> int:
    """Euler's phi via factorization."""
    result = n
    for p, _ in factorize(n):
        result -= result // p
    return result
