"""Sieve tables against definitions written from `factorize`, at bounds N at
and around prime squares (where a prime moves between the strided
small-prime slices and the large-prime pass), the codes-only level-set path
against level sets read from a full table, and `factorize` against plain
trial division."""

import math
import random
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from multfun import InputError, builtin, sieve_range
from multfun.arith import (
    MINUS_ONE,
    ONE,
    ZERO,
    RootOfUnity,
    SieveContext,
    _pollard_rho,
    class_sums,
    factorize,
    is_prime,
    primes_upto,
    residue_sums,
    root_table,
)
from multfun.levelsets import level_set, sp_set
from multfun.mf_core import make_repaired, prime_power_value, sieve_codes

from conftest import REGISTRY_CASES, trial_factor

NS = [1, 2, 3, 4, 8, 9, 10, 24, 25, 26, 48, 49, 50, 120, 121, 122, 168, 169, 170,
      10 ** 4, 10 ** 4 + 1]

# zero at p and nonzero at p^2 (the exact-exponent branch of the generic
# sieve), a value of 1 that the sieve skips, signed zeros, and primes 7, 11
# and 101 that are large for the smaller N
PATHOLOGICAL = """\
2 1 0 0
2 2 -1 0
3 1 0 0
3 2 0.5 0
3 3 0 -1
5 2 1 0
7 1 0 1
7 2 0 0
11 1 -0.0 1
101 1 -0.5 0
103 1 0 -0.0
"""


@lru_cache(maxsize=None)
def factorizations(N):
    return [[]] + [factorize(n) if n > 1 else [] for n in range(1, N + 1)]


def stat(N, fn, dtype):
    return np.array([0] + [fn(fs) for fs in factorizations(N)[1:]], dtype=dtype)


def assert_identical(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    parts = [(got.real, want.real), (got.imag, want.imag)] if got.dtype.kind == "c" else []
    for g, w in parts:
        assert np.array_equal(np.signbit(g), np.signbit(w))


def product_table(f, N):
    """f(n) from the factorization of n, multiplied out in the form the
    generic sieve uses, so that signed zeros agree as well as values: over
    p^k || n in ascending p, the ratios f(p^j) / f(p^(j-1)), j <= k, that are
    not 1 (none after a zero), or f(p^k) itself when f is zero at some power
    of p <= N and nonzero at a higher one."""
    out = np.zeros(N + 1, dtype=np.complex128)
    for n, fs in enumerate(factorizations(N)[1:], start=1):
        v = 1 + 0j
        for p, k in fs:
            vals = [prime_power_value(f, p, j) for j in range(1, N.bit_length()) if p ** j <= N]
            if any(a == 0 and b != 0 for a, b in zip(vals, vals[1:])):
                v *= vals[k - 1]
                continue
            prev = 1 + 0j
            for w in vals[:k]:
                if prev == 0:
                    break
                if w / prev != 1:
                    v *= w / prev
                prev = w
        out[n] = v
    return out


def code_table(N, order, code_of):
    """Values e(code/order) of the exact alphabet, with code None meaning 0."""
    out = np.zeros(N + 1, dtype=np.complex128)
    roots = root_table(order)
    for n, fs in enumerate(factorizations(N)[1:], start=1):
        c = code_of(fs)
        out[n] = 0 if c is None else roots[c % order]
    return out


@pytest.mark.parametrize("N", [1, 2, 3, 4, 8, 9, 10, 24, 25, 26, 48, 49, 50, 120, 121, 122,
                               10 ** 4])
def test_context_primes_without_spf(N):
    ctx = SieveContext(N)
    assert "spf" not in ctx._cache
    assert ctx.primes.dtype == np.int64
    want = [n for n in range(2, N + 1) if trial_factor(n) == [(n, 1)]]
    assert ctx.primes.tolist() == want
    spf = ctx.spf
    assert "spf" in ctx._cache
    assert ctx.primes.tolist() == [n for n in range(2, N + 1) if spf[n] == n]


@pytest.mark.parametrize("N", NS)
def test_context_statistics(N):
    ctx = SieveContext(N)
    assert_identical(ctx.big_omega, stat(N, lambda fs: sum(k for _, k in fs), np.int8))
    assert_identical(ctx.small_omega, stat(N, len, np.int8))
    assert_identical(ctx.tau, stat(N, lambda fs: math.prod(k + 1 for _, k in fs), np.int32))
    assert_identical(ctx.radical, stat(N, lambda fs: math.prod(p for p, _ in fs), np.int64))
    sqf = stat(N, lambda fs: all(k == 1 for _, k in fs), bool)
    sqf[0] = False
    assert_identical(ctx.squarefree, sqf)


@pytest.mark.parametrize("N", NS)
def test_sieve_exact_kinds(N):
    want = {
        "liouville": code_table(N, 2, lambda fs: sum(k for _, k in fs)),
        "moebius": code_table(N, 2, lambda fs: len(fs) if all(k == 1 for _, k in fs) else None),
        "kappa_xi": code_table(N, 3, len),
    }
    for name, params in (("liouville", {}), ("moebius", {}), ("kappa_xi", {"xi": "1/3"})):
        assert_identical(sieve_range(builtin(name, params), N).values, want[name])
    chi = builtin("chi_of_tau", {"modulus": 5})
    tau = stat(N, lambda fs: math.prod(k + 1 for _, k in fs), np.int64)
    want_chi = chi.meta["char"].table[tau % 5]
    want_chi[0] = 0
    assert_identical(sieve_range(chi, N).values, want_chi)


@pytest.mark.parametrize("N", NS)
def test_sieve_phi_over_n(N):
    want = np.zeros(N + 1, dtype=np.complex128)
    for n, fs in enumerate(factorizations(N)[1:], start=1):
        v = 1.0
        for p, _ in fs:
            v *= 1.0 - 1.0 / p
        want[n] = v
    assert_identical(sieve_range(builtin("phi_over_n"), N).values, want)


@pytest.mark.parametrize("N", NS)
def test_sieve_repaired_moebius(N):
    y, gamma = complex(np.exp(2j * np.pi * 0.3)), 0.3
    t = sieve_range(make_repaired(builtin("moebius"), y, gamma), N)
    # moebius codes 1 at p and none (zero) at p^k, k >= 2
    codes = stat(N, lambda fs: sum(k == 1 for _, k in fs) % 2, np.int32)
    codes[0] = -1
    yexp = stat(N, lambda fs: sum(k >= 2 for _, k in fs), np.int8)
    assert_identical(t.exact.codes, codes)
    assert_identical(t.exact.yexp, yexp)
    want = root_table(2)[np.maximum(codes, 0)]
    want[0] = 0
    has_y = yexp > 0
    want[has_y] = want[has_y] * (y ** yexp[has_y].astype(np.float64))
    assert_identical(t.values, want)


@pytest.mark.parametrize("N", NS)
def test_sieve_generic_kinds(N, tmp_path):
    path = tmp_path / "patho.txt"
    path.write_text(PATHOLOGICAL)
    power = builtin("mu_xi", {"xi": "1/4"}) ** 2
    custom = builtin("custom_file", {"path": str(path)})
    for f in (power, custom):
        assert_identical(sieve_range(f, N).values, product_table(f, N))


def slice_sieve(f, N):
    """One strided slice per power of every prime <= N, multiplied in place by
    the ratio f(p^k) / f(p^(k-1)): the rounding reference of the generic
    sieve (f must not be zero at a prime power below a nonzero one)."""
    values = np.ones(N + 1, dtype=np.complex128)
    for p in primes_upto(N).tolist():
        prev, pe, k = 1 + 0j, p, 1
        while pe <= N and prev != 0:
            v = prime_power_value(f, p, k)
            if v / prev != 1:
                values[pe::pe] *= v / prev
            prev, pe, k = v, pe * p, k + 1
    values[0] = 0
    return values


@pytest.mark.parametrize("N", [49, 170, 4001, 10 ** 4])
def test_generic_rounds_like_slices(N, tmp_path):
    rng = random.Random(N)
    lines = []
    for p in primes_upto(N).tolist():
        for k in (1, 2):
            t = rng.uniform(0, 2 * math.pi)
            re, im = rng.choice([(math.cos(t), math.sin(t)), (-0.0, 1.0), (0.5, -0.0)])
            if p ** k <= N:
                lines.append(f"{p} {k} {re!r} {im!r}")
    path = tmp_path / "rand.txt"
    path.write_text("\n".join(lines) + "\n")
    for f in (builtin("lambda_xi", {"xi": 0.3}) ** 2,
              builtin("custom_file", {"path": str(path)})):
        assert_identical(sieve_range(f, N).values, slice_sieve(f, N))


LEVEL_TARGETS = [ONE, MINUS_ONE, ZERO, RootOfUnity(1, 3), RootOfUnity(1, 4),
                 Fraction(1, 2), Fraction(4, 15)]


def level_or_error(f, z, N, table=None):
    try:
        return level_set(f, z, N, table=table)
    except InputError as exc:
        return str(exc)


@pytest.mark.parametrize("N", NS)
def test_level_set_codes_path(N, custom_path):
    """level_set without a table reads the codes alone; the level set read from
    a full sieve table is the oracle."""
    for name, case in REGISTRY_CASES.items():
        f = case(custom_path)
        table = sieve_range(f, N)
        codes = sieve_codes(f, N)
        assert (codes is None) == (table.exact is None), name
        for key in ("codes", "yexp", "radical"):
            want = getattr(table.exact, key, None)
            got = getattr(codes, key, None)
            assert (got is None) == (want is None), (name, key)
            if want is not None:
                assert_identical(got, want)
        if codes is not None and hasattr(codes, "order"):
            assert codes.order == table.exact.order
        for z in LEVEL_TARGETS:
            want = level_or_error(f, z, N, table=table)
            got = level_or_error(f, z, N)
            if isinstance(want, str):
                assert got == want, (name, z)
                continue
            assert_identical(got.members, want.members)
            assert (got.exact, got.source, got.z) == (want.exact, want.source, want.z)


@pytest.mark.parametrize("N", NS)
def test_sp_set(N):
    def want(keep):
        return [n for n, fs in enumerate(factorizations(N)[1:], start=1)
                if all(k == 1 and keep(p) for p, k in fs)]

    assert sp_set(lambda p: p % 4 == 1, N).tolist() == want(lambda p: p % 4 == 1)
    allowed = [2, 3, 5, 101, 4999, 9973]
    assert sp_set(allowed, N).tolist() == want(lambda p: p in allowed)


def test_factorize_matches_trial_division():
    rng = random.Random(20261018)
    for n in [rng.randrange(2, 1 << 32) for _ in range(60)] + [1, 2, 961, 1009 ** 2, 997 * 1009]:
        assert factorize(n) == trial_factor(n), n


def test_factorize_large_inputs():
    # M61 = 2^61 - 1 is a Mersenne prime; 2^31 - 1 and 2^31 - 19 are prime
    # (checked by trial division), so their product is a 62-bit semiprime
    m61 = (1 << 61) - 1
    assert factorize(m61) == [(m61, 1)]
    p, q = (1 << 31) - 19, (1 << 31) - 1
    assert trial_factor(p) == [(p, 1)] and trial_factor(q) == [(q, 1)]
    assert (p * q).bit_length() == 62
    assert factorize(p * q) == [(p, 1), (q, 1)]
    assert factorize(1009 * p) == [(1009, 1), (p, 1)]


def test_factorize_semiprimes_and_prime_squares():
    """Seeded 62-bit semiprimes and squares of primes near 2^31 and 2^20; the
    primes are drawn by trial division, the oracle that shares no code with rho."""
    rng = random.Random(62)

    def prime_near(bits):
        while True:
            p = rng.randrange(1 << (bits - 1), 1 << bits) | 1
            if trial_factor(p) == [(p, 1)]:
                return p

    for _ in range(6):
        p, q = prime_near(31), prime_near(31)
        assert factorize(p * q) == sorted([(p, 1), (q, 1)] if p != q else [(p, 2)])
    for bits in (31, 20):
        p = prime_near(bits)
        assert factorize(p * p) == [(p, 2)]
        assert factorize(p * p * 3) == [(3, 1), (p, 2)]
    p, q, r = prime_near(20), prime_near(20), prime_near(20)
    assert factorize(p * q * r) == trial_factor(p * q * r)


def test_pollard_rho_finds_a_divisor_of_every_odd_composite():
    # small composites make a block's product vanish mod n, which sends
    # rho through the step-by-step replay and the next-seed retry
    for n in range(9, 20000, 2):
        if is_prime(n):
            continue
        d = _pollard_rho(n)
        assert 1 < d < n and n % d == 0, n


def test_residue_sums_in_residue_order():
    rng = np.random.default_rng(3)
    c = rng.random(500) + 1j * rng.random(500)
    res = rng.integers(0, 7, 500)
    got = residue_sums(c, res, 9)
    assert got.shape == (9,)
    for a in range(9):
        want = complex(0.0)
        for x in c[res == a]:
            want += x
        assert abs(got[a] - want) < 1e-12, a
    assert got[7] == 0 and got[8] == 0
    assert np.array_equal(residue_sums(c.real, res, 7).imag, np.zeros(7))


@pytest.mark.parametrize("q", [1, 2, 3, 7, 10, 97])
def test_class_sums_match_residue_sums(q):
    rng = np.random.default_rng(q)
    for length in (q * 1000, q * 1000 + q // 2, max(q - 1, 1)):
        window = rng.standard_normal(length) + 1j * rng.standard_normal(length)
        for first in (0, 1, q - 1, q + 3):
            want = residue_sums(window, (first + np.arange(length)) % q, q)
            got = class_sums(window, q, first)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-11)
    got = class_sums(window.real, q, 1)
    assert got.dtype == np.complex128 and not got.imag.any()
