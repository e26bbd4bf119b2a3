"""Sieve tables against definitions written from `factorize`, at bounds N at
and around prime squares (where a prime moves between the strided
small-prime slices and the large-prime pass), level sets read from the
codes of a fresh table against those of a table whose values were read, and
`factorize` against plain trial division."""

import dataclasses
import itertools
import math
import random
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from multfun import InputError, ResourceError, arith, builtin, eval_at, sieve_range
from multfun.arith import (
    MINUS_ONE,
    ONE,
    ZERO,
    RootOfUnity,
    SieveContext,
    _SUM_BLOCK,
    _pollard_rho,
    class_sums,
    e,
    factorize,
    geometric_grid,
    get_context,
    grid_sums,
    is_prime,
    large_prime_multiples,
    lookup,
    primes_upto,
    residue_sums,
    root_table,
    running_means,
    totient,
)
from multfun.characters import characters_mod
from multfun.levelsets import level_set, sp_set
from multfun.mf_core import (
    _cyclic_unit_group,
    _xi_value,
    make_repaired,
    prime_power_value,
)

from conftest import REGISTRY_CASES, traced_peak, trial_factor

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


@pytest.mark.parametrize("b", [1, 2, 3, 4, 6, 8, 12, 360, 1009, 10007, 65536, 10 ** 6 + 3])
def test_single_root_is_the_table_entry(b):
    # e(a/b) of a rational phase is one root, computed and snapped as
    # root_table computes and snaps its entries: the same bits, whether a/b
    # is in lowest terms or not
    table = root_table(b)
    rng = random.Random(b)
    for j in sorted({j % b for j in (0, 1, b // 4, b // 3, b // 2, 3 * b // 4, b - 1,
                                     *(rng.randrange(b) for _ in range(20)))}):
        for a in (j, j + 5 * b, j - 3 * b):
            got = np.array([_xi_value(Fraction(a, b))])
            assert got.view(np.uint64).tolist() == table[j : j + 1].view(np.uint64).tolist(), (a, b)


def test_root_table_charged_at_40_bytes_per_root(monkeypatch):
    monkeypatch.setenv("MULTFUN_MEM_CAP_MB", "1")
    assert len(root_table(2 ** 20 // 40)) == 2 ** 20 // 40
    with pytest.raises(ResourceError, match="roots of unity"):
        root_table(2 ** 20 // 40 + 1)


@pytest.mark.parametrize("N", [1, 2, 3, 4, 8, 9, 10, 24, 25, 26, 48, 49, 50, 120, 121, 122,
                               10 ** 4])
def test_context_primes_without_spf(N):
    ctx = SieveContext(N)
    assert ctx.primes.dtype == np.int64
    want = [n for n in range(2, N + 1) if trial_factor(n) == [(n, 1)]]
    assert ctx.primes.tolist() == want


@pytest.mark.parametrize("N, count", [(10 ** 6, 78498), (10 ** 7, 664579)])
def test_context_prime_counts(N, count):
    # pi(10^6) and pi(10^7), the known prime counts
    assert len(SieveContext(N).primes) == count


_LOOKUP_TABLES = {
    "complex": np.array([1, -1, 1j, -1j, complex(-0.0, 0.5), complex(0.5, -0.0), 0j,
                         complex(-0.0, -0.0)] * 125, dtype=np.complex128),
    "int8": np.arange(1000).astype(np.int8),
    "bool": np.arange(1000) % 3 == 0,
}


@pytest.mark.parametrize("table", list(_LOOKUP_TABLES))
@pytest.mark.parametrize("idx_dtype", [np.int8, np.int16])
@pytest.mark.parametrize("length", [0, 1, arith._LOOKUP_BLOCK - 1, arith._LOOKUP_BLOCK,
                                    arith._LOOKUP_BLOCK + 1, 3 * arith._LOOKUP_BLOCK + 5])
def test_lookup_is_fancy_indexing(table, idx_dtype, length):
    # over the whole table (128 entries for int8 indices), -1 included
    tab = _LOOKUP_TABLES[table][: min(1000, np.iinfo(idx_dtype).max + 1)]
    idx = np.random.default_rng(length).integers(-1, len(tab), length).astype(idx_dtype)
    idx[::5] = -1
    assert_identical(lookup(tab, idx), tab[idx])


@pytest.mark.parametrize("table", list(_LOOKUP_TABLES))
def test_lookup_peak_is_its_output_and_one_block(table):
    """lookup allocates its output and one block's intp index (64 KiB), plus
    under 1 KiB for the Python objects of its loop."""
    tab = _LOOKUP_TABLES[table][:100]
    idx = (np.arange(10 ** 5) % 101 - 1).astype(np.int8)
    out = lookup(tab, idx)
    assert traced_peak(lambda: lookup(tab, idx)) <= out.nbytes + 8 * arith._LOOKUP_BLOCK + 1024


def assert_same_integers(got, want, dtype):
    """got has the given dtype and, widened to int64, equals the int64 want,
    so that a value which wrapped in a narrow type cannot match."""
    assert got.dtype == dtype
    assert_identical(got.astype(np.int64), want)


@pytest.mark.parametrize("N", NS)
def test_context_statistics(N):
    ctx = SieveContext(N)
    assert_identical(ctx.big_omega, stat(N, lambda fs: sum(k for _, k in fs), np.int8))
    assert_identical(ctx.small_omega, stat(N, len, np.int8))
    assert_same_integers(ctx.tau, stat(N, lambda fs: math.prod(k + 1 for _, k in fs), np.int64),
                         np.int16)
    assert_identical(ctx.radical, stat(N, lambda fs: math.prod(p for p, _ in fs), np.int64))
    sqf = stat(N, lambda fs: all(k == 1 for _, k in fs), bool)
    sqf[0] = False
    assert_identical(ctx.squarefree, sqf)


DERIVED_STATS = {
    "big_omega": (lambda fs: sum(k for _, k in fs), np.int8),
    "small_omega": (len, np.int8),
    "tau": (lambda fs: math.prod(k + 1 for _, k in fs), np.int16),
}


@pytest.mark.parametrize("name", DERIVED_STATS)
@pytest.mark.parametrize("N", NS)
def test_context_statistic_read_alone(N, name):
    """Omega and tau start from omega; each of the three, read first and
    alone on a fresh context, matches its definition."""
    definition, dtype = DERIVED_STATS[name]
    assert_same_integers(getattr(SieveContext(N), name), stat(N, definition, np.int64), dtype)


def test_one_large_prime_pass_per_context(monkeypatch):
    """However many of Omega, omega and tau a context reads, and in whatever
    order, it runs the pass over the multiples of the large primes once."""
    calls = []

    def counted(Q, N):
        calls.append(N)
        return large_prime_multiples(Q, N)

    monkeypatch.setattr(arith, "large_prime_multiples", counted)
    for r in range(1, len(DERIVED_STATS) + 1):
        for reads in itertools.permutations(DERIVED_STATS, r):
            ctx = SieveContext(10 ** 4)
            calls.clear()
            for name in reads + reads:
                getattr(ctx, name)
            assert len(calls) == 1, reads


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


def assert_matches_eval_at(f, table):
    """The table of f against eval_at at every n <= N, within 1e-12."""
    want = np.array([0] + [eval_at(f, n) for n in range(1, table.N + 1)])
    assert np.max(np.abs(table.values - want)) < 1e-12, f.label


@pytest.mark.parametrize("N", NS)
def test_sieve_repaired_moebius(N):
    g = make_repaired(builtin("moebius"), complex(np.exp(2j * np.pi * 0.3)), 0.3)
    t = sieve_range(g, N)
    assert t.exact is None
    assert_matches_eval_at(g, t)


@pytest.mark.parametrize("q, N", [(15, 10), (15, 24)] + [(77, N) for N in NS if N <= 120])
def test_sieve_repaired_character_zero_at_a_large_prime(q, N):
    """A character mod q vanishes at the primes p | q; when such a p lies
    above sqrt(N) (5 for q = 15, 7 below N = 49 and 11 below N = 121 for
    q = 77), the large-prime pass repairs it."""
    y, gamma = complex(np.exp(2j * np.pi * 0.3)), 0.3
    for index in range(len(characters_mod(q))):
        g = make_repaired(builtin("dirichlet_character", {"modulus": q, "index": index}),
                          y, gamma)
        t = sieve_range(g, N)
        assert t.exact is None
        assert_matches_eval_at(g, t)


def formula_codes(f, ctx):
    """The int64 expressions the kinds' lookup tables replaced."""
    m = f.meta
    if f.kind in ("omega_phase", "small_omega_phase"):
        stat = ctx.big_omega if f.kind == "omega_phase" else ctx.small_omega
        c = (stat.astype(np.int64) * m["a"]) % m["b"]
        if m.get("squarefree_only"):
            c[~ctx.squarefree] = -1
    elif f.kind == "tau_character":
        c = m["char"].expo[ctx.tau.astype(np.int64) % m["char"].modulus]
    elif f.kind == "periodic":
        q = m["char"].modulus
        c = np.tile(m["char"].expo, (ctx.N + q) // q)[: ctx.N + 1]
        if q == 1:
            return c
    else:
        c = np.where(ctx.squarefree, 0, -1).astype(np.int64)
    c[0] = -1
    return c


def code_width(order):
    """The width rule for codes -1..order-1: the narrowest of int8, int16,
    int32 and int64 whose maximum is at least order."""
    return next(t for t in (np.int8, np.int16, np.int32, np.int64) if order <= np.iinfo(t).max)


def lookup_code_cases():
    phases = [builtin(name, {"xi": xi}) for name in ("lambda_xi", "mu_xi", "kappa_xi")
              for xi in ("1/3", "2/7", "5/3", "1/2", "0", "7/10")]
    # a > b, as a caller may set the meta without reducing a mod b
    phases += [dataclasses.replace(builtin("lambda_xi", {"xi": "2/3"}), meta={"a": 5, "b": 3}),
               dataclasses.replace(builtin("mu_xi", {"xi": "3/4"}),
                                   meta={"a": 11, "b": 4, "squarefree_only": True})]
    # alphabets on both sides of the int8 and int16 widths, with codes
    # b - stat(n) near the top of each
    phases += [builtin(name, {"xi": f"{b - 1}/{b}"}) for name, b in
               (("lambda_xi", 127), ("mu_xi", 128), ("kappa_xi", 32767), ("lambda_xi", 32768))]
    taus = [builtin("chi_of_tau", {"modulus": b}) for b in range(1, 31) if _cyclic_unit_group(b)]
    chars = [builtin("dirichlet_character", {"modulus": q, "index": i})
             for q in (1, 3, 4, 15) for i in range(len(characters_mod(q)))]
    return [builtin("liouville"), builtin("moebius"), *phases, *taus, *chars,
            builtin("mu_squared")]


@pytest.mark.parametrize("N", NS)
def test_lookup_codes_match_the_formulas(N):
    ctx = get_context(N)
    for f in lookup_code_cases():
        exact = sieve_range(f, N).exact
        assert_same_integers(exact.codes, formula_codes(f, ctx), code_width(exact.order))
    for name in ("lambda_xi", "mu_xi", "kappa_xi"):
        for xi in (0.3, 1 / 7, 0.5 + 1e-9, math.sqrt(2), -0.3, 0.0):
            f = builtin(name, {"xi": xi})
            stat = ctx.small_omega if name == "kappa_xi" else ctx.big_omega
            want = e(xi * stat.astype(np.float64))
            if name == "mu_xi":
                want[~ctx.squarefree] = 0
            want[0] = 0
            assert_identical(sieve_range(f, N).values, want)


# N + 1 below 4, and on both sides of the quarter boundaries of the chi(tau) codes
IDENTITY_NS = [1, 2, 3, 4, 5, 7, 8, 97, 1000, 65535, 65536, 100003]


def cached_sp_set(prime_set, ctx):
    """The squarefree n <= ctx.N with every prime factor in the list, from
    the cached squarefree mask."""
    mask = ctx.squarefree.copy()
    for p in ctx.primes.tolist():
        if p not in prime_set:
            mask[p::p] = False
    mask[1] = True
    return np.flatnonzero(mask).astype(np.int64)


@pytest.mark.parametrize("N", IDENTITY_NS)
def test_sieves_match_the_cached_tau_and_squarefree_formulas(N):
    """The chi(tau) codes, built from tau a quarter of [0, N] at a time, and
    the squarefree kinds and sp_set, which strike p^2 in their own arrays,
    equal the formulas over one whole cached tau and squarefree mask, dtype
    and signed zeros included."""
    ctx = SieveContext(N)
    tau, sqf = ctx.tau, ctx.squarefree
    for lo, hi in [(0, N + 1), (0, 1), (N // 3, N // 2 + 1), (N, N + 1)]:
        assert_identical(ctx.tau_range(lo, hi), tau[lo:hi])
    for b in [b for b in range(2, 31) if _cyclic_unit_group(b)]:
        f = builtin("chi_of_tau", {"modulus": b})
        chi = f.meta["char"]
        lut = chi.expo.astype(code_width(chi.expo_mod))[np.arange(int(tau.max()) + 1) % b]
        want = lookup(lut, tau)
        want[0] = -1
        assert_identical(sieve_range(f, N).exact.codes, want)
    for f in [builtin("moebius")] + [builtin("mu_xi", {"xi": xi}) for xi in ("1/4", "3/7", "1")]:
        a, b = f.meta["a"], f.meta["b"]
        lut = np.array([a * k % b for k in range(int(ctx.big_omega.max()) + 1)],
                       dtype=code_width(b))
        want = lookup(lut, ctx.big_omega) | np.subtract(sqf, 1, dtype=code_width(b))
        want[0] = -1
        assert_identical(sieve_range(f, N).exact.codes, want)
    assert_identical(sieve_range(builtin("mu_squared"), N).exact.codes,
                     np.subtract(sqf, 1, dtype=np.int8))
    for xi in (0.3, math.sqrt(2), -0.5 - 1e-9):
        s = ctx.big_omega
        want = lookup(e(xi * np.arange(int(s.max()) + 1, dtype=np.float64)), s)
        want[~sqf] = 0
        want[0] = 0
        assert_identical(sieve_range(builtin("mu_xi", {"xi": xi}), N).values, want)
    for prime_set in ([], [2], [2, 3], [3, 5, 7, 11], [97, 101, 313, 317]):
        assert_identical(sp_set(prime_set, N), cached_sp_set(prime_set, ctx))


SQUAREFREE_R = [r for r in range(1, 2001) if all(k == 1 for _, k in factorize(r))]


@pytest.mark.parametrize("N", NS)
def test_phi_ratio_level_sets_match_the_radical(N):
    radical = get_context(N).radical
    codes = sieve_range(builtin("phi_over_n"), N).exact
    for r in SQUAREFREE_R:
        want = radical == r
        want[0] = False
        assert_identical(codes.members(Fraction(totient(r), r)), np.flatnonzero(want))


def test_phi_ratio_level_set_edges():
    N = 1000
    codes = sieve_range(builtin("phi_over_n"), N).exact
    none = np.zeros(N + 1, dtype=bool)
    only_one = none.copy()
    only_one[1] = True
    unattained = [Fraction(1, 4), Fraction(3, 4), Fraction(5, 7), Fraction(3, 2), Fraction(0),
                  Fraction(-1, 2), ZERO, MINUS_ONE, RootOfUnity(1, 3), 0.5 + 0j]
    # rad(n) = r > N: a prime and a primorial above N
    unattained += [Fraction(1008, 1009), Fraction(totient(2310), 2310)]
    for z in unattained:
        assert_identical(codes.members(z), np.flatnonzero(none))
    assert_identical(codes.members(ONE), np.flatnonzero(only_one))
    assert_identical(codes.members(Fraction(1)), np.flatnonzero(only_one))
    powers_of_two = np.isin(np.arange(N + 1), [2 ** k for k in range(1, 10)])
    assert_identical(codes.members(Fraction(1, 2)), np.flatnonzero(powers_of_two))
    with pytest.raises(InputError, match="powered ratio"):
        codes.members(Fraction(1, 2), power=2)


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
    """level_set reads an exact target from the codes alone, and builds no
    values of a table with codes; the level set of a table whose values were
    read first is the oracle, with or without a table passed in."""
    for name, case in REGISTRY_CASES.items():
        f = case(custom_path)
        fresh, read = sieve_range(f, N), sieve_range(f, N)
        read.values
        assert (fresh.exact is None) == (read.exact is None), name
        for key in ("codes", "order"):
            want = getattr(read.exact, key, None)
            got = getattr(fresh.exact, key, None)
            assert (got is None) == (want is None), (name, key)
            if isinstance(want, np.ndarray):
                assert_identical(got, want)
            else:
                assert got == want, (name, key)
        for z in LEVEL_TARGETS:
            want = level_or_error(f, z, N, table=read)
            for got in (level_or_error(f, z, N, table=fresh), level_or_error(f, z, N)):
                if isinstance(want, str):
                    assert got == want, (name, z)
                    continue
                assert_identical(got.members, want.members)
                assert (got.exact, got.source, got.z) == (want.exact, want.source, want.z)
        assert ("values" in vars(fresh)) == (fresh.exact is None), name


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


@pytest.mark.parametrize("n", [_SUM_BLOCK - 1, _SUM_BLOCK, _SUM_BLOCK + 1, 3 * _SUM_BLOCK + 5])
def test_running_means_match_one_cumsum(n):
    """The blocked running sums and products equal one whole np.cumsum or
    np.cumprod bit for bit, for real and complex x, at grid points on and
    beside the block edges, and at the prime counts of a geometric grid of
    prime cutoffs (0 before the first prime), as the Euler products and the
    distance profiles read them."""
    rng = np.random.default_rng(n)
    edges = [m for k in range(1, 4) for m in (k * _SUM_BLOCK - 1, k * _SUM_BLOCK,
                                                 k * _SUM_BLOCK + 1)]
    grid = np.array(sorted({1, 2, n, *(m for m in edges if m <= n)}), dtype=np.int64)
    primes = primes_upto(3 * 10 ** 6)[:n]
    counts = np.searchsorted(primes, geometric_grid(1, int(primes[-1])), "right")
    assert counts[0] == 0 and counts[-1] == n
    assert n <= _SUM_BLOCK or (counts < _SUM_BLOCK).any() and (counts > _SUM_BLOCK).any()
    real = rng.standard_normal(n) * 1e3
    for x in (real, real + 1j * rng.standard_normal(n), np.exp(2j * np.pi * rng.random(n))):
        got = running_means(x, grid)
        assert [m for m, _ in got] == grid.tolist()
        want = np.cumsum(x)[grid - 1] / grid
        assert_identical(np.array([v for _, v in got], dtype=x.dtype), want)
        assert_identical(grid_sums(x, grid), np.cumsum(x)[grid - 1])
        assert_identical(grid_sums(x, counts), np.concatenate(([0.0], np.cumsum(x)))[counts])
    near_one = 1.0 + rng.standard_normal(n) * 1e-6
    for x in (near_one, near_one * np.exp(2j * np.pi * rng.random(n))):
        assert_identical(grid_sums(x, grid, np.cumprod, 1.0), np.cumprod(x)[grid - 1])
        assert_identical(grid_sums(x, counts, np.cumprod, 1.0),
                         np.concatenate(([1.0], np.cumprod(x)))[counts])
