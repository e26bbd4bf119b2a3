import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from multfun import (
    InputError,
    ResourceError,
    besicovitch_profile,
    besicovitch_seminorm,
    builtin,
    fourier_coefficient,
    gowers_direct,
    gowers_fast,
    periodic_approximant,
    sieve_range,
    spectrum_scan,
    uniformity_profile,
)
from multfun import seminorms
from multfun.arith import e
from multfun.pretentious import unit_function

from conftest import catalog_functions


def vals_from(seq):
    """Wrap a 0-based python list as a 1-indexed values array."""
    return np.concatenate([[0.0 + 0j], np.asarray(seq, dtype=complex)])


# --------------------------------------------------------------------------
# Besicovitch seminorm and Fourier coefficients

def test_besicovitch_zero_sequence():
    assert besicovitch_seminorm(vals_from([0.0] * 50)) == 0.0


def test_besicovitch_liouville_is_one(lam):
    t = sieve_range(lam, 10 ** 4)
    assert besicovitch_seminorm(t.values) == pytest.approx(1.0, abs=1e-12)


def test_besicovitch_moebius_is_squarefree_density(mu):
    t = sieve_range(mu, 10 ** 7)
    assert abs(besicovitch_seminorm(t.values) - 0.6079) < 2e-3


def test_besicovitch_empty_rejected():
    with pytest.raises(InputError):
        besicovitch_seminorm(np.zeros(1))


def test_besicovitch_profile_monotone_grid():
    prof = besicovitch_profile(vals_from([1.0] * 1000))
    assert all(v == pytest.approx(1.0) for _, v in prof)
    assert [n for n, _ in prof] == sorted({n for n, _ in prof})


def test_fourier_constant_at_zero():
    assert fourier_coefficient(vals_from([1.0] * 100), 0.0) == pytest.approx(1.0)


def test_fourier_perfect_correlation():
    n = np.arange(1, 301)
    vals = vals_from(e(n / 3))
    assert fourier_coefficient(vals, Fraction(1, 3)) == pytest.approx(1.0, abs=1e-12)


def test_fourier_alternating_cancels_exactly():
    assert abs(fourier_coefficient(vals_from([1.0] * 100), 0.5)) < 1e-12


def test_spectrum_scan_character(chi4):
    t = sieve_range(chi4, 10 ** 5)
    scan = spectrum_scan(t.values, 8)
    thetas = {str(p.theta) for p in scan.points}
    assert thetas == {"1/4", "3/4"}
    assert all(abs(p.magnitude - 0.5) < 1e-2 for p in scan.points)
    assert scan.threshold == pytest.approx(5 * (10 ** 5) ** (-1 / 3))


# --------------------------------------------------------------------------
# Periodic approximant

def test_approximant_recovers_periodic_function():
    base = [1.0, -2.0, 0.5, 3.0, -1.0, 0.25]
    vals = vals_from(base * 200)
    pa = periodic_approximant(vals, 6)
    assert pa.residual < 1e-12
    assert np.allclose(pa.values, np.roll(np.array(base, dtype=complex), 1))


def test_approximant_mu_squared_parity(mu2):
    t = sieve_range(mu2, 10 ** 7)
    pa = periodic_approximant(t.values, 2)
    assert pa.values[1].real == pytest.approx(8 / math.pi ** 2, abs=5e-3)
    assert pa.values[0].real == pytest.approx(4 / math.pi ** 2, abs=5e-3)


def test_approximant_liouville_has_no_period_3_structure(lam):
    t = sieve_range(lam, 10 ** 7)
    pa = periodic_approximant(t.values, 3)
    assert np.all(np.abs(pa.values) < 0.01)
    assert pa.residual == pytest.approx(1.0, abs=0.01)


def test_approximant_period_bound():
    with pytest.raises(InputError):
        periodic_approximant(vals_from([1.0] * 100), 11)


# --------------------------------------------------------------------------
# Gowers norms: independent brute-force oracle

def brute_gowers_raw(buf, s):
    """Literal (s+1)-fold multi-difference sum; conjugate when s - |eps| odd."""
    nt = len(buf)
    total = 0.0 + 0j
    for tup in itertools.product(range(nt), repeat=s + 1):
        n, hs = tup[0], tup[1:]
        v = 1.0 + 0j
        for eps in itertools.product((0, 1), repeat=s):
            idx = (n + sum(h * ee for h, ee in zip(hs, eps))) % nt
            val = buf[idx]
            if (s - sum(eps)) % 2 == 1:
                val = val.conjugate()
            v *= val
        total += v
    return total.real


def brute_gowers_norm(seq, n, s):
    nt = (1 << s) * n
    buf = np.zeros(nt, dtype=complex)
    buf[:n] = seq
    one = np.zeros(nt, dtype=complex)
    one[:n] = 1.0
    return (brute_gowers_raw(buf, s) / brute_gowers_raw(one, s)) ** (1 / 2 ** s)


@pytest.mark.parametrize("s,n", [(1, 5), (2, 5), (2, 6), (3, 2), (3, 3)])
def test_direct_matches_bruteforce(s, n):
    rng = np.random.default_rng(5)
    seq = rng.choice([-1.0, 1.0], n) * e(rng.random(n))
    got = gowers_direct(vals_from(seq), n, s)
    want = brute_gowers_norm(seq, n, s)
    assert got == pytest.approx(want, abs=1e-12)


def test_direct_row_blocks_match_bruteforce(monkeypatch):
    # row blocks of 1, 2 or 3 shifts (the last one partial), or one block
    rng = np.random.default_rng(7)
    for s, n in ((2, 5), (3, 2)):
        seq = e(rng.random(n))
        want = brute_gowers_norm(seq, n, s)
        nt = (1 << s) * n
        for budget in (1, 2 * nt, 3 * nt, 10 ** 6):
            monkeypatch.setattr(seminorms, "_ROW_BUDGET", budget)
            got = gowers_direct(vals_from(seq), n, s)
            assert got == pytest.approx(want, abs=1e-12), (s, budget)


@pytest.mark.parametrize("n", [257, 300])
def test_direct_matches_fast_over_several_blocks(n):
    # 4n > 1024 shifts: the s = 2 window spans more than one row block
    vals = sieve_range(builtin("lambda_xi", {"xi": "0.3"}), n).values
    assert abs(gowers_direct(vals, n, 2) - gowers_fast(vals, n, 2)) < 1e-12


def test_gowers_constant_one_normalization():
    ones = vals_from([1.0] * 64)
    for s in (1, 2, 3):
        assert gowers_direct(ones, 16, s) == pytest.approx(1.0, abs=1e-9)
        assert gowers_fast(ones, 64, s) == pytest.approx(1.0, abs=1e-9)


def test_gowers_linear_phase_invisible_to_u2():
    n = 16
    seq = e(np.arange(1, n + 1) / 7)
    assert gowers_direct(vals_from(seq), n, 2) == pytest.approx(1.0, abs=1e-9)


def test_gowers_mu_direct_equals_fast(mu):
    t = sieve_range(mu, 32)
    assert gowers_direct(t.values, 32, 2) == pytest.approx(
        gowers_fast(t.values, 32, 2), abs=1e-10
    )


def test_fast_matches_direct_random_signs():
    rng = np.random.default_rng(17)
    for seed in range(5):
        r = np.random.default_rng(seed)
        for n in (16, 32, 48):
            seq = r.choice([-1.0, 1.0], n)
            for s in (2, 3):
                a = gowers_direct(vals_from(seq), n, s)
                b = gowers_fast(vals_from(seq), n, s)
                assert abs(a - b) < 1e-9, (seed, n, s)


def test_modulation_invariance_direct():
    rng = np.random.default_rng(23)
    n = 32
    base = rng.choice([-1.0, 1.0], n)
    ref = gowers_direct(vals_from(base), n, 2)
    for theta in rng.random(10):
        mod = base * e(theta * np.arange(1, n + 1))
        assert abs(gowers_direct(vals_from(mod), n, 2) - ref) < 1e-9


def test_conjugation_symmetry():
    rng = np.random.default_rng(29)
    n = 24
    seq = e(rng.random(n))
    for s in (1, 2, 3):
        a = gowers_fast(vals_from(seq), n, s)
        b = gowers_fast(vals_from(np.conj(seq)), n, s)
        assert a == b


def test_gowers_norm_nesting():
    rng = np.random.default_rng(31)
    for seed in range(5):
        seq = np.random.default_rng(seed).choice([-1.0, 1.0], 32)
        u1 = gowers_direct(vals_from(seq), 32, 1)
        u2 = gowers_direct(vals_from(seq), 32, 2)
        u3 = gowers_direct(vals_from(seq), 32, 3)
        assert u1 <= u2 + 1e-9
        assert u2 <= u3 + 1e-9


@pytest.mark.parametrize("f", [
    builtin("lambda_xi", {"xi": "1/3"}),
    builtin("dirichlet_character", {"modulus": 5, "index": 1}),
    builtin("moebius"),
], ids=lambda f: f.label)
@pytest.mark.parametrize("n", [1, 2, 3, 5, 17, 31, 48])
@pytest.mark.parametrize("s", [2, 3])
def test_fast_matches_direct_catalog(f, n, s):
    vals = sieve_range(f, n).values
    assert abs(gowers_fast(vals, n, s) - gowers_direct(vals, n, s)) < 1e-9


def interval_energy(n):
    """Additive energy of 1_[n]: sum over |h| < n of (n - |h|)^2."""
    return (2 * n ** 3 + n) / 3


@pytest.mark.parametrize("s", [2, 3])
def test_profile_normalizer_closed_form(s):
    grid = [1, 2, 3, 17, 100, 1000, 4096]
    rep = uniformity_profile(unit_function(), s, grid)
    for entry in rep.entries:
        n = entry.N
        if s == 2:
            raw = interval_energy(n)
        else:
            raw = interval_energy(n) + 2 * sum(interval_energy(n - h) for h in range(1, n))
        want = (raw / entry.Ntilde ** (s + 1)) ** (1 / 2 ** s)
        assert entry.normalizer == pytest.approx(want, rel=1e-12, abs=0)


def test_profile_normalizer_direct_high_degree():
    # 1_[1] has one cube, 1_[2] has 2(s+1): from each point, at most one h_i
    # may step to the other point
    s = 4
    rep = uniformity_profile(unit_function(), s, [1, 2], method="direct")
    for entry, raw in zip(rep.entries, (1, 2 * (s + 1))):
        want = (raw / entry.Ntilde ** (s + 1)) ** (1 / 2 ** s)
        assert entry.normalizer == pytest.approx(want, rel=1e-12, abs=0)


def test_profile_direct_checks_degree_and_budget_first():
    # the normalizer must not run the definitional sum of 1_[n] before
    # gowers_direct has refused the degree or the operation count
    with pytest.raises(ResourceError, match="gowers_fast"):
        uniformity_profile(unit_function(), 4, [100], method="direct")
    with pytest.raises(InputError, match="degree"):
        uniformity_profile(unit_function(), 0, [10], method="direct")


def interval_cube_count(n, s):
    """Brute-force count of the (x, h_1..h_s) whose 2^s cube vertices
    x + eps.h all lie in [0, n): the U^s sum of 1_[n] over Z."""
    grids = np.meshgrid(np.arange(n), *([np.arange(1 - n, n)] * s), indexing="ij")
    x, hs = grids[0], grids[1:]
    inside = np.ones(x.shape, dtype=bool)
    for eps in itertools.product((0, 1), repeat=s):
        v = x + sum(h * ee for h, ee in zip(hs, eps))
        inside &= (v >= 0) & (v < n)
    return int(inside.sum())


@pytest.mark.parametrize("s", [1, 2, 3])
def test_interval_raw_matches_cube_count(s):
    for n in range(1, 13):
        assert seminorms._interval_raw(n, s) == interval_cube_count(n, s), n


@pytest.mark.parametrize("s,n", [(s, n) for s in (1, 2) for n in (1, 2, 3, 1000, 2 ** 16)]
                         + [(3, n) for n in (1, 2, 3, 1000)])
def test_interval_raw_matches_transformed_ones(s, n):
    # U^3 at 2^16 is past the fast cap (Ntilde <= 2^15); n = 1000 covers
    # several batch lengths there
    want = seminorms._gowers_raw(np.ones(n), s)
    assert seminorms._interval_raw(n, s) == pytest.approx(want, rel=1e-14, abs=0)


def exact_energy(row):
    """Additive energy of an integer row, in integers."""
    c = np.correlate(row, row, "full").astype(object)
    return int((c * c).sum())


@pytest.mark.parametrize("m", [1, 2, 4, 8, 2 ** 10, 2 ** 14])
def test_real_energies_match_complex_energies(m):
    rng = np.random.default_rng(m)
    for width in sorted({1, (m + 1) // 2, m}):
        rows = rng.choice([-2, -1, 1, 2], (3, width))
        real = seminorms._energies(rows.astype(np.float64), m)
        cplx = seminorms._energies(rows.astype(np.complex128), m)
        assert real.dtype == np.float64
        np.testing.assert_allclose(real, cplx, rtol=1e-14, atol=0)
        if 2 * width - 1 <= m:      # no difference wraps: the energy itself
            want = [exact_energy(row) for row in rows]
            np.testing.assert_allclose(real, want, rtol=1e-14, atol=0)


@pytest.mark.parametrize("n", [1, 2, 7, 31, 48])
@pytest.mark.parametrize("s", [2, 3])
def test_fast_matches_direct_by_input_type(n, s):
    rng = np.random.default_rng(100 * s + n)
    real = np.concatenate([[0.0], rng.standard_normal(n)])
    cplx = np.concatenate([[0j], e(rng.random(n)) * rng.random(n)])
    for vals in (real, real.astype(np.complex128), cplx):
        assert abs(gowers_fast(vals, n, s) - gowers_direct(vals, n, s)) < 1e-9
    # a zero imaginary part takes the real path: the same value, bit for bit
    assert gowers_fast(real, n, s) == gowers_fast(real.astype(np.complex128), n, s)


def test_direct_budget_error():
    with pytest.raises(ResourceError, match="gowers_fast"):
        gowers_direct(vals_from([1.0] * 512), 512, 3)


def test_fast_unsupported_degree():
    with pytest.raises(InputError, match="degree"):
        gowers_fast(vals_from([1.0] * 16), 16, 4)


def test_fast_u3_budget():
    with pytest.raises(ResourceError):
        gowers_fast(vals_from([1.0] * 8192), 8192, 3)


# --------------------------------------------------------------------------
# Uniformity profiles

def test_profile_constant_one_stays_one():
    rep = uniformity_profile(unit_function(), 2, [256, 1024, 4096])
    for entry in rep.entries:
        assert entry.value == pytest.approx(1.0, abs=1e-9)
        assert entry.Ntilde == 4 * entry.N


def test_profile_liouville_decreases(lam):
    rep = uniformity_profile(lam, 2, [2 ** 12, 2 ** 14, 2 ** 16])
    assert rep.monotone_decreasing
    assert not rep.bound_violations


@pytest.mark.parametrize("f", catalog_functions(), ids=lambda f: f.label)
def test_uniform_limit_bound_never_violated(f):
    rep = uniformity_profile(f, 2, [2 ** 10, 2 ** 14])
    assert rep.bound_violations == []
    for n, lhs, rhs in rep.besicovitch_pairs:
        assert lhs <= rhs + 1e-9


def test_profile_csv_header(lam):
    rep = uniformity_profile(lam, 2, [256, 512])
    lines = rep.to_csv().strip().splitlines()
    assert lines[0] == "N,Ntilde,s,method,value"
    assert len(lines) == 3
