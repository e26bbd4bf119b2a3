import math
from itertools import product

import numpy as np
import pytest

from multfun import (
    InputError,
    ResourceError,
    ap_mean,
    aperiodicity_test,
    builtin,
    characters_mod,
    euler_product_mean,
    find_k_and_character,
    halasz_classify,
    pretentious_distance,
    rap_test,
    sieve_range,
    zero_repair,
)
from multfun import pretentious
from multfun.arith import geometric_grid, primes_upto
from multfun.characters import character_table
from multfun.mf_core import MultiplicativeFunction, PrimePowerSpec, make_repaired
from multfun.pretentious import (
    EULER_TAIL_TOL,
    PLATEAU_CAP,
    _euler_terms,
    _first_plateau_character,
    _symmetric_grid,
    _TwistScan,
    _two_decades_back,
    unit_function,
)

from conftest import catalog_functions, traced_peak


def local_prime_sum(P):
    """Independent Mertens-sum oracle: sum of 1/p by a plain sieve."""
    sieve = bytearray([1]) * (P + 1)
    sieve[0:2] = b"\x00\x00"
    for i in range(2, int(P ** 0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = b"\x00" * len(sieve[i * i :: i])
    return sum(1.0 / p for p in range(2, P + 1) if sieve[p])


UNIMODULAR = [
    builtin("liouville"),
    builtin("lambda_xi", {"xi": "1/3"}),
    builtin("kappa_xi", {"xi": "2/5"}),
]


# --------------------------------------------------------------------------
# Distance

def test_self_distance_vanishes_for_unimodular():
    for f in UNIMODULAR:
        prof = pretentious_distance(f, f, 10 ** 4)
        assert all(abs(v) < 1e-12 for v in prof.partial)


def test_liouville_distance_to_one_matches_mertens(lam):
    prof = pretentious_distance(lam, unit_function(), 10 ** 6)
    oracle = 2.0 * local_prime_sum(10 ** 6)
    assert prof.final == pytest.approx(oracle, abs=1e-9)
    assert abs(prof.final - 5.77) < 0.1
    assert prof.trend == "mertens_divergence"


def test_mu_squared_distance_to_one_is_zero(mu2):
    prof = pretentious_distance(mu2, unit_function(), 10 ** 5)
    assert all(v == 0.0 for v in prof.partial)
    assert prof.trend == "plateau"


def test_distance_symmetry():
    fs = catalog_functions()
    for f, g in [(fs[0], fs[4]), (fs[4], fs[7]), (fs[2], fs[3])]:
        a = pretentious_distance(f, g, 10 ** 4)
        b = pretentious_distance(g, f, 10 ** 4)
        assert a.partial == b.partial


def test_triangle_inequality_on_catalog_triples():
    fs = catalog_functions()
    rng = np.random.default_rng(13)
    for _ in range(50):
        f, g, h = (fs[i] for i in rng.integers(0, len(fs), 3))
        dfg = math.sqrt(pretentious_distance(f, g, 10 ** 4).final)
        dfh = math.sqrt(pretentious_distance(f, h, 10 ** 4).final)
        dhg = math.sqrt(pretentious_distance(h, g, 10 ** 4).final)
        assert dfg <= dfh + dhg + 1e-9


def test_power_inequality():
    one = unit_function()
    for f in UNIMODULAR:
        for g in (one, UNIMODULAR[1]):
            d1 = math.sqrt(pretentious_distance(f, g, 10 ** 4).final)
            for m in range(2, 6):
                dm = math.sqrt(pretentious_distance(f ** m, g ** m, 10 ** 4).final)
                assert m * d1 >= dm - 1e-9, (f.label, g.label, m)


def test_distance_partial_sums_nondecreasing(lam, chi4):
    prof = pretentious_distance(lam, chi4, 10 ** 5)
    assert all(b >= a for a, b in zip(prof.partial, prof.partial[1:]))
    assert prof.to_csv().splitlines()[0] == "P,partial_sum"


def test_twisted_distance_uses_archimedean_factor(lam):
    p0 = pretentious_distance(lam, unit_function(), 10 ** 4, t=0.0)
    p1 = pretentious_distance(lam, unit_function(), 10 ** 4, t=2.0)
    assert p0.final != p1.final


def test_distance_profiles_nonnegative_nondecreasing():
    fs = catalog_functions()
    rng = np.random.default_rng(41)
    for _ in range(10):
        f, g = (fs[i] for i in rng.integers(0, len(fs), 2))
        t = float(rng.uniform(-5, 5))
        prof = pretentious_distance(f, g, 10 ** 4, t=t)
        assert prof.partial[0] >= 0.0
        assert all(b >= a for a, b in zip(prof.partial, prof.partial[1:]))


# --------------------------------------------------------------------------
# Mean values

def test_euler_product_mu_squared(mu2):
    ep = euler_product_mean(mu2, 10 ** 5)
    assert abs(ep.value - 6 / math.pi ** 2) < 1e-4
    assert abs(ep.value - 0.60793) < 1e-4
    assert not ep.flagged


def test_euler_product_constant_one():
    ep = euler_product_mean(unit_function(), 10 ** 4)
    assert abs(ep.value - 1.0) < 1e-10


def test_euler_product_phi_over_n(phi):
    ep = euler_product_mean(phi, 10 ** 5)
    assert abs(ep.value - 0.6079) < 1e-4


def test_euler_terms_match_the_scalar_formula():
    """The vectorized term counts of the Euler factors equal the scalar
    math.log formula at every prime <= 10^6."""
    primes = primes_upto(10 ** 6)
    scalar = [max(1, math.ceil(math.log(1.0 / (EULER_TAIL_TOL * (p - 1)), p)))
              for p in primes.tolist()]
    assert _euler_terms(primes).tolist() == scalar


def test_euler_product_keeps_the_modulus_bound():
    """The repaired value y = 2 at 2^2 breaks |f| <= 1, so the Euler product
    refuses f, as eval_at and the table values do."""
    with pytest.raises(InputError, match="modulus bound"):
        euler_product_mean(make_repaired(builtin("moebius"), 2.0, 0.0), 100)


@pytest.mark.parametrize("call", [
    lambda f: pretentious_distance(f, f, 1),
    lambda f: euler_product_mean(f, 1),
    lambda f: aperiodicity_test(f, 5, P=1),
    lambda f: rap_test(f, 5, P=1),
    lambda f: find_k_and_character(f, 2, 5, P=1),
], ids=["distance", "euler", "aperiodicity", "rap", "find_k"])
def test_prime_cutoff_below_2_is_refused(call):
    # no prime is <= 1: each scan refuses the cutoff rather than reading a
    # verdict (or a raw numpy error) off an empty prime list
    with pytest.raises(InputError, match="prime cutoff must be >= 2, got 1"):
        call(builtin("liouville"))


def test_ap_mean_constant_function():
    one = unit_function()
    for q, r in [(1, 0), (3, 2), (7, 0), (10, 9)]:
        rep = ap_mean(one, q, r, 10 ** 4)
        assert rep.direct == pytest.approx(1.0, abs=1e-12)


def test_ap_mean_character_progression(chi4):
    rep = ap_mean(chi4, 4, 3, 10 ** 5)
    assert rep.direct == pytest.approx(-1.0, abs=1e-12)
    assert rep.decomposition == pytest.approx(-1.0, abs=1e-12)


def test_ap_mean_lambda_third_identity_and_decay(l13):
    rep = ap_mean(l13, 5, 2, 10 ** 6)
    assert rep.agreement < 1e-12
    # progression means of lambda_{1/3} decay only like (log N)^{-3/2},
    # about 0.05 at this truncation
    assert abs(rep.direct) < 0.1
    assert abs(rep.decomposition) < 0.1


def test_ap_mean_identity_on_random_inputs():
    fs = catalog_functions()
    rng = np.random.default_rng(19)
    done = 0
    while done < 20:
        f = fs[int(rng.integers(0, len(fs)))]
        q = int(rng.integers(1, 20))
        r = int(rng.integers(0, q)) if q > 1 else 0
        if math.gcd(q, r if r else q) != 1:
            continue
        rep = ap_mean(f, q, r, 10 ** 5)
        assert rep.decomposition is not None
        assert rep.agreement < 1e-12, (f.label, q, r)
        done += 1


def test_ap_mean_direct_is_the_gathered_mean(l13):
    # the strided view visits the gathered indices in the same order
    N = 10 ** 5
    t = sieve_range(l13, N)
    for q in range(1, 11):
        for r in range(q):
            rep = ap_mean(l13, q, r, N, table=t)
            idx = q * np.arange(1, rep.M + 1) + r
            assert rep.direct == complex(t.values[idx].sum() / rep.M), (q, r)


def test_ap_mean_agreement_stays_at_rounding(l13):
    # index-order class sums drifted to 2.2e-14 here; pairwise ones do not
    N = 10 ** 6
    t = sieve_range(l13, N)
    for q, r in [(5, 2), (7, 3), (2, 1), (3, 1)]:
        assert ap_mean(l13, q, r, N, table=t).agreement <= 1e-15, (q, r)


def test_ap_mean_validates_residue(mu):
    from multfun import InputError

    with pytest.raises(InputError):
        ap_mean(mu, 4, 4, 10 ** 4)


# --------------------------------------------------------------------------
# Halasz classification

def test_halasz_mu_squared_case_i(mu2):
    rep = halasz_classify(mu2, P=10 ** 5, N=10 ** 6)
    assert rep.halasz_case == "case_i"
    assert abs(rep.euler[-1][1] - 6 / math.pi ** 2) < 1e-3
    assert abs(rep.empirical[-1][1] - 6 / math.pi ** 2) < 1e-3
    assert rep.euler[-1][1] != 0


def test_halasz_liouville_case_iv(lam):
    rep = halasz_classify(lam, P=10 ** 6, N=10 ** 7)
    assert rep.halasz_case == "case_iv"
    assert abs(rep.empirical[-1][1]) < 0.01


def test_halasz_dyadic_case_iii():
    f = MultiplicativeFunction(
        "dyadic_flip", PrimePowerSpec(lambda p, k: -1.0 if p == 2 else 1.0)
    )
    rep = halasz_classify(f, P=10 ** 5, N=10 ** 5)
    assert rep.halasz_case == "case_iii"
    assert rep.evidence["t_star"] == pytest.approx(0.0, abs=1e-9)
    assert abs(rep.empirical[-1][1]) < 0.01
    # the Euler factor at p = 2 vanishes: (1/2)(1 - sum 2^-m) = 0
    assert abs(rep.euler[-1][1]) < 1e-12


# --------------------------------------------------------------------------
# Aperiodicity and rational almost periodicity

def test_aperiodicity_liouville(lam):
    rep = aperiodicity_test(lam, Q_max=30, P=10 ** 6)
    assert rep.verdict == "aperiodic_evidence"
    assert rep.heuristic
    N = 10 ** 7
    table = sieve_range(lam, N)
    for q in range(1, 7):
        for r in range(q):
            assert abs(ap_mean(lam, q, r, N, table=table).direct) < 0.01, (q, r)


def test_aperiodicity_character_detected(chi4):
    rep = aperiodicity_test(chi4, Q_max=20, P=10 ** 5)
    assert rep.verdict == "periodic_structure"
    assert rep.chi == (4, 1)
    assert rep.t == pytest.approx(0.0)
    assert rep.evidence["min_tail_increment"] == pytest.approx(0.0, abs=1e-12)


def test_aperiodicity_mu_squared_pretends_trivial(mu2):
    rep = aperiodicity_test(mu2, Q_max=20, P=10 ** 5)
    assert rep.verdict == "periodic_structure"
    assert rep.chi == (1, 0)


def test_rap_trivial_when_prime_values_vanish():
    f = MultiplicativeFunction("prime_killer", PrimePowerSpec(lambda p, k: 0.0))
    assert rap_test(f, Q_max=5, P=10 ** 4).verdict == "rap_trivial"


def test_rap_mu_squared_pretends_principal(mu2):
    rep = rap_test(mu2, Q_max=20, P=10 ** 5)
    assert rep.verdict == "rap_pretends"
    assert rep.chi == (1, 0)


def test_rap_liouville_not_besicovitch(lam):
    rep = rap_test(lam, Q_max=20, P=10 ** 6)
    assert rep.verdict == "not_besicovitch"


def test_rap_phi_over_n_pretends(phi):
    rep = rap_test(phi, Q_max=10, P=10 ** 5)
    assert rep.verdict == "rap_pretends"
    assert rep.chi == (1, 0)


# --------------------------------------------------------------------------
# Cross-checks between empirical and Euler-product means

@pytest.mark.parametrize("name", ["mu_squared", "phi_over_n"])
def test_mean_consistency(name):
    f = builtin(name, {})
    emp = complex(sieve_range(f, 10 ** 7).values[1:].mean())
    ep = euler_product_mean(f, 10 ** 5)
    assert abs(emp - ep.value) < 2e-3


# --------------------------------------------------------------------------
# Twist-scan tail and character scans against per-character oracles

def tail_oracle(primes, cvec, t_grid, P):
    """Last-two-decades increment from its definition: sum 1/p - Re sum
    p^{-it} cvec(p) over the primes in (bounds[-3], P], or over all primes
    <= P when that range holds none."""
    bounds = [min(10, P)]
    while bounds[-1] * 10 < P:
        bounds.append(bounds[-1] * 10)
    bounds.append(P)
    lo = bounds[-3] if len(bounds) >= 3 else bounds[0]
    mask = (primes > lo) & (primes <= P)
    if not mask.any():
        mask = primes <= P
    p = primes[mask].astype(np.float64)
    out = []
    for t in t_grid:
        twisted = sum(complex(c) * complex(math.cos(t * math.log(x)), -math.sin(t * math.log(x)))
                      for c, x in zip(cvec[mask], p))
        out.append(sum(1.0 / x for x in p) - twisted.real)
    return np.array(out)


def character_columns(c, primes, Q_max):
    """The vectors c conj(chi(p)) of every chi mod q <= Q_max, in the listing
    order of _TwistScan.scan_characters' columns."""
    return [c * np.conj(chi.table)[primes % q]
            for q in range(1, Q_max + 1) for chi in characters_mod(q)]


def definitional_scans(c, primes, t_grid, P, Q_max):
    """Per t (rows) and per chi mod q <= Q_max (columns, in listing order):
    the last-two-decade increment of c conj(chi(p)) and its max windowed
    ratio against the Mertens rate, from their definition.  Each decade
    window (lo, hi] of the bounds 10, 100, ..., P that holds a prime gives
    sum 1/p - Re exp(-i t log p) @ c conj(chi(p)) over its primes, the whole
    exponential matrix at once, and the rate 2 (ln ln hi - ln ln max(lo, 2));
    with no such window, all primes <= P form one window of rate
    2 max(ln ln max(P, 3), 0.1).  The tail sums the windows from the
    third-last bound on (the first with two bounds), or the one window."""
    bounds = [min(10, P)]
    while bounds[-1] * 10 < P:
        bounds.append(bounds[-1] * 10)
    bounds.append(P)
    tail_lo = bounds[-3] if len(bounds) >= 3 else bounds[0]
    vectors = np.array(character_columns(c, primes, Q_max)).T
    windows = [(lo, 2 * (math.log(math.log(hi)) - math.log(math.log(max(lo, 2)))),
                (primes > lo) & (primes <= hi)) for lo, hi in zip(bounds, bounds[1:])]
    windows = [w for w in windows if w[2].any()] or [
        (tail_lo, 2 * max(math.log(math.log(max(P, 3))), 0.1), primes <= P)]
    tail, ratio = 0.0, -np.inf
    for lo, rate, mask in windows:
        p = primes[mask].astype(np.float64)
        twisted = (np.exp(-1j * np.outer(t_grid, np.log(p))) @ vectors[mask]).real
        inc = (1.0 / p).sum() - twisted
        ratio = np.maximum(ratio, inc / rate)
        if lo >= tail_lo:
            tail = tail + inc
    return tail, ratio


@pytest.mark.parametrize("P", [2, 7, 10, 11, 50, 100, 101, 1000, 1001, 1005, 1008, 1009,
                               10 ** 4, 10005, 10 ** 5, 100002])
def test_twist_scan_tail_matches_definition(P, l13, lam):
    # l13 is complex on the primes, lam real (no sin rows against chi_0
    # mod 1, as the Halász scans of a real f run); the columns checked are
    # chi_0 mod 1 (c itself) and the complex chi mod 5 of index 1
    primes = primes_upto(P)
    t_grid = np.array([-3.5, 0.0, 1.25, 7.0])
    scan = _TwistScan(primes, P)
    for f in (l13, lam):
        c = f.prime_values(primes) / primes
        chunked, _ = scan.scan_characters(c, t_grid, 5)
        vectors = character_columns(c, primes, 5)
        for col in (0, 7):
            oracle = tail_oracle(primes, vectors[col], t_grid, P)
            assert np.max(np.abs(chunked[:, col] - oracle)) < 1e-12, (f.label, col)
        tail_inc, _ = scan.scan_characters(c, t_grid, 1)
        assert tail_inc.shape == (len(t_grid), 1)
        assert np.max(np.abs(tail_inc[:, 0] - tail_oracle(primes, c, t_grid, P))) < 1e-12, f.label


@pytest.mark.parametrize("n_t", [1, 7, 8, 9, 41, 201])
@pytest.mark.parametrize("P", [7, 1009, 10 ** 5])
def test_streamed_and_stored_scans_agree(P, n_t, l13, lam):
    # the scan of every character mod q <= 5 at once, and the Halász-shape
    # scan of chi_0 mod 1 alone, against the definitional scans of each
    # vector, for grids of 1 to 201 t; at 10^5 with 201 t the last window
    # spans several chunks of primes
    primes = primes_upto(P)
    t_grid = np.linspace(-10.0, 10.0, n_t)
    scan = _TwistScan(primes, P)
    for f in (l13, lam):
        c = f.prime_values(primes) / primes
        want = definitional_scans(c, primes, t_grid, P, 5)
        for Q_max, m in ((5, 10), (1, 1)):
            for a, b in zip(scan.scan_characters(c, t_grid, Q_max), want):
                assert a.shape == (n_t, m)
                assert np.max(np.abs(a - b[:, :m])) <= 1e-15, (f.label, Q_max)


@pytest.mark.parametrize("n_t", [2, 40, 41, 201])
@pytest.mark.parametrize("P", [7, 1009, 10 ** 5])
def test_folded_scans_match_definition(P, n_t, l13, lam):
    # on a grid that is its own negation only the t >= 0 half is scanned,
    # and the t < 0 rows are the even part minus the odd part: against the
    # definitional scans, for a complex (l13) and a real (lam) vector.  For
    # the real one, each real character's column is the same at -t as at t
    # bit for bit, since its odd part is 0
    primes = primes_upto(P)
    t_grid = _symmetric_grid(10.0, n_t)
    scan = _TwistScan(primes, P)
    real = np.concatenate([~character_table(q).imag.any(axis=1) for q in range(1, 6)])
    for f in (l13, lam):
        c = f.prime_values(primes) / primes
        want = definitional_scans(c, primes, t_grid, P, 5)
        for Q_max, m in ((5, 10), (1, 1)):
            for a, b in zip(scan.scan_characters(c, t_grid, Q_max), want):
                assert a.shape == (n_t, m)
                assert np.max(np.abs(a - b[:, :m])) <= 1e-15, (f.label, Q_max)
                if f is lam:
                    cols = np.flatnonzero(real[:m])
                    assert np.array_equal(a[:, cols], a[::-1, cols]), Q_max


@pytest.mark.parametrize("n, half_width", [(2, 10.0), (3, 10.0), (40, 10.0), (41, 10.0),
                                           (201, 10.0), (41, None)])
def test_symmetric_grid_is_its_own_negation(n, half_width):
    # the Halász and aperiodicity grids (201 and 41 t in [-10, 10]) and the
    # Halász refinement around t = 0 (41 t within the coarse step): each is
    # np.linspace to within 2 ulp of the half width, with t = 0 exactly
    # when n is odd
    if half_width is None:
        coarse = _symmetric_grid(10.0, 201)
        half_width = float(coarse[1] - coarse[0])
    grid = _symmetric_grid(half_width, n)
    assert np.array_equal(-grid[::-1], grid)
    assert len(grid) == n and (n % 2 == 0 or grid[n // 2] == 0.0)
    linear = np.linspace(-half_width, half_width, n)
    assert np.max(np.abs(grid - linear)) <= 2 * np.spacing(half_width)


def test_halasz_t_tie_reports_negative_t(chi4):
    # chi mod 4 is real, so its Halász ratios at +-t are an exact tie on the
    # symmetric grid and the scan reports the negative t, run after run
    for _ in range(2):
        t_star = halasz_classify(chi4, P=1009, N=1009).evidence["t_star"]
        assert t_star == pytest.approx(-4.355, abs=1e-12)


def test_twist_scan_peak_within_its_chunk_charge(monkeypatch, l13, lam):
    """A scan allocates the twist and character rows of one chunk of
    primes, the bytes it charges to the cap, and holds besides them log p
    and the real and imaginary parts of c (slack: 32 B per prime) and its
    per-window sums and scores (slack: eight len(t) x m float arrays).
    Shapes: the Halász scans' 201 t against chi_0 mod 1 (m = 1) and the
    aperiodicity scan's 41 t against the 278 characters mod q <= 30, each
    for a complex (l13) and a real (lam) vector, on np.linspace grids
    (scanned in full) and on symmetric ones (folded: the t >= 0 half)."""
    P = 10 ** 5
    primes = primes_upto(P)
    charged = []
    monkeypatch.setattr(pretentious, "check_budget", lambda nbytes, what: charged.append(nbytes))
    for q in range(1, 31):      # the cached character tables are not the scan's
        characters_mod(q)
    scan = _TwistScan(primes, P)
    for f in (l13, lam):
        c = f.prime_values(primes) / primes
        for n_t, Q_max, m in ((201, 1, 1), (41, 30, 278)):
            for t_grid in (np.linspace(-10.0, 10.0, n_t), _symmetric_grid(10.0, n_t)):
                peak = traced_peak(lambda: scan.scan_characters(c, t_grid, Q_max))
                assert charged[-1] <= _TwistScan._CHUNK_BYTES
                assert charged[-1] <= peak <= charged[-1] + 32 * len(primes) + 8 * 8 * n_t * m, \
                    (f.label, n_t, t_grid[1])


def test_halasz_scan_charged_to_cap(monkeypatch, lam):
    # the folded scan of a real f holds the cos rows of the 101 t >= 0 of
    # its 201 t and the chi_0 row over the 8363 primes of (10^4, 10^5], its
    # longest window: 102 x 8363 x 8 B = 6824208 B (~6.5 MB), refused under
    # a 6 MB cap, where the sieve context for 10^5 (~2.6 MB) still fits
    monkeypatch.setenv("MULTFUN_MEM_CAP_MB", "6")
    with pytest.raises(ResourceError, match="twist scan"):
        halasz_classify(lam, P=10 ** 5, N=10 ** 5)


def test_stored_twist_windows_charged_to_cap(monkeypatch, lam):
    # the scan of the 278 characters mod q <= 30 for a real f holds the cos
    # and sin rows of the 21 t >= 0 of its 41 t and the 278 Re and 278 Im
    # character rows, 8 B each, over 3506 primes at a time, 16772704 B: it
    # runs under a 16 MB cap and is refused under 15 MB, where the sieve
    # context for 10^5 (~2.6 MB) still fits
    monkeypatch.setenv("MULTFUN_MEM_CAP_MB", "16")
    aperiodicity_test(lam, Q_max=30, P=10 ** 5)
    monkeypatch.setenv("MULTFUN_MEM_CAP_MB", "15")
    with pytest.raises(ResourceError, match="twist scan"):
        aperiodicity_test(lam, Q_max=30, P=10 ** 5)


@pytest.mark.parametrize("P", [11, 101, 10 ** 5])
def test_principal_characters_tie_bitwise(P, l13, lam):
    # on the window primes (all above 10) chi_0 mod 1, 2, 3, 6 and 30 are all
    # 1, so their columns must be bitwise equal for min to keep (1, 0) ahead
    primes = primes_upto(P)
    offsets = np.cumsum([0] + [len(characters_mod(q)) for q in range(1, 30)])
    cols = [offsets[q - 1] for q in (1, 2, 3, 6, 30)]
    scan = _TwistScan(primes, P)
    t_grid = np.linspace(-10.0, 10.0, 41)
    for f in (l13, lam):
        for vals in scan.scan_characters(f.prime_values(primes) / primes, t_grid, 30):
            for col in cols[1:]:
                assert np.array_equal(vals[:, col], vals[:, cols[0]]), (f.label, col)


@pytest.mark.parametrize("P", [2, 7, 10, 11, 100, 1009, 10 ** 4, 5 * 10 ** 5, 10 ** 6])
def test_two_decades_back_is_the_last_point_below_the_cut(P):
    """The tail start against its loop definition: the index of the last grid
    point <= max(P // 100, min(100, P)), or 0 when no point is, on the
    geometric grid as an array and as the list that _classify_trend reads."""
    grid = geometric_grid(10, P)
    target = max(P // 100, min(100, P))
    want = 0
    for i, p in enumerate(grid.tolist()):
        if p <= target:
            want = i
    assert _two_decades_back(grid) == want
    assert _two_decades_back(grid.tolist()) == want
    above = [p for p in grid.tolist() if p > target] or [P]
    assert _two_decades_back(above) == 0


def _tail_set(primes, P):
    """The primes above the two-decades cut, and their sum of 1/p."""
    grid = geometric_grid(10, P)
    hi = primes > grid[_two_decades_back(grid)]
    return hi, float((1.0 / primes)[hi].sum())


def first_character_oracle(terms, primes, P, Q_max):
    """The per-character loop: first (q, index, increment) whose untwisted
    tail increment of terms(p) = f(p)/p against chi is below PLATEAU_CAP."""
    hi, sum_invp_hi = _tail_set(primes, P)
    for q in range(1, Q_max + 1):
        res = primes % q
        for chi in characters_mod(q):
            inc = sum_invp_hi - float((terms * np.conj(chi.table[res]))[hi].sum().real)
            if inc < PLATEAU_CAP:
                return q, chi.index, inc
    return None


def test_first_plateau_character_takes_lowest_index(monkeypatch):
    # Re chi(p), chi complex mod 5, lies halfway between chi and its conjugate
    # (index 3); with the cap at 0.6 of the tail's sum of 1/p both qualify
    # and nothing of a smaller modulus does, so listing order decides
    P = 10 ** 4
    primes = primes_upto(P)
    chi = characters_mod(5)[1]
    _, sum_invp_hi = _tail_set(primes, P)
    monkeypatch.setattr(pretentious, "PLATEAU_CAP", 0.6 * sum_invp_hi)
    found = _first_plateau_character(chi.values_at(primes).real / primes, primes,
                                     geometric_grid(10, P), 10)
    assert found[:2] == (5, 1)


def find_k_oracle(g, P, Q_max, k_max=8):
    primes = primes_upto(P)
    gp = g.prime_values(primes)
    if np.min(np.abs(gp)) < 1e-9:
        return "vanishes"
    for k in range(1, k_max + 1):
        found = first_character_oracle(gp ** k / primes, primes, P, Q_max)
        if found is not None:
            return (k,) + found[:2]
    return None


def ap_decomposition_oracle(f, q, r, N):
    vals = sieve_range(f, N).values
    M = (N - r) // q
    window = np.arange(r + 1, q * M + r + 1)
    chars = characters_mod(q)
    acc = 0j
    for chi in chars:
        acc += chi.conj_at(r) * complex((vals[window] * chi.table[window % q]).sum())
    return acc / (len(chars) * M)


ORACLE_CASES = {
    "mu_squared": builtin("mu_squared"),
    "liouville": builtin("liouville"),
    "lambda_1/3": builtin("lambda_xi", {"xi": "1/3"}),
    "chi4": builtin("dirichlet_character", {"modulus": 4, "index": 1}),
    "chi5_complex": builtin("dirichlet_character", {"modulus": 5, "index": 1}),
    "repaired_moebius": zero_repair(builtin("moebius"), 1),
}


@pytest.mark.parametrize("P", [10 ** 4, 10 ** 5])
@pytest.mark.parametrize("Q", [5, 20, 60])
@pytest.mark.parametrize("name", list(ORACLE_CASES))
def test_character_scans_match_per_character_loops(name, Q, P):
    f = ORACLE_CASES[name]
    primes = primes_upto(P)
    fp = f.prime_values(primes)
    grid = geometric_grid(10, P)
    for k in (1, 2, 3):
        terms = fp ** k / primes
        got = _first_plateau_character(terms, primes, grid, Q)
        want = first_character_oracle(terms, primes, P, Q)
        assert (got is None) == (want is None), k
        if got is not None:
            assert got[:2] == want[:2], k
            assert abs(got[2] - want[2]) < 1e-12, k

    rep = rap_test(f, Q_max=Q, P=P)
    want = first_character_oracle(fp / primes, primes, P, Q)
    if want is None:
        assert rep.verdict == "not_besicovitch"
    else:
        assert (rep.verdict, rep.chi) == ("rap_pretends", want[:2])
        assert abs(rep.evidence["char_increment"] - want[2]) < 1e-12

    want = find_k_oracle(f, P, Q)
    if want == "vanishes":
        with pytest.raises(InputError):
            find_k_and_character(f, Q_max=Q, P=P)
    elif want is not None:
        res = find_k_and_character(f, Q_max=Q, P=P)
        assert (res.k, res.chi.modulus, res.chi.index) == want
        assert not res.fallback

    for r in range(Q):
        if math.gcd(Q, r) == 1:
            rep = ap_mean(f, Q, r, P)
            assert abs(rep.decomposition - ap_decomposition_oracle(f, Q, r, P)) < 1e-12


def per_character_scans(f, Q_max, P):
    """aperiodicity_test's (value, q, index, |t|, t) candidates from the
    definitional scans of every character mod q <= Q_max: the least tail
    increment and the least max-window ratio of each, in listing order."""
    primes = primes_upto(P)
    t_grid = np.linspace(-10.0, 10.0, 41)
    scans = definitional_scans(f.prime_values(primes) / primes, primes, t_grid, P, Q_max)
    labels = [(q, chi.index) for q in range(1, Q_max + 1) for chi in characters_mod(q)]
    tails, scores = [], []
    for col, (q, index) in enumerate(labels):
        for best, vals in zip((tails, scores), scans):
            j = int(np.argmin(vals[:, col]))
            best.append((float(vals[j, col]), q, index, abs(float(t_grid[j])),
                         float(t_grid[j])))
    return tails, scores


def assert_evidence_matches(rep, tails, scores):
    """The report against the least of the per-character candidates: the
    same character, t and verdict, and values within 1e-15."""
    (tail, q, index, _, t), score = min(tails), min(scores)[0]
    ev = rep.evidence
    assert (ev["best_chi"], ev["best_t"]) == ((q, index), t)
    assert abs(ev["min_tail_increment"] - tail) <= 1e-15
    assert abs(ev["min_max_window_ratio"] - score) <= 1e-15
    if tail < PLATEAU_CAP:
        assert (rep.verdict, rep.chi, rep.t) == ("periodic_structure", (q, index), t)
    elif score >= pretentious.APERIODIC_MIN_RATIO:
        assert (rep.verdict, rep.chi, rep.t) == ("aperiodic_evidence", None, None)
    else:
        assert (rep.verdict, rep.chi, rep.t) == ("inconclusive", (q, index), t)


@pytest.mark.parametrize("name", list(ORACLE_CASES))
def test_aperiodicity_matches_per_character_scans(name):
    # the characters mod q <= Q lead the listing mod q <= Q_top, so one
    # oracle scan per P serves every bound up to Q_top.  The 1102 characters
    # mod q <= 60 at 10^4 are scanned for one real and one complex f; there
    # the last window spans two chunks of primes
    f = ORACLE_CASES[name]
    wide = name in ("liouville", "lambda_1/3")
    for P, Q_top in ((2, 60), (7, 60), (10, 60), (100, 60), (10 ** 4, 60 if wide else 30)):
        tails, scores = per_character_scans(f, Q_top, P)
        for Q in (5, 30, 60):
            if Q <= Q_top:
                m = sum(len(characters_mod(q)) for q in range(1, Q + 1))
                assert_evidence_matches(aperiodicity_test(f, Q_max=Q, P=P),
                                        tails[:m], scores[:m])
    assert_evidence_matches(aperiodicity_test(f, Q_max=5, P=10 ** 5),
                            *per_character_scans(f, 5, 10 ** 5))


@pytest.mark.parametrize("K", [1, 7, 22])
@pytest.mark.parametrize("P", [1000, 1009])
def test_aperiodicity_chunk_boundaries(monkeypatch, P, K):
    # chunks of K primes for the 21 scanned t >= 0 of the 41 t and the 10
    # characters mod q <= 5: the window (10, 100] holds 21 primes, (100, 1000]
    # 143 and (1000, 1009] one, so chunks end on, one short of and one past a
    # window's end.  A chunk holds 8 B per prime for each of 2 rows per
    # character (Re, Im) and per scanned t: cos and sin, and for a complex f
    # also a scratch row
    for f in ORACLE_CASES.values():
        t_rows = 3 if f.prime_values(primes_upto(P)).imag.any() else 2
        monkeypatch.setattr(_TwistScan, "_CHUNK_BYTES", 8 * (t_rows * 21 + 2 * 10) * K)
        assert_evidence_matches(aperiodicity_test(f, Q_max=5, P=P),
                                *per_character_scans(f, 5, P))
