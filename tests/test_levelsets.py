import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multfun import (
    InputError,
    SearchError,
    builtin,
    concentration_analysis,
    density_profile,
    divisibility_report,
    find_k_and_character,
    level_set,
    random_relative_subset,
    sieve_range,
    sp_set,
    structure_pair,
    zero_repair,
)
from multfun import levelsets, seminorms
from multfun.arith import ONE, ZERO, RootOfUnity, primes_upto
from multfun.levelsets import (
    _TEXT_BLOCK,
    GOLDEN_FRAC,
    LevelSet,
    _collision_free,
    _off_group,
)
from multfun.mf_core import ExactCodes, MultiplicativeFunction, PrimePowerSpec
from multfun.seminorms import gowers_fast

from conftest import squarefree_count_oracle, traced_peak


def test_level_set_liouville_plus_one(lam):
    E = level_set(lam, 1, 10)
    assert E.members.tolist() == [1, 4, 6, 9, 10]
    assert E.exact


def test_level_set_moebius_zero(mu):
    E = level_set(mu, ZERO, 10)
    assert E.members.tolist() == [4, 8, 9]


def test_level_set_off_image_is_empty(lam):
    E = level_set(lam, RootOfUnity(1, 4), 1000)
    assert E.count == 0


def test_level_set_float_path_requires_tolerance(phi):
    with pytest.raises(InputError, match="tolerance"):
        level_set(phi, 0.5 + 0j, 100)
    E = level_set(phi, 0.5 + 0j, 100, tol=1e-9)
    assert E.members.tolist() == [2, 4, 8, 16, 32, 64]
    assert not E.exact
    assert E.tol == 1e-9


def test_level_set_exact_rational_ratio(phi):
    E = level_set(phi, Fraction(1, 3), 200)
    brute = [n for n in range(1, 201)
             if Fraction(sum(1 for a in range(1, n + 1) if math.gcd(a, n) == 1), n)
             == Fraction(1, 3)]
    assert E.members.tolist() == brute
    assert E.members.tolist()[:4] == [6, 12, 18, 24]


def test_level_set_chi_of_tau_mod_2_is_squares():
    # tau(n) is odd exactly at perfect squares
    ct2 = builtin("chi_of_tau", {"modulus": 2})
    E = level_set(ct2, 1, 100)
    assert E.members.tolist() == [k * k for k in range(1, 11)]


def test_level_set_members_strictly_increasing(l13):
    E = level_set(l13, RootOfUnity(1, 3), 10 ** 4)
    assert np.all(np.diff(E.members) > 0)


# --------------------------------------------------------------------------
# Densities

def test_density_profile_squarefree(mu2):
    N = 10 ** 7
    E = level_set(mu2, 1, N)
    assert E.count == squarefree_count_oracle(N)
    prof = density_profile(E, 4)
    assert abs(prof.density - 0.6079) < 2e-3
    # squarefree density in the cell 4N + 1 approaches 2/pi^2
    assert abs(prof.cells[(4, 1)] / N - 2 / math.pi ** 2) < 3e-3
    assert (4, 0) in prof.empty_cells


def test_density_profile_liouville_even_cell(lam):
    N = 10 ** 7
    E = level_set(lam, 1, N)
    prof = density_profile(E, 2)
    assert abs(prof.cells[(2, 0)] / N - 0.25) < 5e-3


def test_partition_of_density_is_exact(l13):
    N = 10 ** 6
    counts = [level_set(l13, RootOfUnity(j, 3), N).count for j in range(3)]
    assert sum(counts) == N


# --------------------------------------------------------------------------
# Concentration analysis

def test_concentration_liouville(lam):
    rep = concentration_analysis(lam, 10 ** 5)
    assert rep.verdict == "concentrated"
    assert len(rep.points) == 1
    assert rep.points[0][0] == -1
    assert sorted((g.num, g.den) for g in rep.group) == [(0, 1), (1, 2)]
    assert rep.tail == 0.0


def test_concentration_lambda_third(l13):
    rep = concentration_analysis(l13, 10 ** 5)
    assert rep.verdict == "concentrated"
    assert rep.group_size == 3
    assert {g.den for g in rep.group} <= {1, 3}


def test_concentration_irrational_phase_unbounded():
    f = builtin("lambda_xi", {"xi": math.sqrt(2) - 1})
    rep = concentration_analysis(f, 10 ** 5)
    assert rep.verdict == "not_concentrated"
    assert rep.group == "unbounded"


def test_concentration_spread_function_has_no_points():
    f = MultiplicativeFunction(
        "prime_tagged",
        PrimePowerSpec(lambda p, k: complex(np.exp(2j * np.pi * ((GOLDEN_FRAC * p) % 1.0)))),
    )
    rep = concentration_analysis(f, 10 ** 4)
    assert rep.verdict in ("not_concentrated", "inconclusive")
    assert rep.points == []


def test_ruzsa_dichotomy_consistency():
    # a zero-free, not-concentrated function: every nonzero level is sparse
    f = MultiplicativeFunction(
        "prime_tagged",
        PrimePowerSpec(lambda p, k: complex(np.exp(2j * np.pi * ((GOLDEN_FRAC * p) % 1.0)))),
    )
    rep = concentration_analysis(f, 10 ** 4)
    assert rep.verdict != "concentrated"
    t = sieve_range(f, 10 ** 6)
    _, counts = np.unique(np.round(t.values[1:], 9), return_counts=True)
    assert counts.max() / 10 ** 6 < 0.01


@pytest.mark.parametrize("L", [1, 2, 3, 4, 6, 12, 16, 37, 64])
def test_off_group_matches_the_broadcast_minimum(L):
    # exact roots, zeros (signed too), points 1e-9 off a root along and across
    # the circle, and random points inside and on the circle
    roots = np.array([RootOfUnity(j, L).value for j in range(L)])
    rng = np.random.default_rng(L)
    picked = roots[rng.integers(0, L, 300)]
    values = np.concatenate([
        roots, [0j, complex(-0.0, -0.0), complex(-1.0, -0.0), complex(-1.0, 0.0)],
        picked * np.exp(1j * rng.choice([-1e-9, 1e-9, -2e-9, 2e-9, 5e-10], 300)),
        picked * (1 + rng.choice([-1e-9, 1e-9, 9.99e-10, 1.001e-9], 300)),
        picked + 1e-9, picked - 1e-9j,
        rng.random(500) * np.exp(2j * np.pi * rng.random(500)),
        np.exp(2j * np.pi * rng.random(500)),
    ])
    want = np.min(np.abs(values[:, None] - roots[None, :]), axis=1) > 1e-9
    assert np.array_equal(_off_group(values, roots), want)
    assert want.any() and not want.all()


# --------------------------------------------------------------------------
# Zero repair

def test_zero_repair_moebius(mu):
    g = zero_repair(mu, 1)
    assert g is not mu
    N = 10 ** 4
    Ef = level_set(mu, 1, N)
    Eg = level_set(g, 1, N, tol=1e-9)
    assert np.array_equal(Ef.members, Eg.members)
    # repaired function never vanishes
    tg = sieve_range(g, N)
    assert np.all(tg.values[1:] != 0)


def test_zero_repair_catches_a_planted_collision(mu, monkeypatch):
    # gamma = 1/2 makes y = -1, so g(4) = y lands on the target -1; with the
    # collision search bypassed, only the check of g's level set sees it
    monkeypatch.setattr(levelsets, "GOLDEN_FRAC", 0.5)
    monkeypatch.setattr(levelsets, "_collision_free", lambda gamma, angles: True)
    with pytest.raises(SearchError, match="failed to preserve the level set"):
        zero_repair(mu, -1)


def test_zero_repair_keeps_zero_free_functions(lam, l13):
    assert zero_repair(lam, 1) is lam
    assert zero_repair(l13, RootOfUnity(1, 3)) is l13


def test_zero_repair_rejects_zero_target(mu):
    with pytest.raises(InputError):
        zero_repair(mu, ZERO)


def test_zero_repair_rescales_gamma_past_a_collision(tmp_path):
    # f(3) = e(33 gamma_0) makes the observed difference 33 gamma_0 mod 1, which
    # y^33 hits at gamma_0 = GOLDEN_FRAC; at gamma_0 / 2 it would take n = 66
    x = 33 * GOLDEN_FRAC % 1.0
    path = tmp_path / "f.txt"
    path.write_text(f"2 2 0 0\n3 1 {math.cos(2 * math.pi * x)!r} {math.sin(2 * math.pi * x)!r}\n")
    f = builtin("custom_file", {"path": str(path)})
    g = zero_repair(f, 1)
    assert g.meta["gamma"] == GOLDEN_FRAC / 2.0
    N = 10 ** 4
    assert np.array_equal(level_set(g, 1, N, tol=1e-9).members,
                          level_set(f, 1, N, tol=1e-9).members)


def _dense_custom_file(path, N=8000, zero=7919, seed=11):
    """A custom file with f(p^k) at random 2^20-th roots of unity for every
    p^k <= N, except f(zero) = 0: its values at the n <= N have about N
    distinct angles."""
    rng = np.random.default_rng(seed)
    lines = [f"{zero} 1 0 0"]
    for p in primes_upto(N).tolist():
        pk, k = p, 1
        while pk <= N:
            if pk != zero:
                a = 2 * math.pi * int(rng.integers(0, 2 ** 20)) / 2 ** 20
                lines.append(f"{p} {k} {math.cos(a)!r} {math.sin(a)!r}")
            pk, k = pk * p, k + 1
    path.write_text("\n".join(lines) + "\n")
    return builtin("custom_file", {"path": str(path)})


def test_zero_repair_of_a_dense_custom_file_fits_a_small_cap(tmp_path, monkeypatch):
    # about 8000 distinct observed angles: their k^2 differences would take
    # ~1 GB, the collision search holds a few arrays of 64 x k floats (~4 MB
    # each); the first four gammas collide with the differences
    f = _dense_custom_file(tmp_path / "dense.txt")
    vals = sieve_range(f, 8000).values[1:]
    vals = vals[vals != 0]
    assert len(np.unique(np.angle(vals) / (2 * np.pi) % 1.0)) > 7900
    monkeypatch.setenv("MULTFUN_MEM_CAP_MB", "16")
    g = zero_repair(f, 1, N_check=8000)
    assert g.kind == "repaired"
    assert g.meta["gamma"] == GOLDEN_FRAC / 5.0


def test_collision_search_peak_is_a_few_shift_arrays():
    # 8191 angles, the most zero_repair samples: the search holds the 64 x k
    # neighbour indices and at most three float arrays of that shape at once
    # (~17 MB in all, 64 KB of slack), where the k^2 differences took ~1.1 GB
    angles = np.unique(np.random.default_rng(5).random(8191))
    k = len(angles)
    _collision_free(GOLDEN_FRAC, angles[:10])
    assert traced_peak(lambda: _collision_free(GOLDEN_FRAC, angles)) <= 4 * 64 * k * 8 + 2 ** 16


def collision_free_all_pairs(gamma, angles, height=64, eps=1e-8):
    """No y^n (n <= height) lands within eps of any difference of two samples."""
    a = np.asarray(angles, dtype=np.float64)
    diffs = np.round((a[None, :] - a[:, None]).ravel() % 1.0, 12)
    for n in range(1, height + 1):
        d = np.abs(diffs - (n * gamma) % 1.0)
        if np.min(np.minimum(d, 1.0 - d)) < eps:
            return False
    return True


# angles of exact-coded functions sit on a few rational points; floats and
# rational gammas make collisions possible as well as absent
_angle = st.one_of(st.integers(0, 11).map(lambda k: k / 12),
                   st.floats(0.0, 1.0, exclude_max=True))
_gamma = st.one_of(st.floats(0.0, 1.0, exclude_max=True),
                   st.tuples(st.integers(0, 23), st.integers(1, 24)).map(lambda t: t[0] / t[1]),
                   st.integers(0, 62).map(lambda k: GOLDEN_FRAC / (2.0 + k)))


@settings(max_examples=200, deadline=None)
@given(base=st.lists(_angle, min_size=1, max_size=12),
       repeats=st.lists(st.integers(1, 40), min_size=12, max_size=12),
       gamma=_gamma, seed=st.integers(0, 2 ** 32 - 1))
def test_collision_free_matches_all_pairs(base, repeats, gamma, seed):
    angles = np.repeat(base, repeats[: len(base)])
    np.random.default_rng(seed).shuffle(angles)
    assert (_collision_free(gamma, np.unique(angles))
            == collision_free_all_pairs(gamma, angles))


# 5e-13 is the reach of the 12-digit rounding: at 1e-8 +- 5e-13 the rounded
# difference decides on which side of the 1e-8 threshold the pair falls
_PLANTED = [0.0, 5e-9, -5e-9, 1e-8, -1e-8, 2e-8, -2e-8,
            1e-8 - 5e-13, 1e-8 + 5e-13, -1e-8 - 5e-13, -1e-8 + 5e-13]


@pytest.mark.parametrize("delta", _PLANTED)
@pytest.mark.parametrize("n", [1, 2, 33, 64])
@pytest.mark.parametrize("a", [0.35, 0.97])
def test_collision_free_on_planted_differences(a, n, delta):
    # the pair (a, a + n gamma + delta) among angles that are otherwise free;
    # from a = 0.97 the partner wraps around the circle
    gamma = GOLDEN_FRAC / 3.0
    angles = np.array([0.1, 0.8, a, (a + n * gamma + delta) % 1.0])
    assert collision_free_all_pairs(gamma, angles[:3])
    want = collision_free_all_pairs(gamma, angles)
    assert _collision_free(gamma, np.unique(angles)) == want
    if abs(delta) < 1e-8:
        assert not want
    if abs(delta) > 1.5e-8:
        assert want


# --------------------------------------------------------------------------
# (k, chi) search

def test_find_k_liouville(lam):
    res = find_k_and_character(lam, P=10 ** 5)
    assert res.k == 2
    assert res.chi.modulus == 1
    assert not res.fallback


def test_find_k_repaired_moebius(mu):
    g = zero_repair(mu, 1)
    res = find_k_and_character(g, P=10 ** 5)
    assert res.k == 2
    assert res.chi.modulus == 1


def test_find_k_lambda_third(l13):
    res = find_k_and_character(l13, P=10 ** 5)
    assert res.k == 3
    assert res.chi.modulus == 1


def test_find_k_rejects_vanishing_primes(chi4):
    # chi mod 4 vanishes at p = 2; the search needs a zero-free input
    with pytest.raises(InputError, match="repair"):
        find_k_and_character(chi4, P=10 ** 4)


def test_find_k_failure_names_bounds():
    chi5 = builtin("dirichlet_character", {"modulus": 5, "index": 1})
    g = zero_repair(chi5, 1)
    with pytest.raises(SearchError, match="k <= 2, modulus <= 3"):
        find_k_and_character(g, k_max=2, Q_max=3, P=10 ** 4)


def test_find_k_concentration_group_fallback():
    # lambda_{1/16}^k pretends to 1 only at k = 16 > k_max, but its values
    # lie in the 16th roots of unity, a finite group of size <= 8 * k_max
    g = builtin("lambda_xi", {"xi": "1/16"})
    res = find_k_and_character(g, k_max=8, Q_max=10, P=10 ** 4)
    assert res.fallback is True
    assert res.k == 16
    assert res.chi.modulus == 1


# --------------------------------------------------------------------------
# Structure pairs

def test_structure_pair_notes_the_fallback():
    g = builtin("lambda_xi", {"xi": "1/16"})
    pair = structure_pair(g, 1, 10 ** 4, k_max=8, Q_max=10, P=10 ** 4)
    assert pair.k == 16
    assert pair.chi.modulus == 1
    assert "(k, chi) from the concentration-group fallback" in pair.notes


def test_structure_pair_runs_one_concentration_analysis(monkeypatch):
    # the (k, chi) scan misses, and the fallback reads structure_pair's analysis
    calls = []

    def counting(g, P):
        calls.append(P)
        return concentration_analysis(g, P)

    monkeypatch.setattr(levelsets, "concentration_analysis", counting)
    pair = structure_pair(builtin("lambda_xi", {"xi": "1/16"}), 1, 10 ** 4,
                          k_max=8, Q_max=10, P=10 ** 4)
    assert pair.k == 16
    assert calls == [10 ** 4]


def test_structure_pair_calls_find_k_and_character_once(monkeypatch):
    # the scan runs through the public name, so a trace attributes its time
    calls = []

    def counting(g, k_max, Q_max, P, conc):
        calls.append(conc)
        return find_k_and_character(g, k_max, Q_max, P, conc)

    monkeypatch.setattr(levelsets, "find_k_and_character", counting)
    pair = structure_pair(builtin("lambda_xi", {"xi": "1/3"}), 1, 10 ** 4, Q_max=10,
                          P=10 ** 4)
    assert pair.k == 3
    assert len(calls) == 1 and calls[0] is pair.concentration


def test_structure_pair_moebius(mu, mu2):
    N = 10 ** 5
    pair = structure_pair(mu, 1, N, P=10 ** 5)
    assert pair.k == 2
    assert pair.chi.modulus == 1
    Q = level_set(mu2, 1, N)
    assert np.array_equal(pair.R.members, Q.members)
    # u is a scalar multiple of the moebius function up to density error
    t = sieve_range(mu, N)
    u = pair.dR * pair.E.indicator().astype(float) - pair.dE * pair.R.indicator().astype(float)
    approx = (pair.dR / 2) * t.values[: N + 1].real
    assert np.abs(u - approx)[1:].max() < 0.01
    assert abs(pair.u_mean) <= 2 / math.sqrt(N)
    assert pair.rap.verdict == "rap_pretends"
    assert pair.rap.chi == (1, 0)


def test_structure_pair_liouville(lam):
    N = 10 ** 5
    pair = structure_pair(lam, 1, N, P=10 ** 5)
    assert pair.k == 2
    assert pair.R.count == N
    assert abs(pair.dE - 0.5) < 5e-3


def test_structure_pair_lambda_third(l13):
    N = 10 ** 6
    pair = structure_pair(l13, RootOfUnity(1, 3), N, P=10 ** 5)
    assert pair.k == 3
    assert pair.R.count == N
    # level densities of lambda_{1/3} approach 1/3 only at the
    # (log N)^{-3/2} Selberg-Delange rate; 0.02 reflects that rate here
    assert abs(pair.dE - 1 / 3) < 0.02


def test_structure_pair_containment_and_zero_mean(mu):
    pair = structure_pair(mu, -1, 10 ** 5, P=10 ** 5)
    E_ind = pair.E.indicator()
    R_ind = pair.R.indicator()
    assert np.all(R_ind[E_ind])
    assert pair.dE <= pair.dR + 2e-3
    assert abs(pair.u_mean) <= 2 / math.sqrt(10 ** 5)


def test_structure_pair_needs_exact_codes():
    # lambda_xi(0.3) has no codes, and structure_pair passes no tolerance
    with pytest.raises(InputError, match="no exact representation"):
        structure_pair(builtin("lambda_xi", {"xi": 0.3}), 1, 1000)


def test_structure_pair_sieves_no_repaired_function_at_N(mu, mu2, monkeypatch):
    # R is read from f's own codes; the repaired g is sieved only by
    # zero_repair's own check at N_check = 10^4
    calls = []

    def recording(f, N):
        calls.append((f.kind, N))
        return sieve_range(f, N)

    monkeypatch.setattr(levelsets, "sieve_range", recording)
    N = 3 * 10 ** 4
    pair = structure_pair(mu, 1, N, P=10 ** 5)
    assert ("repaired", N) not in calls
    assert calls.count(("repaired", 10 ** 4)) == 1
    assert np.array_equal(pair.R.members, level_set(mu2, 1, N).members)


def test_structure_pair_zero_target_short_circuits(mu):
    pair = structure_pair(mu, ZERO, 10 ** 4)
    assert pair.k is None
    assert np.array_equal(pair.E.members, pair.R.members)
    assert pair.dE == pair.dR


def recorded_u_calls(monkeypatch, *args, **kwargs):
    """structure_pair(*args, **kwargs) and the (values, N) of each U^2 call."""
    calls = []

    def recording(values, N, s):
        calls.append((values, N))
        return gowers_fast(values, N, s)

    monkeypatch.setattr(levelsets, "gowers_fast", recording)
    return structure_pair(*args, **kwargs), calls


def test_structure_pair_takes_the_largest_transform_first(monkeypatch):
    lengths = []

    def recording(rows, m):
        lengths.append(m)
        return energies(rows, m)

    energies = seminorms._energies
    monkeypatch.setattr(seminorms, "_energies", recording)
    pair = structure_pair(builtin("moebius"), 1, 10 ** 5, P=10 ** 5)
    assert [n for n, _, _ in pair.u_norms] == [6250, 25000, 10 ** 5]
    assert len(lengths) == 3
    assert lengths[0] == max(lengths) == 1 << 18


@pytest.mark.parametrize("name, z, N", [
    ("moebius", 1, 10 ** 5),
    ("liouville", -1, 3 * 10 ** 4),
    ("moebius", 0, 10 ** 4),            # R = E
    ("mu_squared", 1, 1000),            # every grid point is N
])
def test_structure_pair_u_is_the_indicator_formula(monkeypatch, name, z, N):
    """u, built in place, has the bits of dR 1_E - dE 1_R, signed zeros
    included, and its norms, taken largest N first, are those of ascending
    gowers_fast calls on that formula."""
    pair, calls = recorded_u_calls(monkeypatch, builtin(name), z, N, P=10 ** 5)
    u = calls[0][0]
    want = (pair.dR * pair.E.indicator().astype(np.float64)
            - pair.dE * pair.R.indicator().astype(np.float64))
    assert u.dtype == want.dtype and np.array_equal(u.view(np.uint64), want.view(np.uint64))
    grid = sorted({min(N, max(1 << 10, N // 16)), min(N, max(1 << 10, N // 4)), N})
    assert [n for _, n in calls] == grid[::-1]
    assert pair.u_norms == [(n, 2, gowers_fast(want, n, 2)) for n in grid]
    assert pair.u_mean == float(want[1 : N + 1].mean())


def test_structure_pair_refuses_a_member_of_E_off_R(mu, monkeypatch):
    # R is read from f's codes at z^k; codes that drop a member of E from R
    # break the pipeline's containment
    members = ExactCodes.members

    def dropping(self, target, power=1):
        found = members(self, target, power)
        return found[1:] if power > 1 else found

    monkeypatch.setattr(ExactCodes, "members", dropping)
    with pytest.raises(SearchError, match="containment"):
        structure_pair(mu, 1, 10 ** 4, P=10 ** 4)


_STRUCTURE_RSS_SCRIPT = """
from pathlib import Path
from multfun import builtin, structure_pair

def status_kib(key):
    line = next(x for x in Path("/proc/self/status").read_text().splitlines()
                if x.startswith(key + ":"))
    return int(line.split()[1])

before = status_kib("VmRSS")
structure_pair(builtin("moebius"), 1, 10 ** 6)
print(status_kib("VmHWM") - before)
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs Linux /proc")
def test_structure_pair_peaks_at_one_transform():
    """In a fresh process, structure_pair(moebius, 1, 10^6) lifts the peak
    RSS at most 80 MiB over the RSS after import.  The 2^21-point U^2
    transform alone takes 48 MiB (its 16 MiB output, 3 B of RSS per output
    byte); taken last, after the two smaller transforms left their memory
    resident, the growth read 86.0 MiB, and taken first 73.5 MiB.  The peak
    is the address space's high-water mark, VmHWM, which ru_maxrss reports
    for a process started small; a child of a large process such as this
    test's inherits the parent's RSS in its ru_maxrss at exec."""
    env = dict(os.environ, PYTHONPATH=str(Path(levelsets.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", _STRUCTURE_RSS_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) <= 80 * 1024


# --------------------------------------------------------------------------
# Divisibility

def test_divisibility_squarefree_shift_4(mu2):
    E = level_set(mu2, 1, 10 ** 5)
    rep = divisibility_report(E, 4, 10)
    assert rep.verdict == "not_divisible"
    assert rep.witness_u == 4
    assert rep.certificate["type"] == "square_factor"
    assert rep.rows[3][1] == 0  # u = 4 count


def test_divisibility_squarefree_shift_1(mu2):
    E = level_set(mu2, 1, 10 ** 6)
    rep = divisibility_report(E, 1, 10)
    assert rep.verdict == "divisible_evidence"
    assert all(c > 0 for _, c, _ in rep.rows)


@pytest.mark.parametrize("u_max", [0, -4])
def test_divisibility_needs_a_step(mu2, u_max):
    # no rows would make "every row dense" vacuously true
    E = level_set(mu2, 1, 100)
    with pytest.raises(InputError, match="u_max"):
        divisibility_report(E, 0, u_max)


def test_divisibility_liouville_footnote_densities(lam):
    N = 10 ** 7
    E = level_set(lam, 1, N)
    rep = divisibility_report(E, 0, 5)
    for u, count, dens in rep.rows:
        assert abs(dens - 1 / (2 * u)) < 5e-3, u


def test_divisibility_character_progression_obstruction(chi4):
    E = level_set(chi4, 1, 10 ** 5)   # members ≡ 1 (mod 4)
    rep = divisibility_report(E, 2, 8)
    assert rep.verdict == "not_divisible"
    assert rep.certificate["type"] == "progression_mismatch"
    assert rep.witness_u in (2, 4)


def test_divisibility_squarefree_itself_obstructed_at_squares(mu2):
    # Q itself is not divisible: 4 | n forces a square factor
    E = level_set(mu2, 1, 10 ** 4)
    rep = divisibility_report(E, 0, 4)
    assert rep.verdict == "not_divisible"
    assert rep.witness_u == 4
    assert rep.rows[3][1] == 0


def test_divisibility_bare_empty_count_stays_inconclusive(lam):
    # lambda(23) = -1, so u = 23 has no hits in E(lambda, 1) within [30],
    # but there is no structural obstruction: verdict must not be not_divisible
    E = level_set(lam, 1, 30)
    rep = divisibility_report(E, 0, 23, floor=1e-6)
    assert rep.rows[22][1] == 0
    assert rep.verdict == "inconclusive"
    assert rep.witness_u is None


@pytest.mark.parametrize("name, z, N", [("mu_squared", 1, 30), ("liouville", -1, 30),
                                       ("liouville", 1, 100), ("moebius", 0, 100),
                                       ("dirichlet_character", 1, 97)])
def test_divisibility_rows_match_a_python_count(name, z, N):
    """rows against a count in Python integers, at r = 0, at r a member, at
    the largest r below N/2, with N itself a member."""
    params = {"modulus": 4, "index": 1} if name == "dirichlet_character" else {}
    E = level_set(builtin(name, params), z, N)
    members = E.members.tolist()
    assert members[-1] == N
    for r in {0, max(m for m in members if m < N / 2), (N - 1) // 2}:
        want = []
        for u in range(1, N // 2 + 3):
            count = sum(1 for m in members if m > r and (m - r) % u == 0)
            want.append((u, count, count / (N - r)))
        assert divisibility_report(E, r, N // 2 + 2).rows == want, r


def modulo_rows(E, r, u_max, N=None):
    """(u, count, density) of (E - r) ∩ uN by one % pass per u."""
    n = N if N is not None else E.N
    shifted = E.members[(E.members > r) & (E.members <= n)] - r
    rows = []
    for u in range(1, u_max + 1):
        count = int((shifted % u == 0).sum())
        rows.append((u, count, count / (n - r)))
    return rows


def modulo_cells(E, q_max):
    """Members ≡ r (mod q) for q <= q_max by one bincount of members % q per q."""
    cells = {}
    for q in range(1, q_max + 1):
        counts = np.bincount(E.members % q, minlength=q)
        for r in range(q):
            cells[(q, r)] = int(counts[r])
    return cells


@settings(max_examples=300, deadline=None)
@given(data=st.data(), EN=st.integers(1, 300), u_max=st.integers(1, 12),
       q_max=st.integers(1, 12))
def test_indicator_counts_match_modulo_counts(data, EN, u_max, q_max):
    members = data.draw(st.sets(st.integers(1, EN), min_size=1))
    E = LevelSet("random", ONE, EN, np.array(sorted(members), dtype=np.int64), True)
    N = data.draw(st.none() | st.integers(1, EN))
    n = EN if N is None else N
    r = data.draw(st.integers(0, (n - 1) // 2))
    # the report reads the truncation E.N: cut E at n for the drawn N
    E_n = LevelSet("random", ONE, n, E.members[E.members <= n], True)
    rep = divisibility_report(E_n, r, u_max)
    assert rep.rows == modulo_rows(E, r, u_max, N)
    prof = density_profile(E, q_max)
    cells = modulo_cells(E, q_max)
    assert prof.cells == cells
    assert prof.empty_cells == [key for key, c in cells.items() if c == 0]


# --------------------------------------------------------------------------
# S_P sets and random subsets

def test_sp_set_all_primes_is_squarefree(mu2):
    N = 10 ** 4
    sp = sp_set(lambda p: True, N)
    Q = level_set(mu2, 1, N)
    assert np.array_equal(sp, Q.members)


def test_sp_set_odd_primes_density():
    N = 10 ** 7
    sp = sp_set(lambda p: p != 2, N)
    assert abs(len(sp) / N - 4 / math.pi ** 2) < 3e-3
    assert np.all(sp[1:] % 2 == 1)


def test_sp_set_empty_prime_set():
    assert sp_set([], 100).tolist() == [1]


def test_sp_set_explicit_list():
    sp = sp_set([2, 3], 40)
    assert sp.tolist() == [1, 2, 3, 6]


def test_random_subset_extremes(mu2):
    R = level_set(mu2, 1, 10 ** 4)
    assert random_relative_subset(R, 0.0, 1).count == 0
    full = random_relative_subset(R, 1.0, 1)
    assert np.array_equal(full.members, R.members)


def test_random_subset_concentration_and_uniformity(mu2):
    N = 10 ** 6
    R = level_set(mu2, 1, N)
    dR = R.density
    E = random_relative_subset(R, 0.5, 42)
    bound = 3 * 0.5 * N ** -0.5 * dR ** 0.5
    assert abs(E.density - dR / 2) < bound
    u = np.zeros(N + 1)
    u[R.members] = -E.density
    u[E.members] += dR
    assert gowers_fast(u, N, 2) < 0.05


def test_random_subset_deterministic(mu2):
    R = level_set(mu2, 1, 10 ** 4)
    a = random_relative_subset(R, 0.3, 7)
    b = random_relative_subset(R, 0.3, 7)
    assert np.array_equal(a.members, b.members)


# --------------------------------------------------------------------------
# Exports

def test_level_set_exports(tmp_path, lam):
    E = level_set(lam, 1, 20)
    txt = tmp_path / "members.txt"
    bmp = tmp_path / "members.bin"
    E.to_text(txt)
    E.to_bitmap(bmp)
    assert [int(x) for x in txt.read_text().split()] == E.members.tolist()
    raw = bmp.read_bytes()
    assert len(raw) == (20 + 7) // 8
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
    assert np.flatnonzero(bits[:20]).tolist() == [int(n) - 1 for n in E.members]


@pytest.mark.parametrize("count", [0, 1, _TEXT_BLOCK - 1, _TEXT_BLOCK, _TEXT_BLOCK + 1])
def test_members_text_is_one_string_of_lines(tmp_path, count):
    """The blockwise file has the bytes of the whole-set string, the lone
    newline of an empty set included."""
    members = np.arange(1, count + 1, dtype=np.int64) * 7919
    E = LevelSet("t", ONE, 10 ** 9, members, exact=True)
    path = tmp_path / "members.txt"
    E.to_text(path)
    assert path.read_bytes() == ("\n".join(map(str, members.tolist())) + "\n").encode()


_WIDTH_EDGES = [10 ** k + d for k in range(1, 8) for d in (-1, 0)]   # 9, 10, ..., 10^7


@pytest.mark.parametrize("members", [
    [],
    [1],
    _WIDTH_EDGES,
    [0] + _WIDTH_EDGES + [2 ** 63 - 1],
    # more than two blocks, runs of every width from 1 to 7 digits
    sorted({int(x) for x in np.geomspace(1, 10 ** 7 - 1, 2 * _TEXT_BLOCK + 100)}
           | set(range(1, 3000))),
], ids=["empty", "one", "width-edges", "int64-ends", "three-blocks"])
def test_members_text_digits_match_str(tmp_path, members):
    """The digit-arithmetic writer gives the bytes of str() on each member,
    where the decimal width steps and across block boundaries."""
    E = LevelSet("t", ONE, 10 ** 7, np.array(members, dtype=np.int64), exact=True)
    path = tmp_path / "members.txt"
    E.to_text(path)
    assert path.read_bytes() == ("\n".join(map(str, members)) + "\n").encode()


def test_members_text_memory_is_one_block(tmp_path):
    """Writing 8 blocks of members of up to 10 digits holds the strings of one
    block (about 115 B per member) at a time, not of the whole set (about
    850 B per block member here)."""
    members = np.arange(1, 8 * _TEXT_BLOCK + 1, dtype=np.int64) * 7919
    E = LevelSet("t", ONE, 10 ** 10, members, exact=True)
    assert traced_peak(lambda: E.to_text(tmp_path / "members.txt")) <= 160 * _TEXT_BLOCK
