import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from multfun import (
    FiniteSystem,
    InputError,
    PolynomialFamily,
    TorusRotation,
    builtin,
    convergence_average,
    divisibility_report,
    intersection_measure,
    level_set,
    recurrence_average,
)
from multfun.levelsets import _residue_obstruction


def test_intersection_cyclic_multiples_of_period():
    sys4 = FiniteSystem(4)
    assert intersection_measure(sys4, [0], (4, 8)) == Fraction(1, 4)


def test_intersection_cyclic_misaligned_shift():
    sys4 = FiniteSystem(4)
    assert intersection_measure(sys4, [0], (2,)) == 0


def test_intersection_torus_identity_shift():
    tor = TorusRotation(0.41421356, ((0.0, 0.1),))
    assert intersection_measure(tor, None, (0,)) == pytest.approx(0.1, abs=1e-12)


def test_intersection_torus_quarter_shift():
    tor = TorusRotation(0.25, ((0.0, 0.5),))
    assert intersection_measure(tor, None, (1,)) == pytest.approx(0.25, abs=1e-12)


def test_monotone_bound():
    rng = np.random.default_rng(5)
    sys10 = FiniteSystem(10)
    for _ in range(50):
        A = rng.choice(10, size=int(rng.integers(1, 9)), replace=False).tolist()
        shifts = tuple(int(x) for x in rng.integers(0, 25, size=3))
        inter = intersection_measure(sys10, A, shifts)
        singles = [intersection_measure(sys10, A, (a,)) for a in shifts]
        assert all(inter <= s for s in singles)


def test_shift_zero_identity():
    sys7 = FiniteSystem(7)
    A = [0, 2, 5]
    assert intersection_measure(sys7, A, (0, 0, 0)) == Fraction(3, 7)


def test_product_system():
    prod = FiniteSystem((2, 3))
    A = [(0, 0)]
    assert prod.total == 6
    assert intersection_measure(prod, A, (6,)) == Fraction(1, 6)
    assert intersection_measure(prod, A, (2,)) == 0


def test_polynomials_require_zero_constant_term():
    with pytest.raises(InputError):
        PolynomialFamily(((1, 1),))
    pf = PolynomialFamily(((0, 1), (0, 0, 1)))
    assert pf.evaluate(3) == (3, 9)
    assert pf.describe() == ["n", "n^2"]


def test_recurrence_along_shifted_squarefree_is_exactly_zero(mu2):
    Q = level_set(mu2, 1, 2 * 10 ** 5)
    E = Q.members[Q.members > 4] - 4
    rep = recurrence_average(FiniteSystem(4), [0], PolynomialFamily(((0, 1),)), E, 10 ** 5)
    assert rep.exact_zero
    assert rep.positivity == "zero_exact"
    assert all(v == 0.0 for _, v in rep.running)


def test_recurrence_along_squarefree_minus_one(mu2):
    Q = level_set(mu2, 1, 2 * 10 ** 5)
    E = Q.members[Q.members > 1] - 1
    rep = recurrence_average(FiniteSystem(4), [0], PolynomialFamily(((0, 1),)), E, 10 ** 5)
    assert rep.positivity == "positive_evidence"
    assert abs(rep.limit_estimate - 1 / 12) < 5e-3
    assert not rep.truncated


def test_recurrence_two_polynomials_exact_quarter():
    E = np.arange(1, 10 ** 4 + 1)
    rep = recurrence_average(FiniteSystem(2), [0], PolynomialFamily(((0, 1), (0, 2))),
                             E, 10 ** 4)
    even = [(j, v) for j, v in rep.running if j % 2 == 0]
    assert even
    for j, v in even:
        assert v == 0.25, j


def test_recurrence_empty_sequence_rejected():
    with pytest.raises(InputError):
        recurrence_average(FiniteSystem(2), [0], PolynomialFamily(((0, 1),)),
                           np.array([], dtype=np.int64), 100)


def test_recurrence_flags_truncation():
    rep = recurrence_average(FiniteSystem(2), [0], PolynomialFamily(((0, 1),)),
                             np.arange(1, 50), 1000)
    assert rep.truncated


def test_harness_matches_closed_form_cesaro():
    sys4 = FiniteSystem(4)
    A = [0, 1]
    pf = PolynomialFamily(((0, 1),))
    table = [float(intersection_measure(sys4, A, (rho,))) for rho in range(4)]
    J = 10 ** 4
    rep = recurrence_average(sys4, A, pf, np.arange(1, J + 1), J)
    closed = sum(table[n % 4] for n in range(1, J + 1)) / J
    assert rep.limit_estimate == pytest.approx(closed, abs=1e-12)


def test_convergence_periodic_oscillation_decays():
    rep = convergence_average(FiniteSystem(3), [0], PolynomialFamily(((0, 1),)),
                              np.arange(1, 10 ** 5 + 1), 10 ** 5)
    assert rep.oscillation < 10 / (10 ** 4)


def test_convergence_squarefree_quadratic(mu2):
    Q = level_set(mu2, 1, 2 * 10 ** 5)
    rep = convergence_average(FiniteSystem(3), [0], PolynomialFamily(((0, 0, 1),)),
                              Q.members, 10 ** 5)
    assert rep.oscillation < 1e-2


def test_convergence_liouville_level_set(lam):
    E = level_set(lam, 1, 2 * 10 ** 5)
    rep = convergence_average(FiniteSystem(2), [0], PolynomialFamily(((0, 1),)),
                              E.members, 10 ** 5)
    assert abs(rep.limit_estimate - 0.25) < 1e-2


def test_convergence_custom_observable():
    sys3 = FiniteSystem(3)
    obs = {(0,): 1.0, (1,): 0.5, (2,): 0.0}
    rep = convergence_average(sys3, [0], PolynomialFamily(((0, 1),)),
                              np.arange(1, 3001), 3000, observable=obs)
    # integrand at rho: mean over x of obs(x) obs(x + rho)
    t0 = (1 * 1 + 0.5 * 0.5 + 0) / 3
    t1 = (1 * 0.5 + 0.5 * 0 + 0 * 1) / 3
    t2 = (1 * 0 + 0.5 * 1 + 0 * 0.5) / 3
    expected = (1000 * (t0 + t1 + t2)) / 3000
    assert rep.limit_estimate == pytest.approx(expected, abs=1e-12)


def test_convergence_torus_rejects_observable():
    tor = TorusRotation(0.3, ((0.0, 0.25),))
    with pytest.raises(InputError):
        convergence_average(tor, None, PolynomialFamily(((0, 1),)),
                            np.arange(1, 100), 100, observable={0: 1.0})


def test_convergence_torus_is_the_recurrence_average_with_oscillation():
    tor = TorusRotation(0.41421356, ((0.0, 0.2), (0.5, 0.55)))
    polys = PolynomialFamily(((0, 1), (0, 0, 1)))
    E = np.arange(1, 3001)
    rep = convergence_average(tor, None, polys, E, 3000)
    rec = recurrence_average(tor, None, polys, E, 3000)
    assert rep.running == rec.running
    tail = [v for j, v in rep.running if j >= 300]
    assert len(tail) > 1
    assert rep.oscillation == max(tail) - min(tail)


def test_torus_sweep_matches_grid_integration():
    tor = TorusRotation(0.1234567, ((0.0, 0.3), (0.5, 0.6)))
    shifts = (1, 2, 5)
    got = intersection_measure(tor, None, shifts)
    # dense-grid oracle
    xs = (np.arange(10 ** 6) + 0.5) / 10 ** 6
    inside = np.ones_like(xs, dtype=bool)
    for a in (0,) + shifts:
        y = (xs + a * tor.alpha) % 1.0
        inside &= ((y >= 0.0) & (y < 0.3)) | ((y >= 0.5) & (y < 0.6))
    assert got == pytest.approx(inside.mean(), abs=1e-3)


def test_torus_recurrence_runs():
    tor = TorusRotation(0.41421356, ((0.0, 0.2),))
    rep = recurrence_average(tor, None, PolynomialFamily(((0, 1),)),
                             np.arange(1, 2001), 2000)
    assert 0 <= rep.limit_estimate <= 0.2


def test_report_csv_header():
    rep = recurrence_average(FiniteSystem(2), [0], PolynomialFamily(((0, 1),)),
                             np.arange(1, 100), 100)
    assert rep.to_csv().splitlines()[0] == "J,average"


def test_cyclic_recurrence_matches_divisibility_counts():
    """Recurrence and divisibility share no code but measure the same thing.
    On Z/u with A = {0} and p(n) = n, mu(A ∩ T^{-n} A) is 1/u when u | n and
    0 otherwise, so the average along E - r is count_u / (u |E - r|)."""
    N, r = 10 ** 5, 4
    E = level_set(builtin("mu_squared"), 1, N)
    rep = divisibility_report(E, r, 10)
    shifted = E.members[E.members > r] - r
    n_linear = PolynomialFamily(((0, 1),))
    certified = {u for u in range(1, 11)
                 if (_residue_obstruction(E, r, u) or {}).get("type") == "square_factor"}
    assert certified == {4, 8}
    for u, count, _ in rep.rows:
        avg = recurrence_average(FiniteSystem((u,)), [0], n_linear, shifted, len(shifted))
        want = count / (u * len(shifted))
        assert abs(avg.limit_estimate - want) <= 1e-12 * want, u
        assert (avg.positivity == "zero_exact") == (u in certified), u


def brute_integrals(sizes, weight, polys, L):
    """Per-point oracle: at each residue rho mod L, the sum over every point x
    of the product system of weight(x) * prod_i weight(x + p_i(rho))."""
    points = list(itertools.product(*(range(m) for m in sizes)))
    table = []
    for rho in range(L):
        total = 0
        for x in points:
            v = weight(x)
            for coeffs in polys:
                a = sum(c * rho ** k for k, c in enumerate(coeffs))
                v = v * weight(tuple((c + a) % m for c, m in zip(x, sizes)))
            total += v
        table.append(total)
    return table, len(points)


PRODUCT_CASES = [
    ((2, 3), [(0, 0), (1, 2), (0, 0), (3, -1)], ((0, 1),)),
    ((4, 6), [(1, 1), (1, 1), (5, 7), (2, 0), (0, 3)], ((0, 1), (0, 0, 1))),
    ((2, 3, 5), [(0, 0, 0), (1, 1, 1), (1, 1, 1), (0, 2, 4), (1, 0, 3)], ((0, 2), (0, 1, 1))),
    ((3, 3), [(0, 0), (1, 1), (2, 2), (0, 0), 4], ((0, 1), (0, 2), (0, 0, 0, 1))),
]


@pytest.mark.parametrize("sizes, A, coeffs", PRODUCT_CASES)
def test_product_systems_match_per_point_oracle(sizes, A, coeffs):
    """intersection_measure, recurrence_average and convergence_average on
    product systems, with points of A repeated or given off their residues,
    against the per-point sums of brute_integrals."""
    system = FiniteSystem(sizes)
    polys = PolynomialFamily(coeffs)
    L = math.lcm(*sizes)
    members = {tuple(c % m for c, m in zip((x,) * len(sizes) if isinstance(x, int) else x, sizes))
               for x in A}
    counts, total = brute_integrals(sizes, lambda x: int(x in members), coeffs, L)
    for rho in range(L):
        shifts = polys.evaluate(rho)
        assert intersection_measure(system, A, shifts) == Fraction(counts[rho], total)
    E = np.array([3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9] * 20)
    means = np.cumsum([counts[n % L] / total for n in E]) / np.arange(1, len(E) + 1)
    rec = recurrence_average(system, A, polys, E, len(E))
    conv = convergence_average(system, A, polys, E, len(E))
    assert conv.running == rec.running
    for j, v in rec.running:
        assert v == pytest.approx(means[j - 1], abs=1e-15)
    assert rec.exact_zero == all(counts[n % L] == 0 for n in E)
    rng = np.random.default_rng(len(A))
    obs = {x: float(rng.random()) if rng.random() < 0.8 else 0.0
           for x in itertools.product(*(range(m) for m in sizes))}
    sums, _ = brute_integrals(sizes, obs.__getitem__, coeffs, L)
    means = np.cumsum([sums[n % L] / total for n in E]) / np.arange(1, len(E) + 1)
    for j, v in convergence_average(system, None, polys, E, len(E), observable=obs).running:
        assert v == pytest.approx(means[j - 1], abs=1e-15)


@pytest.mark.parametrize("point", [(1, 2, 99), (1,), ()])
def test_points_of_the_wrong_arity_are_refused(point):
    system = FiniteSystem((2, 3))
    with pytest.raises(InputError, match="arity"):
        intersection_measure(system, [(0, 0), point], ())
    with pytest.raises(InputError, match="arity"):
        recurrence_average(system, [point], PolynomialFamily(((0, 1),)), np.arange(1, 10), 9)
