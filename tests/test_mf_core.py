import math

import numpy as np
import pytest

from multfun import InputError, builtin, eval_at, sieve_range
from multfun import arith
from multfun.arith import (
    ONE,
    ZERO,
    RootOfUnity,
    Zero,
    e,
    get_context,
    primes_upto,
    root_table,
    totient,
)
from multfun.mf_core import (
    _BOUND_BLOCK,
    _KINDS,
    ExactCodes,
    _check_bound,
    code_dtype,
    make_repaired,
    parse_custom_file,
    prime_power_value,
    zero_free,
)

from conftest import (
    REGISTRY_CASES,
    catalog_functions,
    oracle_eval,
    squarefree_count_oracle,
    traced_peak,
    trial_factor,
)


def test_eval_liouville_at_12(lam):
    # 12 = 2^2 * 3, Omega = 3
    assert trial_factor(12) == [(2, 2), (3, 1)]
    assert eval_at(lam, 12) == -1


def test_eval_f_of_one_is_exactly_one(mu):
    assert eval_at(mu, 1) == 1


def test_eval_lambda_third_at_6(l13):
    assert abs(eval_at(l13, 6) - e(2 / 3)) < 1e-12


def test_eval_moebius_nonsquarefree(mu):
    assert eval_at(mu, 4) == 0


def test_eval_rejects_bad_input(mu):
    with pytest.raises(InputError):
        eval_at(mu, 0)
    with pytest.raises(InputError):
        eval_at(mu, 1 << 70)


def test_sieve_liouville_first_ten(lam):
    t = sieve_range(lam, 10)
    assert [v.real for v in t.values[1:11]] == [1, -1, -1, 1, -1, 1, -1, -1, 1, 1]


def test_sieve_mu_squared_count_to_100(mu2):
    t = sieve_range(mu2, 100)
    assert int(t.values[1:].real.sum()) == squarefree_count_oracle(100) == 61


@pytest.mark.parametrize("f", catalog_functions(), ids=lambda f: f.label)
def test_sieve_matches_pointwise_eval(f):
    N = 10 ** 4
    t = sieve_range(f, N)
    rng = np.random.default_rng(1)
    for n in rng.integers(1, N + 1, size=100):
        assert abs(t.values[n] - eval_at(f, int(n))) < 1e-12, (f.label, n)


def test_sieve_table_invariants(mu):
    t = sieve_range(mu, 1000)
    assert t.values[1] == 1


@pytest.mark.parametrize("name", list(REGISTRY_CASES))
def test_values_keep_the_context_cache(name, custom_path, monkeypatch):
    """A table builds its values on first read without its context: reading
    them after the context was evicted builds no SieveContext and leaves the
    cache as it was."""
    f = REGISTRY_CASES[name](custom_path)
    N = 10 ** 4
    t = sieve_range(f, N)
    get_context(2000)
    get_context(3000)
    cached = dict(arith._CONTEXTS)
    assert N not in cached
    built = []
    init = arith.SieveContext.__init__
    monkeypatch.setattr(arith.SieveContext, "__init__",
                        lambda self, n: built.append(n) or init(self, n))
    values = t.values
    assert built == [] and list(arith._CONTEXTS.items()) == list(cached.items())
    assert t.values is values and not values.flags.writeable
    monkeypatch.undo()
    np.testing.assert_array_equal(values, sieve_range(f, N).values)




def member_mask_oracle(exact, target, power):
    """The int64 residue formula for {n : f(n)^power == target}."""
    codes = exact.codes
    if isinstance(target, Zero):
        m = codes == -1
    else:
        j = exact.code_of(target)
        m = np.zeros(len(codes), dtype=bool)
        if j is not None:
            m = (codes >= 0) & ((codes.astype(np.int64) * power - j) % exact.order == 0)
    m[0] = False
    return m


# the registry cases whose tables carry finite-alphabet codes
CODED_CASES = ["liouville", "moebius", "lambda_xi(1/3)", "mu_xi(1/4)", "kappa_xi(2/5)",
               "mu_squared", "chi mod 5", "chi mod 1", "chi_of_tau(5)"]


@pytest.mark.parametrize("name", CODED_CASES)
def test_member_mask_matches_residue_formula(name, custom_path):
    exact = sieve_range(REGISTRY_CASES[name](custom_path), 10 ** 4).exact
    assert isinstance(exact, ExactCodes)
    targets = [ONE, RootOfUnity(1, 2), ZERO, RootOfUnity(1, 3), RootOfUnity(1, 4)]
    for target in targets:
        for power in (1, 2, 3):
            got = exact.members(target, power)
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got,
                                          np.flatnonzero(member_mask_oracle(exact, target, power)),
                                          err_msg=f"{target} power {power}")


def test_code_width_rule():
    orders = [1, 2, 127, 128, 32767, 32768, 2 ** 31 - 1, 2 ** 31]
    assert [code_dtype(order) for order in orders] == [
        np.int8, np.int8, np.int8, np.int16, np.int16, np.int32, np.int32, np.int64]


@pytest.mark.parametrize("xi", ["126/127", "127/128", "32766/32767"])
def test_member_mask_of_a_power_on_narrow_codes(xi):
    """Powers up to and past the order, on int8 and int16 codes near the top
    of their alphabet (code b - Omega(n) off the zeros of mu_xi), against the
    int64 residue formula."""
    exact = sieve_range(builtin("mu_xi", {"xi": xi}), 10 ** 4).exact
    assert exact.codes.dtype == code_dtype(exact.order)
    on = exact.codes[exact.codes >= 0].astype(np.int64)
    for power in (2, 64, 129, exact.order + 1):
        hit = np.unique(on * power % exact.order).tolist()
        for target in [ZERO] + [RootOfUnity(j, exact.order) for j in hit + [0, 1]]:
            np.testing.assert_array_equal(
                exact.members(target, power),
                np.flatnonzero(member_mask_oracle(exact, target, power)),
                err_msg=f"{target} power {power}")


@pytest.mark.parametrize("f", catalog_functions(), ids=lambda f: f.label)
def test_multiplicativity_on_random_coprime_pairs(f):
    rng = np.random.default_rng(7)
    done = 0
    while done < 1000:
        m = int(rng.integers(2, 10 ** 3))
        n = int(rng.integers(2, 10 ** 3))
        if math.gcd(m, n) != 1:
            continue
        lhs = eval_at(f, m * n)
        rhs = eval_at(f, m) * eval_at(f, n)
        assert abs(lhs - rhs) < 1e-12, (f.label, m, n)
        done += 1


def test_complete_multiplicativity_noncoprime(lam, l13):
    rng = np.random.default_rng(3)
    for f in (lam, l13):
        assert f.spec.completely_multiplicative
        for _ in range(200):
            m = int(rng.integers(2, 500))
            n = int(rng.integers(2, 500))
            assert abs(eval_at(f, m * n) - eval_at(f, m) * eval_at(f, n)) < 1e-12


def test_liouville_unimodular_moebius_three_valued(lam, mu):
    N = 10 ** 5
    tl = sieve_range(lam, N)
    tm = sieve_range(mu, N)
    assert np.all(np.abs(tl.values[1:]) == 1.0)
    assert set(np.unique(tm.values[1:].real)) == {-1.0, 0.0, 1.0}
    assert np.all(tm.values[1:].imag == 0.0)


def test_lambda_half_is_liouville(lam):
    lh = builtin("lambda_xi", {"xi": "1/2"})
    N = 10 ** 4
    assert np.array_equal(sieve_range(lh, N).values, sieve_range(lam, N).values)


def test_mu_squared_at_12(mu2):
    assert eval_at(mu2, 12) == 0


def test_phi_over_n_at_6(phi):
    assert abs(eval_at(phi, 6) - (1 / 3)) < 1e-15


def test_phi_over_n_matches_totient(phi):
    t = sieve_range(phi, 500)
    for n in range(1, 500):
        assert abs(t.values[n].real - totient(n) / n) < 1e-12


def test_chi_of_tau_counts_divisors_mod_b():
    ct = builtin("chi_of_tau", {"modulus": 5})
    chi = ct.meta["char"]
    t = sieve_range(ct, 2000)
    for n in (1, 6, 12, 16, 36, 720):
        tau_n = sum(1 for d in range(1, n + 1) if n % d == 0)
        assert abs(t.values[n] - chi(tau_n)) < 1e-12


def test_chi_of_tau_rejects_noncyclic_modulus():
    for b in (8, 12, 15, 16):
        with pytest.raises(InputError, match="cyclic"):
            builtin("chi_of_tau", {"modulus": b})
    for b in (2, 4, 7, 14):
        builtin("chi_of_tau", {"modulus": b})


def test_unknown_builtin_rejected():
    with pytest.raises(InputError, match="unknown builtin"):
        builtin("totient")


def test_modulus_bound_enforced():
    from multfun.mf_core import MultiplicativeFunction, PrimePowerSpec

    f = MultiplicativeFunction("too_big", PrimePowerSpec(lambda p, k: 2.0))
    with pytest.raises(InputError, match="modulus bound"):
        eval_at(f, 2)
    with pytest.raises(InputError, match="modulus bound"):
        sieve_range(f, 100)


def test_nan_value_breaks_the_modulus_bound():
    from multfun.mf_core import MultiplicativeFunction, PrimePowerSpec

    f = MultiplicativeFunction("nan_valued", PrimePowerSpec(lambda p, k: complex("nan")))
    with pytest.raises(InputError, match="modulus bound"):
        eval_at(f, 2)
    with pytest.raises(InputError, match="modulus bound"):
        sieve_range(f, 100)


def test_modulus_bound_checked_when_values_are_built(mu):
    with pytest.raises(InputError, match="modulus bound"):
        sieve_range(make_repaired(mu, 2.0, 0.0), 100)


def test_modulus_bound_checked_on_the_alphabet(lam, monkeypatch):
    from multfun import mf_core

    monkeypatch.setattr(mf_core, "root_table", lambda b: np.append(root_table(b)[:-1], 2.0))
    with pytest.raises(InputError, match="modulus bound"):
        sieve_range(lam, 100)


def test_bound_check_holds_one_block_of_moduli(phi):
    # the maximum of |f| over a 10^6-entry table is taken one block at a
    # time: the 8 B per entry float temporary of the whole table is not made
    values = sieve_range(phi, 10 ** 6).values
    assert traced_peak(lambda: _check_bound(phi, values)) <= 8 * _BOUND_BLOCK + 4096
    assert 8 * _BOUND_BLOCK < 8 * len(values) // 10


def test_bound_check_reports_the_whole_table_maximum():
    # the largest modulus sits in the last, partial block; the message
    # carries the maximum of |values| over the whole table
    from multfun.mf_core import MultiplicativeFunction, PrimePowerSpec

    f = MultiplicativeFunction("too_big", PrimePowerSpec(lambda p, k: 0.5))
    values = np.full(3 * _BOUND_BLOCK + 5, 0.5 + 0.5j)
    values[_BOUND_BLOCK] = 1.5
    values[-1] = 3.0 - 4.0j
    with pytest.raises(InputError, match=r"modulus bound \(max 5\.0\)"):
        _check_bound(f, values)


def test_unbounded_flag_allows_large_values():
    from multfun.mf_core import MultiplicativeFunction, PrimePowerSpec

    tau_like = MultiplicativeFunction(
        "divisor_count", PrimePowerSpec(lambda p, k: k + 1.0, unbounded=True)
    )
    assert eval_at(tau_like, 12) == 6
    t = sieve_range(tau_like, 100)
    assert t.values[36] == 9


def test_custom_file_roundtrip(tmp_path):
    path = tmp_path / "f.txt"
    path.write_text(
        "# a test function\n"
        "2 1 -1 0\n"
        "2 2 0.5 0\n"
        "3 1 0 1\n"
    )
    f = builtin("custom_file", {"path": str(path)})
    t = sieve_range(f, 200)
    assert t.values[2] == -1
    assert t.values[4] == 0.5
    assert t.values[3] == 1j
    assert t.values[6] == -1j         # f(2) f(3)
    assert t.values[5] == 1.0         # unlisted -> default one
    for n in range(1, 200):
        assert abs(t.values[n] - oracle_eval(f.spec.rule, n)) < 1e-12


def test_repaired_base_without_codes_matches_the_oracle():
    # mu_xi(0.3) has an irrational phase and no codes, so neither has its repair
    g = make_repaired(builtin("mu_xi", {"xi": 0.3}), complex(np.exp(0.5j)), 0.5 / (2 * np.pi))
    t = sieve_range(g, 500)
    assert t.exact is None
    assert np.all(t.values[1:] != 0)
    for n in range(1, 501):
        assert abs(t.values[n] - oracle_eval(g.spec.rule, n)) < 1e-12


def test_custom_file_default_zero(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("default: zero\n2 1 1 0\n3 1 1 0\n")
    f = builtin("custom_file", {"path": str(path)})
    t = sieve_range(f, 50)
    # only 3-smooth squarefree-ish products of the listed powers survive
    assert t.values[6] == 1
    assert t.values[5] == 0
    assert t.values[4] == 0           # 2^2 unlisted
    for n in range(1, 50):
        assert abs(t.values[n] - oracle_eval(f.spec.rule, n)) < 1e-12


def test_custom_file_zero_then_nonzero_power(tmp_path):
    # pathological rule: f(p^1) = 0 but f(p^2) != 0 exercises the masked path
    path = tmp_path / "h.txt"
    path.write_text("2 1 0 0\n2 2 1 0\n")
    f = builtin("custom_file", {"path": str(path)})
    t = sieve_range(f, 64)
    assert t.values[2] == 0
    assert t.values[4] == 1
    assert t.values[12] == 1          # 4 * 3
    assert t.values[6] == 0
    for n in range(1, 64):
        assert abs(t.values[n] - oracle_eval(f.spec.rule, n)) < 1e-12


def test_custom_file_parse_errors(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("4 1 1 0\n")
    with pytest.raises(InputError, match="not prime"):
        parse_custom_file(bad)
    dup = tmp_path / "dup.txt"
    dup.write_text("2 1 1 0\n2 1 0 0\n")
    with pytest.raises(InputError, match="duplicate"):
        parse_custom_file(dup)
    nan = tmp_path / "nan.txt"
    nan.write_text("2 1 1 0\n3 1 nan 0\n")
    with pytest.raises(InputError, match=r"nan\.txt:2: .* not finite"):
        parse_custom_file(nan)


def test_power_wrapper(l13):
    cube = l13 ** 3
    for n in (2, 6, 30, 64):
        assert abs(eval_at(cube, n) - eval_at(l13, n) ** 3) < 1e-12


@pytest.mark.parametrize("N", [960, 961, 962, 10 ** 4])
def test_sieved_squares_match_pointwise_evaluation(N, custom_path):
    """sieve_range(f ** 2, N) against eval_at at every n <= N, for bases of
    the generic, phase, character and repaired kinds; every n above sqrt(N)
    whose largest prime q exceeds sqrt(N) takes f(q) from the large-prime
    pass, and at n = q the entry equals the rule's f(q)."""
    root = math.isqrt(N)
    large = [q for q in primes_upto(N).tolist() if q > root]
    for base in (builtin("lambda_xi", {"xi": 0.1234567}), builtin("mu_xi", {"xi": "1/4"}),
                 builtin("dirichlet_character", {"modulus": 5, "index": 1}),
                 make_repaired(builtin("moebius"), complex(np.exp(0.5j)), 0.5),
                 builtin("custom_file", {"path": str(custom_path)})):
        f = base ** 2
        values = sieve_range(f, N).values
        want = np.array([eval_at(f, n) for n in range(1, N + 1)])
        assert np.max(np.abs(values[1:] - want)) < 1e-12, f.label
        assert all(values[q] == prime_power_value(f, q, 1) for q in large), f.label


def test_power_prime_values_keep_signed_zeros(tmp_path):
    """f(3) = 0 + 1j and f(5) = -0.0 + 1j are equal as complex numbers, but
    the rule squares them to -1 + 0j and -1 - 0j; the power kind's array form
    keeps each one's sign."""
    path = tmp_path / "signs.txt"
    path.write_text("3 1 0 1\n5 1 -0.0 1\n")
    f = builtin("custom_file", {"path": str(path)}) ** 2
    ps = primes_upto(100)
    rule = np.array([prime_power_value(f, p, 1) for p in ps.tolist()], dtype=np.complex128)
    assert np.signbit(rule.imag[1:3]).tolist() == [False, True]
    assert f.prime_values(ps).tobytes() == rule.tobytes()


def test_sieve_budget_cap(monkeypatch, mu):
    from multfun import ResourceError

    monkeypatch.setenv("MULTFUN_MEM_CAP_MB", "1")
    with pytest.raises(ResourceError):
        sieve_range(mu, 10 ** 7)


def test_prime_power_value_uses_rule_only_at_k1_for_cm(lam):
    # stored rule is consulted only at k = 1 for completely multiplicative f
    assert prime_power_value(lam, 3, 4) == (-1) ** 4


@pytest.mark.parametrize("name", list(REGISTRY_CASES))
def test_sieve_memory_within_the_charge(name, custom_path):
    """The traced peak of a sieve with a warm context and warm module caches,
    its values read, stays within the 30 B per entry that sieve_range charges
    to the cap; a table of root-of-unity codes, or of phi(n)/n, builds no
    values until they are read, and stays within 6 B per entry."""
    f = REGISTRY_CASES[name](custom_path)
    N = 10 ** 5
    table = sieve_range(f, N)
    table.values
    assert traced_peak(lambda: sieve_range(f, N).values) <= 30 * (N + 1)
    if table.exact is not None:
        assert traced_peak(lambda: sieve_range(f, N)) <= 6 * (N + 1)


@pytest.mark.parametrize("name", CODED_CASES)
def test_coded_sieve_memory_within_its_codes(name, custom_path):
    """With a warm context, a coded sieve allocates its codes, at the width
    of their alphabet, and at most one byte per entry besides (the
    squarefree mask's complement of mu_xi), plus 128 KiB for the small
    tables and numpy's index buffers: no wider array of N + 1 codes."""
    f = REGISTRY_CASES[name](custom_path)
    N = 10 ** 5
    exact = sieve_range(f, N).exact
    bound = (code_dtype(exact.order).itemsize + 1) * (N + 1) + 2 ** 17
    assert traced_peak(lambda: sieve_range(f, N)) <= bound


def test_exact_codes_partition(l13):
    t = sieve_range(l13, 10 ** 4)
    codes = t.exact.codes[1:]
    counts = np.bincount(codes, minlength=3)
    assert counts.sum() == 10 ** 4
    assert t.exact.order == 3


def test_registry_cases_cover_every_kind(custom_path):
    assert {case(custom_path).kind for case in REGISTRY_CASES.values()} == set(_KINDS)


@pytest.mark.parametrize("name", list(REGISTRY_CASES))
def test_kind_registry_conformance(name, custom_path):
    """Each kind's values at prime powers, zero-freeness, squarefree support
    and period agree with the scalar rule, pointwise evaluation and its
    sieve."""
    f = REGISTRY_CASES[name](custom_path)
    kind = _KINDS[f.kind]
    N = 10 ** 4
    primes = primes_upto(N)
    want = np.array([eval_at(f, p) for p in primes.tolist()])
    assert np.max(np.abs(f.prime_values(primes) - want)) < 1e-12

    # f(p^m) over the primes with p^m <= N, for every m with 2^m <= N
    m = 1
    while 2 ** m <= N:
        ps = np.array([p for p in primes.tolist() if p ** m <= N])
        rule = np.array([prime_power_value(f, p, m) for p in ps.tolist()], dtype=np.complex128)
        got = f.prime_values(ps, m)
        assert got.tobytes() == rule.tobytes(), m       # signbits included
        m += 1

    values = sieve_range(f, N).values
    if zero_free(f):
        assert np.all(values[1:] != 0)
    if kind.squarefree_only(f):
        square_multiple = np.zeros(N + 1, dtype=bool)
        for p in primes[primes * primes <= N].tolist():
            square_multiple[p * p :: p * p] = True
        assert np.all(values[square_multiple] == 0)
    period = kind.period_codes(f)
    if period is not None:
        c = period.codes[np.arange(1, N + 1) % len(period.codes)]
        vals = np.where(c >= 0, root_table(period.order)[np.maximum(c, 0)], 0)
        assert np.max(np.abs(values[1:] - vals)) < 1e-12
