import math

import numpy as np
import pytest

from multfun import (
    InputError,
    ResourceError,
    characters_mod,
    indicator_decomposition,
    induce,
    principal_character,
)
from multfun import characters
from multfun.arith import totient
from multfun.characters import character_table

from conftest import traced_peak


def phi_oracle(q):
    return sum(1 for a in range(1, q + 1) if math.gcd(a, q) == 1)


def test_character_count_matches_totient():
    for q in range(1, 201):
        assert len(characters_mod(q)) == phi_oracle(q), q


def test_trivial_modulus():
    chars = characters_mod(1)
    assert len(chars) == 1
    assert all(chars[0](n) == 1 for n in range(1, 20))


def test_mod_4_group():
    chars = characters_mod(4)
    assert len(chars) == 2
    assert chars[0].is_principal
    assert chars[1](3) == -1
    assert chars[1](1) == 1
    assert chars[1](2) == 0


def test_mod_5_values_at_2_are_fourth_roots():
    chars = characters_mod(5)
    got = {complex(c(2)) for c in chars}
    assert got == {1, -1, 1j, -1j}


def test_principal_first_and_order_deterministic():
    for q in (3, 8, 12, 24, 45):
        chars = characters_mod(q)
        assert chars[0].is_principal
        again = characters_mod(q)
        for a, b in zip(chars, again):
            assert np.array_equal(a.table, b.table)


def test_periodicity_two_periods():
    for q in (6, 9, 16):
        for chi in characters_mod(q):
            for n in range(1, 2 * q + 1):
                assert chi(n + q) == chi(n)


def test_zero_iff_common_factor():
    for q in (12, 15):
        for chi in characters_mod(q):
            for n in range(1, 2 * q):
                if math.gcd(n, q) > 1:
                    assert chi(n) == 0
                else:
                    assert abs(chi(n)) == pytest.approx(1.0, abs=1e-12)


def test_complete_multiplicativity():
    for q in (7, 12):
        for chi in characters_mod(q):
            for n in range(1, 2 * q + 1):
                for m in range(1, 2 * q + 1):
                    assert abs(chi(n * m) - chi(n) * chi(m)) < 1e-12


def test_values_are_phi_q_roots_of_unity():
    for q in (7, 9, 16, 40):
        phi_q = phi_oracle(q)
        for chi in characters_mod(q):
            for n in range(1, q + 1):
                v = chi(n)
                if v != 0:
                    assert abs(v ** phi_q - 1) < 1e-9


def test_orthogonality():
    for q in range(1, 51):
        chars = characters_mod(q)
        phi_q = len(chars)
        for i, chi in enumerate(chars):
            for j, psi in enumerate(chars):
                s = sum(chi(n) * np.conj(psi(n)) for n in range(1, q + 1))
                if i == j:
                    assert abs(s - phi_q) < 1e-9
                else:
                    assert abs(s) < 1e-9


def test_character_order_is_minimal():
    for q in (5, 7, 8, 15):
        for chi in characters_mod(q):
            for m in range(1, chi.order):
                assert any(abs(chi(n) ** m - 1) > 1e-9
                           for n in range(1, q + 1) if math.gcd(n, q) == 1)
            assert all(abs(chi(n) ** chi.order - 1) < 1e-9
                       for n in range(1, q + 1) if math.gcd(n, q) == 1)


def test_induce_principal():
    chi1 = principal_character(1)
    ind = induce(chi1, 6)
    for n in range(1, 13):
        assert ind(n) == (1 if math.gcd(n, 6) == 1 else 0)


def test_induce_mod4_to_8():
    chi = characters_mod(4)[1]
    ind = induce(chi, 8)
    assert ind.modulus == 8
    assert ind(3) == -1
    assert all(ind(n) == 0 for n in range(0, 16, 2))
    assert ind(5) == chi(5)


def test_induce_requires_divisibility():
    chi = characters_mod(4)[1]
    with pytest.raises(InputError):
        induce(chi, 6)


def test_indicator_decomposition_mod4():
    dec = indicator_decomposition(4, 1)
    assert len(dec) == 2
    assert all(abs(c - 0.5) < 1e-12 for _, c in dec)


def test_indicator_decomposition_mod3():
    dec = indicator_decomposition(3, 2)
    chars = characters_mod(3)
    coeffs = {chi.index: c for chi, c in dec}
    assert abs(coeffs[0] - 0.5) < 1e-12
    assert abs(coeffs[1] + 0.5) < 1e-12
    assert chars[1](2) == -1


def test_indicator_decomposition_trivial():
    dec = indicator_decomposition(1, 0)
    assert len(dec) == 1
    assert dec[0][1] == 1


def test_indicator_decomposition_rejects_common_factor():
    with pytest.raises(InputError, match="undefined"):
        indicator_decomposition(6, 3)


def test_reconstruction_on_random_pairs():
    rng = np.random.default_rng(11)
    done = 0
    while done < 20:
        q = int(rng.integers(1, 40))
        r = int(rng.integers(0, q)) if q > 1 else 0
        if math.gcd(q, r if r else q) != 1:
            continue
        dec = indicator_decomposition(q, r)
        for n in range(1, 10 * q + 1):
            s = sum(c * chi(n) for chi, c in dec)
            expected = 1.0 if n % q == r % q else 0.0
            assert abs(s - expected) < 1e-12, (q, r, n)
        done += 1


def test_character_mod_4_values():
    chi = characters_mod(4)[1]
    assert chi.modulus == 4
    assert chi.table.tolist() == [0, 1, 0, -1]


def test_character_table_rows_follow_listing():
    for q in (1, 2, 4, 5, 12, 60, 97):
        table = character_table(q)
        chars = characters_mod(q)
        assert table.shape == (len(chars), q)
        assert not table.flags.writeable
        for j, chi in enumerate(chars):
            assert chi.index == j
            assert np.array_equal(table[j], chi.table)
        assert character_table(q) is table


@pytest.mark.parametrize("q", [360, 503])
def test_character_group_peak_within_its_charge(q, monkeypatch):
    # the build is charged what it holds at its peak, within a quarter
    charged = []
    monkeypatch.setattr(characters, "check_budget", lambda nbytes, what: charged.append(nbytes))
    characters._character_group.cache_clear()
    peak = traced_peak(lambda: characters_mod(q))
    assert len(charged) == 1
    assert 24 * q * totient(q) < peak <= charged[0] <= 1.25 * peak


def test_character_group_is_charged_to_the_cap(monkeypatch):
    # mod 3001 the build takes ~216 MB; the cap refuses it, and a cache hit
    # is not charged again
    characters._character_group.cache_clear()
    monkeypatch.setenv("MULTFUN_MEM_CAP_MB", "64")
    with pytest.raises(ResourceError, match="character group mod 3001"):
        characters_mod(3001)
    chars = characters_mod(1009)                # ~24 MB
    monkeypatch.setenv("MULTFUN_MEM_CAP_MB", "1")
    assert characters_mod(1009) is chars
