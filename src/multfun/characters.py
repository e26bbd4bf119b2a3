"""Dirichlet characters mod q: full group, induction, progression decomposition.

The characters of one modulus are the rows of one dense value table over the
residues 0..q-1 (character_table), each with an exact exponent table:
chi(n) = e(expo[n % q] / expo_mod) for residues coprime to q, and 0
elsewhere.  The group is enumerated from the cyclic decomposition of (Z/qZ)*
via CRT; the exponent-vector ordering is lexicographic, so the listing is
deterministic and the principal character always comes first.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .arith import check_budget, factorize, root_table, totient
from .errors import InputError

__all__ = [
    "DirichletCharacter",
    "characters_mod",
    "character_table",
    "principal_character",
    "induce",
    "indicator_decomposition",
]


@dataclass(eq=False)
class DirichletCharacter:
    """A Dirichlet character of modulus q, tabulated on residues 0..q-1."""

    modulus: int
    table: np.ndarray            # complex128, length q
    expo: np.ndarray             # int64, length q; -1 where gcd(n, q) > 1
    expo_mod: int                # chi(n) = e(expo[n]/expo_mod) on units
    order: int                   # smallest m with chi^m principal
    is_principal: bool
    index: int                   # position in the deterministic listing mod q

    def __call__(self, n: int) -> complex:
        return complex(self.table[n % self.modulus])

    def values_at(self, ns: np.ndarray) -> np.ndarray:
        """Vectorized chi(ns)."""
        return self.table[np.asarray(ns) % self.modulus]

    def conj_at(self, n: int) -> complex:
        return complex(np.conj(self.table[n % self.modulus]))

    @property
    def label(self) -> str:
        return f"chi[{self.modulus}.{self.index}]"

    def __repr__(self):
        kind = "principal" if self.is_principal else f"order {self.order}"
        return f"DirichletCharacter(mod {self.modulus}, #{self.index}, {kind})"


def _unit_group_structure(q: int) -> list[tuple[int, int]]:
    """Cyclic decomposition of (Z/qZ)* as (generator mod q, order) pairs.

    Generators are lifted through CRT so each is ≡ 1 modulo the other
    prime-power factors of q.
    """
    if q == 1:
        return []
    factors = []
    for p, a in factorize(q):
        pa = p ** a
        cof = q // pa
        if p == 2:
            if a == 1:
                continue
            if a == 2:
                factors.append((_crt_lift(3, pa, cof, q), 2))
            else:
                factors.append((_crt_lift(pa - 1, pa, cof, q), 2))
                factors.append((_crt_lift(5, pa, cof, q), pa // 4))
        else:
            g = _primitive_root_mod_prime_power(p, a)
            factors.append((_crt_lift(g, pa, cof, q), totient(pa)))
    return factors


def _crt_lift(g: int, pa: int, cof: int, q: int) -> int:
    """x ≡ g (mod pa), x ≡ 1 (mod cof)."""
    if cof == 1:
        return g % q
    inv = pow(pa, -1, cof)
    return (g + pa * ((1 - g) * inv % cof)) % q


def _primitive_root_mod_prime_power(p: int, a: int) -> int:
    phi_p = p - 1
    qs = [f for f, _ in factorize(phi_p)]
    g = 2
    while True:
        if all(pow(g, phi_p // f, p) != 1 for f in qs):
            break
        g += 1
    if a == 1:
        return g
    # lift to p^a: g works unless g^(p-1) ≡ 1 mod p^2
    if pow(g, phi_p, p * p) == 1:
        g += p
    return g


def _dlog_tables(q: int, gens: list[tuple[int, int]]) -> np.ndarray:
    """dlogs[i, n] = exponent of generator i in n, or 0 for non-units."""
    dlogs = np.zeros((len(gens), q), dtype=np.int64)
    # every unit is one product of generator powers
    for ev in itertools.product(*(range(d) for _, d in gens)):
        x = math.prod(pow(g, ei, q) for (g, _), ei in zip(gens, ev)) % q
        dlogs[:, x] = ev
    return dlogs


def characters_mod(q: int) -> list[DirichletCharacter]:
    """All phi(q) Dirichlet characters mod q, principal first, ordering fixed."""
    return _character_group(q)[1]


def character_table(q: int) -> np.ndarray:
    """Read-only phi(q) x q complex array of all characters mod q, cached with
    them.  Rows follow the characters_mod(q) listing: row j is the table of
    the character of index j, and column a holds the values at residue a."""
    return _character_group(q)[0]


@lru_cache(maxsize=64)
def _character_group(q: int) -> tuple[np.ndarray, list[DirichletCharacter]]:
    if q < 1:
        raise InputError(f"modulus must be >= 1, got {q}")
    if q > 10**6:
        raise InputError(f"modulus {q} above the supported bound 10^6")
    # the build peaks at what it keeps: 24 B per entry of the phi(q) x q tables
    # (int64 exponents, complex values) and about 0.5 KB per character object
    check_budget((24 * q + 1024) * totient(q), f"character group mod {q}")
    gens = _unit_group_structure(q)
    dlogs = _dlog_tables(q, gens)
    orders = [d for _, d in gens]
    L = math.lcm(*orders)
    coprime = np.array([math.gcd(n, q) == 1 for n in range(q)], dtype=bool)
    # one row per character: exponent vectors in lexicographic order
    evs = np.array(list(itertools.product(*(range(d) for d in orders))), dtype=np.int64)
    expos = (evs * (L // np.array(orders, dtype=np.int64))) @ dlogs
    expos %= L
    expos[:, ~coprime] = -1
    tables = root_table(L)[expos]       # an exponent -1 reads the last root,
    tables[:, ~coprime] = 0             # so the non-units are zeroed here
    tables.flags.writeable = False
    expos.flags.writeable = False
    chars = []
    for index, (table, expo) in enumerate(zip(tables, expos)):
        order = L // math.gcd(L, *expo[coprime].tolist())
        chars.append(
            DirichletCharacter(
                modulus=q,
                table=table,
                expo=expo,
                expo_mod=L,
                order=order,
                is_principal=bool(order == 1),
                index=index,
            )
        )
    return tables, chars


def principal_character(q: int) -> DirichletCharacter:
    return characters_mod(q)[0]


def induce(chi: DirichletCharacter, k: int) -> DirichletCharacter:
    """Induce chi of modulus d to modulus k (requires d | k): chi' = chi * chi_1."""
    d = chi.modulus
    if k < 1 or k % d != 0:
        raise InputError(f"cannot induce modulus {d} to {k}: {d} does not divide {k}")
    table = np.zeros(k, dtype=np.complex128)
    expo = np.full(k, -1, dtype=np.int64)
    for n in range(k):
        if math.gcd(n, k) == 1:
            table[n] = chi.table[n % d]
            expo[n] = chi.expo[n % d]
    if k == 1:
        table[0] = 1.0
        expo[0] = 0
    order = chi.expo_mod // math.gcd(chi.expo_mod, *expo[expo >= 0].tolist())
    return DirichletCharacter(
        modulus=k,
        table=table,
        expo=expo,
        expo_mod=chi.expo_mod,
        order=order,
        is_principal=bool(order == 1),
        index=-1,
    )


def indicator_decomposition(q: int, r: int) -> list[tuple[DirichletCharacter, complex]]:
    """Write 1_{n ≡ r (mod q)} = sum over chi mod q of coeff * chi(n).

    Valid for gcd(q, r) = 1; the coefficient of chi is conj(chi(r)) / phi(q).
    """
    if q < 1:
        raise InputError(f"modulus must be >= 1, got {q}")
    if math.gcd(q, r) != 1:
        raise InputError(
            f"indicator decomposition undefined for gcd({q}, {r}) = {math.gcd(q, r)} > 1"
        )
    chars = characters_mod(q)
    phi_q = len(chars)
    return [(chi, chi.conj_at(r) / phi_q) for chi in chars]
