"""Multiplicative functions: prime-power rules, a strided sieve split at sqrt(N), builtin catalog.

A MultiplicativeFunction is defined by its values on prime powers.  Pointwise
evaluation factors n and multiplies rule values; bulk evaluation sieves
[1, N] with one strided slice per power of a prime p <= sqrt(N) and one
vectorized pass over the multiples of all primes above sqrt(N)
(arith.large_prime_multiples), which multiply last as the largest factor of
n.  Catalog entries with rational phase parameters additionally carry an
exact finite-alphabet representation (ExactCodes): every nonzero value is
e(code/order), value 0 is code -1.  Codes are stored at the width of their
alphabet (code_dtype: int8 for an order up to 127, int16 up to 32767, int32
up to 2^31 - 1, int64 up to 2^63 - 1).  A kind builds them as one lookup
(arith.lookup) of the table's additive statistic (or residue) in a table over
the statistic's few values, cast to that width first, so no wider array of
N + 1 codes is made.
A table with codes is its codes: sieve_range builds no values for it, and
the table builds them from the codes on first read, so level-set extraction
downstream is integer-exact and never builds them.  A table of
root-of-unity codes keeps |f| <= 1 by construction, so no bound is checked
on it.  phi(n)/n is determined by rad(n)
(RadicalCodes): its level set at phi(r)/r enumerates the n <= N with
rad(n) = r directly, with no table over [0, N].  A zero-repaired function
has no codes, whatever its base: the generic pass sieves it.

_KINDS is the one place where a catalog kind is defined: f.kind names a
_Kind record holding the kind's codes and sieve, its values f(p^m) over an
array of primes for one exponent m, and whether its functions are zero-free,
supported on the squarefree integers or periodic.  The scalar rule
(prime_power_value) is the oracle for the arrays.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

from .arith import (
    RootOfUnity,
    Zero,
    check_budget,
    e,
    factorize,
    get_context,
    is_prime,
    large_prime_multiples,
    lookup,
    root_table,
    roots_of_unity,
)
from .errors import InputError
from . import characters as characters_mod_pkg

__all__ = [
    "PrimePowerSpec",
    "MultiplicativeFunction",
    "SieveTable",
    "ExactCodes",
    "RadicalCodes",
    "eval_at",
    "sieve_range",
    "builtin",
    "BUILTIN_NAMES",
    "BUILTIN_PARAMETERS",
    "parse_custom_file",
    "make_repaired",
]

_MOD_BOUND = 1.0 + 1e-12
_BOUND_BLOCK = 1 << 16     # entries whose |f| _check_bound holds at a time


@dataclass(frozen=True, eq=False)
class PrimePowerSpec:
    """Rule f(p^k) for primes p and exponents k >= 1; f(1) = 1 is implied."""

    rule: Callable[[int, int], complex]
    completely_multiplicative: bool = False
    unbounded: bool = False


@dataclass(frozen=True, eq=False)
class MultiplicativeFunction:
    name: str
    spec: PrimePowerSpec
    params: dict = field(default_factory=dict)
    kind: str = "generic"
    meta: dict = field(default_factory=dict)

    @property
    def label(self) -> str:
        if not self.params:
            return self.name
        parts = ",".join(f"{k}={_fmt_param(v)}" for k, v in sorted(self.params.items()))
        return f"{self.name}({parts})"

    def __call__(self, n: int) -> complex:
        return eval_at(self, n)

    def __pow__(self, k: int) -> "MultiplicativeFunction":
        if not isinstance(k, int) or k < 1:
            raise InputError(f"function powers must be positive integers, got {k}")
        if k == 1:
            return self
        base = self

        def rule(p, kk):
            return prime_power_value(base, p, kk) ** k

        return MultiplicativeFunction(
            name=f"{self.name}^{k}",
            spec=PrimePowerSpec(rule, self.spec.completely_multiplicative, self.spec.unbounded),
            params=dict(self.params),
            kind="power",
            meta={"base": base, "k": k},
        )

    def prime_values(self, ps: np.ndarray, m: int = 1) -> np.ndarray:
        """f(p^m) over an array of primes, checked against the |f| <= 1 bound."""
        values = _KINDS[self.kind].prime_values(self, np.asarray(ps, dtype=np.int64), m)
        return _check_bound(self, values)

    def squarefree_only(self) -> bool:
        """True when f(n) = 0 off the squarefree n, by its kind."""
        return _KINDS[self.kind].squarefree_only(self)

    def period_codes(self) -> ExactCodes | None:
        """A periodic f's codes on one period [0, q), by its kind; None otherwise."""
        return _KINDS[self.kind].period_codes(self)

    def __repr__(self):
        return f"MultiplicativeFunction({self.label})"


def _fmt_param(v) -> str:
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    return str(v)


def prime_power_value(f: MultiplicativeFunction, p: int, k: int) -> complex:
    """f(p^k) from the rule, honoring complete multiplicativity and bounds."""
    if f.spec.completely_multiplicative:
        v = complex(f.spec.rule(p, 1)) ** k
    else:
        v = complex(f.spec.rule(p, k))
    if not f.spec.unbounded and not abs(v) <= _MOD_BOUND:   # NaN fails too
        raise InputError(f"{f.label}({p}^{k}) = {v} breaks the |f| <= 1 modulus bound")
    return v


# --------------------------------------------------------------------------
# Exact representations attached to sieve tables

def members_of(mask: np.ndarray) -> np.ndarray:
    """The n >= 1 with mask[n - 1] set, as int64; 1 is added in place."""
    idx = np.flatnonzero(mask)
    idx += 1
    return idx


def code_dtype(order: int) -> np.dtype:
    """The narrowest signed integer type whose maximum is at least order: it
    holds the codes -1..order-1 of an alphabet of order roots of unity."""
    for dtype in (np.int8, np.int16, np.int32, np.int64):
        if order <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    raise InputError(f"an alphabet of {order} roots of unity has no 64-bit codes")


@dataclass(eq=False)
class ExactCodes:
    """Finite-alphabet value codes: codes[n] = -1 means f(n) = 0, a code
    j >= 0 means f(n) = e(j/order).  The codes have dtype code_dtype(order)."""

    order: int
    codes: np.ndarray

    def code_of(self, z: RootOfUnity) -> int | None:
        if self.order % z.den != 0:
            return None
        return (z.num * (self.order // z.den)) % self.order

    def members(self, target, power: int = 1) -> np.ndarray:
        """The sorted n in [1, N] with f(n)^power == target, as int64."""
        if power < 1:
            raise InputError(f"power must be >= 1, got {power}")
        codes = self.codes[1:]
        if isinstance(target, Zero):
            return members_of(codes == -1)
        if not isinstance(target, RootOfUnity):
            raise InputError(f"exact membership needs a root of unity or 0, got {target!r}")
        j = self.code_of(target)
        if j is None:
            return np.zeros(0, dtype=np.int64)
        if power == 1:
            m = codes == j     # codes are reduced mod order already
        else:
            # f(n)^power == target iff code * power = j (mod order): that test
            # over the alphabet, with power reduced mod order and False for
            # code -1, looked up at each code, so no wider array of codes is made
            hit = np.arange(self.order) * (power % self.order) % self.order == j
            m = lookup(np.append(hit, False), codes)
        return members_of(m)

    def values(self) -> np.ndarray:
        """e(code/order) at each code and 0 at code -1: one lookup in the roots
        of unity with a 0 appended, or, when there are more roots than codes,
        the roots evaluated at the codes."""
        if self.order > len(self.codes):
            values = roots_of_unity(self.codes, self.order)
            values[self.codes < 0] = 0
            return values
        return lookup(np.append(root_table(self.order), 0), self.codes)


@dataclass(eq=False)
class RadicalCodes:
    """Exact codes for phi(n)/n on [0, N]: the value is determined by rad(n).

    The level set at phi(r)/r is {n <= N : rad(n) = r}, the n = r * m with
    every prime of m dividing r.  There are polylog(N) of them, enumerated
    directly, so no radical table over [0, N] is built.
    """

    N: int
    primes: np.ndarray      # the primes <= N, from which the values are sieved

    def members(self, target, power: int = 1) -> np.ndarray:
        """The sorted n in [1, N] with phi(n)/n == target, as int64."""
        if power != 1:
            raise InputError("exact level sets of powered ratio functions are unsupported")
        none = np.zeros(0, dtype=np.int64)
        if isinstance(target, RootOfUnity):
            target = Fraction(1, 1) if target.den == 1 else None
        if not isinstance(target, Fraction):    # phi(n)/n is never 0 or complex
            return none
        r = self.radical_for_ratio(target)
        if r is None or r > self.N:
            return none
        members = [r]
        for p, _ in factorize(r):
            grown = []
            for n in members:
                while n <= self.N:
                    grown.append(n)
                    n *= p
            members = grown
        return np.sort(np.array(members, dtype=np.int64))

    def values(self) -> np.ndarray:
        """phi(n)/n, the product of 1 - 1/p over the primes p | n, in the real
        parts: one strided slice per small prime, one pass over the large ones."""
        N = self.N
        v = np.ones(N + 1, dtype=np.complex128)
        split = int(np.searchsorted(self.primes, math.isqrt(N), "right"))
        for p in self.primes[:split].tolist():
            v.real[p::p] *= 1.0 - 1.0 / p
        large = self.primes[split:]
        ratio = 1.0 - 1.0 / large
        for idx, c in large_prime_multiples(large, N):
            v.real[idx] *= ratio[:c]
        return v

    @staticmethod
    def radical_for_ratio(fr: Fraction) -> int | None:
        """The unique squarefree r with phi(r)/r == fr, if one exists."""
        if fr <= 0 or fr > 1:
            return None
        r = 1
        for _ in range(64):
            if fr == 1:
                return r
            p = max(q for q, _ in factorize(fr.denominator))
            if r % p == 0:
                return None
            fr = fr * p / (p - 1)
            r *= p
        return None


@dataclass(eq=False)
class SieveTable:
    """f on [0, N]: its exact codes, when the kind has them, and its values.
    A table with codes builds its values from them on first read, and checks
    the |f| <= 1 bound on them unless they are root-of-unity codes, bounded
    by construction; sieve_range sets the values of a table without codes."""

    N: int
    source: str
    exact: ExactCodes | RadicalCodes | None = None
    function: MultiplicativeFunction | None = None

    @cached_property
    def values(self) -> np.ndarray:
        """Read-only complex128 values, values[n] = f(n) and values[0] = 0."""
        values = _sealed(self.exact.values())
        if not isinstance(self.exact, ExactCodes):
            _check_bound(self.function, values)
        return values


# --------------------------------------------------------------------------
# Pointwise evaluation

def eval_at(f: MultiplicativeFunction, n: int) -> complex:
    """f(n) via factorization of n; exact 1 at n = 1."""
    if not isinstance(n, (int, np.integer)):
        raise InputError(f"eval_at needs an integer, got {type(n).__name__}")
    n = int(n)
    if n < 1:
        raise InputError(f"eval_at needs n >= 1, got {n}")
    out = 1 + 0j
    for p, k in factorize(n):
        out *= prime_power_value(f, p, k)
    return out


# --------------------------------------------------------------------------
# Bulk sieving

def sieve_range(f: MultiplicativeFunction, N: int) -> SieveTable:
    """Tabulate f on [1, N].

    The kind (see _KINDS) builds its exact codes when it has them, and the
    table its values from them on first read.  A kind without codes sieves its
    values here: from the additive statistics for irrational phases, by a
    generic prime-power pass otherwise (every zero-repaired function among
    them).  The |f| <= 1 bound is checked here on the values of kinds without
    codes.
    """
    if N < 1:
        raise InputError(f"sieve bound must be >= 1, got {N}")
    # a table holds 16 B per entry of complex values, or codes of 1 to 8 B
    # (code_dtype) that build those values on first read
    check_budget(30 * (N + 1), f"sieve of {f.label} to N={N}")
    ctx = get_context(N)
    kind = _KINDS[f.kind]
    table = SieveTable(N=N, source=f.label, exact=kind.codes(f, N, ctx), function=f)
    if table.exact is None:
        table.values = _check_bound(f, _sealed(kind.sieve(f, N, ctx)))
    return table


def _sealed(values: np.ndarray) -> np.ndarray:
    values[0] = 0
    values.flags.writeable = False
    return values


def _check_bound(f: MultiplicativeFunction, values: np.ndarray) -> np.ndarray:
    if not f.spec.unbounded:
        # |values| one block at a time, not as one 8 B per entry temporary;
        # the maximum (NaN included, which then fails the bound) is the whole array's
        peak = float(np.max([np.abs(values[i : i + _BOUND_BLOCK]).max(initial=0.0)
                             for i in range(0, len(values), _BOUND_BLOCK)], initial=0.0))
        if not peak <= _MOD_BOUND:
            raise InputError(f"{f.label} exceeds the |f| <= 1 modulus bound (max {peak})")
    return values


def _squarefree_codes(f, N, ctx):
    # code 0 (the value 1) on the squarefree n, -1 (the value 0) off them and at 0
    codes = np.zeros(N + 1, dtype=code_dtype(1))
    codes[0] = -1
    return ExactCodes(order=1, codes=ctx.strike_squares(codes, -1))


def _period_codes(chi) -> ExactCodes:
    """A character's codes on one period [0, q), at the width of its alphabet."""
    return ExactCodes(order=chi.expo_mod, codes=chi.expo.astype(code_dtype(chi.expo_mod)))


def _periodic_codes(f, N, ctx):
    chi = f.meta["char"]
    codes = np.tile(_period_codes(chi).codes, N // chi.modulus + 1)[: N + 1]
    codes[0] = -1 if chi.modulus > 1 else codes[0]
    return ExactCodes(order=chi.expo_mod, codes=codes)


def _tau_character_codes(f, N, ctx):
    # tau a quarter of [0, N] at a time, so no table of N + 1 tau is made
    chi = f.meta["char"]
    period = _period_codes(chi).codes
    codes = np.empty(N + 1, dtype=period.dtype)
    step = -(-(N + 1) // 4)
    for lo in range(0, N + 1, step):
        tau = ctx.tau_range(lo, min(lo + step, N + 1))
        lut = period[np.arange(int(tau.max()) + 1) % chi.modulus]
        codes[lo : lo + step] = lookup(lut, tau)
    codes[0] = -1
    return ExactCodes(order=chi.expo_mod, codes=codes)


def _sieve_generic(f, N, ctx):
    values = np.ones(N + 1, dtype=np.complex128)
    for p in ctx.small_primes:
        vs = []
        pe = p
        while pe <= N:
            vs.append(prime_power_value(f, p, len(vs) + 1))
            pe *= p
        if all(v == 1 for v in vs):
            continue
        pathological = any(vs[i] == 0 and vs[i + 1] != 0 for i in range(len(vs) - 1))
        if not pathological:
            prev = 1 + 0j
            pe = p
            for v in vs:
                if prev == 0:
                    break
                r = v / prev
                if r != 1:
                    values[pe::pe] *= r
                prev = v
                pe *= p
        else:
            # exact-exponent assignment; needed when a zero value is followed
            # by a nonzero one at a higher power of the same prime
            pe = p
            for eexp, v in enumerate(vs, start=1):
                idx = np.arange(pe, N + 1, pe)
                if pe * p <= N:
                    idx = idx[(idx // pe) % p != 0]
                values[idx] *= v
                pe *= p
    # A large prime q has q^2 > N, so f(q), from the kind's prime_values (the
    # rule's value bit for bit), is its only factor, applied as the ratio
    # f(q) / 1 that the loop above forms (which sets signed zeros).  The
    # product is taken out of place: numpy rounds out-of-place complex
    # products, and in-place ones of two or more entries, by its vector kernel
    # (fused on FMA hardware), but in-place one-entry products by the plain
    # formula.  So it matches the strided slices values[q::q] *= r bit for bit;
    # their one-entry case (q > N // 2) multiplies an exact 1.
    Q = ctx.large_primes
    r = _KINDS[f.kind].prime_values(f, Q, 1) / (1 + 0j)
    moves = r != 1
    r = r[moves]
    for idx, c in large_prime_multiples(Q[moves], N):
        values[idx] = values[idx] * r[:c]
    return values


# --------------------------------------------------------------------------
# Zero-freeness and zero repair

def zero_free(f: MultiplicativeFunction) -> bool:
    """True when the kind structurally excludes zero values."""
    return _KINDS[f.kind].zero_free(f)


def make_repaired(base: MultiplicativeFunction, y: complex, gamma: float) -> MultiplicativeFunction:
    """f with zero prime-power values replaced by the fixed unimodular y.
    It has no codes: sieve_range sieves it by the generic pass."""

    def rule(p, k):
        v = prime_power_value(base, p, k)
        return v if v != 0 else y

    return MultiplicativeFunction(
        name=f"{base.name}#repaired",
        spec=PrimePowerSpec(rule, completely_multiplicative=False,
                            unbounded=base.spec.unbounded),
        params=dict(base.params, y_gamma=gamma),
        kind="repaired",
        meta={"base": base, "y": y, "gamma": gamma},
    )


# --------------------------------------------------------------------------
# The kind registry

def _generic_prime_values(f, ps, m):
    return np.array([prime_power_value(f, p, m) for p in ps.tolist()], dtype=np.complex128)


def _constant_prime_values(f, ps, m):
    # f(p^m) does not depend on p: the rule's value at 2^m, broadcast
    return np.full(len(ps), prime_power_value(f, 2, m), dtype=np.complex128)


def _repaired_prime_values(f, ps, m):
    base_vals = f.meta["base"].prime_values(ps, m)
    return np.where(base_vals == 0, f.meta["y"], base_vals)


def _power_prime_values(f, ps, m):
    # the rule's own Python powers, once per distinct value of the base (told
    # apart bitwise, so that signed zeros keep theirs): (f(p)^k)^m for a
    # completely multiplicative base, f(p^m)^k otherwise
    k, whole = f.meta["k"], f.spec.completely_multiplicative
    base = f.meta["base"].prime_values(ps, 1 if whole else m)
    distinct, inverse = np.unique(base.view("V16"), return_inverse=True)
    powers = [(v ** k) ** m if whole else v ** k for v in distinct.view(np.complex128).tolist()]
    return np.array(powers, dtype=np.complex128)[inverse]


def _character_prime_values(f, ps, m):
    # the scalar rule's own power complex(chi(r)) ** m, once per residue class r
    chi = f.meta["char"]
    by_class = [complex(chi(r)) ** m for r in range(chi.modulus)]
    return np.array(by_class, dtype=np.complex128)[ps % chi.modulus]


@dataclass(frozen=True)
class _Kind:
    """What one catalog kind knows about its functions f: prime_values gives
    f(p^m) over an array of primes for one m, with the scalar rule
    prime_power_value as its oracle.  The defaults are the generic behaviour:
    no codes, a prime-power sieve (run only for f without codes), f(p^m) from
    the rule, no structural zeros or support."""

    codes: Callable = lambda f, N, ctx: None        # (f, N, ctx) -> exact codes or None
    sieve: Callable = _sieve_generic                # (f, N, ctx) -> values, f without codes
    prime_values: Callable = _generic_prime_values  # (f, primes, m) -> f(p^m) as complex
    zero_free: Callable = lambda f: False           # f(n) != 0 for every n
    squarefree_only: Callable = lambda f: False     # f(n) = 0 off the squarefree n
    period_codes: Callable = lambda f: None         # a periodic f's codes on [0, period)


def _squarefree_only(f) -> bool:
    return f.meta.get("squarefree_only", False)


def _phase_kind(stat: str) -> _Kind:
    """The phases e(xi * stat(n)) of one prime-factor count.

    A rational xi = a/b gives the codes a * stat(n) mod b; the squarefree_only
    members vanish off the squarefree n.  Codes and irrational phases are
    looked up in a table over 0..max stat (at most log2 N).
    """

    def codes(f, N, ctx):
        if "b" not in f.meta:
            return None
        a, b = f.meta["a"], f.meta["b"]
        s = getattr(ctx, stat)
        # a * k mod b over the few k in Python integers, which cannot wrap
        lut = np.array([a * k % b for k in range(int(s.max()) + 1)], dtype=code_dtype(b))
        c = lookup(lut, s)
        if _squarefree_only(f):
            ctx.strike_squares(c, -1)
        c[0] = -1
        return ExactCodes(order=b, codes=c)

    def sieve(f, N, ctx):
        s = getattr(ctx, stat)
        values = lookup(e(f.meta["xi"] * np.arange(int(s.max()) + 1, dtype=np.float64)), s)
        if _squarefree_only(f):
            ctx.strike_squares(values, 0)
        return values

    return _Kind(codes=codes, sieve=sieve, prime_values=_constant_prime_values,
                 zero_free=lambda f: not _squarefree_only(f),
                 squarefree_only=_squarefree_only)


# The one place where a catalog kind is defined; f.kind selects the entry.
_KINDS = {
    "omega_phase": _phase_kind("big_omega"),
    "small_omega_phase": _phase_kind("small_omega"),
    "squarefree_indicator": _Kind(
        codes=_squarefree_codes,
        prime_values=_constant_prime_values,
        squarefree_only=lambda f: True,
    ),
    "phi_ratio": _Kind(
        codes=lambda f, N, ctx: RadicalCodes(N=N, primes=ctx.primes),
        prime_values=lambda f, ps, m: (1.0 - 1.0 / ps).astype(np.complex128),
        zero_free=lambda f: True,
    ),
    "periodic": _Kind(
        codes=_periodic_codes,
        prime_values=_character_prime_values,
        zero_free=lambda f: f.meta["char"].modulus == 1,
        period_codes=lambda f: _period_codes(f.meta["char"]),
    ),
    "tau_character": _Kind(
        codes=_tau_character_codes,
        prime_values=_constant_prime_values,
    ),
    "repaired": _Kind(
        prime_values=_repaired_prime_values,
        zero_free=lambda f: True,
    ),
    "power": _Kind(
        prime_values=_power_prime_values,
        zero_free=lambda f: zero_free(f.meta["base"]),
    ),
    "generic": _Kind(),
}


# --------------------------------------------------------------------------
# Builtin catalog

def _parse_xi(raw) -> Fraction | float:
    if isinstance(raw, Fraction):
        return raw
    if isinstance(raw, int):
        return Fraction(raw, 1)
    if isinstance(raw, float) and math.isfinite(raw):
        return raw
    if isinstance(raw, str):
        s = raw.strip()
        try:
            if "/" in s:
                a, b = s.split("/", 1)
                return Fraction(int(a), int(b))
            try:
                return Fraction(int(s), 1)
            except ValueError:
                return _parse_xi(float(s))
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"cannot parse phase parameter xi from {raw!r}: {exc}") from exc
    raise InputError(f"phase parameter xi must be an integer, a/b or a finite float, got {raw!r}")


def _phase_meta(xi) -> dict:
    if isinstance(xi, Fraction):
        return {"a": xi.numerator % xi.denominator, "b": xi.denominator}
    return {"xi": float(xi)}


def _xi_value(xi) -> complex:
    if isinstance(xi, Fraction):
        a, b = xi.numerator % xi.denominator, xi.denominator
        # a as a float: the same bits as an integer array up to 2^53, and no
        # object array when a passes int64
        return complex(roots_of_unity(np.array([float(a)]), b)[0])
    return complex(e(float(xi)))


def _phase(kind: str, squarefree_only: bool, completely_multiplicative: bool, fixed_xi):
    """The constructor of a phase entry: e(xi Omega(n)) or e(xi omega(n)),
    vanishing at p^k for k >= 2 when squarefree_only; xi is read from the
    parameters unless fixed_xi gives it."""

    def make(name: str, params: dict) -> MultiplicativeFunction:
        xi = _parse_xi(params.get("xi")) if fixed_xi is None else fixed_xi
        v = _xi_value(xi)
        if squarefree_only:
            rule = lambda p, k: v if k == 1 else 0.0
            meta = dict(_phase_meta(xi), squarefree_only=True)
        else:
            rule = lambda p, k: v
            meta = _phase_meta(xi)
        return MultiplicativeFunction(
            name,
            PrimePowerSpec(rule, completely_multiplicative=completely_multiplicative),
            params={} if fixed_xi is not None else {"xi": xi},
            kind=kind,
            meta=meta,
        )

    return make


def _mu_squared(name: str, params: dict) -> MultiplicativeFunction:
    return MultiplicativeFunction(
        "mu_squared",
        PrimePowerSpec(lambda p, k: 1.0 if k == 1 else 0.0),
        kind="squarefree_indicator",
    )


def _phi_over_n(name: str, params: dict) -> MultiplicativeFunction:
    return MultiplicativeFunction(
        "phi_over_n",
        PrimePowerSpec(lambda p, k: 1.0 - 1.0 / p),
        kind="phi_ratio",
    )


def _dirichlet_character(name: str, params: dict) -> MultiplicativeFunction:
    q = int(params.get("modulus", 1))
    index = int(params.get("index", 0))
    chars = characters_mod_pkg.characters_mod(q)
    if not 0 <= index < len(chars):
        raise InputError(f"character index {index} out of range for modulus {q} "
                         f"(phi({q}) = {len(chars)})")
    chi = chars[index]
    return MultiplicativeFunction(
        "dirichlet_character",
        PrimePowerSpec(lambda p, k: complex(chi(p)), completely_multiplicative=True),
        params={"modulus": q, "index": index},
        kind="periodic",
        meta={"char": chi},
    )


def _chi_of_tau(name: str, params: dict) -> MultiplicativeFunction:
    b = int(params.get("modulus", 0))
    if not _cyclic_unit_group(b):
        raise InputError(
            f"chi_of_tau needs modulus b in {{2, 4, p, 2p}} (p an odd prime) so that "
            f"the multiplicative group mod b is cyclic; got b = {b}"
        )
    chars = characters_mod_pkg.characters_mod(b)
    phi_b = len(chars)
    gen = next(c for c in chars if c.order == phi_b)
    return MultiplicativeFunction(
        "chi_of_tau",
        PrimePowerSpec(lambda p, k: complex(gen(k + 1))),
        params={"modulus": b, "index": gen.index},
        kind="tau_character",
        meta={"char": gen},
    )


def _custom_file(name: str, params: dict) -> MultiplicativeFunction:
    path = params.get("path")
    if not path:
        raise InputError("custom_file needs a 'path' parameter")
    rule_map, default = parse_custom_file(path)
    dv = 0.0 if default == "zero" else 1.0

    def rule(p, k):
        return rule_map.get((p, k), dv)

    return MultiplicativeFunction(
        "custom_file",
        PrimePowerSpec(rule),
        params={"path": str(path), "default": default},
        kind="generic",
        meta={"rule_map": rule_map, "default": default},
    )


# name -> (constructor(name, params), parameter doc or None), in catalog order.
# The phase factory's flags: kind, vanishes at p^k for k >= 2, completely
# multiplicative, fixed xi.
_CATALOG = {
    "liouville": (_phase("omega_phase", False, True, Fraction(1, 2)), None),
    "moebius": (_phase("omega_phase", True, False, Fraction(1, 2)), None),
    "lambda_xi": (_phase("omega_phase", False, True, None), "xi (rational a/b or float)"),
    "mu_xi": (_phase("omega_phase", True, False, None), "xi"),
    "kappa_xi": (_phase("small_omega_phase", False, False, None), "xi"),
    "mu_squared": (_mu_squared, None),
    "phi_over_n": (_phi_over_n, None),
    "dirichlet_character": (_dirichlet_character, "modulus, index"),
    "chi_of_tau": (_chi_of_tau, "modulus in {2, 4, p, 2p}"),
    "custom_file": (_custom_file,
                    "file path; lines 'p k re im', optional 'default: zero|one'"),
}
BUILTIN_NAMES = tuple(_CATALOG)
BUILTIN_PARAMETERS = {name: doc for name, (_, doc) in _CATALOG.items() if doc is not None}


def builtin(name: str, params: dict | None = None) -> MultiplicativeFunction:
    """Catalog constructor; see BUILTIN_NAMES for the available keys."""
    if name not in _CATALOG:
        raise InputError(f"unknown builtin {name!r}; known: {', '.join(BUILTIN_NAMES)}")
    return _CATALOG[name][0](name, dict(params or {}))


def _cyclic_unit_group(b: int) -> bool:
    if b in (2, 4):
        return True
    if b > 2 and b % 2 == 1:
        return is_prime(b)
    if b % 2 == 0 and (b // 2) % 2 == 1 and b // 2 > 1:
        return is_prime(b // 2)
    return False


def parse_custom_file(path) -> tuple[dict[tuple[int, int], complex], str]:
    """Parse the custom-function file format.

    One line per prime power: ``p k re im`` (whitespace separated), ``#``
    comments, optional header ``default: zero|one`` controlling unlisted
    prime powers (default one).
    """
    rule_map: dict[tuple[int, int], complex] = {}
    default = "one"
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read custom function file {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if body.lower().startswith("default:"):
            default = body.split(":", 1)[1].strip().lower()
            if default not in ("zero", "one"):
                raise InputError(f"{path}:{lineno}: default must be 'zero' or 'one'")
            continue
        parts = body.split()
        if len(parts) != 4:
            raise InputError(f"{path}:{lineno}: expected 'p k re im', got {body!r}")
        try:
            p, k = int(parts[0]), int(parts[1])
            value = complex(float(parts[2]), float(parts[3]))
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: expected 'p k re im', got {body!r}") from exc
        if not cmath.isfinite(value):
            raise InputError(f"{path}:{lineno}: value {value} is not finite")
        if not is_prime(p):
            raise InputError(f"{path}:{lineno}: {p} is not prime")
        if k < 1:
            raise InputError(f"{path}:{lineno}: exponent must be >= 1, got {k}")
        if (p, k) in rule_map:
            raise InputError(f"{path}:{lineno}: duplicate entry for {p}^{k}")
        rule_map[(p, k)] = value
    return rule_map, default
