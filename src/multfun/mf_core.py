"""Multiplicative functions: prime-power rules, linear sieving, builtin catalog.

A MultiplicativeFunction is defined by its values on prime powers.  Pointwise
evaluation factors n and multiplies rule values; bulk evaluation sieves
[1, N] with one strided slice per power of a prime p <= sqrt(N) and one
vectorized pass over the multiples of all primes above sqrt(N)
(arith.large_prime_multiples), which multiply last as the largest factor of
n.  Catalog entries with rational phase parameters additionally carry an
exact finite-alphabet representation (ExactCodes): every nonzero value is
e(code/order), value 0 is code -1; phi(n)/n is determined by rad(n)
(RadicalCodes).  A kind builds its codes first and its complex values from
them; sieve_codes stops after the codes, so level-set extraction downstream
is integer-exact and never builds the values.

_KINDS is the one place where a catalog kind is defined: f.kind names a
_Kind record holding the kind's codes and sieve, its values at primes, its
exact prime-power codes and their order, and whether its functions are
zero-free, supported on the squarefree integers or periodic.
"""

from __future__ import annotations

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
    root_table,
    _CONTEXTS,
    _smallest_prime_factor,
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
    "sieve_codes",
    "builtin",
    "BUILTIN_NAMES",
    "parse_custom_file",
    "make_repaired",
]

_MOD_BOUND = 1.0 + 1e-12


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
            return _ppval(base, p, kk) ** k

        return MultiplicativeFunction(
            name=f"{self.name}^{k}",
            spec=PrimePowerSpec(rule, self.spec.completely_multiplicative, self.spec.unbounded),
            params=dict(self.params),
            kind="power",
            meta={"base": base, "k": k},
        )

    def prime_values(self, ps: np.ndarray) -> np.ndarray:
        """Vectorized f(p) over an array of primes."""
        return _KINDS[self.kind].prime_values(self, np.asarray(ps, dtype=np.int64))

    def __repr__(self):
        return f"MultiplicativeFunction({self.label})"


def _fmt_param(v) -> str:
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    return str(v)


def _ppval(f: MultiplicativeFunction, p: int, k: int) -> complex:
    if f.spec.completely_multiplicative:
        v = complex(f.spec.rule(p, 1)) ** k
    else:
        v = complex(f.spec.rule(p, k))
    if not f.spec.unbounded and abs(v) > _MOD_BOUND:
        raise InputError(f"{f.label}({p}^{k}) = {v} breaks the |f| <= 1 modulus bound")
    return v


# --------------------------------------------------------------------------
# Exact representations attached to sieve tables

@dataclass(eq=False)
class ExactCodes:
    """Finite-alphabet value codes: codes[n] = -1 means f(n) = 0, a code
    j >= 0 means f(n) = e(j/order).  The optional yexp array counts repaired
    prime-power factors (see zero repair); entries with yexp > 0 carry an
    off-alphabet factor y^yexp and never match a root-of-unity target."""

    order: int
    codes: np.ndarray
    yexp: np.ndarray | None = None

    def code_of(self, z: RootOfUnity) -> int | None:
        if self.order % z.den != 0:
            return None
        return (z.num * (self.order // z.den)) % self.order

    def member_mask(self, target, power: int = 1) -> np.ndarray:
        """Boolean mask over 0..N of {n : f(n)^power == target}."""
        if power < 1:
            raise InputError(f"power must be >= 1, got {power}")
        if isinstance(target, Zero):
            if self.yexp is not None:
                return np.zeros(len(self.codes), dtype=bool)
            m = self.codes == -1
            m[0] = False
            return m
        if not isinstance(target, RootOfUnity):
            raise InputError(f"exact membership needs a root of unity or 0, got {target!r}")
        j = self.code_of(target)
        if j is None:
            return np.zeros(len(self.codes), dtype=bool)
        if power == 1:
            m = self.codes == j     # codes are reduced mod order already
        else:
            m = self.codes >= 0
            m &= (self.codes.astype(np.int64) * power - j) % self.order == 0
        if self.yexp is not None:
            m &= self.yexp == 0
        m[0] = False
        return m


@dataclass(eq=False)
class RadicalCodes:
    """Exact codes for phi(n)/n: the value is determined by rad(n)."""

    radical: np.ndarray

    def member_mask(self, target, power: int = 1) -> np.ndarray:
        if power != 1:
            raise InputError("exact level sets of powered ratio functions are unsupported")
        if isinstance(target, Zero):
            return np.zeros(len(self.radical), dtype=bool)
        if isinstance(target, RootOfUnity):
            target = Fraction(1, 1) if target.den == 1 else None
        if not isinstance(target, Fraction):
            return np.zeros(len(self.radical), dtype=bool)
        r = self.radical_for_ratio(target)
        if r is None or r > len(self.radical) - 1:
            return np.zeros(len(self.radical), dtype=bool)
        m = self.radical == r
        m[0] = False
        return m

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
    """Dense values of f on [1, N] and, when the kind has them, exact codes."""

    N: int
    values: np.ndarray
    source: str
    exact: ExactCodes | RadicalCodes | None = None
    function: MultiplicativeFunction | None = None

    @cached_property
    def spf(self) -> np.ndarray:
        """The smallest-prime-factor array of 0..N.  Read from the context
        for N when that one is cached; otherwise built once per table (4 B
        per entry, charged to the cap) outside the context cache, so reading
        it builds or evicts no cached context."""
        ctx = _CONTEXTS.get(self.N)
        if ctx is not None:
            return ctx.spf
        check_budget(4 * (self.N + 1), f"smallest prime factors for N={self.N}")
        return _smallest_prime_factor(self.N)


# --------------------------------------------------------------------------
# Pointwise evaluation

def prime_power_value(f: MultiplicativeFunction, p: int, k: int) -> complex:
    """f(p^k) from the rule, honoring complete multiplicativity and bounds."""
    return _ppval(f, p, k)


def eval_at(f: MultiplicativeFunction, n: int) -> complex:
    """f(n) via factorization of n; exact 1 at n = 1."""
    if not isinstance(n, (int, np.integer)):
        raise InputError(f"eval_at needs an integer, got {type(n).__name__}")
    n = int(n)
    if n < 1:
        raise InputError(f"eval_at needs n >= 1, got {n}")
    if n == 1:
        return 1 + 0j
    out = 1 + 0j
    for p, k in factorize(n):
        out *= _ppval(f, p, k)
    return out


# --------------------------------------------------------------------------
# Bulk sieving

def _sieve_context(f: MultiplicativeFunction, N: int):
    if N < 1:
        raise InputError(f"sieve bound must be >= 1, got {N}")
    check_budget(30 * (N + 1), f"sieve of {f.label} to N={N}")
    return get_context(N)


def sieve_codes(f: MultiplicativeFunction, N: int) -> ExactCodes | RadicalCodes | None:
    """The exact codes of f on [0, N] that sieve_range attaches, without the
    values; None when the kind has no exact codes."""
    return _KINDS[f.kind].codes(f, N, _sieve_context(f, N))


def sieve_range(f: MultiplicativeFunction, N: int) -> SieveTable:
    """Tabulate f on [1, N].

    The kind (see _KINDS) builds its exact codes first, when it has them,
    and then the values: from the codes for the finite alphabets, from the
    additive statistics for irrational phases and phi(n)/n, and by a generic
    prime-power pass otherwise.
    """
    ctx = _sieve_context(f, N)
    kind = _KINDS[f.kind]
    exact = kind.codes(f, N, ctx)
    values = kind.sieve(f, N, ctx, exact)
    values[0] = 0
    if not f.spec.unbounded:
        peak = float(np.abs(values).max())
        if peak > _MOD_BOUND:
            raise InputError(f"{f.label} exceeds the |f| <= 1 modulus bound (max {peak})")
    values.flags.writeable = False
    return SieveTable(N=N, values=values, source=f.label, exact=exact, function=f)


def _codes_values(f, N, ctx, exact: ExactCodes) -> np.ndarray:
    """e(code/order) at each code, 0 at code -1: one lookup in the roots of
    unity with a 0 appended, as the kinds' codes lie in [-1, order)."""
    return np.append(root_table(exact.order), 0)[exact.codes]


def _squarefree_codes(f, N, ctx):
    codes = np.where(ctx.squarefree, 0, -1).astype(np.int32)
    codes[0] = -1
    return ExactCodes(order=1, codes=codes)


def _sieve_phi_ratio(f, N, ctx, exact):
    v = np.ones(N + 1, dtype=np.float64)
    for p in ctx.small_primes:
        v[p::p] *= 1.0 - 1.0 / p
    ratio = 1.0 - 1.0 / ctx.large_primes
    for idx, c in large_prime_multiples(ctx.large_primes, N):
        v[idx] *= ratio[:c]
    return v.astype(np.complex128)


def _tile(table: np.ndarray, N: int) -> np.ndarray:
    q = len(table)
    reps = (N + 1 + q - 1) // q
    return np.tile(table, reps)[: N + 1]


def _periodic_codes(f, N, ctx):
    chi = f.meta["char"]
    codes = _tile(chi.expo, N).astype(np.int32)
    codes[0] = -1 if chi.modulus > 1 else codes[0]
    return ExactCodes(order=chi.expo_mod, codes=codes)


def _tau_character_codes(f, N, ctx):
    chi = f.meta["char"]
    codes = chi.expo[ctx.tau % chi.modulus].astype(np.int32)
    codes[0] = -1
    return ExactCodes(order=chi.expo_mod, codes=codes)


def _repaired_codes(f, N, ctx):
    base = f.meta["base"]
    order = exact_order(base)
    if order is None:
        return None
    code = _KINDS[base.kind].ppow_code
    root = np.zeros(N + 1, dtype=np.int32)
    yexp = np.zeros(N + 1, dtype=np.int8)
    for p in ctx.small_primes:
        pe, eexp = p, 1
        prev_c, prev_z = 0, 0
        while pe <= N:
            c = code(base, p, eexp)
            z = 1 if c is None else 0
            cc = 0 if c is None else c
            # telescoped deltas: after all powers, an exact-exponent-e slot
            # accumulates code(p, e) and the zero count for (p, e)
            dc, dz = cc - prev_c, z - prev_z
            if dc:
                root[pe::pe] += dc
            if dz:
                yexp[pe::pe] += dz
            prev_c, prev_z = cc, z
            pe *= p
            eexp += 1
    # a large prime q has q^2 > N, so only its first-power deltas enter
    large = [code(base, q, 1) for q in ctx.large_primes.tolist()]
    dc = np.array([0 if c is None else c for c in large], dtype=np.int32)
    dz = np.array([c is None for c in large], dtype=np.int8)
    for idx, c in large_prime_multiples(ctx.large_primes, N):
        root[idx] += dc[:c]
        yexp[idx] += dz[:c]
    root %= order
    codes = root
    codes[0] = -1
    return ExactCodes(order=order, codes=codes, yexp=yexp)


def _sieve_repaired(f, N, ctx, exact):
    if exact is None:
        return _sieve_generic(f, N, ctx, exact)
    values = _codes_values(f, N, ctx, exact)
    has_y = exact.yexp > 0
    values[has_y] = values[has_y] * (f.meta["y"] ** exact.yexp[has_y].astype(np.float64))
    return values


def _sieve_generic(f, N, ctx, exact):
    values = np.ones(N + 1, dtype=np.complex128)
    for p in ctx.small_primes:
        vs = []
        pe = p
        while pe <= N:
            vs.append(_ppval(f, p, len(vs) + 1))
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
    # A large prime q has q^2 > N, so f(q) is its only factor, applied as the
    # ratio f(q) / 1 that the loop above forms (which sets signed zeros).  The
    # product is taken out of place: numpy rounds out-of-place complex
    # products, and in-place ones of two or more entries, by its vector kernel
    # (fused on FMA hardware), but in-place one-entry products by the plain
    # formula.  So it matches the strided slices values[q::q] *= r bit for bit;
    # their one-entry case (q > N // 2) multiplies an exact 1.
    Q = ctx.large_primes
    r = np.array([_ppval(f, q, 1) / (1 + 0j) for q in Q.tolist()], dtype=np.complex128)
    moves = r != 1
    r = r[moves]
    for idx, c in large_prime_multiples(Q[moves], N):
        values[idx] = values[idx] * r[:c]
    return values


# --------------------------------------------------------------------------
# Exact prime-power codes (for zero repair and level-set machinery)

def exact_order(f: MultiplicativeFunction) -> int | None:
    """Alphabet size of f's exact root-of-unity representation, if any."""
    return _KINDS[f.kind].exact_order(f)


def ppow_code(f: MultiplicativeFunction, p: int, k: int) -> int | None:
    """Exact code of f(p^k), or None when f(p^k) = 0."""
    return _KINDS[f.kind].ppow_code(f, p, k)


def zero_free(f: MultiplicativeFunction) -> bool:
    """True when the kind structurally excludes zero values."""
    return _KINDS[f.kind].zero_free(f)


def make_repaired(base: MultiplicativeFunction, y: complex, gamma: float) -> MultiplicativeFunction:
    """f with zero prime-power values replaced by the fixed unimodular y."""

    def rule(p, k):
        v = _ppval(base, p, k)
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

def _generic_prime_values(f, ps):
    return np.array([_ppval(f, int(p), 1) for p in ps], dtype=np.complex128)


def _no_codes(f, p, k):
    raise InputError(f"{f.label} has no exact prime-power codes")


def _repaired_code(f, p, k):
    raise InputError("repaired functions are not repaired twice")


def _repaired_prime_values(f, ps):
    base_vals = f.meta["base"].prime_values(ps)
    return np.where(base_vals == 0, f.meta["y"], base_vals)


def _unit_code(chi, n: int) -> int | None:
    ex = int(chi.expo[n % chi.modulus])
    return None if ex < 0 else ex


@dataclass(frozen=True)
class _Kind:
    """What one catalog kind knows about its functions f.  The defaults are
    the generic behaviour: no exact codes, a prime-power sieve, prime values
    from the rule, no structural zeros or support."""

    codes: Callable = lambda f, N, ctx: None        # (f, N, ctx) -> exact codes or None
    sieve: Callable = _sieve_generic                # (f, N, ctx, codes) -> values
    prime_values: Callable = _generic_prime_values  # (f, primes) -> f(p) as complex
    ppow_code: Callable = _no_codes                 # (f, p, k) -> code, None when 0
    exact_order: Callable = lambda f: None          # alphabet size of the codes
    zero_free: Callable = lambda f: False           # f(n) != 0 for every n
    squarefree_only: Callable = lambda f: False     # f(n) = 0 off the squarefree n
    period_codes: Callable = lambda f: None         # a periodic f's codes on [0, period)


def _squarefree_only(f) -> bool:
    return f.meta.get("squarefree_only", False)


def _phase_kind(stat: str, weight: Callable[[int], int]) -> _Kind:
    """The phases e(xi * stat(n)) of one prime-factor count, stat(p^k) = weight(k).

    A rational xi = a/b gives the codes a * stat(n) mod b; the squarefree_only
    members vanish off the squarefree n.
    """

    def codes(f, N, ctx):
        if "b" not in f.meta:
            return None
        a, b = f.meta["a"], f.meta["b"]
        c = ((getattr(ctx, stat).astype(np.int64) * a) % b).astype(np.int32)
        if _squarefree_only(f):
            c[~ctx.squarefree] = -1
        c[0] = -1
        return ExactCodes(order=b, codes=c)

    def sieve(f, N, ctx, exact):
        if exact is not None:
            return _codes_values(f, N, ctx, exact)
        values = e(f.meta["xi"] * getattr(ctx, stat).astype(np.float64))
        if _squarefree_only(f):
            values[~ctx.squarefree] = 0
        return values

    def code(f, p, k):
        if "b" not in f.meta:
            return _no_codes(f, p, k)
        if _squarefree_only(f) and k >= 2:
            return None
        return (f.meta["a"] * weight(k)) % f.meta["b"]

    def prime_values(f, ps):
        m = f.meta
        v = root_table(m["b"])[m["a"] % m["b"]] if "b" in m else e(m["xi"])
        return np.full(len(ps), v, dtype=np.complex128)

    return _Kind(codes=codes, sieve=sieve, prime_values=prime_values, ppow_code=code,
                 exact_order=lambda f: f.meta.get("b"),
                 zero_free=lambda f: not _squarefree_only(f),
                 squarefree_only=_squarefree_only)


# The one place where a catalog kind is defined; f.kind selects the entry.
_KINDS = {
    "omega_phase": _phase_kind("big_omega", lambda k: k),
    "small_omega_phase": _phase_kind("small_omega", lambda k: 1),
    "squarefree_indicator": _Kind(
        codes=_squarefree_codes,
        sieve=_codes_values,
        prime_values=lambda f, ps: np.ones(len(ps), dtype=np.complex128),
        ppow_code=lambda f, p, k: None if k >= 2 else 0,
        exact_order=lambda f: 1,
        squarefree_only=lambda f: True,
    ),
    "phi_ratio": _Kind(
        codes=lambda f, N, ctx: RadicalCodes(radical=ctx.radical),
        sieve=_sieve_phi_ratio,
        prime_values=lambda f, ps: (1.0 - 1.0 / ps).astype(np.complex128),
        zero_free=lambda f: True,
    ),
    "periodic": _Kind(
        codes=_periodic_codes,
        sieve=_codes_values,
        prime_values=lambda f, ps: f.meta["char"].values_at(ps),
        ppow_code=lambda f, p, k: _unit_code(f.meta["char"], p ** k),
        exact_order=lambda f: f.meta["char"].expo_mod,
        zero_free=lambda f: f.meta["char"].modulus == 1,
        period_codes=lambda f: ExactCodes(f.meta["char"].expo_mod, f.meta["char"].expo),
    ),
    "tau_character": _Kind(
        codes=_tau_character_codes,
        sieve=_codes_values,
        prime_values=lambda f, ps: np.full(len(ps), complex(f.meta["char"](2)),
                                           dtype=np.complex128),
        ppow_code=lambda f, p, k: _unit_code(f.meta["char"], k + 1),
        exact_order=lambda f: f.meta["char"].expo_mod,
    ),
    "repaired": _Kind(
        codes=_repaired_codes,
        sieve=_sieve_repaired,
        prime_values=_repaired_prime_values,
        ppow_code=_repaired_code,
        exact_order=lambda f: exact_order(f.meta["base"]),
        zero_free=lambda f: True,
    ),
    "power": _Kind(
        prime_values=lambda f, ps: f.meta["base"].prime_values(ps) ** f.meta["k"],
        zero_free=lambda f: zero_free(f.meta["base"]),
    ),
    "generic": _Kind(),
}


# --------------------------------------------------------------------------
# Builtin catalog

BUILTIN_NAMES = (
    "liouville",
    "moebius",
    "lambda_xi",
    "mu_xi",
    "kappa_xi",
    "mu_squared",
    "phi_over_n",
    "dirichlet_character",
    "chi_of_tau",
    "custom_file",
)


def _parse_xi(raw) -> Fraction | float:
    if isinstance(raw, Fraction):
        return raw
    if isinstance(raw, int):
        return Fraction(raw, 1)
    if isinstance(raw, float):
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
                return float(s)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"cannot parse phase parameter xi from {raw!r}: {exc}") from exc
    raise InputError(f"cannot parse phase parameter xi from {raw!r}")


def _phase_meta(xi) -> dict:
    if isinstance(xi, Fraction):
        return {"a": xi.numerator % xi.denominator, "b": xi.denominator}
    return {"xi": float(xi)}


def _xi_value(xi) -> complex:
    if isinstance(xi, Fraction):
        return complex(root_table(xi.denominator)[xi.numerator % xi.denominator])
    return complex(e(float(xi)))


# name -> (kind, vanishes at p^k for k >= 2, completely multiplicative, fixed xi)
_PHASE_ENTRIES = {
    "liouville": ("omega_phase", False, True, Fraction(1, 2)),
    "moebius": ("omega_phase", True, False, Fraction(1, 2)),
    "lambda_xi": ("omega_phase", False, True, None),
    "mu_xi": ("omega_phase", True, False, None),
    "kappa_xi": ("small_omega_phase", False, False, None),
}


def _phase_function(name: str, params: dict) -> MultiplicativeFunction:
    """The phase entries: e(xi Omega(n)) (mu_xi and moebius restricted to the
    squarefree n) and e(xi omega(n)); liouville and moebius fix xi = 1/2."""
    kind, squarefree_only, cm, xi = _PHASE_ENTRIES[name]
    fixed = xi is not None
    if not fixed:
        xi = _parse_xi(params.get("xi"))
    v = _xi_value(xi)
    if squarefree_only:
        rule = lambda p, k: v if k == 1 else 0.0
        meta = dict(_phase_meta(xi), squarefree_only=True)
    else:
        rule = lambda p, k: v
        meta = _phase_meta(xi)
    return MultiplicativeFunction(
        name,
        PrimePowerSpec(rule, completely_multiplicative=cm),
        params={} if fixed else {"xi": xi},
        kind=kind,
        meta=meta,
    )


def builtin(name: str, params: dict | None = None) -> MultiplicativeFunction:
    """Catalog constructor; see BUILTIN_NAMES for the available keys."""
    params = dict(params or {})
    if name in _PHASE_ENTRIES:
        return _phase_function(name, params)
    if name == "mu_squared":
        return MultiplicativeFunction(
            "mu_squared",
            PrimePowerSpec(lambda p, k: 1.0 if k == 1 else 0.0),
            kind="squarefree_indicator",
        )
    if name == "phi_over_n":
        return MultiplicativeFunction(
            "phi_over_n",
            PrimePowerSpec(lambda p, k: 1.0 - 1.0 / p),
            kind="phi_ratio",
        )
    if name == "dirichlet_character":
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
    if name == "chi_of_tau":
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
    if name == "custom_file":
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
    raise InputError(f"unknown builtin {name!r}; known: {', '.join(BUILTIN_NAMES)}")


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
        if not is_prime(p):
            raise InputError(f"{path}:{lineno}: {p} is not prime")
        if k < 1:
            raise InputError(f"{path}:{lineno}: exponent must be >= 1, got {k}")
        if (p, k) in rule_map:
            raise InputError(f"{path}:{lineno}: duplicate entry for {p}^{k}")
        rule_map[(p, k)] = value
    return rule_map, default
