"""Exactly computable measure-preserving systems and averaging harnesses.

Two system families are supported, both with closed-form intersection
measures so positivity verdicts are never contaminated by sampling error:
cyclic rotations on finitely many points (and products of such), where
measures are exact rationals, and circle rotations acting on finite unions
of half-open arcs, where measures are computed by an endpoint sweep.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .arith import geometric_grid, running_means
from .errors import InputError, ResourceError

__all__ = [
    "FiniteSystem",
    "TorusRotation",
    "PolynomialFamily",
    "intersection_measure",
    "RecurrenceReport",
    "recurrence_average",
    "convergence_average",
]


@dataclass(frozen=True)
class FiniteSystem:
    """Product of cyclic rotations: x -> x + (1, ..., 1) on Z_{m_1} x ... ."""

    sizes: tuple

    def __post_init__(self):
        sizes = self.sizes
        if isinstance(sizes, int):
            sizes = (sizes,)
        sizes = tuple(int(m) for m in sizes)
        if not sizes or any(m < 1 for m in sizes):
            raise InputError(f"cyclic factors must be positive, got {sizes}")
        object.__setattr__(self, "sizes", sizes)

    @property
    def total(self) -> int:
        return math.prod(self.sizes)

    @property
    def period(self) -> int:
        return math.lcm(*self.sizes)

    def points(self):
        return itertools.product(*(range(m) for m in self.sizes))

    def normalize_set(self, A) -> frozenset:
        k = len(self.sizes)
        out = set()
        for x in A:
            if isinstance(x, (int, np.integer)):
                x = (int(x),) * k
            if len(x) != k:
                raise InputError(f"point {tuple(x)} does not match system arity {k}")
            out.add(tuple(int(c) % m for c, m in zip(x, self.sizes)))
        return frozenset(out)


@dataclass(frozen=True)
class TorusRotation:
    """Rotation x -> x + alpha on [0, 1) with a union of half-open arcs."""

    alpha: float
    arcs: tuple                   # ((start, end), ...) each 0 <= start < end <= 1

    def __post_init__(self):
        arcs = tuple((float(a), float(b)) for a, b in self.arcs)
        for a, b in arcs:
            if not (0.0 <= a < b <= 1.0):
                raise InputError(f"arc [{a}, {b}) must satisfy 0 <= a < b <= 1")
        for (a1, b1), (a2, b2) in itertools.combinations(arcs, 2):
            if a1 < b2 and a2 < b1:
                raise InputError(f"arcs [{a1},{b1}) and [{a2},{b2}) overlap")
        object.__setattr__(self, "arcs", arcs)

    def measure(self) -> float:
        return sum(b - a for a, b in self.arcs)

    def shifted_arcs(self, a: int) -> list:
        """Arcs of T^{-a} A = A - a*alpha (mod 1), split at the wraparound."""
        shift = (-a * self.alpha) % 1.0
        out = []
        for lo, hi in self.arcs:
            lo2, hi2 = lo + shift, hi + shift
            if hi2 <= 1.0:
                out.append((lo2, hi2))
            elif lo2 >= 1.0:
                out.append((lo2 - 1.0, hi2 - 1.0))
            else:
                out.append((lo2, 1.0))
                out.append((0.0, hi2 - 1.0))
        return out


def _arcs_contain(arcs: list, x: float) -> bool:
    return any(a <= x < b for a, b in arcs)


def intersection_measure(system, A, shifts) -> Fraction | float:
    """mu(A ∩ T^{-a_1}A ∩ ... ∩ T^{-a_l}A) with the unshifted A included.

    Exact rational for FiniteSystem, float (endpoint sweep) for TorusRotation.
    """
    shifts = tuple(int(a) for a in shifts)
    if isinstance(system, FiniteSystem):
        return Fraction(_integral(system, _observable_table(system, A, None), shifts),
                        system.total)
    if isinstance(system, TorusRotation):
        if A is not None:
            system = TorusRotation(system.alpha, tuple(A))
        arc_sets = [list(system.arcs)] + [system.shifted_arcs(a) for a in shifts]
        points = sorted({p for arcs in arc_sets for ab in arcs for p in ab} | {0.0, 1.0})
        total = 0.0
        for lo, hi in zip(points, points[1:]):
            mid = (lo + hi) / 2
            if all(_arcs_contain(arcs, mid) for arcs in arc_sets):
                total += hi - lo
        return total
    raise InputError(f"unsupported system {type(system).__name__}")


@dataclass(frozen=True)
class PolynomialFamily:
    """Integer-coefficient polynomials p_i with p_i(0) = 0 enforced."""

    coeffs: tuple                 # tuple of ascending-coefficient tuples

    def __post_init__(self):
        polys = tuple(tuple(int(c) for c in p) for p in self.coeffs)
        if not polys:
            raise InputError("need at least one polynomial")
        for p in polys:
            if not p or p[0] != 0:
                raise InputError(f"polynomial {p} must have zero constant term")
        object.__setattr__(self, "coeffs", polys)

    def __len__(self):
        return len(self.coeffs)

    def evaluate(self, n: int) -> tuple:
        out = []
        for p in self.coeffs:
            acc = 0
            for c in reversed(p):
                acc = acc * n + c
            out.append(acc)
        return tuple(out)

    def describe(self) -> list:
        names = []
        for p in self.coeffs:
            terms = []
            for k, c in enumerate(p):
                if c == 0:
                    continue
                base = "n" if k == 1 else f"n^{k}"
                terms.append(base if c == 1 else f"{c}{base}" if k else str(c))
            names.append(" + ".join(terms) if terms else "0")
        return names


@dataclass
class RecurrenceReport:
    running: list                  # (J, average) pairs on a geometric J-grid
    limit_estimate: float
    positivity: str                # positive_evidence | zero_exact | below_floor
    floor: float
    exact_zero: bool
    truncated: bool
    oscillation: float | None = None
    inputs: dict = field(default_factory=dict)
    certificate: dict | None = None

    def to_csv(self) -> str:
        lines = ["J,average"]
        lines += [f"{j},{v:.12g}" for j, v in self.running]
        return "\n".join(lines) + "\n"


def _prefix(E, J_max: int):
    """The first J = min(J_max, |E|) terms of the index sequence E (a level
    set or an array), |E|, and whether E ran out before J_max."""
    mem = np.asarray(E.members if hasattr(E, "members") else E, dtype=np.int64)
    if len(mem) == 0:
        raise InputError("empty index sequence")
    if J_max < 1:
        raise InputError(f"J_max must be >= 1, got {J_max}")
    return mem[:J_max], len(mem), len(mem) < J_max


# point shifts one integrand table may take over a period of its system
_TABLE_BUDGET = 10 ** 7


def _check_table(system: FiniteSystem, points: int, polys: PolynomialFamily) -> None:
    """Refuse a table over the period L of the system that shifts `points`
    points by each polynomial, and once unshifted, at every residue."""
    work = system.period * points * (len(polys) + 1)
    if work > _TABLE_BUDGET:
        raise ResourceError(f"an integrand table over the period {system.period} needs "
                            f"{work} point shifts, above the budget of {_TABLE_BUDGET}")


def _integral(system: FiniteSystem, w: dict, shifts) -> int | float:
    """The sum over the support of w of w(x) * prod_i w(x + a_i), the shifts
    a_i taken componentwise mod each factor: the integral of w times
    T^{a_1}w ... T^{a_l}w against the counting measure.  w maps the points of
    its support to their weights and is 0 elsewhere."""
    total = 0
    for x, v in w.items():
        for a in shifts:
            v *= w.get(tuple((c + a) % m for c, m in zip(x, system.sizes)), 0)
            if not v:
                break
        total += v
    return total


def _integrand_table(system: FiniteSystem, A, polys: PolynomialFamily, observable=None):
    """The integrand at each residue rho mod the period L of the system (it
    depends only on n mod L for integer polynomials), for the indicator of A
    or the observable."""
    if observable is None:
        w = _observable_table(system, A, None)      # one entry per distinct point of A
        _check_table(system, len(w), polys)
    else:
        _check_table(system, system.total, polys)   # the build walks every point
        w = _observable_table(system, A, observable)
    return np.array([_integral(system, w, polys.evaluate(rho)) / system.total
                     for rho in range(system.period)])


def recurrence_average(system, A, polys: PolynomialFamily, E, J_max: int) -> RecurrenceReport:
    """Running averages of mu(A ∩ T^{-p_1(n_j)}A ∩ ...) along the sequence E.

    The report language is deliberately 'evidence': a finite J exhibits
    stabilization, never the limit itself, and a limit below the floor
    10 / J_max is not called positive.
    """
    mem, length, truncated = _prefix(E, J_max)
    J = len(mem)
    floor = 10.0 / J_max
    if isinstance(system, FiniteSystem):
        tf = _integrand_table(system, A, polys)[mem % system.period]
        exact_zero = bool(np.all(tf == 0.0))
    elif isinstance(system, TorusRotation):
        lims = len(polys) * (len(system.arcs) + 1)
        if J * lims > 2_000_000:
            raise ResourceError(
                f"torus harness would sweep {J} x {lims} arc sets; reduce J_max"
            )
        tf = np.array([intersection_measure(system, A, polys.evaluate(int(n)))
                       for n in mem])
        exact_zero = bool(np.all(tf == 0.0))
    else:
        raise InputError(f"unsupported system {type(system).__name__}")
    running = running_means(tf, geometric_grid(1, J))
    limit = running[-1][1]
    if exact_zero:
        verdict = "zero_exact"
    elif limit >= floor:
        verdict = "positive_evidence"
    else:
        verdict = "below_floor"
    return RecurrenceReport(
        running=running, limit_estimate=limit, positivity=verdict, floor=floor,
        exact_zero=exact_zero, truncated=truncated,
        inputs={"system": repr(system), "polys": polys.describe(),
                "J": int(J), "J_max": int(J_max), "sequence_length": int(length)},
    )


def convergence_average(system, A, polys: PolynomialFamily, E, J_max: int,
                        observable=None) -> RecurrenceReport:
    """Running averages of int observable(x) prod_i observable(T^{p_i(n_j)} x) dmu
    along E, the unshifted factor included, with last-decade oscillation as the
    convergence diagnostic.  The observable is the indicator of A when None, else
    a dict from FiniteSystem points to values."""
    mem, _, truncated = _prefix(E, J_max)
    J = len(mem)
    if isinstance(system, TorusRotation):
        if observable is not None:
            raise InputError("torus systems support only the indicator observable")
        rep = recurrence_average(system, A, polys, E, J_max)
        return _with_oscillation(rep)
    if not isinstance(system, FiniteSystem):
        raise InputError(f"unsupported system {type(system).__name__}")
    tf = _integrand_table(system, A, polys, observable)[mem % system.period]
    running = running_means(tf, geometric_grid(1, J))
    rep = RecurrenceReport(
        running=running, limit_estimate=running[-1][1], positivity="n/a",
        floor=0.0, exact_zero=bool(np.all(tf == 0.0)), truncated=truncated,
        inputs={"system": repr(system), "polys": polys.describe(),
                "J": int(J), "J_max": int(J_max)},
    )
    return _with_oscillation(rep)


def _with_oscillation(rep: RecurrenceReport) -> RecurrenceReport:
    tail = [v for j, v in rep.running if j >= rep.running[-1][0] / 10]
    rep.oscillation = float(max(tail) - min(tail)) if len(tail) > 1 else 0.0
    return rep


def _observable_table(system: FiniteSystem, A, observable) -> dict:
    """The weights w of _integral on their support: 1 (an int, so that sums
    stay exact) at each point of A when observable is None, else the
    observable's nonzero values, in the order of system.points()."""
    if observable is None:
        return dict.fromkeys(system.normalize_set(A), 1)
    table = dict(observable)
    out = {}
    for x in system.points():
        key = x if x in table else (x[0] if len(x) == 1 and x[0] in table else x)
        if key not in table:
            raise InputError(f"observable undefined at point {x}")
        out[x] = float(table[key])
    return {x: v for x, v in out.items() if v}
