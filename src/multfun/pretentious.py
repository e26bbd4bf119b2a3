"""Pretentious distance, mean values, Halász trichotomy, aperiodicity, RAP tests.

The distance between f and g is the square root of
sum over primes p of (1 - Re f(p) conj(g(p))) / p, optionally with the
Archimedean twist g(p) -> g(p) p^{it}.  All verdicts based on finite prime
cutoffs are heuristic: a finite truncation cannot certify divergence, so
profile slopes are classified against the Mertens rate with documented
engineering thresholds and every report carries the thresholds it used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .arith import check_budget, class_sums, geometric_grid, primes_upto, residue_sums
from .characters import DirichletCharacter, character_table, characters_mod
from .errors import InputError
from .mf_core import (
    MultiplicativeFunction,
    builtin,
    eval_at,
    prime_power_value,
    sieve_range,
)
from .seminorms import besicovitch_profile

__all__ = [
    "DistanceProfile",
    "pretentious_distance",
    "EulerProductMean",
    "euler_product_mean",
    "ApMeanReport",
    "ap_mean",
    "MeanValueReport",
    "halasz_classify",
    "AperiodicityReport",
    "aperiodicity_test",
    "RapReport",
    "rap_test",
    "unit_function",
]

PLATEAU_CAP = 0.05           # max D^2 growth over the last two grid decades
MERTENS_BAND = (0.4, 2.0)    # accepted multiples of the 2*ln(ln P) increment
APERIODIC_MIN_RATIO = 0.3    # min, over (chi, t), of the max windowed ratio


def unit_function() -> MultiplicativeFunction:
    """The constant function 1 (lambda_xi with phase 0)."""
    return builtin("lambda_xi", {"xi": 0})


@dataclass
class DistanceProfile:
    f_name: str
    g_name: str
    t: float
    P_grid: list[int]
    partial: list[float]        # D^2(f, g p^{it}; P_j), nondecreasing
    trend: str = ""             # plateau | mertens_divergence | indeterminate
    increment: float = 0.0      # growth over the last two grid decades
    mertens_increment: float = 0.0

    @property
    def final(self) -> float:
        return self.partial[-1]

    def to_csv(self) -> str:
        lines = ["P,partial_sum"]
        lines += [f"{p},{v:.12g}" for p, v in zip(self.P_grid, self.partial)]
        return "\n".join(lines) + "\n"


def _classify_trend(P_grid, partial):
    """Plateau / Mertens-rate divergence / indeterminate, from the profile tail."""
    P = P_grid[-1]
    i_lo = _two_decades_back(P_grid)
    inc = partial[-1] - partial[i_lo]
    lo = max(P_grid[i_lo], 2)
    mertens = 2.0 * (math.log(math.log(P)) - math.log(math.log(lo))) if P > lo else 0.0
    if inc < PLATEAU_CAP:
        return "plateau", inc, mertens
    if mertens > 0 and MERTENS_BAND[0] * mertens <= inc <= MERTENS_BAND[1] * mertens:
        return "mertens_divergence", inc, mertens
    return "indeterminate", inc, mertens


def _two_decades_back(grid) -> int:
    """Index of the last grid point <= max(P // 100, min(100, P)), P = grid[-1]
    (0 when there is none): where the last-two-decades tail starts."""
    P = grid[-1]
    target = max(P // 100, min(100, P))
    i_lo = 0
    for i, p in enumerate(grid):
        if p <= target:
            i_lo = i
    return i_lo


def _partials_at_grid(terms: np.ndarray, primes: np.ndarray, grid: np.ndarray,
                      running=np.cumsum, empty=0.0) -> np.ndarray:
    """running(terms) over the primes <= each grid point; empty before the first."""
    idx = np.searchsorted(primes, grid, side="right")
    return np.concatenate(([empty], running(terms)))[idx]


def _first_plateau_character(terms: np.ndarray, primes: np.ndarray, grid: np.ndarray,
                             Q_max: int):
    """First (q, index, increment), q = 1..Q_max and then the character listing,
    whose untwisted increment sum 1/p - Re sum terms(p) conj chi(p) over the
    primes above grid[_two_decades_back(grid)] is below PLATEAU_CAP; None if
    there is none.  terms(p) = f(p)/p."""
    hi = primes > grid[_two_decades_back(grid)]
    p_hi, c_hi = primes[hi], terms[hi]
    sum_invp_hi = float((1.0 / p_hi).sum())
    for q in range(1, Q_max + 1):
        inc = sum_invp_hi - (character_table(q).conj() @ residue_sums(c_hi, p_hi % q, q)).real
        below = np.flatnonzero(inc < PLATEAU_CAP)
        if len(below):
            return q, int(below[0]), float(inc[below[0]])
    return None


def _distance_profile(fp, gp, primes, P, t, f_name, g_name, grid=None) -> DistanceProfile:
    g = grid if grid is not None else geometric_grid(10, P)
    c = fp * np.conj(gp)
    if t:
        c = c * np.exp(-1j * t * np.log(primes.astype(np.float64)))
    # clamp float dust: terms are nonnegative for |f|, |g| <= 1
    terms = np.maximum((1.0 - c.real) / primes, 0.0)
    partial = _partials_at_grid(terms, primes, g).tolist()
    prof = DistanceProfile(f_name=f_name, g_name=g_name, t=float(t),
                           P_grid=[int(x) for x in g], partial=partial)
    prof.trend, prof.increment, prof.mertens_increment = _classify_trend(prof.P_grid, partial)
    return prof


def pretentious_distance(f: MultiplicativeFunction, g, P: int,
                         t: float = 0.0) -> DistanceProfile:
    """Partial sums of the squared distance between f and g (twisted by n^{it})
    over a geometric grid of prime cutoffs up to P."""
    if P < 2:
        raise InputError(f"prime cutoff must be >= 2, got {P}")
    primes = primes_upto(P)
    fp = f.prime_values(primes)
    if isinstance(g, DirichletCharacter):
        gp, g_name = g.values_at(primes), g.label
    else:
        gp, g_name = g.prime_values(primes), g.label
    return _distance_profile(fp, gp, primes, P, t, f.label, g_name)


# --------------------------------------------------------------------------
# Mean values

@dataclass
class EulerProductMean:
    P_grid: list[int]
    partials: list[complex]
    value: complex
    oscillation: float
    flagged: bool


def euler_product_mean(f: MultiplicativeFunction, P: int,
                       tail_tol: float = 1e-15) -> EulerProductMean:
    """The product over p <= P of (1 - 1/p)(1 + sum_m p^{-m} f(p^m)).

    Inner sums are truncated once the geometric tail drops below tail_tol.
    The partial-product profile is returned so convergence is inspectable;
    oscillation of the last decade above 0.01 sets the flag.
    """
    if P < 2:
        raise InputError(f"prime cutoff must be >= 2, got {P}")
    primes = primes_upto(P)
    grid = geometric_grid(10, P)
    factors = np.ones(len(primes), dtype=np.complex128)
    for i, p in enumerate(primes.tolist()):
        mmax = max(1, math.ceil(math.log(1.0 / (tail_tol * (p - 1)), p)))
        inner = 1.0 + 0j
        pk = 1.0
        for m in range(1, mmax + 1):
            pk /= p
            inner += pk * prime_power_value(f, p, m)
        factors[i] = (1.0 - 1.0 / p) * inner
    partials = _partials_at_grid(factors, primes, grid, np.cumprod, 1.0).tolist()
    value = partials[-1]
    lo = max(len(partials) - max(2, len(partials) // 4), 0)
    tailvals = partials[lo:]
    osc = max(abs(a - b) for a, b in zip(tailvals, tailvals[1:])) if len(tailvals) > 1 else 0.0
    return EulerProductMean(P_grid=[int(x) for x in grid], partials=partials,
                            value=value, oscillation=float(osc), flagged=osc > 0.01)


@dataclass
class ApMeanReport:
    q: int
    r: int
    N: int
    M: int                      # number of progression terms averaged
    direct: complex
    decomposition: complex | None

    @property
    def agreement(self) -> float | None:
        if self.decomposition is None:
            return None
        return abs(self.direct - self.decomposition)


def ap_mean(f: MultiplicativeFunction, q: int, r: int, N: int,
            table=None) -> ApMeanReport:
    """Mean of f along the progression qn + r, n = 1..M, M = floor((N-r)/q).

    The direct mean sums the strided view vals[q + r :: q].  For
    gcd(q, r) = 1 the same mean is recomputed through the character
    decomposition of the progression indicator over the window
    r + 1 .. qM + r, whose q residue classes are q strided slices of M
    terms each.  numpy sums every slice pairwise, the class of r is the
    direct slice itself, so the two values agree to floating-point accuracy.
    """
    if q < 1 or N < q:
        raise InputError(f"need N >= q >= 1, got q={q}, N={N}")
    if not 0 <= r < q:
        raise InputError(f"residue r={r} outside [0, {q})")
    if table is None or table.N < N:
        table = sieve_range(f, N)
    vals = table.values
    M = (N - r) // q
    if M < 1:
        raise InputError(f"no progression terms: q={q}, r={r}, N={N}")
    direct = complex(vals[q + r : q * M + r + 1 : q].sum() / M)
    decomposition = None
    if math.gcd(q, r) == 1:
        chars = character_table(q)
        sums = chars @ class_sums(vals[r + 1 : q * M + r + 1], q, r + 1)
        decomposition = complex(chars[:, r].conj() @ sums / (len(chars) * M))
    return ApMeanReport(q=q, r=r, N=N, M=M, direct=direct, decomposition=decomposition)


# --------------------------------------------------------------------------
# Halász classification

@dataclass
class MeanValueReport:
    f_name: str
    empirical: list[tuple[int, complex]]
    euler: list[tuple[int, complex]]
    halasz_case: str            # case_i | case_iii | case_iv | inconclusive
    evidence: dict = field(default_factory=dict)


def _dyadic_values(f, kmax=20):
    return [eval_at(f, 2 ** k) for k in range(1, kmax + 1)]


def halasz_classify(f: MultiplicativeFunction, P: int = 10 ** 6,
                    t_grid=None, N: int = 10 ** 6) -> MeanValueReport:
    """Mean-value trichotomy for |f| <= 1.

    case_i: sum (1 - f(p))/p converges and some f(2^k) != -1 (mean given by
    the Euler product); case_iii: a real t with finite twisted distance to
    n^{it} and f(2^k) = -2^{itk} for all k (checked to k = 20); case_iv: the
    twisted distance diverges for every t on the grid.  Conflicting signals
    produce 'inconclusive'.
    """
    primes = primes_upto(P)
    fp = f.prime_values(primes)
    inv_p = 1.0 / primes
    grid = geometric_grid(10, P)

    # condition (i): complex series sum (1 - f(p))/p converges
    partials_c = _partials_at_grid((1.0 - fp) * inv_p, primes, grid).tolist()
    lo_i = _two_decades_back(grid)
    series_inc = abs(partials_c[-1] - partials_c[lo_i])
    series_converges = series_inc < PLATEAU_CAP
    dyadic = _dyadic_values(f)
    exists_k = next((k + 1 for k, v in enumerate(dyadic) if abs(v + 1) > 1e-9), None)

    # Archimedean scan: minimize the windowed twisted-distance score over t.
    # A genuine n^{it} pretender keeps every window increment near zero at
    # the same t; the scored minimum localizes that t.
    if t_grid is None:
        t_grid = np.linspace(-10.0, 10.0, 201)
    t_grid = np.asarray(t_grid, dtype=float)
    cvec = fp * inv_p
    scan = _TwistScan(primes, t_grid, P)
    tail_inc, ratio = scan.scan(cvec)
    t_star = float(t_grid[int(np.argmin(ratio))])
    min_tail = float(np.min(tail_inc))
    min_ratio = float(np.min(ratio))
    if len(t_grid) > 1:
        step = float(t_grid[1] - t_grid[0])
        t_fine = np.linspace(t_star - step, t_star + step, 41)
        scan_f = _TwistScan(primes, t_fine, P)
        tail_f, ratio_f = scan_f.scan(cvec)
        if float(np.min(ratio_f)) < min_ratio:
            t_star = float(t_fine[int(np.argmin(ratio_f))])
            min_ratio = float(np.min(ratio_f))
        min_tail = min(min_tail, float(np.min(tail_f)))
    pretender_candidate = min_ratio < 0.1
    dyadic_ok = all(
        abs(dyadic[k - 1] + (2.0 ** k) ** (1j * t_star)) <= 1e-6 for k in range(1, 21)
    )

    if series_converges and exists_k is not None:
        case = "case_i"
    elif pretender_candidate and dyadic_ok:
        case = "case_iii"
    elif min_ratio >= APERIODIC_MIN_RATIO:
        case = "case_iv"
    else:
        case = "inconclusive"

    table = sieve_range(f, N)
    ngrid = geometric_grid(10, N)
    cumv = np.cumsum(table.values[1 : N + 1])
    empirical = [(int(m), complex(cumv[m - 1] / m)) for m in ngrid]
    ep = euler_product_mean(f, P)
    euler_pairs = list(zip(ep.P_grid, ep.partials))
    evidence = {
        "series_increment": series_inc,
        "series_converges": series_converges,
        "exists_k_with_f2k_not_minus1": exists_k,
        "dyadic_values": [complex(v) for v in dyadic[:8]],
        "t_star": t_star,
        "min_twisted_tail_increment": min_tail,
        "min_max_window_ratio": min_ratio,
        "case_iii_dyadic_ok": dyadic_ok,
        "plateau_cap": PLATEAU_CAP,
        "aperiodic_min_ratio": APERIODIC_MIN_RATIO,
    }
    return MeanValueReport(f_name=f.label, empirical=empirical, euler=euler_pairs,
                           halasz_case=case, evidence=evidence)


class _TwistScan:
    """Windowed twisted-correlation machinery shared by the (chi, t) scans.

    A single short window is not trustworthy: over any couple of decades a
    fixed unimodular prime value matches p^{it} coherently for a tuned t
    (the ln zeta(1 + it) effect).  A genuine pretender must stay correlated
    in every decade window with the same t, so divergence is scored by the
    maximum over windows of the increment relative to the Mertens rate,
    while plateaus keep using the last-two-decades tail.

    Each window (lo, hi] that holds a prime keeps its lower bound and its
    matrix of p^{-it}, so every exponential is computed once.  The tail is
    the sum of the windows whose lower bound is >= bounds[-3] (bounds[0]
    when there are only two bounds), which covers the primes in
    (bounds[-3], P]; when no window qualifies (P <= 10) it is the fallback
    window of all primes <= P.
    """

    def __init__(self, primes: np.ndarray, t_grid: np.ndarray, P: int):
        # the window matrices, each exponentiated in place
        check_budget(16 * len(t_grid) * len(primes),
                     f"twist scan over {len(t_grid)} t and {len(primes)} primes")
        # windows start at 10: the wider the total log-span, the harder it is
        # for a single t to hold p^{it} coherent across every window
        bounds = [min(10, P)]
        while bounds[-1] * 10 < P:
            bounds.append(bounds[-1] * 10)
        bounds.append(P)
        self.windows = []
        logp = np.log(primes.astype(np.float64))
        inv_p = 1.0 / primes
        for lo, hi in zip(bounds, bounds[1:]):
            mask = (primes > lo) & (primes <= hi)
            if not mask.any():
                continue
            Z = np.outer(-1j * t_grid, logp[mask])
            np.exp(Z, out=Z)
            mert = 2.0 * (math.log(math.log(hi)) - math.log(math.log(max(lo, 2))))
            self.windows.append((lo, mask, Z, float(inv_p[mask].sum()), mert))
        if not self.windows:
            mask = primes <= P
            Z = np.outer(-1j * t_grid, logp[mask])
            np.exp(Z, out=Z)
            mert = 2.0 * max(math.log(math.log(max(P, 3))), 0.1)
            self.windows.append((0, mask, Z, float(inv_p[mask].sum()), mert))
        # the last two decades, for plateau detection; windows are in
        # increasing order, so the last one qualifies when no other does
        lo2 = bounds[-3] if len(bounds) >= 3 else bounds[0]
        self.tail_lo = min(lo2, self.windows[-1][0])

    def scan(self, cvec: np.ndarray):
        """cvec = f(p) conj(chi(p)) / p.  Returns, per t: the last-two-decade
        increment and the max windowed ratio against the Mertens rate."""
        tail_inc = max_ratio = None
        for lo, mask, Z, s_invp, mert in self.windows:
            inc = s_invp - (Z @ cvec[mask]).real
            ratio = inc / mert if mert > 0 else inc * 0
            max_ratio = ratio if max_ratio is None else np.maximum(max_ratio, ratio)
            if lo >= self.tail_lo:
                tail_inc = inc if tail_inc is None else tail_inc + inc
        return tail_inc, max_ratio


# --------------------------------------------------------------------------
# Aperiodicity and Besicovitch rational almost periodicity

@dataclass
class AperiodicityReport:
    verdict: str                 # aperiodic_evidence | periodic_structure | inconclusive
    chi: tuple[int, int] | None  # (modulus, index) of the detected character
    t: float | None
    heuristic: bool
    evidence: dict = field(default_factory=dict)


def aperiodicity_test(f: MultiplicativeFunction, Q_max: int = 60,
                      t_grid=None, P: int = 10 ** 5,
                      ap_check_N: int | None = None) -> AperiodicityReport:
    """Scan all (chi mod q <= Q_max, t in grid) twisted distance profiles.

    A plateauing profile yields periodic_structure(chi, t); if every profile
    diverges the verdict is aperiodic_evidence.  The verdict is heuristic:
    finite truncations cannot certify divergence.  Optionally cross-validates
    with direct progression means at N = ap_check_N for q <= 10.
    """
    if Q_max > 100:
        raise InputError(f"character modulus bound {Q_max} above the supported 100")
    primes = primes_upto(P)
    fp = f.prime_values(primes)
    inv_p = 1.0 / primes
    if t_grid is None:
        t_grid = np.linspace(-10.0, 10.0, 41)
    t_grid = np.asarray(t_grid, dtype=float)
    scan = _TwistScan(primes, t_grid, P)

    # (value, q, index, |t|, t) per character: the least tail increment
    # (plateau candidate) and the least max-window ratio (divergence floor)
    tails, scores = [], []
    for q in range(1, Q_max + 1):
        res = primes % q
        for chi in characters_mod(q):
            cvec = fp * np.conj(chi.table[res]) * inv_p
            for best, vals in zip((tails, scores), scan.scan(cvec)):
                j = int(np.argmin(vals))
                best.append((float(vals[j]), q, chi.index,
                             abs(float(t_grid[j])), float(t_grid[j])))
    min_tail, q_b, idx_b, _, t_b = min(tails)
    min_score = min(scores)[0]
    evidence = {
        "min_tail_increment": min_tail,
        "min_max_window_ratio": min_score,
        "plateau_cap": PLATEAU_CAP,
        "aperiodic_min_ratio": APERIODIC_MIN_RATIO,
        "best_chi": (q_b, idx_b),
        "best_t": t_b,
        "P": int(P),
    }
    if ap_check_N:
        table = sieve_range(f, ap_check_N)
        means = {}
        for q in range(1, 11):
            for r in range(q):
                rep = ap_mean(f, q, r, ap_check_N, table=table)
                means[f"{q},{r}"] = complex(rep.direct)
        evidence["ap_means_max_abs"] = max(abs(v) for v in means.values())
        evidence["ap_means"] = means
    if min_tail < PLATEAU_CAP:
        return AperiodicityReport("periodic_structure", (q_b, idx_b), t_b, True, evidence)
    if min_score >= APERIODIC_MIN_RATIO:
        return AperiodicityReport("aperiodic_evidence", None, None, True, evidence)
    return AperiodicityReport("inconclusive", (q_b, idx_b), t_b, True, evidence)


@dataclass
class RapReport:
    verdict: str                 # rap_trivial | rap_pretends | not_besicovitch
    chi: tuple[int, int] | None
    heuristic: bool
    evidence: dict = field(default_factory=dict)


def rap_test(f: MultiplicativeFunction, Q_max: int = 60, P: int = 10 ** 6,
             N: int | None = None) -> RapReport:
    """Besicovitch rational almost periodicity trichotomy.

    rap_trivial when the seminorm of |f| vanishes (distance of |f| to 1
    diverges); rap_pretends(chi) when some untwisted character profile
    plateaus; not_besicovitch otherwise.
    """
    primes = primes_upto(P)
    fp = f.prime_values(primes)
    inv_p = 1.0 / primes
    grid = geometric_grid(10, P)
    absprof = _distance_profile(np.abs(fp).astype(np.complex128),
                                np.ones(len(primes), dtype=np.complex128),
                                primes, P, 0.0, f"|{f.label}|", "1", grid=grid)
    evidence = {
        "abs_distance_trend": absprof.trend,
        "abs_distance_final": absprof.final,
        "P": int(P),
    }
    if N is not None:
        table = sieve_range(f, N)
        prof = besicovitch_profile(table.values, table.N)
        evidence["besicovitch_profile_tail"] = prof[-3:]
    if absprof.trend != "plateau":
        return RapReport("rap_trivial", None, True, evidence)
    found = _first_plateau_character(fp * inv_p, primes, grid, Q_max)
    if found is None:
        return RapReport("not_besicovitch", None, True, evidence)
    q, index, inc = found
    evidence["char_increment"] = inc
    return RapReport("rap_pretends", (q, index), True, evidence)
