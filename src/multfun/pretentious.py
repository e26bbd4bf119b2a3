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

from .arith import (check_budget, class_sums, geometric_grid, grid_sums, primes_upto,
                    residue_sums, running_means)
from .characters import character_table, characters_mod
from .errors import InputError
from .mf_core import (
    MultiplicativeFunction,
    builtin,
    eval_at,
    sieve_range,
)

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
EULER_TAIL_TOL = 1e-15       # truncation of the Euler factors' geometric tails
Q_MAX_BOUND = 100            # largest character modulus bound a scan accepts


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
    return max(int(np.searchsorted(grid, max(P // 100, min(100, P)), "right")) - 1, 0)


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


def _symmetric_grid(half_width: float, n: int) -> np.ndarray:
    """n evenly spaced t in [-half_width, half_width] that are their own
    negation in floats: the t > 0 of np.linspace, 0 when n is odd, and the
    negated t > 0 (np.linspace's own t < 0 may differ from them by an ulp)."""
    pos = np.linspace(-half_width, half_width, n)[n // 2 + n % 2 :]
    return np.concatenate([-pos[::-1], np.zeros(n % 2), pos])


def _check_q_max(Q_max: int) -> None:
    if not 1 <= Q_max <= Q_MAX_BOUND:
        raise InputError(f"character modulus bound {Q_max} outside the supported "
                         f"[1, {Q_MAX_BOUND}]")


def _distance_profile(fp, gp, primes, t, f_name, g_name, grid) -> DistanceProfile:
    c = fp * np.conj(gp)
    if t:
        c = c * np.exp(-1j * t * np.log(primes.astype(np.float64)))
    # clamp float dust: terms are nonnegative for |f|, |g| <= 1
    terms = np.maximum((1.0 - c.real) / primes, 0.0)
    partial = grid_sums(terms, np.searchsorted(primes, grid, "right")).tolist()
    prof = DistanceProfile(f_name=f_name, g_name=g_name, t=float(t),
                           P_grid=[int(x) for x in grid], partial=partial)
    prof.trend, prof.increment, prof.mertens_increment = _classify_trend(prof.P_grid, partial)
    return prof


def pretentious_distance(f: MultiplicativeFunction, g: MultiplicativeFunction, P: int,
                         t: float = 0.0) -> DistanceProfile:
    """Partial sums of the squared distance between the multiplicative
    functions f and g (twisted by n^{it}) over a geometric grid of prime
    cutoffs up to P."""
    if not math.isfinite(t):
        raise InputError(f"twist t must be finite, got {t}")
    primes = primes_upto(P)
    fp, gp = f.prime_values(primes), g.prime_values(primes)
    return _distance_profile(fp, gp, primes, t, f.label, g.label, geometric_grid(10, P))


# --------------------------------------------------------------------------
# Mean values

@dataclass
class EulerProductMean:
    P_grid: list[int]
    partials: list[complex]
    value: complex
    oscillation: float
    flagged: bool


def _euler_terms(primes: np.ndarray) -> np.ndarray:
    """The number of terms p^-m f(p^m) kept in each Euler factor: the least
    m >= 1 whose geometric tail, sum_{k > m} p^-k = p^-m / (p - 1), is at
    most EULER_TAIL_TOL, that is, the ceiling of
    log(1 / (EULER_TAIL_TOL (p - 1))) / log p."""
    ratio = np.log(1.0 / (EULER_TAIL_TOL * (primes - 1))) / np.log(primes)
    return np.maximum(1, np.ceil(ratio)).astype(np.int64)


def euler_product_mean(f: MultiplicativeFunction, P: int) -> EulerProductMean:
    """The product over p <= P of (1 - 1/p)(1 + sum_m p^{-m} f(p^m)).

    Inner sums are truncated once the geometric tail drops below EULER_TAIL_TOL.
    The partial-product profile is returned so convergence is inspectable;
    its oscillation, the largest step between consecutive partials over the
    last quarter of the grid points (at least the last two), sets the flag
    when above 0.01.
    """
    primes = primes_upto(P)
    grid = geometric_grid(10, P)
    mmax = _euler_terms(primes)
    # mmax does not increase with p, so the primes with a term p^-m f(p^m) are a prefix
    inner = np.ones(len(primes), dtype=np.complex128)
    pk = np.ones(len(primes))
    for m in range(1, int(mmax[0]) + 1):
        n = int(np.count_nonzero(mmax >= m))
        pk[:n] /= primes[:n]
        inner[:n] += pk[:n] * f.prime_values(primes[:n], m)
    factors = (1.0 - 1.0 / primes) * inner
    ends = np.searchsorted(primes, grid, "right")
    partials = grid_sums(factors, ends, np.cumprod, 1.0).tolist()
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


def halasz_classify(f: MultiplicativeFunction, P: int = 10 ** 6,
                    N: int = 10 ** 6) -> MeanValueReport:
    """Mean-value trichotomy for |f| <= 1.

    case_i: sum (1 - f(p))/p converges and some f(2^k) != -1 (mean given by
    the Euler product); case_iii: a real t with finite twisted distance to
    n^{it} and f(2^k) = -2^{itk} for all k (checked to k = 20); case_iv: the
    twisted distance diverges for every t on the grid of 201 points in
    [-10, 10], refined over 41 points around the best t.  Conflicting
    signals produce 'inconclusive'.

    Both grids are symmetric in floats (the refinement when it is centred
    on 0), and a tie between t and -t reports -t.
    """
    primes = primes_upto(P)
    fp = f.prime_values(primes)
    inv_p = 1.0 / primes
    grid = geometric_grid(10, P)

    # condition (i): complex series sum (1 - f(p))/p converges
    ends = np.searchsorted(primes, grid, "right")
    partials_c = grid_sums((1.0 - fp) * inv_p, ends).tolist()
    lo_i = _two_decades_back(grid)
    series_inc = abs(partials_c[-1] - partials_c[lo_i])
    series_converges = series_inc < PLATEAU_CAP
    dyadic = [eval_at(f, 2 ** k) for k in range(1, 21)]
    exists_k = next((k + 1 for k, v in enumerate(dyadic) if abs(v + 1) > 1e-9), None)

    # Archimedean scan: minimize the windowed twisted-distance score over t.
    # A genuine n^{it} pretender keeps every window increment near zero at
    # the same t; the scored minimum localizes that t.
    t_grid = _symmetric_grid(10.0, 201)
    cvec = fp * inv_p
    scan = _TwistScan(primes, P)
    tail_inc, ratio = (v[:, 0] for v in scan.scan_characters(cvec, t_grid, 1))
    t_star = float(t_grid[int(np.argmin(ratio))])
    min_tail = float(np.min(tail_inc))
    min_ratio = float(np.min(ratio))
    step = float(t_grid[1] - t_grid[0])
    t_fine = t_star + _symmetric_grid(step, 41)     # folded only when t_star == 0
    tail_f, ratio_f = (v[:, 0] for v in scan.scan_characters(cvec, t_fine, 1))
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

    empirical = running_means(sieve_range(f, N).values[1 : N + 1], geometric_grid(10, N))
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
    run of primes.  The tail is the sum of the windows whose lower bound is
    >= bounds[-3] (bounds[0] when there are only two bounds), which covers
    the primes in (bounds[-3], P]; when no window qualifies (P <= 10) it is
    the fallback window of all primes <= P.  This decade cut is not the grid
    rule of _two_decades_back (the last grid point <= P / 100): at P = 10^6
    the tail starts above 10^4 here and above 8449 there.  Moving either cut
    moves reported values beyond the benchmark references' 1e-9, so the two
    stay apart until those references are re-recorded.

    Only Re sum_p c_p conj(chi(p)) p^{-it} is ever read, for every t of a
    grid and every chi mod q <= Q_max (the Halász scans read Q_max = 1, whose
    chi_0 is the constant 1).  With u = c conj(chi(p)) and theta = t log p it
    is E + O, the even part E = sum Re u cos(theta) plus the odd part
    O = sum Im u sin(theta), and at -t it is E - O.  Per chunk of primes, E
    and O are matrix products of the cos and sin rows, times Re c or Im c,
    with the Re conj(chi) and Im conj(chi) rows: no complex exponential is
    taken, and O (with its sin rows) only when c or a character is complex.

    The grid decides the fold.  When t_grid is its own negation in floats,
    only its t >= 0 half is scanned and the t < 0 rows are E - O; then the
    columns of a real c against a real character are bitwise equal at +-t.
    Any other grid is scanned in full.
    """

    _CHUNK_BYTES = 16 << 20     # twist and character rows held at a time

    def __init__(self, primes: np.ndarray, P: int):
        # windows start at 10: the wider the total log-span, the harder it is
        # for a single t to hold p^{it} coherent across every window
        bounds = [min(10, P)]
        while bounds[-1] * 10 < P:
            bounds.append(bounds[-1] * 10)
        bounds.append(P)
        self.primes = primes
        self.logp = np.log(primes.astype(np.float64))
        inv_p = 1.0 / primes
        # (lower bound, primes slice, sum of 1/p, Mertens rate) per window
        self.windows = []
        for lo, hi in zip(bounds, bounds[1:]):
            a, b = np.searchsorted(primes, (lo, hi), side="right")
            if a == b:
                continue
            mert = 2.0 * (math.log(math.log(hi)) - math.log(math.log(max(lo, 2))))
            self.windows.append((lo, slice(a, b), float(inv_p[a:b].sum()), mert))
        if not self.windows:
            b = int(np.searchsorted(primes, P, side="right"))
            mert = 2.0 * max(math.log(math.log(max(P, 3))), 0.1)
            self.windows.append((0, slice(0, b), float(inv_p[:b].sum()), mert))
        # the last two decades, for plateau detection; windows are in
        # increasing order, so the last one qualifies when no other does
        lo2 = bounds[-3] if len(bounds) >= 3 else bounds[0]
        self.tail_lo = min(lo2, self.windows[-1][0])

    def scan_characters(self, c: np.ndarray, t_grid: np.ndarray, Q_max: int):
        """For c = f(p)/p and every character chi mod q <= Q_max, per t: the
        last-two-decade increment of c conj(chi(p)) and its max windowed ratio
        against the Mertens rate.  Returns two len(t) x m arrays, one column
        per character in the characters_mod listing of q = 1, ..., Q_max."""
        # Re conj(chi) and Im conj(chi) per modulus, rows in listing order
        tables = [(tab.real.copy(), -tab.imag)
                  for tab in map(character_table, range(1, Q_max + 1))]
        c_re, c_im = c.real, c.imag
        complex_c = bool(c_im.any())
        complex_chi = any(im.any() for _, im in tables)
        m = sum(len(re) for re, _ in tables)
        n_t = len(t_grid)
        # on a grid that is its own negation the t < 0 rows are read from the
        # scan of the t >= 0 half: its first h rows mirror the last h scanned
        h = n_t // 2 if np.array_equal(-t_grid[::-1], t_grid) else 0
        t_col = t_grid[h:, None]
        n_s = len(t_col)
        # rows per scanned t: cos, then sin when c or a character is complex,
        # and a scratch row for the Im c products when both are; rows per
        # character: Re conj(chi), then Im conj(chi) when some character is complex
        n_twist = 1 + (complex_c or complex_chi) + (complex_c and complex_chi)
        row_bytes = 8 * (n_twist * n_s + (1 + complex_chi) * m)
        longest = max(w[1].stop - w[1].start for w in self.windows)
        K = max(1, min(self._CHUNK_BYTES // row_bytes, longest))
        check_budget(row_bytes * K, f"twist scan over {n_s} of {n_t} t and {m} characters, "
                                    f"{K} primes at a time")
        twist_rows = np.empty((n_twist, n_s * K))
        chi_rows = np.empty((1 + complex_chi, m * K))
        tail_inc, max_ratio = np.zeros((n_t, m)), np.full((n_t, m), -np.inf)
        for lo, window, s_invp, mert in self.windows:
            even, odd = np.zeros((n_s, m)), np.zeros((n_s, m))
            for a in range(window.start, window.stop, K):
                k = min(K, window.stop - a)
                # contiguous n_s x k and m x k views: ufuncs and take write
                # into them unbuffered, and the products run in BLAS
                tw = [r[: n_s * k].reshape(n_s, k) for r in twist_rows]
                ch = [r[: m * k].reshape(m, k) for r in chi_rows]
                ps, re, im = self.primes[a : a + k], c_re[a : a + k], c_im[a : a + k]
                row = 0
                for tab in tables:
                    res = ps % tab[0].shape[1]
                    for part, out in zip(tab, ch):      # Im only with its rows
                        np.take(part, res, axis=1, out=out[row : row + len(part)], mode="clip")
                    row += len(tab[0])
                cos = np.multiply(t_col, self.logp[a : a + k], out=tw[0])
                sin = np.sin(cos, out=tw[1]) if n_twist > 1 else None
                np.cos(cos, out=cos)
                # u = c conj(chi): even += Re u cos, odd += Im u sin, with
                # Re u = Re c Re conj(chi) - Im c Im conj(chi) and
                # Im u = Re c Im conj(chi) + Im c Re conj(chi); the Im c
                # products go through the scratch row tw[-1] (sin itself when
                # every character is real), each used before the next is made
                if complex_c:
                    if complex_chi:
                        even -= np.multiply(cos, im, out=tw[2]) @ ch[1].T
                    odd += np.multiply(sin, im, out=tw[-1]) @ ch[0].T
                if complex_chi:
                    odd += np.multiply(sin, re, out=sin) @ ch[1].T
                even += np.multiply(cos, re, out=cos) @ ch[0].T
            # Re sum u p^{-it} is even + odd at t and even - odd at -t
            inc = np.empty((n_t, m))
            np.add(even, odd, out=inc[h:])
            np.subtract(even[n_s - h :], odd[n_s - h :], out=inc[:h][::-1])
            np.subtract(s_invp, inc, out=inc)
            np.maximum(max_ratio, inc / mert, out=max_ratio)
            if lo >= self.tail_lo:
                tail_inc += inc
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
                      P: int = 10 ** 5) -> AperiodicityReport:
    """Scan all (chi mod q <= Q_max, t on a grid of 41 points in [-10, 10])
    twisted distance profiles.

    A plateauing profile yields periodic_structure(chi, t); if every profile
    diverges the verdict is aperiodic_evidence.  The verdict is heuristic:
    finite truncations cannot certify divergence.  The t grid is symmetric
    in floats, and a tie between t and -t reports -t.
    """
    _check_q_max(Q_max)
    primes = primes_upto(P)
    fp = f.prime_values(primes)
    inv_p = 1.0 / primes
    t_grid = _symmetric_grid(10.0, 41)
    labels = [(q, chi.index) for q in range(1, Q_max + 1) for chi in characters_mod(q)]
    scans = _TwistScan(primes, P).scan_characters(fp * inv_p, t_grid, Q_max)

    # (value, q, index, |t|, t) per character: the least tail increment
    # (plateau candidate) and the least max-window ratio (divergence floor)
    tails, scores = (
        [(float(vals[j, col]), q, index, abs(float(t_grid[j])), float(t_grid[j]))
         for col, ((q, index), j) in enumerate(zip(labels, np.argmin(vals, axis=0)))]
        for vals in scans)
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


def rap_test(f: MultiplicativeFunction, Q_max: int = 60, P: int = 10 ** 6) -> RapReport:
    """Besicovitch rational almost periodicity trichotomy.

    rap_trivial when the seminorm of |f| vanishes (distance of |f| to 1
    diverges); rap_pretends(chi) when some untwisted character profile
    plateaus; not_besicovitch otherwise.
    """
    _check_q_max(Q_max)
    primes = primes_upto(P)
    fp = f.prime_values(primes)
    inv_p = 1.0 / primes
    grid = geometric_grid(10, P)
    absprof = _distance_profile(np.abs(fp).astype(np.complex128),
                                np.ones(len(primes), dtype=np.complex128),
                                primes, 0.0, f"|{f.label}|", "1", grid)
    evidence = {
        "abs_distance_trend": absprof.trend,
        "abs_distance_final": absprof.final,
        "P": int(P),
    }
    if absprof.trend != "plateau":
        return RapReport("rap_trivial", None, True, evidence)
    found = _first_plateau_character(fp * inv_p, primes, grid, Q_max)
    if found is None:
        return RapReport("not_besicovitch", None, True, evidence)
    q, index, inc = found
    evidence["char_increment"] = inc
    return RapReport("rap_pretends", (q, index), True, evidence)
