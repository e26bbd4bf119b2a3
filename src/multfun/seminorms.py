"""Structure and randomness measures for bounded arithmetic sequences.

Value arrays follow the SieveTable convention: values[n] = f(n) for
1 <= n <= N, index 0 unused.

Gowers seminorms use the padded-cyclic convention: f on [N] is embedded
into Z/(2^s N)Z with zero padding and the result is normalized by the same
seminorm of the interval indicator 1_[N].  gowers_direct evaluates the
definitional multi-difference sum by exhaustive summation (grouped, no
transforms) and serves as the oracle for gowers_fast.

gowers_fast works from the support instead.  No difference wraps around in
the padded group, so the sums equal their sums over Z.  The U^2 sum is the
additive energy, (1/m) sum |DFT_m f|^4 for any m >= 2N - 1.  The U^3 sum is
||f||_{U^3}^8 = sum_h ||Delta_h f||_{U^2}^4 (Gowers, GAFA 11 (2001); Tao-Vu,
Additive Combinatorics, ch. 11), where Delta_h f = f(. + h) conj f vanishes
for |h| >= N, lives on an interval of length N - |h|, and Delta_{-h} f is a
conjugated shift of Delta_h f.  So
S3 = E(|f|^2) + 2 sum_{h=1}^{N-1} E(f[h:N] conj f[0:N-h]), each energy at
the least power-of-two length that holds its support.  The normalizing
sums of 1_[N] are closed forms (_interval_raw), and a real f, or a complex
f with vanishing imaginary parts, is transformed with real FFTs.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .arith import class_sums, e, geometric_grid
from .errors import InputError, ResourceError
from .mf_core import MultiplicativeFunction, SieveTable, sieve_range

__all__ = [
    "besicovitch_seminorm",
    "besicovitch_profile",
    "fourier_coefficient",
    "SpectrumPoint",
    "SpectrumScan",
    "spectrum_scan",
    "PeriodicApproximant",
    "periodic_approximant",
    "gowers_direct",
    "gowers_fast",
    "GowersReport",
    "uniformity_profile",
]

_DIRECT_OP_BUDGET = 2 ** 31
_FAST_U3_MAX_NT = 1 << 15
_ROW_BUDGET = 1 << 20           # complex entries per batch of transformed rows


def _as_values(x, N=None):
    if isinstance(x, SieveTable):
        vals = x.values
        n = x.N if N is None else N
    else:
        vals = np.asarray(x)
        n = len(vals) - 1 if N is None else N
    if n < 1:
        raise InputError("empty sequence")
    if len(vals) < n + 1:
        raise InputError(f"need values up to index {n}, got length {len(vals)}")
    return vals, n


# --------------------------------------------------------------------------
# Besicovitch seminorm and Fourier coefficients

def besicovitch_seminorm(values, N: int | None = None) -> float:
    """Finite-N proxy (1/N) sum_{n<=N} |f(n)| of the Besicovitch seminorm."""
    vals, n = _as_values(values, N)
    return float(np.abs(vals[1 : n + 1]).sum() / n)


def besicovitch_profile(values, N: int | None = None, grid=None):
    """(N_j, seminorm at N_j) pairs over a geometric grid, for stabilization checks."""
    vals, n = _as_values(values, N)
    g = np.asarray(grid, dtype=np.int64) if grid is not None else geometric_grid(10, n)
    g = g[(g >= 1) & (g <= n)]
    cs = np.cumsum(np.abs(vals[1 : n + 1]))
    return [(int(m), float(cs[m - 1] / m)) for m in g]


def fourier_coefficient(values, theta, N: int | None = None) -> complex:
    """(1/N) sum_{n<=N} f(n) e(-n theta); theta rational or float."""
    vals, n = _as_values(values, N)
    th = float(theta)
    phase = e(-th * np.arange(1, n + 1))
    return complex((vals[1 : n + 1] * phase).sum() / n)


@dataclass(frozen=True)
class SpectrumPoint:
    theta: Fraction
    magnitude: float
    value: complex


@dataclass
class SpectrumScan:
    N: int
    q_max: int
    threshold: float
    points: list[SpectrumPoint]


def spectrum_scan(values, q_max: int, N: int | None = None,
                  threshold: float | None = None) -> SpectrumScan:
    """Empirical rational spectrum: f-hat(a/q) over all reduced a/q, q <= q_max.

    Points with magnitude above the threshold (default 5 N^{-1/3}) are
    reported; the threshold is part of the result so callers can re-threshold.
    """
    vals, n = _as_values(values, N)
    if threshold is None:
        threshold = 5.0 * n ** (-1.0 / 3.0)
    points = []
    for q in range(1, q_max + 1):
        sums = class_sums(vals[1 : n + 1], q, 1)
        for a in range(q):
            if math.gcd(a, q) != 1:
                continue
            coeff = complex((sums * e(-a * np.arange(q) / q)).sum() / n)
            if abs(coeff) >= threshold:
                points.append(SpectrumPoint(Fraction(a, q), abs(coeff), coeff))
    points.sort(key=lambda pt: (-pt.magnitude, pt.theta))
    return SpectrumScan(N=n, q_max=q_max, threshold=threshold, points=points)


# --------------------------------------------------------------------------
# Best periodic approximant (conditional means per residue class)

@dataclass
class PeriodicApproximant:
    period: int
    values: np.ndarray          # complex, index = residue class mod period
    residual: float             # finite-N mean of |f - P|

    def at(self, n) -> np.ndarray:
        return self.values[np.asarray(n) % self.period]


def periodic_approximant(values, m: int, N: int | None = None) -> PeriodicApproximant:
    """Conditional-mean m-periodic approximant and its L1 residual.

    P(r) is the mean of f over {n <= N : n ≡ r (mod m)}; this minimizes the
    quadratic distance among m-periodic functions, while the reported
    residual is the L1-type seminorm of f - P.
    """
    vals, n = _as_values(values, N)
    if m < 1 or m > n // 10:
        raise InputError(f"period m={m} outside the reliable range [1, N/10] for N={n}")
    res = np.arange(1, n + 1) % m
    counts = np.bincount(res, minlength=m)
    pv = class_sums(vals[1 : n + 1], m, 1)
    pv /= np.maximum(counts, 1)
    residual = float(np.abs(vals[1 : n + 1] - pv[res]).mean())
    return PeriodicApproximant(period=m, values=pv, residual=residual)


# --------------------------------------------------------------------------
# Gowers uniformity seminorms

def _embed(vals, n, s):
    nt = (1 << s) * n
    buf = np.zeros(nt, dtype=np.complex128)
    buf[:n] = vals[1 : n + 1]
    one = np.zeros(nt, dtype=np.complex128)
    one[:n] = 1.0
    return buf, one


def _delta(buf, h):
    return np.roll(buf, -h) * np.conj(buf)


def _S_group(buf, s):
    """The definitional sum over (n, h_1..h_s) of the s-fold multi-difference,
    evaluated by exhaustive grouped summation (base case |sum f|^2).  The last
    difference is taken for a block of shifts at once: row h of the window
    over the doubled buffer is buf shifted by h, and a block holds at most
    _ROW_BUDGET entries."""
    nt = len(buf)
    if s == 1:
        return abs(buf.sum()) ** 2
    if s == 2:
        win = sliding_window_view(np.concatenate([buf, buf[:-1]]), nt)
        cj = buf.conj()
        step = max(1, _ROW_BUDGET // nt)
        return float(sum((np.abs((win[h : h + step] * cj).sum(axis=1)) ** 2).sum()
                         for h in range(0, nt, step)))
    return float(sum(_S_group(_delta(buf, h), s - 1) for h in range(nt)))


def gowers_direct(values, N: int, s: int) -> float:
    """U^s seminorm over [N] via the definitional sum (oracle path)."""
    if s < 1:
        raise InputError(f"degree s must be >= 1, got {s}")
    vals, n = _as_values(values, N)
    nt = (1 << s) * n
    if nt ** s > _DIRECT_OP_BUDGET:
        raise ResourceError(
            f"direct U^{s} at N={n} needs ~{nt ** s:.1e} operations; use gowers_fast"
        )
    buf, one = _embed(vals, n, s)
    sf = _S_group(buf, s)
    s1 = _S_group(one, s)
    return float((sf / s1) ** (1.0 / (1 << s)))


def _energy(x) -> float:
    """Additive energy sum_h |sum_n x(n+h) conj x(n)|^2 of x on an interval.

    Equals (1/m) sum |DFT_m x|^4 in every cyclic group of size
    m >= 2 len(x) - 1, where no difference wraps around; m is the least
    power of two of that size.  A real x is transformed with a real FFT.
    """
    return float(_energies(x[None, :], _pow2(2 * len(x) - 1)).sum())


def _pow2(k: int) -> int:
    return 1 << max(0, k - 1).bit_length()


def _energies(rows, m: int) -> np.ndarray:
    """(1/m) sum_k |DFT_m row|^4 for each row.

    Real rows take the half spectrum of np.fft.rfft: bin k and bin m - k
    have equal modulus, so every bin counts twice except bin 0 and, for
    even m, bin m/2.  At m = 1 the one bin is bin 0 and counts once.
    """
    if np.iscomplexobj(rows):
        F = np.fft.fft(rows, m, axis=1)
        p = F.real ** 2 + F.imag ** 2
        return (p * p).sum(axis=1) / m
    F = np.fft.rfft(rows, m, axis=1)
    p = F.real ** 2 + F.imag ** 2
    p *= p
    w = np.full(F.shape[1], 2.0)
    w[0] = 1.0
    if m % 2 == 0:
        w[-1] = 1.0
    return (p @ w) / m


def _energy_u3(x) -> float:
    """sum_h of the additive energy of Delta_h x, over all h.

    Delta_h x(n) = x(n+h) conj x(n) vanishes unless |h| < L = len(x) and
    then lives on an interval of length L - |h|; Delta_{-h} x is a
    conjugated shift of Delta_h x, with the same energy.  Hence
    E(|x|^2) + 2 sum_{h=1}^{L-1} E(x[h:] conj x[:L-h]), each energy taken
    at the least power-of-two length >= 2(L-h) - 1, with the shifts that
    share a length transformed as one batch.
    """
    L = len(x)
    total = _energy(x.real ** 2 + x.imag ** 2)     # |x|^2, a real row
    lo = L - 1                  # largest difference length still to do
    top = _pow2(2 * lo - 1)
    ext = np.concatenate([x, np.zeros(top, dtype=x.dtype)])
    cj = ext[:top].conj()
    while lo >= 1:
        m = _pow2(2 * lo - 1)
        hi, lo = lo, m // 4     # lengths in (m/4, m/2] share length m
        # row h is ext[h : h + m] conj ext[:m] = Delta_h x, zero past L - h
        win = sliding_window_view(ext, m)
        step = max(1, _ROW_BUDGET // m)
        for h0 in range(L - hi, L - lo, step):
            h1 = min(h0 + step, L - lo)
            total += 2.0 * float(_energies(win[h0:h1] * cj[:m], m).sum())
    return total


def _interval_energy(n: int) -> int:
    """Additive energy of 1_[n]: sum over |h| < n of (n - |h|)^2."""
    return n * (2 * n * n + 1) // 3


def _interval_raw(n: int, s: int) -> float:
    """Unnormalized U^s sum of the interval indicator 1_[n].

    Delta_h 1_[n] is a shift of 1_[n - |h|], so the sums are n^2 (s = 1),
    the energy n(2n^2 + 1)/3 (s = 2) and E(n) + 2 sum_{L<n} E(L) (s = 3),
    exact in integers; higher degrees take the definitional sum.
    """
    if s == 1:
        return float(n * n)
    if s == 2:
        return float(_interval_energy(n))
    if s == 3:
        k = n * (n - 1) // 2    # sum_{L<n} L; sum_{L<n} L^3 = k^2
        return float(_interval_energy(n) + 2 * ((2 * k * k + k) // 3))
    return _gowers_raw(np.ones(n), s)


def _gowers_raw(x, s: int) -> float:
    """Unnormalized U^s sum of x on an interval.

    The same in Z and in the padded group Z/(2^s N)Z, because no
    difference wraps around there; the fast degrees 1..3 use the support
    identities above, higher degrees the definitional sum.  A real x, or a
    complex x whose imaginary parts all vanish, is taken as real, so its
    transforms are real FFTs.
    """
    if s == 1:
        return float(abs(x.sum()) ** 2)
    if np.iscomplexobj(x):
        im = x.imag[x.imag != 0]
        if not len(im):
            x = x.real
        elif im[0] < 0:
            # x and conj x have equal sums; transforming one fixed
            # representative (first nonzero imaginary part positive) makes
            # the computed value exactly conjugation-invariant, which
            # rounding alone does not
            x = x.conj()
    if s == 2:
        return _energy(x)
    if s == 3:
        return _energy_u3(x)
    buf = np.zeros((1 << s) * len(x), dtype=np.complex128)
    buf[: len(x)] = x
    return _S_group(buf, s)


def _check_fast(n: int, s: int) -> None:
    if s not in (1, 2, 3):
        raise InputError(f"gowers_fast supports degrees 1..3, got s={s}")
    if s == 3 and (1 << 3) * n > _FAST_U3_MAX_NT:
        raise ResourceError(
            f"fast U^3 at N={n} uses Ntilde = {(1 << 3) * n}; "
            f"the cap is Ntilde <= {_FAST_U3_MAX_NT}"
        )


def _fast_value(x, raw_one: float, s: int) -> float:
    if s == 1:
        return float(abs(x.sum()) / len(x))
    return float((_gowers_raw(x, s) / raw_one) ** (1.0 / (1 << s)))


def gowers_fast(values, N: int, s: int) -> float:
    """U^s seminorm over [N]: closed form (s=1), additive energy (s=2),
    energies of the differences Delta_h f over |h| < N (s=3).

    The padded-cyclic sums equal their sums over Z, so each energy is
    taken at the least power-of-two length that holds its support, and
    ||f||_{U^3}^8 = sum_h ||Delta_h f||_{U^2}^4 (Gowers, GAFA 11 (2001);
    Tao-Vu, Additive Combinatorics, ch. 11) runs over |h| < N only.  The
    same sums of 1_[N] normalize the value in closed form.
    """
    vals, n = _as_values(values, N)
    _check_fast(n, s)
    return _fast_value(vals[1 : n + 1], _interval_raw(n, s), s)


@dataclass
class GowersEntry:
    N: int
    Ntilde: int
    value: float
    method: str
    normalizer: float


@dataclass
class GowersReport:
    s: int
    source: str
    entries: list[GowersEntry] = field(default_factory=list)
    besicovitch_pairs: list[tuple[int, float, float]] = field(default_factory=list)
    bound_violations: list[int] = field(default_factory=list)
    monotone_decreasing: bool = False

    def to_dict(self) -> dict:
        return {
            "s": self.s,
            "source": self.source,
            "entries": [
                {"N": en.N, "Ntilde": en.Ntilde, "value": en.value,
                 "method": en.method, "normalizer": en.normalizer}
                for en in self.entries
            ],
            "besicovitch_pairs": [
                {"N": n, "norm_power": a, "abs_mean": b}
                for n, a, b in self.besicovitch_pairs
            ],
            "bound_violations": self.bound_violations,
            "monotone_decreasing": self.monotone_decreasing,
        }

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write("N,Ntilde,s,method,value\n")
        for en in self.entries:
            out.write(f"{en.N},{en.Ntilde},{self.s},{en.method},{en.value:.12g}\n")
        return out.getvalue()


def uniformity_profile(f: MultiplicativeFunction, s: int, n_grid,
                       method: str = "fast") -> GowersReport:
    """U^s values of f over an ascending N-grid, with decay diagnostics.

    Each entry also records the pair (norm^{2^{s+1}}, (1/N) sum |f|), i.e.
    both sides of the uniform-limit bound; grid points violating the bound
    (with 1e-9 slack) are flagged.
    """
    grid = sorted(int(x) for x in n_grid)
    if not grid:
        raise InputError("empty N grid")
    if grid != sorted(set(grid)):
        raise InputError("N grid must be strictly ascending")
    if method == "fast":
        _check_fast(grid[-1], s)
    table = sieve_range(f, grid[-1])
    report = GowersReport(s=s, source=f.label)
    for n in grid:
        nt = (1 << s) * n
        if method == "fast":
            raw_one = _interval_raw(n, s)
            value = _fast_value(table.values[1 : n + 1], raw_one, s)
        else:
            # gowers_direct checks s and the operation budget first; only
            # then may the normalizer take the definitional sum (s >= 4)
            value = gowers_direct(table.values, n, s)
            raw_one = _interval_raw(n, s)
        report.entries.append(
            GowersEntry(N=n, Ntilde=nt, value=value, method=method,
                        normalizer=float((raw_one / nt ** (s + 1)) ** (1.0 / (1 << s))))
        )
        abs_mean = float(np.abs(table.values[1 : n + 1]).mean())
        lhs = value ** (2 ** (s + 1))
        report.besicovitch_pairs.append((n, lhs, abs_mean))
        if lhs > abs_mean + 1e-9:
            report.bound_violations.append(n)
    vals = [en.value for en in report.entries]
    report.monotone_decreasing = all(b < a for a, b in zip(vals, vals[1:]))
    return report
