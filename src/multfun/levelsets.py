"""Level sets E(f, z) and the structure pipeline built on them.

Extraction is integer-exact whenever the function carries exact codes
(rational-phase catalog entries, characters, the squarefree indicator and
phi(n)/n); the float path, which zero-repaired functions take, must be asked
for explicitly with a tolerance.  On top of level sets: progression density
profiles, Ruzsa concentration analysis, zero repair, the
smallest-power/character search, structure pairs (level set, rational
superset, relative-uniformity scores), divisibility reports with symbolic
residue obstructions, squarefree multiplicative closures of prime sets, and
seeded random relative subsets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from .arith import (
    MINUS_ONE,
    ONE,
    ZERO,
    RootOfUnity,
    Zero,
    check_budget,
    geometric_grid,
    get_context,
    grid_sums,
    large_prime_multiples,
    primes_upto,
    snap_root_of_unity,
)
from .characters import DirichletCharacter, characters_mod, principal_character
from .errors import InputError, SearchError
from .mf_core import (
    _KINDS,
    MultiplicativeFunction,
    SieveTable,
    make_repaired,
    members_of,
    sieve_range,
    zero_free,
)
from .pretentious import (
    DistanceProfile,
    RapReport,
    _check_q_max,
    _classify_trend,
    _distance_profile,
    _first_plateau_character,
    rap_test,
)
from .seminorms import gowers_fast

__all__ = [
    "LevelSet",
    "level_set",
    "DensityProfile",
    "density_profile",
    "ConcentrationAnalysis",
    "concentration_analysis",
    "zero_repair",
    "FindKResult",
    "find_k_and_character",
    "StructurePair",
    "structure_pair",
    "DivisibilityReport",
    "divisibility_report",
    "sp_set",
    "random_relative_subset",
    "normalize_target",
]

GOLDEN_FRAC = (math.sqrt(5.0) - 1.0) / 2.0
# the largest power k of g in a structure pair: the bound of the (k, chi)
# search, and of the group of a concentration analysis
K_MAX_BOUND = 64
# Python bytes per density cell or divisibility row (a tuple, its ints and
# its slot in the container), charged to the memory cap
_ROW_BYTES = 200
_TEXT_BLOCK = 1 << 14      # members formatted per write of LevelSet.to_text
_POWERS_OF_TEN = 10 ** np.arange(1, 19, dtype=np.int64)   # the least of each width > 1


def normalize_target(z):
    """Coerce a level target into RootOfUnity / Zero / Fraction / complex."""
    if isinstance(z, (RootOfUnity, Zero, Fraction)):
        return z
    if isinstance(z, (int, np.integer)):
        if z == 0:
            return ZERO
        if z == 1:
            return ONE
        if z == -1:
            return MINUS_ONE
        raise InputError(f"integer target {z} is outside the unit disc")
    if isinstance(z, (float, complex, np.floating, np.complexfloating)):
        return complex(z)
    raise InputError(f"cannot interpret level target {z!r}")


@dataclass(eq=False)
class LevelSet:
    source: str
    z: object
    N: int
    members: np.ndarray          # sorted int64 indices <= N
    exact: bool
    tol: float | None = None
    function: MultiplicativeFunction | None = None

    @property
    def count(self) -> int:
        return int(len(self.members))

    @property
    def density(self) -> float:
        return self.count / self.N

    def indicator(self) -> np.ndarray:
        ind = np.zeros(self.N + 1, dtype=bool)
        ind[self.members] = True
        return ind

    def to_text(self, path) -> None:
        """One member per line (a lone newline for the empty set), written
        _TEXT_BLOCK members at a time, so no string of the whole file is built."""
        with open(path, "wb") as out:
            if not self.count:
                out.write(b"\n")
            for lo in range(0, self.count, _TEXT_BLOCK):
                out.write(_decimal_lines(self.members[lo : lo + _TEXT_BLOCK]))

    def to_bitmap(self, path) -> None:
        """Length-N bitmap, one bit per integer, little-endian bit order."""
        bits = self.indicator()[1:]
        Path(path).write_bytes(np.packbits(bits, bitorder="little").tobytes())

    def __repr__(self):
        return (f"LevelSet({self.source}, z={self.z!r}, N={self.N}, "
                f"count={self.count})")


def _decimal_lines(members: np.ndarray) -> np.ndarray:
    """The ASCII lines of sorted nonnegative integers, one per line.  Sorted
    members of one decimal width w are one contiguous run, which fills a
    (run, w + 1) block of bytes: w digit columns, last digit first, and a
    newline column."""
    bounds = [0, *np.searchsorted(members, _POWERS_OF_TEN).tolist(), len(members)]
    runs = [(w, lo, hi) for w, (lo, hi) in enumerate(zip(bounds, bounds[1:]), 1) if hi > lo]
    buf = np.empty(sum((w + 1) * (hi - lo) for w, lo, hi in runs), dtype=np.uint8)
    at = 0
    for w, lo, hi in runs:
        lines = buf[at : at + (w + 1) * (hi - lo)].reshape(hi - lo, w + 1)
        at += lines.size
        rest = members[lo:hi]
        for col in range(w - 1, -1, -1):
            rest, lines[:, col] = np.divmod(rest, 10)
        lines[:, :w] += ord("0")
        lines[:, w] = ord("\n")
    return buf


def level_set(f: MultiplicativeFunction, z, N: int, tol: float | None = None,
              table: SieveTable | None = None) -> LevelSet:
    """E(f, z) on [1, N]; exact when codes allow, else |f(n) - z| <= tol.

    An exact target is read from the table's codes alone, so a table with codes
    (sieved here unless one for N or more is passed) builds no values; only
    kinds without codes, and complex targets, read the values.
    """
    target = normalize_target(z)
    if tol is not None and not 0 <= tol < math.inf:
        raise InputError(f"tolerance must be finite and >= 0, got {tol}")
    if table is None or table.N < N:
        table = sieve_range(f, N)
    if not isinstance(target, complex) and table.exact is not None:
        members = table.exact.members(target)
        return LevelSet(table.source, target, N,
                        members[: np.searchsorted(members, N, "right")], True, function=f)
    if isinstance(target, Zero):
        return LevelSet(table.source, target, N, members_of(table.values[1 : N + 1] == 0),
                        True, function=f)
    if tol is None:
        raise InputError(
            f"{table.source} has no exact representation for target {target!r}; "
            "pass an explicit tolerance for the float path"
        )
    zval = target.value if isinstance(target, RootOfUnity) else complex(target)
    mask = np.abs(table.values[1 : N + 1] - zval) <= tol
    return LevelSet(table.source, target, N, members_of(mask), False,
                    tol=tol, function=f)


# --------------------------------------------------------------------------
# Density profiles over progressions

@dataclass
class DensityProfile:
    N: int
    count: int
    density: float               # |E cap [N]| / N
    cells: dict                 # (q, r) -> count of members ≡ r (mod q)
    empty_cells: list


def density_profile(E: LevelSet, q_max: int) -> DensityProfile:
    """Global density and every progression-cell density d(E cap (qN + r))."""
    if q_max < 1:
        raise InputError(f"q_max must be >= 1, got {q_max}")
    if E.count == 0:
        raise InputError("density profile of an empty truncation is meaningless")
    check_budget(_ROW_BYTES * (q_max * (q_max + 1) // 2),
                 f"density profile over {q_max} moduli")
    ind = E.indicator()
    cells = {}
    empty = []
    for q in range(1, q_max + 1):
        for r in range(q):
            count = int(np.count_nonzero(ind[r::q]))
            cells[(q, r)] = count
            if count == 0:
                empty.append((q, r))
    return DensityProfile(N=E.N, count=E.count, density=E.count / E.N,
                          cells=cells, empty_cells=empty)


# --------------------------------------------------------------------------
# Ruzsa concentration analysis

@dataclass
class ConcentrationAnalysis:
    points: list                 # (complex value, full-range sum of 1/p)
    group: list | str | None     # RootOfUnity list, or "unbounded", or None
    tail: float
    tail_trend: str
    verdict: str                 # concentrated | not_concentrated | inconclusive
    bucket_masses: list = field(default_factory=list)
    thresholds: dict = field(default_factory=dict)

    @property
    def group_size(self) -> int | None:
        return len(self.group) if isinstance(self.group, list) else None


def concentration_analysis(f: MultiplicativeFunction, P: int) -> ConcentrationAnalysis:
    """Bucket primes by f(p) and test Ruzsa's three concentration conditions.

    A bucket is a concentration point when its sum of 1/p clears
    0.8 (ln ln P - ln ln 100); below 0.1 total it is discarded; in between
    it is borderline and forces an inconclusive verdict.  Detected points
    are snapped to roots of unity and closed under multiplication; the
    closure must stay within K_MAX_BOUND elements and the off-group prime mass
    must plateau.
    """
    if P < 10 ** 3:
        raise InputError(f"concentration analysis needs P >= 1000, got {P}")
    primes = primes_upto(P)
    fp = f.prime_values(primes)
    inv_p = 1.0 / primes
    key = np.round(fp.real, 9) + 1j * np.round(fp.imag, 9)
    uniq, inverse = np.unique(key, return_inverse=True)
    masses = np.bincount(inverse, weights=inv_p)
    band = 0.8 * (math.log(math.log(P)) - math.log(math.log(100)))
    thresholds = {"qualify": band, "discard": 0.1, "P": int(P), "k_max": K_MAX_BOUND}
    order = np.argsort(masses)[::-1]
    points, fuzzy = [], []
    for i in order:
        m = float(masses[i])
        if m >= band:
            points.append((complex(uniq[i]), m))
        elif m >= 0.1:
            fuzzy.append((complex(uniq[i]), m))
    top = [(complex(uniq[i]), float(masses[i])) for i in order[:8]]

    if not points:
        verdict = "inconclusive" if fuzzy else "not_concentrated"
        return ConcentrationAnalysis(points=[], group=None, tail=float(masses.sum()),
                                     tail_trend="", verdict=verdict,
                                     bucket_masses=top, thresholds=thresholds)

    snapped = [snap_root_of_unity(v, max_den=4 * K_MAX_BOUND) for v, _ in points]
    L = None if None in snapped else math.lcm(*(s.den for s in snapped))
    if L is None or L > K_MAX_BOUND:
        return ConcentrationAnalysis(points=points, group="unbounded",
                                     tail=0.0, tail_trend="",
                                     verdict="not_concentrated",
                                     bucket_masses=top, thresholds=thresholds)
    group = [RootOfUnity(j, L) for j in range(L)]
    gvals = np.array([g.value for g in group])
    off = _off_group(fp, gvals)
    tail_total = float(inv_p[off].sum())
    grid = geometric_grid(10, P)
    ends = np.searchsorted(primes, grid, "right")
    tail_partial = grid_sums(np.where(off, inv_p, 0.0), ends).tolist()
    trend, _, _ = _classify_trend([int(x) for x in grid], tail_partial)
    if _off_group(np.array([v for v, _ in fuzzy], dtype=np.complex128), gvals).any():
        verdict = "inconclusive"
    elif trend == "plateau":
        verdict = "concentrated"
    else:
        verdict = "not_concentrated"
    return ConcentrationAnalysis(points=points, group=group, tail=tail_total,
                                 tail_trend=trend, verdict=verdict,
                                 bucket_masses=top, thresholds=thresholds)


def _off_group(values: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """The values farther than 1e-9 from every one of the L roots e(j/L),
    measured to the root nearest by angle, which is the nearest root."""
    L = len(roots)
    nearest = roots[np.rint(np.angle(values) * L / (2 * np.pi)).astype(np.int64) % L]
    return np.abs(values - nearest) > 1e-9


# --------------------------------------------------------------------------
# Zero repair

def zero_repair(f: MultiplicativeFunction, z, N_check: int = 10 ** 4) -> MultiplicativeFunction:
    """Replace zero prime-power values by a fixed unimodular y = e(gamma).

    gamma starts at the golden-ratio fractional constant and is rescaled
    until powers y^n (n <= 64) avoid the observed image of f, so level sets
    at nonzero targets are preserved; the finite collision check is a
    documented approximation of the full requirement.  When f has exact codes
    and z is exact, the level set of g on [1, N_check], read from g's sieved
    values within 1e-9, must equal f's exact one.
    """
    target = normalize_target(z)
    if isinstance(target, Zero):
        raise InputError("zero repair applies to nonzero targets; "
                         "the z = 0 level set is handled by the rational path")
    if zero_free(f):
        return f
    table = sieve_range(f, N_check)
    exact = table.exact is not None and not isinstance(target, complex)
    vals = table.values[1:]
    vals = vals[vals != 0]
    sample = vals[:: max(1, len(vals) // 4096)]
    angles = np.unique(np.angle(sample) / (2 * np.pi) % 1.0)
    gamma = GOLDEN_FRAC
    for scale in range(64):
        if _collision_free(gamma, angles):
            break
        gamma = GOLDEN_FRAC / (2.0 + scale)
    else:
        raise SearchError("could not find a collision-free repair value y")
    y = complex(np.exp(2j * np.pi * gamma))
    g = make_repaired(f, y, gamma)
    # repaired level set must match the original on the checked truncation
    if exact and not np.array_equal(level_set(g, target, N_check, tol=1e-9).members,
                                    level_set(f, target, N_check, table=table).members):
        raise SearchError("zero repair failed to preserve the level set")
    return g


def _collision_free(gamma: float, angles: np.ndarray) -> bool:
    """No n gamma mod 1 (n <= 64) lies within 1e-8, around the circle, of a
    difference b - a mod 1 of two of the sorted distinct angles, rounded to 12
    digits.  Around the circle b - a is nearest n gamma where b is nearest
    a + n gamma, so for each shift and each angle a only the two angles b
    around a + n gamma are compared: 64 x k floats per array for k angles
    (zero_repair samples k <= 8191), where all pairs would take k^2."""
    shifts = (np.arange(1, 65) * gamma % 1.0)[:, None]
    i = np.searchsorted(angles, (angles + shifts) % 1.0)
    for step in (-1, 0):
        d = np.round((angles[(i + step) % len(angles)] - angles) % 1.0, 12)
        d -= shifts
        np.abs(d, out=d)
        if np.min(np.minimum(d, 1.0 - d)) < 1e-8:
            return False
    return True


# --------------------------------------------------------------------------
# Smallest power pretending to a character

@dataclass
class FindKResult:
    k: int
    chi: DirichletCharacter
    profile: DistanceProfile
    fallback: bool = False


def find_k_and_character(g: MultiplicativeFunction, k_max: int = 8, Q_max: int = 60,
                         P: int = 10 ** 6, conc: ConcentrationAnalysis | None = None
                         ) -> FindKResult:
    """Smallest k (then deterministic character order) with a plateauing
    distance profile between g^k and a character of modulus <= Q_max.

    Falls back to k = |G| with the trivial character when the scan misses
    but the concentration group is finite; otherwise raises SearchError.
    The fallback reads conc, the concentration analysis of g at P, when the
    caller has one, and runs it otherwise.
    """
    if not 1 <= k_max <= K_MAX_BOUND:
        raise InputError(f"power bound k_max = {k_max} outside the supported [1, {K_MAX_BOUND}]")
    _check_q_max(Q_max)
    primes = primes_upto(P)
    gp = g.prime_values(primes)
    if np.min(np.abs(gp)) < 1e-9:
        raise InputError(f"{g.label} vanishes at some prime; repair zeros first")
    inv_p = 1.0 / primes
    grid = geometric_grid(10, P)
    for k in range(1, k_max + 1):
        gk = gp ** k
        found = _first_plateau_character(gk * inv_p, primes, grid, Q_max)
        if found is not None:
            q, index, _ = found
            chi = characters_mod(q)[index]
            prof = _distance_profile(gk, chi.values_at(primes), primes, 0.0,
                                     f"{g.label}^{k}", chi.label, grid)
            return FindKResult(k=k, chi=chi, profile=prof)
    if conc is None:
        conc = concentration_analysis(g, max(P, 10 ** 3))
    if conc.verdict == "concentrated" and conc.group_size and conc.group_size <= k_max * 8:
        k = conc.group_size
        chi = principal_character(1)
        prof = _distance_profile(gp ** k, chi.values_at(primes), primes, 0.0,
                                 f"{g.label}^{k}", chi.label, grid)
        return FindKResult(k=k, chi=chi, profile=prof, fallback=True)
    raise SearchError(
        f"no (k, chi) found for {g.label} with k <= {k_max}, modulus <= {Q_max}, "
        f"P = {P}; the bounds are knobs, failure does not refute existence"
    )


# --------------------------------------------------------------------------
# Structure pairs

@dataclass
class StructurePair:
    E: LevelSet
    R: LevelSet
    k: int | None
    chi: DirichletCharacter | None
    dE: float
    dR: float
    u_norms: list                # (N, s, value) triples
    rap: RapReport | None
    concentration: ConcentrationAnalysis | None
    u_mean: float
    notes: list = field(default_factory=list)


def structure_pair(f: MultiplicativeFunction, z, N: int, k_max: int = 8,
                   Q_max: int = 60, P: int = 10 ** 6) -> StructurePair:
    """Decompose the level set E(f, z): find g = zero-repaired f, the least
    k with g^k pretending to a character, the superset R = E(g^k, z^k), and
    score the relative-uniformity function u = dR 1_E - dE 1_R by its U^2
    norms at N/16, N/4 and N (at least 1024, at most N).

    The norms are computed largest N first and reported in grid order, so
    the process peaks at the one transform of length 2^(ceil log2(2N - 1))
    (48 MiB of RSS at N = 10^6) on top of u and the tables."""
    target = normalize_target(z)
    table = sieve_range(f, N)
    E = level_set(f, target, N, table=table)
    notes = []
    if isinstance(target, Zero):
        R = E
        k = None
        chi = None
        rap = None
        conc = None
        notes.append("z = 0: the level set is its own rational superset")
    else:
        # E is exact: without a tolerance, level_set refuses a table without codes
        g = zero_repair(f, target, N_check=min(N, 10 ** 4))
        conc = concentration_analysis(g, P)      # P < 1000 exits here
        res = find_k_and_character(g, k_max, Q_max, P, conc)
        k, chi = res.k, res.chi
        if res.fallback:
            notes.append("(k, chi) from the concentration-group fallback")
        zk = target ** k
        # R is read from f's own codes: g^k = f^k wherever f(n) != 0, and an
        # n carrying a repaired factor is not counted, as y was chosen so that
        # its powers avoid the image of f
        R = LevelSet(source=f"{g.label}^{k}", z=zk, N=N,
                     members=table.exact.members(zk, power=k), exact=True, function=g)
        rap = rap_test(g ** k, Q_max=Q_max, P=P)
    dE, dR = E.density, R.density
    # u = dR 1_E - dE 1_R, rounded as those float products round: +0.0 off R,
    # 0.0 - dE on R \ E and dR - dE on E
    u = np.zeros(N + 1)
    u[R.members] = 0.0 - dE
    # a nonempty E has dE > 0, so its members off R are the zeros of u there
    if not np.all(u[E.members]):
        raise SearchError("containment E ⊆ R failed; exact pipeline is inconsistent")
    u[E.members] = dR - dE
    u_grid = sorted({min(N, max(1 << 10, N // 16)), min(N, max(1 << 10, N // 4)), N})
    # largest N first: its transform then runs before the smaller ones leave
    # their freed memory resident, so the peak is that one transform's
    norms = {n: gowers_fast(u, n, 2) for n in reversed(u_grid)}
    u_norms = [(n, 2, norms[n]) for n in u_grid]
    u_mean = float(u[1 : N + 1].mean())
    return StructurePair(E=E, R=R, k=k, chi=chi, dE=dE, dR=dR, u_norms=u_norms,
                         rap=rap, concentration=conc, u_mean=u_mean, notes=notes)


# --------------------------------------------------------------------------
# Divisibility reports

@dataclass
class DivisibilityReport:
    set_name: str
    shift: int
    N: int
    rows: list                    # (u, count, density)
    verdict: str                  # divisible_evidence | not_divisible | inconclusive
    witness_u: int | None = None
    certificate: dict | None = None
    floor: float = 0.0
    weak_u: list = field(default_factory=list)


def divisibility_report(E: LevelSet, r: int, u_max: int,
                        floor: float = 1e-3) -> DivisibilityReport:
    """Densities of (E - r) ∩ uN for u <= u_max, with symbolic obstructions.

    A not_divisible verdict requires a residue obstruction certifying that
    the intersection is empty for structural reasons; a bare zero count only
    yields 'inconclusive' (finite emptiness does not imply density zero).
    """
    if r < 0:
        raise InputError(f"shift must be >= 0, got {r}")
    if u_max < 1:
        raise InputError(f"u_max must be >= 1, got {u_max}")
    n = E.N
    if r >= n / 2:
        raise InputError(f"shift r={r} too large for truncation N={n}")
    if not math.isfinite(floor):
        raise InputError(f"density floor must be finite, got {floor}")
    check_budget(_ROW_BYTES * u_max, f"divisibility report over {u_max} steps")
    # ind[m] marks the members m in (r, n], one slice of the sorted members;
    # those in r + uN are ind[r+u::u]
    lo, hi = np.searchsorted(E.members, [r, n], "right")
    ind = np.zeros(n + 1, dtype=bool)
    ind[E.members[lo:hi]] = True
    rows = []
    witness = None
    certificate = None
    weak = []
    for u in range(1, u_max + 1):
        count = int(np.count_nonzero(ind[r + u :: u]))
        dens = count / (n - r)
        rows.append((u, count, dens))
        if count == 0 and witness is None:
            cert = _residue_obstruction(E, r, u)
            if cert is not None:
                witness, certificate = u, cert
        if count > 0 and dens < floor:
            weak.append(u)
    if witness is not None:
        verdict = "not_divisible"
    elif all(c > 0 and c / (n - r) >= floor for _, c, _ in rows):
        verdict = "divisible_evidence"
    else:
        verdict = "inconclusive"
    return DivisibilityReport(set_name=E.source, shift=r, N=n, rows=rows,
                              verdict=verdict, witness_u=witness,
                              certificate=certificate, floor=floor, weak_u=weak)


def _residue_obstruction(E: LevelSet, r: int, u: int) -> dict | None:
    """Symbolic proof that (E - r) ∩ uN is empty, when one exists."""
    f = E.function
    if f is None:
        return None
    kind = _KINDS[f.kind]
    target = E.z
    # squarefree support: p^2 | u and p^2 | r force a square factor of n + r
    if kind.squarefree_only(f) and not isinstance(target, Zero):
        for p in range(2, math.isqrt(u) + 1):
            if u % (p * p) == 0 and r % (p * p) == 0:
                return {
                    "type": "square_factor",
                    "prime": p,
                    "statement": (
                        f"members are squarefree, but u ≡ 0 (mod {p*p}) and "
                        f"r ≡ 0 (mod {p*p}) force {p*p} | n + r for every n ∈ uN"
                    ),
                }
    # periodic constraint: members lie in fixed residue classes mod q, the
    # residues whose code is the target's (-1 for zero); any other target
    # allows every residue, and so never obstructs
    period = kind.period_codes(f)
    if period is not None and isinstance(target, (Zero, RootOfUnity)):
        q = len(period.codes)
        code = -1 if isinstance(target, Zero) else period.code_of(target)
        allowed = [s for s, c in enumerate(period.codes.tolist()) if c == code]
        gqu = math.gcd(q, u)
        if all((s - r) % gqu != 0 for s in allowed):
            return {
                "type": "progression_mismatch",
                "modulus": q,
                "statement": (
                    f"members fall in residues {allowed} mod {q}, none of which "
                    f"meets r + uN (gcd(q, u) = {gqu})"
                ),
            }
    return None


# --------------------------------------------------------------------------
# S_P sets and random fixtures

def sp_set(prime_set, N: int) -> np.ndarray:
    """Squarefree integers <= N with every prime factor in the given set
    (1 included as the empty product).  prime_set: iterable or predicate."""
    ctx = get_context(N)
    mask = ctx.squarefree.copy()
    if callable(prime_set):
        keep = prime_set
    else:
        keep = {int(p) for p in prime_set}.__contains__
    for p in ctx.small_primes:
        if not keep(p):
            mask[p::p] = False
    Q = ctx.large_primes
    excluded = np.fromiter((not keep(q) for q in Q.tolist()), dtype=bool, count=len(Q))
    for idx, _ in large_prime_multiples(Q[excluded], N):
        mask[idx] = False
    mask[0] = False
    if N >= 1:
        mask[1] = True
    return np.flatnonzero(mask).astype(np.int64, copy=False)


def random_relative_subset(R: LevelSet, p: float, seed: int) -> LevelSet:
    """Keep each member of R independently with probability p (seeded PCG64)."""
    if not 0.0 <= p <= 1.0:
        raise InputError(f"probability must lie in [0, 1], got {p}")
    if seed < 0:
        raise InputError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    keep = rng.random(len(R.members)) < p
    return LevelSet(source=f"random_subset({R.source}, p={p}, seed={seed})",
                    z=R.z, N=R.N, members=R.members[keep].copy(), exact=False,
                    function=None)
