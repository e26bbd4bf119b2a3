"""The three workloads: their job lists, seeded parameters and output checks.

Every seeded parameter comes from a family of FAMILY_SIZE members of equal
cost, so runs with different seeds measure the same amount of work.  The
seed also picks the spot-check points of the oracle checks, which hold for
any seed and share no code with the paths they check (factorization against
the sieves, the definitional Gowers sum against the FFT kernels).

`picks(seed)` chooses one member per family; `picks(None, index)` takes
member `index` of every family, which is how references are recorded for
every member (see record_refs.py).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from checks import chunked_stats, plain

WORKLOADS = ("sieve_1e7", "analysis_1e6", "cli_readme")
FAMILY_SIZE = 4
FAMILIES = {
    "kappa_b": (3, 4, 5, 6),                      # kappa_xi(1/b) on sieve_1e7
    "tau_modulus": (5, 7, 11, 13),                # chi_of_tau(b) on sieve_1e7
    "dirichlet": ((4, 1), (3, 1), (5, 1), (8, 1)),  # (modulus, index) on sieve_1e7
    "lambda_b": (3, 4, 5, 6),                     # lambda_xi(1/b) on analysis_1e6
    "apmean_cli": ((3, 2), (4, 1), (5, 3), (6, 4)),   # (b, r): --xi 1/b --r r
    "spectrum_cli": ((4, 1), (3, 1), (5, 1), (8, 1)),  # --modulus, --index
}
SPOT_POINTS = 24


def picks(seed: int | None, index: int | None = None) -> dict:
    if index is not None:
        return {name: fam[index] for name, fam in FAMILIES.items()}
    rng = random.Random(f"families-{seed}")
    return {name: rng.choice(fam) for name, fam in FAMILIES.items()}


def oracle_rng(seed: int | None) -> random.Random:
    return random.Random(f"oracle-{seed}")


@dataclass
class Job:
    id: str
    run: Callable[[dict], object]          # state -> output (the timed call)
    digest: Callable[[object], dict]       # output -> reference digest
    oracle: Callable[[object], list] | None = None   # output -> error messages
    keep: bool = False                     # store the output in state[id]


# --------------------------------------------------------------------------
# Digests and oracles shared by the in-process workloads

def table_digest(table) -> dict:
    return {"source": table.source, "N": table.N, "exact": table.exact is not None,
            "head": plain(table.values[1:17]), **plain(chunked_stats(table.values, table.N))}


def sieve_oracle(M, f, rng, N):
    """Sieve values at seeded points against pointwise evaluation by factorization."""
    points = sorted(rng.randrange(1, N + 1) for _ in range(SPOT_POINTS))

    def check(table):
        errs = []
        for n in points:
            want = M.mf_core.eval_at(f, n)
            if abs(complex(table.values[n]) - want) > 1e-9:
                errs.append(f"{table.source}({n}) = {table.values[n]} but eval_at gives {want}")
        return errs

    return check


def level_oracle(M, f, z, rng):
    """Seeded members of E(f, z) evaluate to z by factorization."""

    def check(E):
        if E.count == 0:
            return [f"{E.source}: empty level set"]
        errs = []
        for _ in range(SPOT_POINTS):
            n = int(E.members[rng.randrange(E.count)])
            if abs(M.mf_core.eval_at(f, n) - z) > 1e-9:
                errs.append(f"{E.source}: member {n} has f(n) = {M.mf_core.eval_at(f, n)} != {z}")
        return errs

    return check


# --------------------------------------------------------------------------
# sieve_1e7

def sieve_jobs(M, p: dict, rng: random.Random) -> list[Job]:
    N = 10 ** 7
    b = p["kappa_b"]
    tm = p["tau_modulus"]
    dq, di = p["dirichlet"]
    fns = [
        ("liouville", {}),
        ("moebius", {}),
        ("kappa_xi", {"xi": f"1/{b}"}),
        ("phi_over_n", {}),
        ("chi_of_tau", {"modulus": tm}),
        ("dirichlet_character", {"modulus": dq, "index": di}),
    ]
    jobs = []
    for name, params in fns:
        f = M.mf_core.builtin(name, params)
        jobs.append(Job(f"sieve_range({f.label},N=1e7)",
                        lambda st, f=f: M.mf_core.sieve_range(f, N),
                        table_digest, sieve_oracle(M, f, rng, N)))
    sets = [("mu_squared", M.arith.ONE, "1", 1.0),
            ("liouville", M.arith.MINUS_ONE, "-1", -1.0),
            ("phi_over_n", M.cli.parse_z("val:1/2"), "val:1/2", 0.5)]
    for name, z, zt, zval in sets:
        f = M.mf_core.builtin(name)
        jobs.append(Job(f"level_set({name}@{zt},N=1e7)",
                        lambda st, f=f, z=z: M.levelsets.level_set(f, z, N),
                        plain, level_oracle(M, f, zval, rng), keep=name == "mu_squared"))
    sqf = "level_set(mu_squared@1,N=1e7)"
    jobs += [
        Job("divisibility_report(sqf,r=4,u<=10)",
            lambda st: M.levelsets.divisibility_report(st[sqf], 4, 10), plain),
        Job("density_profile(sqf,q<=4)",
            lambda st: M.levelsets.density_profile(st[sqf], 4), plain),
        Job("recurrence_average(Z/4,A={0},n,sqf-1,J<=1e6)",
            lambda st: M.ergodic.recurrence_average(
                M.ergodic.FiniteSystem((4,)), [0], M.ergodic.PolynomialFamily(((0, 1),)),
                st[sqf].members[st[sqf].members > 1] - 1, 10 ** 6),
            plain),
    ]
    return jobs


# --------------------------------------------------------------------------
# analysis_1e6

def _ap_sweep(M, f, N):
    table = M.mf_core.sieve_range(f, N)
    return [M.pretentious.ap_mean(f, q, r, N, table=table)
            for q in range(1, 11) for r in range(q)]


def _ap_oracle(reports):
    """The direct progression mean against its character decomposition."""
    return [f"ap_mean(q={r.q}, r={r.r}): direct {r.direct} vs characters {r.decomposition}"
            for r in reports
            if r.decomposition is not None and abs(r.direct - r.decomposition) > 1e-9]


def _structure_oracle(M, rng):
    moebius_check = level_oracle(M, M.mf_core.builtin("moebius"), 1.0, rng)

    def check(pair):
        errs = moebius_check(pair.E)
        if not np.isin(pair.E.members, pair.R.members).all():
            errs.append("structure_pair: E is not contained in R")
        return errs

    return check


def _gowers_oracle(M, rng):
    """gowers_fast against the definitional sum gowers_direct at a seeded small N."""
    n = rng.randrange(16, 33)

    def check(_):
        vals = M.mf_core.sieve_range(M.mf_core.builtin("liouville"), n).values
        errs = []
        for s in (2, 3):
            fast = M.seminorms.gowers_fast(vals, n, s)
            direct = M.seminorms.gowers_direct(vals, n, s)
            if abs(fast - direct) > 1e-9 * max(abs(direct), 1.0):
                errs.append(f"U^{s} at N={n}: fast {fast} vs direct {direct}")
        return errs

    return check


def analysis_jobs(M, p: dict, rng: random.Random) -> list[Job]:
    P = N = 10 ** 6
    b = p["lambda_b"]
    builtin = M.mf_core.builtin
    liouville = builtin("liouville")
    mu2 = builtin("mu_squared")
    lam = builtin("lambda_xi", {"xi": f"1/{b}"})
    return [
        Job("aperiodicity_test(liouville,Q<=30,P=1e6)",
            lambda st: M.pretentious.aperiodicity_test(liouville, Q_max=30, P=P), plain),
        Job("halasz_classify(mu_squared,P=N=1e6)",
            lambda st: M.pretentious.halasz_classify(mu2, P=P, N=N), plain),
        Job("rap_test(mu_squared,Q<=60,P=1e6)",
            lambda st: M.pretentious.rap_test(mu2, Q_max=60, P=P), plain),
        Job(f"rap_test({lam.label},Q<=60,P=1e6)",
            lambda st: M.pretentious.rap_test(lam, Q_max=60, P=P), plain),
        Job(f"ap_mean({lam.label},q<=10,all r,N=1e6)",
            lambda st: _ap_sweep(M, lam, N), plain, _ap_oracle),
        Job("structure_pair(moebius,z=1,N=1e6)",
            lambda st: M.levelsets.structure_pair(builtin("moebius"), 1, N),
            plain, _structure_oracle(M, rng)),
        Job("uniformity_profile(liouville,s=2,[2^16,2^18,2^20])",
            lambda st: M.seminorms.uniformity_profile(liouville, 2, [1 << 16, 1 << 18, 1 << 20]),
            plain),
        Job("gowers_fast(liouville,N=1024,s=3)",
            lambda st: M.seminorms.gowers_fast(
                M.mf_core.sieve_range(liouville, 1024).values, 1024, 3),
            plain, _gowers_oracle(M, rng)),
    ]


# --------------------------------------------------------------------------
# cli_readme: the README's CLI commands, each in its own process

def cli_commands(p: dict) -> list[tuple[str, list[str]]]:
    """(name, argv) per README command; file arguments are relative to the
    directory the command runs in."""
    ab, ar = p["apmean_cli"]
    sq, si = p["spectrum_cli"]
    return [
        ("catalog", ["catalog"]),
        ("sieve", ["sieve", "--function", "moebius", "--N", "100000", "--csv", "head.csv"]),
        ("mean", ["mean", "--function", "mu_squared", "--P", "100000", "--N", "1000000"]),
        ("apmean", ["apmean", "--function", "lambda_xi", "--xi", f"1/{ab}", "--q", "5",
                    "--r", str(ar), "--N", "1000000"]),
        ("distance", ["distance", "--function", "liouville", "--g", "one", "--P", "1000000",
                      "--csv", "d.csv"]),
        ("classify", ["classify", "--function", "mu_squared", "--P", "1000000",
                      "--N", "1000000"]),
        ("gowers", ["gowers", "--function", "liouville", "--s", "2",
                    "--grid", "4096,65536,262144", "--csv", "u2.csv"]),
        ("spectrum", ["spectrum", "--function", "dirichlet_character", "--modulus", str(sq),
                      "--index", str(si), "--N", "100000", "--qmax", "8"]),
        ("levelset", ["levelset", "--set", "squarefree", "--N", "1000000", "--qmax", "4",
                      "--members", "q.txt", "--bitmap", "q.bin"]),
        ("structure", ["structure", "--function", "moebius", "--z", "1", "--N", "1000000"]),
        ("divisibility", ["divisibility", "--set", "squarefree", "--shift", "4",
                          "--umax", "10", "--N", "1000000"]),
        ("recurrence", ["recurrence", "--set", "squarefree", "--shift", "1", "--m", "4",
                        "--A", "0", "--polys", "n", "--N", "200000", "--Jmax", "100000"]),
        ("convergence", ["convergence", "--m", "3", "--A", "0", "--polys", "n^2",
                         "--N", "100000", "--Jmax", "100000"]),
    ]


# Commands cheap enough to run a second time for the determinism check.
RERUN_CANDIDATES = ("sieve", "mean", "apmean", "spectrum", "divisibility", "convergence")


def cli_job_id(name: str, argv: list[str]) -> str:
    return "multfun " + " ".join(a for a in argv if not a.endswith((".csv", ".txt", ".bin")))


def cli_file_checks(M, name: str, result: dict, workdir, rng: random.Random) -> list[str]:
    """Checks of the files a command wrote, beside its JSON report."""
    errs = []
    if name == "levelset":
        members = np.loadtxt(workdir / "q.txt", dtype=np.int64, ndmin=1)
        if len(members) != result["count"]:
            errs.append(f"levelset: {len(members)} members in q.txt, report says {result['count']}")
        if members[:len(result["members_head"])].tolist() != result["members_head"]:
            errs.append("levelset: q.txt head differs from the report's members_head")
        bits = np.unpackbits(np.fromfile(workdir / "q.bin", dtype=np.uint8), bitorder="little")
        if len(bits) != -(-result["N"] // 8) * 8 or not np.array_equal(
                np.flatnonzero(bits) + 1, members):
            errs.append("levelset: q.bin does not encode the members of q.txt")
        mu2 = M.mf_core.builtin("mu_squared")
        for _ in range(SPOT_POINTS):
            n = int(members[rng.randrange(len(members))])
            if M.mf_core.eval_at(mu2, n) != 1:
                errs.append(f"levelset: member {n} is not squarefree")
    csv_rows = {"sieve": ("head.csv", 1000), "gowers": ("u2.csv", 3)}
    if name in csv_rows:
        fname, rows = csv_rows[name]
        lines = (workdir / fname).read_text().splitlines()
        if len(lines) != rows + 1:
            errs.append(f"{name}: {fname} has {len(lines) - 1} rows, expected {rows}")
    if name == "distance":
        lines = (workdir / "d.csv").read_text().splitlines()
        if len(lines) != len(result["profile"]["P_grid"]) + 1:
            errs.append("distance: d.csv rows differ from the report's P_grid")
    return errs


def in_process_jobs(M, workload: str, p: dict, rng: random.Random) -> list[Job]:
    if workload == "sieve_1e7":
        return sieve_jobs(M, p, rng)
    if workload == "analysis_1e6":
        return analysis_jobs(M, p, rng)
    raise ValueError(f"{workload} does not run in process")
