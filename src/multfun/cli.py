"""Command-line front end: one command per analysis, machine-readable reports.

Every run writes a JSON report (deterministic bytes for a fixed config and
seed; wall-clock metadata goes to a separate .meta.json file) and, where a
tabular view is defined, a CSV sibling.  Exit codes: 0 success, 2 input
validation, 3 resource limits, 4 bounded-search failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .arith import ZERO, RootOfUnity, Zero, check_budget
from .errors import InputError, MultfunError
from .ergodic import FiniteSystem, PolynomialFamily, convergence_average, recurrence_average
from .levelsets import (
    density_profile,
    divisibility_report,
    level_set,
    random_relative_subset,
    structure_pair,
)
from .mf_core import BUILTIN_NAMES, BUILTIN_PARAMETERS, builtin, sieve_range
from .pretentious import (
    ap_mean,
    euler_product_mean,
    halasz_classify,
    pretentious_distance,
    rap_test,
    unit_function,
)
from .seminorms import gowers_direct, gowers_fast, spectrum_scan, uniformity_profile

NAMED_SETS = {
    "squarefree": ("mu_squared", "1"),
    "mult_even": ("liouville", "1"),
    "mult_odd": ("liouville", "-1"),
    "moebius_plus": ("moebius", "1"),
    "moebius_minus": ("moebius", "-1"),
}


def parse_z(s: str):
    """Level-target syntax: 0 | 1 | -1 | a/b (the root e(a/b)) | val:a/b
    (the rational value a/b) | any complex literal (float path, needs --tol)."""
    s = s.strip()
    if s in ("0", "zero"):
        return ZERO
    if s == "1":
        return RootOfUnity(0, 1)
    if s == "-1":
        return RootOfUnity(1, 2)
    try:
        if s.startswith("val:"):
            a, b = s[4:].split("/", 1)
            return Fraction(int(a), int(b))
        if "/" in s:
            a, b = s.split("/", 1)
            return RootOfUnity(int(a), int(b))
        return complex(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"cannot parse target {s!r}: {exc}") from exc


MAX_POLY_DEGREE = 64


def parse_polys(s: str) -> PolynomialFamily:
    """Polynomials like 'n;2n;n^2;n^3+2n' (semicolon-separated, p(0)=0),
    with exponents up to MAX_POLY_DEGREE (coefficients are stored densely)."""
    polys = []
    for part in s.split(";"):
        part = part.replace(" ", "")
        if not part:
            continue
        coeffs: dict[int, int] = {}
        for term in part.replace("-", "+-").split("+"):
            if not term:
                continue
            try:
                if "n" in term:
                    head, _, tail = term.partition("n")
                    c = int(head) if head not in ("", "-") else (-1 if head == "-" else 1)
                    k = int(tail[1:]) if tail.startswith("^") else 1
                else:
                    c, k = int(term), 0
            except ValueError as exc:
                raise InputError(f"cannot parse polynomial term {term!r} in {s!r}") from exc
            if k > MAX_POLY_DEGREE:
                raise InputError(f"polynomial term {term!r} in {s!r} has degree {k}; "
                                 f"the largest allowed is {MAX_POLY_DEGREE}")
            coeffs[k] = coeffs.get(k, 0) + c
        deg = max(coeffs) if coeffs else 0
        polys.append(tuple(coeffs.get(k, 0) for k in range(deg + 1)))
    return PolynomialFamily(tuple(polys))


def _params(args, prefix: str = "") -> dict:
    """Builtin parameters from the --{prefix}xi, --{prefix}modulus and
    --{prefix}index options that were given."""
    params = {k: getattr(args, prefix + k) for k in ("xi", "modulus", "index")}
    return {k: v for k, v in params.items() if v is not None}


def build_function(args):
    name = args.function
    if name is None:
        raise InputError("no --function given")
    params = _params(args)
    if args.file is not None:
        params["path"] = args.file
    if name == "one":
        return unit_function()
    return builtin(name, params)


def jsonable(obj):
    """obj in JSON types; a non-finite float is written as a string ("nan",
    "inf", "-inf"), which strict JSON has no number for."""
    if isinstance(obj, complex):
        return {"re": jsonable(obj.real), "im": jsonable(obj.imag)}
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, Zero):
        return "0"
    if isinstance(obj, RootOfUnity):
        return f"e({obj.num}/{obj.den})"
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj) if math.isfinite(obj) else str(float(obj))
    if isinstance(obj, np.ndarray):
        return [jsonable(x) for x in obj.tolist()]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {k: jsonable(v) for k, v in dataclasses.asdict(obj).items()}
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(x) for x in obj]
    return obj


def write_report(out_path: str, payload: dict, started: float) -> None:
    path = Path(out_path)
    body = json.dumps(jsonable(payload), sort_keys=True, indent=2) + "\n"
    path.write_text(body, encoding="utf-8")
    meta = {"timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "elapsed_seconds": round(time.monotonic() - started, 3)}
    Path(str(path) + ".meta.json").write_text(json.dumps(meta, sort_keys=True) + "\n")


def _write_side_file(path, write) -> None:
    """write(path) for a path given on the command line; a path that cannot
    be written is an input error."""
    try:
        write(path)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _write_csv(path, text):
    if path:
        _write_side_file(path, lambda p: Path(p).write_text(text, encoding="utf-8"))


def _config_echo(args) -> dict:
    skip = {"func"}
    return {k: jsonable(v) for k, v in vars(args).items()
            if k not in skip and v is not None}


def _level_set(args):
    """E(f, z) on [1, N] for the named --set, or for --function and --z."""
    if args.set:
        fname, ztext = NAMED_SETS[args.set]
        f = builtin(fname, {})
        z = parse_z(ztext)
    else:
        f = build_function(args)
        if args.z is None:
            raise InputError("need --z (or --set)")
        z = parse_z(args.z)
    return level_set(f, z, args.N, tol=args.tol)


# --------------------------------------------------------------------------
# Command handlers; each returns the result payload

def cmd_catalog(args):
    return {
        "builtins": list(BUILTIN_NAMES),
        "parameters": dict(BUILTIN_PARAMETERS),
        "named_sets": {k: {"function": v[0], "z": v[1]} for k, v in NAMED_SETS.items()},
    }


def cmd_sieve(args):
    if args.limit < 1:
        raise InputError(f"--limit must be >= 1, got {args.limit}")
    f = build_function(args)
    table = sieve_range(f, args.N)
    head = [jsonable(complex(v)) for v in table.values[1 : min(args.N, 50) + 1]]
    payload = {
        "source": table.source,
        "N": table.N,
        "values_head": head,
        "abs_sum": float(np.abs(table.values[1:]).sum()),
        "sum": jsonable(complex(table.values[1:].sum())),
        "exact_codes": table.exact is not None,
    }
    if args.csv:
        limit = min(args.N, args.limit)
        lines = ["n,re,im"]
        lines += [f"{n},{table.values[n].real:.12g},{table.values[n].imag:.12g}"
                  for n in range(1, limit + 1)]
        _write_csv(args.csv, "\n".join(lines) + "\n")
    return payload


def cmd_mean(args):
    f = build_function(args)
    ep = euler_product_mean(f, args.P)
    payload = {"source": f.label, "euler_product": jsonable(ep)}
    if args.N:
        table = sieve_range(f, args.N)
        payload["empirical_mean"] = jsonable(complex(table.values[1:].mean()))
        payload["empirical_N"] = args.N
    return payload


def cmd_apmean(args):
    f = build_function(args)
    rep = ap_mean(f, args.q, args.r, args.N)
    return {"source": f.label, "report": jsonable(rep),
            "agreement": rep.agreement}


def cmd_distance(args):
    f = build_function(args)
    if args.g == "one" or args.g is None:
        g = unit_function()
    else:
        g = builtin(args.g, _params(args, "g_"))
    prof = pretentious_distance(f, g, args.P, t=args.t)
    _write_csv(args.csv, prof.to_csv())
    return {"profile": jsonable(prof)}


def cmd_classify(args):
    f = build_function(args)
    rep = halasz_classify(f, P=args.P, N=args.N)
    rap = rap_test(f, Q_max=args.Qmax, P=args.P)
    return {"halasz": jsonable(rep), "rap": jsonable(rap)}


def cmd_gowers(args):
    f = build_function(args)
    if args.grid:
        report = uniformity_profile(f, args.s, _int_list("--grid", args.grid),
                                    method=args.method)
        _write_csv(args.csv, report.to_csv())
        return {"profile": report.to_dict()}
    if args.csv:
        raise InputError("--csv writes the --grid profile; give --grid")
    table = sieve_range(f, args.N)
    fn = gowers_direct if args.method == "direct" else gowers_fast
    value = fn(table.values, args.N, args.s)
    return {"source": f.label, "N": args.N, "s": args.s,
            "method": args.method, "value": value}


def cmd_spectrum(args):
    f = build_function(args)
    table = sieve_range(f, args.N)
    scan = spectrum_scan(table.values, args.qmax, N=args.N,
                         threshold=args.threshold)
    return {"source": f.label, "scan": jsonable(scan)}


def cmd_levelset(args):
    E = _level_set(args)
    if args.random_subset is not None:
        if args.seed is None:
            raise InputError("--random-subset requires --seed")
        E = random_relative_subset(E, args.random_subset, args.seed)
    payload = {
        "source": E.source,
        "z": jsonable(E.z),
        "N": E.N,
        "count": E.count,
        "density": E.density,
        "exact": E.exact,
        "members_head": [int(x) for x in E.members[:50]],
    }
    if args.qmax:
        prof = density_profile(E, args.qmax)
        payload["density_profile"] = {
            "cells": {f"{q},{r}": c for (q, r), c in prof.cells.items()},
            "empty_cells": [f"{q},{r}" for q, r in prof.empty_cells],
        }
    if args.members:
        _write_side_file(args.members, E.to_text)
    if args.bitmap:
        _write_side_file(args.bitmap, E.to_bitmap)
    return payload


def cmd_structure(args):
    f = build_function(args)
    z = parse_z(args.z)
    pair = structure_pair(f, z, args.N, k_max=args.kmax, Q_max=args.Qmax, P=args.P)
    return {
        "E": {"source": pair.E.source, "count": pair.E.count, "z": jsonable(pair.E.z)},
        "R": {"source": pair.R.source, "count": pair.R.count, "z": jsonable(pair.R.z),
              "members_head": [int(x) for x in pair.R.members[:30]]},
        "k": pair.k,
        "chi": None if pair.chi is None else
            {"modulus": pair.chi.modulus, "index": pair.chi.index},
        "dE": pair.dE,
        "dR": pair.dR,
        "u_norms": [{"N": n, "s": s, "value": v} for n, s, v in pair.u_norms],
        "u_mean": pair.u_mean,
        "rap": jsonable(pair.rap),
        "concentration_verdict": None if pair.concentration is None
            else pair.concentration.verdict,
        "notes": pair.notes,
    }


def cmd_divisibility(args):
    E = _level_set(args)
    rep = divisibility_report(E, args.shift, args.umax, floor=args.floor)
    return {"report": jsonable(rep)}


def _int_list(option: str, text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",")]
    except ValueError as exc:
        raise InputError(f"{option} needs comma-separated integers, got {text!r}") from exc


def _recurrence_common(args):
    """(system, A, polys, members, label, E); E is the level set the members
    come from, or None for the naturals."""
    system = FiniteSystem(tuple(_int_list("--m", args.m)))
    A = _int_list("--A", args.A)
    polys = parse_polys(args.polys)
    if args.set or args.function:
        E = _level_set(args)
        members = E.members
        label = E.source
    else:
        E = None
        check_budget(8 * args.N, f"the naturals up to N={args.N}")
        members = np.arange(1, args.N + 1, dtype=np.int64)
        label = "naturals"
    if not 0 <= args.shift < args.N:
        raise InputError(f"--shift must lie in [0, N) = [0, {args.N}), got {args.shift}")
    if args.shift:
        members = members[members > args.shift] - args.shift
        label = f"{label} - {args.shift}"
    return system, A, polys, members, label, E


def cmd_recurrence(args):
    system, A, polys, members, label, E = _recurrence_common(args)
    rep = recurrence_average(system, A, polys, members, args.Jmax)
    if args.shift and E is not None:
        div = divisibility_report(E, args.shift, max(system.sizes))
        if div.verdict == "not_divisible":
            rep.certificate = div.certificate
    _write_csv(args.csv, rep.to_csv())
    return {"sequence": label, "report": jsonable(rep)}


def cmd_convergence(args):
    system, A, polys, members, label, _ = _recurrence_common(args)
    rep = convergence_average(system, A, polys, members, args.Jmax)
    _write_csv(args.csv, rep.to_csv())
    return {"sequence": label, "report": jsonable(rep)}


# --------------------------------------------------------------------------
# Argument plumbing

def _add_function_opts(p):
    p.add_argument("--function", choices=list(BUILTIN_NAMES) + ["one"])
    p.add_argument("--xi", help="phase parameter, rational a/b or float")
    p.add_argument("--modulus", type=int)
    p.add_argument("--index", type=int)
    p.add_argument("--file", help="custom function file path")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="multfun",
        description="Multiplicative-function structure and randomness toolkit",
    )
    ap.add_argument("--version", action="version", version=f"multfun {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, n_default=None, csv=None):
        p.add_argument("--out", default=None, help="JSON report path")
        if csv:
            p.add_argument("--csv", default=None, help=csv)
        if n_default is not None:
            p.add_argument("--N", type=int, default=n_default)

    p = sub.add_parser("catalog");  common(p)
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("sieve");  _add_function_opts(p)
    common(p, 10 ** 5, csv="CSV path for the first --limit values")
    p.add_argument("--limit", type=int, default=1000)
    p.set_defaults(func=cmd_sieve)

    p = sub.add_parser("mean");  _add_function_opts(p); common(p, None)
    p.add_argument("--P", type=int, default=10 ** 5)
    p.add_argument("--N", type=int, default=None)
    p.set_defaults(func=cmd_mean)

    p = sub.add_parser("apmean");  _add_function_opts(p); common(p, 10 ** 6)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.set_defaults(func=cmd_apmean)

    p = sub.add_parser("distance");  _add_function_opts(p)
    common(p, csv="CSV path for the partial sums")
    p.add_argument("--g", default="one", help="second function (builtin name or 'one')")
    p.add_argument("--g-xi", dest="g_xi")
    p.add_argument("--g-modulus", dest="g_modulus", type=int)
    p.add_argument("--g-index", dest="g_index", type=int)
    p.add_argument("--P", type=int, default=10 ** 6)
    p.add_argument("--t", type=float, default=0.0)
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("classify");  _add_function_opts(p); common(p, 10 ** 6)
    p.add_argument("--P", type=int, default=10 ** 6)
    p.add_argument("--Qmax", type=int, default=60)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("gowers");  _add_function_opts(p)
    common(p, 2 ** 14, csv="CSV path for the --grid profile")
    p.add_argument("--s", type=int, default=2)
    p.add_argument("--method", choices=("fast", "direct"), default="fast")
    p.add_argument("--grid", help="comma-separated N grid for a profile")
    p.set_defaults(func=cmd_gowers)

    p = sub.add_parser("spectrum");  _add_function_opts(p); common(p, 10 ** 6)
    p.add_argument("--qmax", type=int, default=30)
    p.add_argument("--threshold", type=float, default=None)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("levelset");  _add_function_opts(p); common(p, 10 ** 6)
    p.add_argument("--z")
    p.add_argument("--set", choices=sorted(NAMED_SETS))
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--qmax", type=int, default=0, help="progression profile depth")
    p.add_argument("--members", help="write newline-delimited members here")
    p.add_argument("--bitmap", help="write length-N little-endian bitmap here")
    p.add_argument("--random-subset", dest="random_subset", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_levelset)

    p = sub.add_parser("structure");  _add_function_opts(p); common(p, 10 ** 6)
    p.add_argument("--z", required=True)
    p.add_argument("--kmax", type=int, default=8)
    p.add_argument("--Qmax", type=int, default=60)
    p.add_argument("--P", type=int, default=10 ** 6)
    p.set_defaults(func=cmd_structure)

    p = sub.add_parser("divisibility");  _add_function_opts(p); common(p, 10 ** 6)
    p.add_argument("--z")
    p.add_argument("--set", choices=sorted(NAMED_SETS))
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--shift", type=int, default=0)
    p.add_argument("--umax", type=int, default=10)
    p.add_argument("--floor", type=float, default=1e-3)
    p.set_defaults(func=cmd_divisibility)

    for name, fn in (("recurrence", cmd_recurrence), ("convergence", cmd_convergence)):
        p = sub.add_parser(name);  _add_function_opts(p)
        common(p, 10 ** 6, csv="CSV path for the running averages")
        p.add_argument("--z")
        p.add_argument("--set", choices=sorted(NAMED_SETS))
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--m", default="4", help="cyclic sizes, comma separated")
        p.add_argument("--A", default="0", help="subset points, comma separated")
        p.add_argument("--polys", default="n")
        p.add_argument("--shift", type=int, default=0)
        p.add_argument("--Jmax", type=int, default=10 ** 5)
        p.set_defaults(func=fn)

    return ap


def run(argv=None) -> int:
    started = time.monotonic()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse reports its own message; map parse failures to exit 2
        return 0 if exc.code in (0, None) else 2
    out = args.out or f"multfun_{args.command}.json"
    payload = {"version": __version__, "command": args.command, "config": _config_echo(args)}
    try:
        payload["result"] = args.func(args)
        code = 0
    except MultfunError as exc:
        payload["error"] = _error(exc)
        print(f"error: {exc}", file=sys.stderr)
        code = exc.exit_code
    try:
        write_report(out, payload, started)
    except OSError as exc:
        # no report file can say so: the JSON error report goes to stderr
        error = InputError(f"cannot write the report {out}: {exc.strerror or exc}")
        payload.pop("result", None)
        payload["error"] = _error(error)
        print(json.dumps(jsonable(payload), sort_keys=True), file=sys.stderr)
        return error.exit_code
    return code


def _error(exc: MultfunError) -> dict:
    return {"type": type(exc).__name__, "message": str(exc), "exit_code": exc.exit_code}


def main() -> None:
    sys.exit(run())
