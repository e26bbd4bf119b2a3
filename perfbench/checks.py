"""Output digests and their comparison against recorded references.

A digest is a small JSON-able summary of a job's output: integers, strings,
booleans and floats.  Two digests agree when every non-float leaf matches
exactly and every float agrees to REL_TOL relative (ABS_FLOOR absolute for
values that are zero up to rounding).  Large arrays are summarised by
chunked sums so that checking does not raise the worker's peak memory.
"""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction

import numpy as np

REL_TOL = 1e-9          # acceptance criterion 3's tolerance
ABS_FLOOR = 1e-12       # for quantities whose reference is 0 up to rounding
CHUNK = 1 << 20
HEAD = 16


def chunked_stats(values: np.ndarray, N: int) -> dict:
    """Mean, mean modulus, position-weighted mean and support size of
    values[1..N], computed in chunks so no full-length temporary is made."""
    total = 0j
    total_abs = 0.0
    moment = 0j
    nonzero = 0
    for lo in range(1, N + 1, CHUNK):
        hi = min(N + 1, lo + CHUNK)
        v = values[lo:hi]
        n = np.arange(lo, hi, dtype=np.float64) / N
        total += complex(v.sum())
        total_abs += float(np.abs(v).sum())
        moment += complex((v * n).sum())
        nonzero += int(np.count_nonzero(v))
    return {"mean": total / N, "abs_mean": total_abs / N,
            "moment": moment / N, "nonzero": nonzero}


def plain(obj):
    """A JSON-able digest of a library result (dataclasses, numpy, exact values)."""
    if obj is None or isinstance(obj, (bool, str)):
        return obj
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return {"re": float(obj.real), "im": float(obj.imag)}
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, np.ndarray):
        if obj.size <= 64:
            return [plain(x) for x in obj.tolist()]
        return {"len": int(obj.size), "head": [plain(x) for x in obj[:HEAD].tolist()],
                "sum": plain(obj.sum())}
    kind = type(obj).__name__
    if kind == "LevelSet":
        m = obj.members
        return {"source": obj.source, "z": repr(obj.z), "N": obj.N, "count": obj.count,
                "exact": obj.exact, "head": [int(x) for x in m[:HEAD]],
                "member_sum": int(m.sum()), "last": int(m[-1]) if len(m) else None}
    if kind == "DirichletCharacter":
        return {"modulus": obj.modulus, "index": obj.index}
    if kind == "MultiplicativeFunction":
        return obj.label
    if kind in ("RootOfUnity", "Zero"):
        return repr(obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain(x) for x in obj]
    return repr(obj)


def close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    d = abs(a - b)
    return d <= ABS_FLOOR or d <= REL_TOL * max(abs(a), abs(b))


def compare(ref, got, path: str = "") -> list[str]:
    """Differences between a reference digest and a new one, as messages."""
    if isinstance(ref, dict) and isinstance(got, dict):
        if set(ref) != set(got):
            return [f"{path}: keys {sorted(set(ref) ^ set(got))} differ"]
        out = []
        for k in ref:
            out += compare(ref[k], got[k], f"{path}.{k}")
        return out
    if isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            return [f"{path}: length {len(got)} != reference {len(ref)}"]
        out = []
        for i, (a, b) in enumerate(zip(ref, got)):
            out += compare(a, b, f"{path}[{i}]")
        return out
    if isinstance(ref, float) or isinstance(got, float):
        numeric = all(isinstance(x, (int, float)) and not isinstance(x, bool)
                      for x in (ref, got))
        if numeric and close(float(ref), float(got)):
            return []
        return [f"{path}: {got!r} != reference {ref!r}"]
    if type(ref) is not type(got) or ref != got:
        return [f"{path}: {got!r} != reference {ref!r}"]
    return []
