"""Span tracing of the multfun layers from outside the package.

`install(tracer)` wraps the public functions of each multfun module, plus the
SieveContext constructor and statistic getters and
MultiplicativeFunction.prime_values, and rebinds every module attribute that
held an original, so `from .x import y` names in other modules are traced
too.  Spans (name, start, end, parent, run id, attributes, error flag) stay
in memory until `dump`.  A tracer made with memory=True also records the
peak traced allocation of the spans in MEM_SPANS through tracemalloc, on
only while such a span is open.  tracemalloc slows every allocation, so the
benchmark takes times from one traced pass and peaks from another.

`layer_metrics` turns the spans of one traced pass into the per-layer
metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
import tracemalloc
from collections import defaultdict

MODULES = ("arith", "mf_core", "characters", "seminorms", "pretentious",
           "levelsets", "ergodic", "cli")
# Called once per element or per prime power; a span each would swamp the run.
NOT_WRAPPED = {"cli.jsonable", "mf_core.prime_power_value", "mf_core.ppow_code", "arith.e"}
STATS = ("big_omega", "small_omega", "tau", "radical", "squarefree")
MEM_SPANS = {"mf_core.sieve_range", "pretentious.halasz_classify", "levelsets.zero_repair"}
# catalog kinds the workloads sieve ("power" and "generic" are never sieved)
KINDS = ("omega_phase", "small_omega_phase", "squarefree_indicator", "phi_ratio",
         "periodic", "tau_character", "repaired")
CLI_COMMANDS = ("catalog", "sieve", "mean", "apmean", "distance", "classify", "gowers",
                "spectrum", "levelset", "structure", "divisibility", "recurrence",
                "convergence")


def _arg(args, kwargs, i, name):
    if len(args) > i:
        return args[i]
    return kwargs.get(name)


def _annotate(name, args, kwargs, result) -> dict | None:
    if name == "mf_core.sieve_range":
        return {"kind": args[0].kind, "N": int(_arg(args, kwargs, 1, "N"))}
    if name == "characters.characters_mod":
        return {"q": int(args[0]), "n": len(result)}
    if name == "seminorms.gowers_fast":
        return {"s": int(_arg(args, kwargs, 2, "s"))}
    if name == "levelsets.level_set":
        return {"members": result.count}
    if name == "cli.run":
        argv = _arg(args, kwargs, 0, "argv") or []
        return {"command": argv[0] if argv else None}
    if name == "cli.write_report":
        return {"bytes": os.path.getsize(args[0])}
    return None


class Tracer:
    def __init__(self, run_id: str, memory: bool = False):
        self.run_id = run_id
        self.memory = memory
        self.spans: list[list] = []     # [name, start, end, parent, attrs, error]
        self.stack: list[int] = []
        self.enabled = True
        self._mem: list[list] = []      # per open memory span: [current at entry, peak]

    def call(self, name, fn, args, kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        idx = len(self.spans)
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, None, False]
        self.spans.append(rec)
        self.stack.append(idx)
        mem = self.memory and name in MEM_SPANS
        if mem:
            self._mem_enter()
        rec[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            rec[5] = True
            raise
        finally:
            rec[2] = time.perf_counter()
            self.stack.pop()
            if mem:
                peak = self._mem_exit()
        attrs = _annotate(name, args, kwargs, result)
        if mem:
            attrs = dict(attrs or {}, peak_bytes=peak)
        rec[4] = attrs
        return result

    def _mem_enter(self):
        if not self._mem:
            tracemalloc.start()
        cur, peak = tracemalloc.get_traced_memory()
        for open_span in self._mem:
            open_span[1] = max(open_span[1], peak)
        tracemalloc.reset_peak()
        self._mem.append([cur, cur])

    def _mem_exit(self) -> int:
        _, peak = tracemalloc.get_traced_memory()
        for open_span in self._mem:
            open_span[1] = max(open_span[1], peak)
        start, top = self._mem.pop()
        if not self._mem:
            tracemalloc.stop()
        return int(top - start)

    def as_run(self) -> dict:
        return {"run": self.run_id, "spans": self.spans}

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.as_run(), fh)


def _wrap(tracer, name, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)

    return traced


def install(tracer: Tracer) -> None:
    """Wrap the multfun layers in place, for the rest of the process."""
    pkg = importlib.import_module("multfun")
    mods = {m: importlib.import_module(f"multfun.{m}") for m in MODULES}
    wrapped: dict[int, tuple] = {}
    for mname, mod in mods.items():
        for attr, obj in vars(mod).items():
            name = f"{mname}.{attr}"
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__ or name in NOT_WRAPPED):
                continue
            wrapped[id(obj)] = (obj, _wrap(tracer, name, obj))
    for mod in (pkg, *mods.values()):
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrapped and wrapped[id(obj)][0] is obj:
                setattr(mod, attr, wrapped[id(obj)][1])
    ctx_cls = mods["arith"].SieveContext
    ctx_cls.__init__ = _wrap(tracer, "arith.SieveContext", ctx_cls.__init__)
    for stat in STATS:
        getter = getattr(ctx_cls, stat).fget
        setattr(ctx_cls, stat, property(_wrap(tracer, f"arith.stat.{stat}", getter)))
    mf_cls = mods["mf_core"].MultiplicativeFunction
    mf_cls.prime_values = _wrap(tracer, "mf_core.prime_values", mf_cls.prime_values)


# --------------------------------------------------------------------------
# Per-layer metrics

def _durations(spans):
    """Inclusive and self time per span; self time excludes the children."""
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for s, d in zip(spans, dur):
        if s[3] >= 0:
            child[s[3]] += d
    return dur, [d - c for d, c in zip(dur, child)]


def _outermost(spans, i):
    """True when no ancestor of span i has the same name (recursion counted once)."""
    name, p = spans[i][0], spans[i][3]
    while p >= 0:
        if spans[p][0] == name:
            return False
        p = spans[p][3]
    return True


def _peaks(mem_runs: list[dict]) -> dict:
    """Largest peak per MEM_SPANS name.  sieve_range's is per table entry, at
    the largest N sieved (where the fixed overhead per call is negligible)."""
    peak = defaultdict(int)
    top_n = 0
    for run in mem_runs:
        for name, _, _, _, attrs, _ in run["spans"]:
            if not attrs or "peak_bytes" not in attrs:
                continue
            if name == "mf_core.sieve_range":
                if attrs["N"] > top_n:
                    top_n, peak[name] = attrs["N"], 0
                if attrs["N"] == top_n:
                    peak[name] = max(peak[name], attrs["peak_bytes"])
            else:
                peak[name] = max(peak[name], attrs["peak_bytes"])
    peak["mf_core.sieve_range"] = peak["mf_core.sieve_range"] / (top_n + 1) if top_n else 0.0
    return peak


def layer_metrics(runs: list[dict], mem_runs: list[dict], traced_wall: float,
                  untraced_wall: float) -> dict:
    """Per-layer metrics from the span dumps of a traced pass and of a
    memory-traced pass (one dump per process; the cli workload has one per
    command)."""
    total = defaultdict(float)      # name -> inclusive seconds (outermost spans)
    self_s = defaultdict(float)     # name -> self seconds
    count = defaultdict(int)
    errors = defaultdict(int)
    m = defaultdict(int)            # derived sums: seconds, and counts kept integral
    sieve_n = 0
    peak = _peaks(mem_runs)
    for run in runs:
        spans = run["spans"]
        dur, own = _durations(spans)
        built = {s[3] for s in spans if s[0] == "arith.SieveContext"}
        seen_q = set()
        for i, (name, _, _, _, attrs, err) in enumerate(spans):
            attrs = attrs or {}
            count[name] += 1
            self_s[name] += own[i]
            outermost = _outermost(spans, i)
            if outermost:
                total[name] += dur[i]
            if err:
                errors[name.split(".")[0]] += 1
            if name == "mf_core.sieve_range":
                m[f"mf_core.sieve_range.{attrs.get('kind')}.self_s"] += own[i]
                sieve_n += attrs["N"] if outermost else 0
            elif name == "arith.get_context":
                m["arith.get_context.hits"] += i not in built
            elif name == "characters.characters_mod":
                m["characters.characters_mod.chars_returned"] += attrs.get("n", 0)
                first = attrs.get("q") not in seen_q
                seen_q.add(attrs.get("q"))
                m["characters.characters_mod.first_s" if first
                  else "characters.characters_mod.repeat_s"] += dur[i]
            elif name == "seminorms.gowers_fast":
                m[f"seminorms.gowers_fast.u{attrs.get('s')}_s"] += dur[i]
            elif name == "levelsets.level_set":
                m["levelsets.level_set.members"] += attrs.get("members", 0)
            elif name == "cli.run":
                m[f"cli.command.{attrs.get('command')}_s"] += dur[i]
            elif name == "cli.write_report":
                m["cli.report_bytes"] += attrs.get("bytes", 0)

    out = {
        "arith.SieveContext.build_s": total["arith.SieveContext"],
        "arith.SieveContext.builds": count["arith.SieveContext"],
        "arith.get_context.calls": count["arith.get_context"],
        "arith.get_context.hit_ratio": (m["arith.get_context.hits"] / count["arith.get_context"]
                                        if count["arith.get_context"] else 0.0),
        "mf_core.sieve_range.ns_per_n": (total["mf_core.sieve_range"] / sieve_n * 1e9
                                         if sieve_n else 0.0),
        "mf_core.sieve_range.peak_bytes_per_n": peak["mf_core.sieve_range"],
        "mf_core.prime_values.s": total["mf_core.prime_values"],
        "characters.characters_mod.calls": count["characters.characters_mod"],
        "seminorms.gowers_fast.calls": count["seminorms.gowers_fast"],
        "pretentious.ap_mean.calls": count["pretentious.ap_mean"],
        "pretentious.halasz_classify.peak_bytes": peak["pretentious.halasz_classify"],
        "levelsets.zero_repair.peak_bytes": peak["levelsets.zero_repair"],
        "cli.write_report.s": total["cli.write_report"],
        "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
    }
    for stat in STATS:
        out[f"arith.stat.{stat}_s"] = total[f"arith.stat.{stat}"]
    for kind in KINDS:
        out[f"mf_core.sieve_range.{kind}.self_s"] = m[f"mf_core.sieve_range.{kind}.self_s"]
    for key in ("characters.characters_mod.chars_returned", "characters.characters_mod.first_s",
                "characters.characters_mod.repeat_s", "seminorms.gowers_fast.u2_s",
                "seminorms.gowers_fast.u3_s", "levelsets.level_set.members", "cli.report_bytes"):
        out[key] = m[key]
    for cmd in CLI_COMMANDS:
        out[f"cli.command.{cmd}_s"] = m[f"cli.command.{cmd}_s"]
    for name in ("seminorms.uniformity_profile", "pretentious.aperiodicity_test",
                 "pretentious.rap_test", "pretentious.halasz_classify",
                 "levelsets.zero_repair", "levelsets.find_k_and_character",
                 "levelsets.structure_pair"):
        out[f"{name}.self_s"] = self_s[name]
    for name in ("seminorms.spectrum_scan", "pretentious.ap_mean",
                 "pretentious.euler_product_mean", "pretentious.pretentious_distance",
                 "levelsets.concentration_analysis", "levelsets.level_set",
                 "levelsets.divisibility_report", "levelsets.density_profile",
                 "ergodic.recurrence_average", "ergodic.convergence_average"):
        out[f"{name}.s"] = total[name]
    for mod in MODULES:
        out[f"{mod}.errors"] = errors[mod]
    return out
