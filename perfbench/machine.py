"""The machine record written beside every result.

Reads only this process's view of the system (/proc, /sys, numpy's build
configuration, the loaded OpenBLAS library).  Fields that cannot be read
are recorded as null rather than guessed.
"""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

_BLAS_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads")


def _read(path) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def _cpu_model() -> str | None:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return None


def _caches() -> dict:
    """Cache sizes of CPU 0 by level, as the kernel reports them (per instance)."""
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        level, kind, size = (_read(idx / f) for f in ("level", "type", "size"))
        if kind in ("Unified", "Data") and level:
            shared = _read(idx / "shared_cpu_list")
            out[f"L{level}{'d' if kind == 'Data' else ''}"] = {"size": size,
                                                                "shared_cpu_list": shared}
    return out


def _ram_mb() -> float | None:
    for line in (_read("/proc/meminfo") or "").splitlines():
        if line.startswith("MemTotal:"):
            return int(line.split()[1]) / 1024.0
    return None


def _blas() -> dict:
    import numpy as np

    info = {"name": None, "version": None, "threads": None, "library": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (TypeError, KeyError):
        pass
    maps = _read("/proc/self/maps") or ""
    libs = sorted({ln.split()[-1] for ln in maps.splitlines() if "openblas" in ln.lower()
                   and ln.split()[-1].startswith("/")})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in _BLAS_THREAD_SYMBOLS:
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                info["threads"], info["library"] = int(fn()), os.path.basename(lib)
                return info
    return info


def record() -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "ram_mb": _ram_mb(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "env": {k: os.environ.get(k) for k in ("MULTFUN_MEM_CAP_MB", "OPENBLAS_NUM_THREADS",
                                               "OMP_NUM_THREADS")},
    }


if __name__ == "__main__":
    import json

    print(json.dumps(record(), indent=2))
