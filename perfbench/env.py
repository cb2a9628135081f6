"""Environment probe: prints one JSON object describing what the stages run on.

    PYTHONPATH=src python3 perfbench/env.py

Run with the same environment as the timed stages, so the BLAS thread count
it reports is the one they see. Importing `cofactor.cli` here also compiles
the package's bytecode before any stage is timed.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform


def _blas() -> dict:
    import numpy as np
    info = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"name": info.get("name"), "version": info.get("version"), "threads": threads}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def main() -> None:
    import numpy
    import scipy
    import cofactor.cli  # noqa: F401  (compiles bytecode before timing)
    blas = _blas()
    print(json.dumps({
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas["name"],
        "blas_version": blas["version"],
        "blas_threads": blas["threads"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
    }))


if __name__ == "__main__":
    main()
