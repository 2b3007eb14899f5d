"""The environment block every result carries: versions, BLAS and its threads, cores.

``threadpoolctl`` is not available, so the thread count of each bundled
OpenBLAS is read through ctypes at run time.
"""

import ctypes
import os
import platform
from pathlib import Path

import numpy
import scipy

# Exported by scipy-openblas builds; the 64-bit-integer build adds a suffix.
_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_", "openblas_get_num_threads")
_CONFIG_SYMBOLS = ("scipy_openblas_get_config64_", "scipy_openblas_get_config",
                   "openblas_get_config64_", "openblas_get_config")


def _call(lib, symbols, restype):
    for symbol in symbols:
        func = getattr(lib, symbol, None)
        if func is not None:
            func.argtypes = []
            func.restype = restype
            return func()
    return None


def _openblas(package):
    """Thread count and build string of the OpenBLAS bundled with a numpy/scipy wheel."""
    libdir = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
    for path in sorted(libdir.glob("libscipy_openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        config = _call(lib, _CONFIG_SYMBOLS, ctypes.c_char_p)
        return {"library": path.name, "threads": _call(lib, _THREAD_SYMBOLS, ctypes.c_int),
                "config": config.decode() if config else None}
    return {"library": None, "threads": None, "config": None}


def _build_blas(package):
    deps = package.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {"name": blas.get("name"), "version": blas.get("version")}


def blas_threads():
    """Current thread count of numpy's and of scipy's OpenBLAS."""
    return {p.__name__: _openblas(p)["threads"] for p in (numpy, scipy)}


def describe(workload_params):
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {p.__name__: {**_build_blas(p), **_openblas(p)} for p in (numpy, scipy)},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "workload": workload_params,
    }
