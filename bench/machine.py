"""Environment block and BLAS thread control for the benchmark.

numpy and scipy each ship their own OpenBLAS build, so thread counts are read
and set on every OpenBLAS library mapped into the process, through the
library's own ``*_get_num_threads`` / ``*_set_num_threads`` entry points.
"""

from __future__ import annotations

import ctypes
import os
import platform
import sys
from contextlib import contextmanager

_PREFIXES = ("scipy_openblas", "openblas")
_SUFFIXES = ("64_", "")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _mapped_openblas_paths() -> list[str]:
    paths = set()
    with open("/proc/self/maps") as f:
        for line in f:
            path = line.split()[-1]
            base = os.path.basename(path)
            if "openblas" in base and ".so" in base:
                paths.add(path)
    return sorted(paths)


class _Blas:
    def __init__(self, path: str):
        self.path = path
        lib = ctypes.CDLL(path)
        for prefix in _PREFIXES:
            for suffix in _SUFFIXES:
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get is not None and set_ is not None:
                    get.restype = ctypes.c_int
                    get.argtypes = []
                    set_.restype = None
                    set_.argtypes = [ctypes.c_int]
                    self._get, self._set = get, set_
                    self.config = ""
                    if config is not None:
                        config.restype = ctypes.c_char_p
                        config.argtypes = []
                        self.config = config().decode(errors="replace").strip()
                    return
        raise OSError(f"{path} exports no OpenBLAS thread control")

    @property
    def threads(self) -> int:
        return int(self._get())

    @threads.setter
    def threads(self, n: int):
        self._set(int(n))


def blas_libraries() -> list[_Blas]:
    """Every OpenBLAS mapped into this process; import numpy/scipy first."""
    libs = []
    for path in _mapped_openblas_paths():
        try:
            libs.append(_Blas(path))
        except OSError:
            continue
    return libs


@contextmanager
def blas_threads(n: int):
    """Run the body with every OpenBLAS library limited to ``n`` threads."""
    libs = blas_libraries()
    saved = [lib.threads for lib in libs]
    try:
        for lib in libs:
            lib.threads = n
        yield
    finally:
        for lib, k in zip(libs, saved):
            lib.threads = k


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    """Interpreter, library, BLAS and CPU facts recorded with every run."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_name": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_libraries": [
            {"library": os.path.basename(lib.path), "threads": lib.threads, "config": lib.config}
            for lib in blas_libraries()
        ],
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
    }
