"""Facts about the machine and the code under test, printed with every result."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess

import numpy as np


def _blas():
    """BLAS vendor string and the thread count the loaded library reports."""
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    vendor = f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()
    threads = None
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                threads = fn()
                break
        if threads is not None:
            break
    return vendor, threads


def _git_commit(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except OSError:  # no git on this machine
        return None
    return out.stdout.strip() or None


def _source_digest(package_dir):
    """sha256 over the package's .py files, so results without git still name
    the code they measured."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(package_dir)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(package_dir, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def facts(root, package_dir):
    vendor, threads = _blas()
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": vendor,
        "blas_threads": threads,
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(package_dir),
    }
