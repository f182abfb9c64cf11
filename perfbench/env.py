"""Process environment: BLAS pinning, the program's source path,
provenance, memory and the thread census used by the teardown check.

:func:`pin_blas` must run before numpy is first imported.
"""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import subprocess
import sys
import threading
import time
from pathlib import Path

#: Repository root: the benchmark runs from a checkout holding ``src/``.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
BLAS_THREADS = "1"


def pin_blas() -> None:
    """One BLAS thread, so measured concurrency is the program's own."""
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS


def nproc() -> int:
    """CPUs this process may run on (what ``nproc`` prints)."""
    return len(os.sched_getaffinity(0))


def require_program() -> None:
    """Exit non-zero, printing no result, when ``src/repro`` is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program source at {SRC}/repro; "
                         f"run from a full checkout\n")
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def code_digest() -> str:
    """sha256 over every file under ``src/`` (path and bytes), so two
    checkouts of one commit agree even without git metadata."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def blas_info() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {key: blas.get(key) for key in ("name", "version",
                                           "openblas configuration")
            if blas.get(key) is not None}


def provenance(**extra) -> dict:
    import numpy as np

    return {
        "commit": commit(),
        "code_sha256": code_digest(),
        "cpu_count": os.cpu_count(),
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        **extra,
    }


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far (Linux: KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_probe_ms() -> float:
    """Wall time of a fixed pure-Python loop: how fast the host ran the
    process just now.  Reported beside the metrics, never folded in."""
    t0 = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i
    return (time.perf_counter() - t0) * 1e3


def live_threads() -> set[int]:
    return {t.ident for t in threading.enumerate() if t.is_alive()}


def leaked_threads(before: set[int], timeout_s: float = 10.0) -> list[str]:
    """Names of threads started since ``before`` that outlive teardown."""
    deadline = time.monotonic() + timeout_s
    while True:
        extra = [t for t in threading.enumerate()
                 if t.is_alive() and t.ident not in before]
        if not extra or time.monotonic() >= deadline:
            return [t.name for t in extra]
        extra[0].join(0.1)
