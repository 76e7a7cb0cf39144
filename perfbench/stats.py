"""Summary statistics and run metadata shared by the benchmark's entry points.

Everything here is pure Python over lists of numbers (plus a lazy NumPy
import for the environment record), so the steadiness mode and the tests
can use it without building a workload.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import statistics
from pathlib import Path

#: Samples a tail percentile must keep strictly beyond it.
TAIL_MIN_BEYOND = 10
#: Consecutive parts of a run whose tails and throughputs are taken
#: separately; the run reports their median, so a stall of the shared host
#: within one part does not set the run's figure.
WINDOWS = 3

#: BLAS/OpenMP thread-count variables pinned before NumPy is imported.
THREAD_ENV_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def tail_percentile(count: int) -> float:
    """The highest percentile that keeps ``TAIL_MIN_BEYOND`` samples beyond it.

    With ``count`` samples that is ``100 * (count - 10) / count``, the
    nearest-rank position of the 11th-largest sample.  Below 20 samples no
    percentile above the median keeps ten beyond it, so the tail falls back
    to the median (and the run's info line says so through the percentile).
    """
    if count <= 0:
        raise ValueError("tail of no samples")
    return max(50.0, 100.0 * (count - TAIL_MIN_BEYOND) / count)


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with ``pct``% at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(round(pct / 100.0 * len(ordered), 9)))
    return float(ordered[rank - 1])


def tail(values) -> tuple[float, float]:
    """``(value, percentile)`` of the tail of ``values`` (see :func:`tail_percentile`)."""
    values = list(values)
    pct = tail_percentile(len(values))
    if pct == 50.0:
        return median(values), pct
    return percentile(values, pct), pct


def windows(values, count: int = WINDOWS) -> list:
    """``values`` (in time order) cut into ``count`` consecutive, near-equal parts."""
    values = list(values)
    size = len(values)
    return [values[part * size // count : (part + 1) * size // count] for part in range(count)]


def windowed_tail(values) -> tuple[float, float]:
    """Median over the run's windows of each window's :func:`tail`.

    Used when every window holds at least 20 samples, so that each window's
    tail keeps ten samples beyond it; otherwise the tail of the whole run.
    """
    values = list(values)
    if len(values) < WINDOWS * 2 * TAIL_MIN_BEYOND:
        return tail(values)
    parts = [tail(part) for part in windows(values)]
    return median(value for value, _ in parts), median(pct for _, pct in parts)


def summarize(values) -> dict:
    """Median, quartiles, extremes and relative spread of repeated measurements."""
    values = [float(value) for value in values]
    mid = median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "n": len(values),
        "median": mid,
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
        "spread": (q3 - q1) / abs(mid) if mid else 0.0,
    }


def source_digest(root: Path) -> str:
    """SHA-256 (first 16 hex digits) over ``src/**/*.py``: the program measured."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit(root: Path) -> "str | None":
    """The checked-out commit, read from ``.git`` without running git; None outside a repo."""
    git_dir = root / ".git"
    try:
        head = (git_dir / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = git_dir / ref
        if ref_path.exists():
            return ref_path.read_text().strip()
        for line in (git_dir / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def environment(root: Path, seed: int) -> dict:
    """Everything a result depends on besides the code: versions, cores, threads, seed."""
    import numpy as np

    blas = None
    try:
        config = np.show_config(mode="dicts")
        blas_info = config.get("Build Dependencies", {}).get("blas", {})
        blas = f"{blas_info.get('name')} {blas_info.get('version')}"
    except (TypeError, AttributeError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "threads": {name: os.environ.get(name) for name in THREAD_ENV_VARS},
        "seed": seed,
        "commit": git_commit(root),
        "source_sha256": source_digest(root),
    }
