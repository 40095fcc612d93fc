"""Machine fingerprint stamped on every benchmark report.

Numbers are only comparable on the same machine and software stack, so a
report records where it was measured, and ``run.py --compare`` refuses to
compare two reports on which :func:`mismatches` finds a difference.  The
git revision and source digest say *what* was measured; they are expected
to differ between two compared reports.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
from pathlib import Path
from typing import Dict, List

#: thread-count variables of the common BLAS/OpenMP runtimes; unset ones
#: are recorded as unset, because the default then depends on the library
THREAD_ENV_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

#: fields that describe the machine, not the code under test
MACHINE_FIELDS = ("nproc", "cpu_model", "python", "numpy", "blas", "thread_env")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas() -> str:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = deps["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}".strip()
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        return "unknown"


def _git_revision(root: Path) -> str:
    if not (root / ".git").exists():
        return "none"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def source_digest(root: Path) -> str:
    """sha256 over every ``src/**/*.py`` path and content (works without git)."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def machine_fingerprint(root: Path) -> Dict[str, object]:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "thread_env": {name: os.environ.get(name, "unset") for name in THREAD_ENV_VARS},
        "git_revision": _git_revision(root),
        "source_digest": source_digest(root),
    }


def mismatches(a: Dict[str, object], b: Dict[str, object]) -> List[str]:
    """Machine fields on which two fingerprints differ."""
    return [name for name in MACHINE_FIELDS if a.get(name) != b.get(name)]
