"""Shared plumbing: locating the program, host fingerprint, statistics and
the result line.

Everything here is benchmark-side. The program under test is imported from
the checkout's ``src/`` directory only; a checkout without it is an error,
never a silent fallback to some other installed copy.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
import os
import platform
import resource
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

#: Checkout root: ``perfbench/`` sits directly below it.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Benchmark-private state (store file, reference answers, span dumps).
#: Listed in the root ``.gitignore``.
CACHE_DIR = ROOT / "perfbench" / ".cache"
OUT_DIR = ROOT / "perfbench" / ".out"


class ProgramMissing(RuntimeError):
    """The checkout holds no importable program under ``src/``."""


def load_program() -> None:
    """Put ``src/`` first on ``sys.path`` and import ``repro`` from it."""
    package = SRC / "repro" / "__init__.py"
    if not package.is_file():
        raise ProgramMissing(f"no program at {package.parent}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    location = Path(repro.__file__).resolve()
    if SRC.resolve() not in location.parents:
        raise ProgramMissing(f"imported repro from {location}, not from {SRC}")


def keep_temp_files_in_checkout() -> None:
    """Point ``TMPDIR`` (the C compiler's scratch, Python's ``tempfile``)
    into the checkout, for this process and its children."""
    tmp = CACHE_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)


def subprocess_env() -> Dict[str, str]:
    """Environment for child processes: the caller's, plus ``src`` on the
    import path. No program switch is set."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def process_age_s() -> float:
    """Seconds since this process was created (``/proc`` start time
    against ``CLOCK_BOOTTIME``), so set-up time includes interpreter start
    and imports."""
    with open("/proc/self/stat", encoding="ascii") as handle:
        stat = handle.read()
    fields = stat[stat.rindex(")") + 2:].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def source_digest() -> str:
    """Hash of the program's sources: cached artefacts are only reused
    for byte-identical program code."""
    digest = hashlib.sha256()
    package = SRC / "repro"
    for path in sorted(package.rglob("*")):
        if path.suffix not in (".py", ".c", ".h") or "_build" in path.parts:
            continue
        digest.update(str(path.relative_to(package)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def fingerprint() -> Dict[str, object]:
    """Host and build facts that change what a number means."""
    import numpy as np

    from repro.parallel.vectorized import _native_kernel

    governor_path = Path("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor")
    try:
        governor: Optional[str] = governor_path.read_text().strip()
    except OSError:
        governor = None
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        nproc = os.cpu_count() or 1
    return {
        "nproc": nproc,
        "governor": governor,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "native_kernel": _native_kernel() is not None,
        "machine": platform.machine(),
    }


#: Median duration of one probe pass on the reference host (a 2-CPU
#: x86_64 virtual machine), in seconds. Timings are reported at that
#: host's speed; see ``HostProbe``.
PROBE_REFERENCE_S = 0.7e-3
#: Passes of one probe block: untimed first, then timed.
PROBE_WARM_PASSES = 4
PROBE_TIMED_PASSES = 8
#: A query's host speed is read from the probes taken from this long
#: before it starts to this long after it ends (wall clock, seconds).
PROBE_WINDOW_S = 1.0
#: How strongly query time follows probe time. Fitting log(throughput)
#: against log(median probe time) over 22 runs of both workloads, with
#: this probe and variants of it, gave slopes of 0.53 to 0.90: the engine
#: and the probe do not stress the processor alike.
PROBE_ELASTICITY = 0.7


class HostProbe:
    """Times the host with a fixed piece of benchmark-side work.

    The host's speed drifts: a fixed piece of work ran up to 1.7 times
    slower in some seconds than in others, and whole runs slowed down
    together. The probe is a NumPy sort plus interpreted Python over a
    dict and integers. It runs no program code, so a change to the program
    moves the query timings and not the probe. Each ``sample`` runs a
    block of passes; the first few are not timed, because a pass right
    after a query runs slower by an amount that depends on what the query
    left in the caches. ``slowdown`` turns the samples near an interval
    into the factor by which to divide a timing taken in that interval.
    """

    def __init__(self) -> None:
        import numpy as np

        self._sortable = np.random.default_rng(0).random(20_000)
        self._keys = [str(i) for i in range(3_000)]
        #: ``time.perf_counter`` midpoint and median pass duration (s) of
        #: each sample.
        self.at: List[float] = []
        self.took: List[float] = []

    def sample(self) -> None:
        """Time one block of passes and record it."""
        for _ in range(PROBE_WARM_PASSES):
            self._work()
        passes = []
        for _ in range(PROBE_TIMED_PASSES):
            start = time.perf_counter()
            self._work()
            passes.append(time.perf_counter() - start)
        self.at.append(time.perf_counter() - 0.5 * sum(passes))
        self.took.append(median(passes))

    def _work(self) -> None:
        import numpy as np

        np.sort(self._sortable)
        table = {}
        for key in self._keys:
            table[key] = len(key)
        total = 0
        for i in range(6_000):
            total += i

    def slowdown(self, start: float = -math.inf, end: float = math.inf) -> float:
        """Host slowdown against the reference host over ``[start, end]``
        (``time.perf_counter`` values; the default is every sample): the
        median of the samples within ``PROBE_WINDOW_S`` of the interval,
        or the nearest sample if none is, over ``PROBE_REFERENCE_S``,
        raised to ``PROBE_ELASTICITY``."""
        lo = bisect.bisect_left(self.at, start - PROBE_WINDOW_S)
        hi = bisect.bisect_right(self.at, end + PROBE_WINDOW_S)
        if lo < hi:
            took = median(self.took[lo:hi])
        else:
            nearest = min(range(len(self.at)), key=lambda i: abs(self.at[i] - start))
            took = self.took[nearest]
        return (took / PROBE_REFERENCE_S) ** PROBE_ELASTICITY


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``q``-th
    percentile."""
    return n - max(1, math.ceil(q / 100.0 * n))


def emit(line: str) -> None:
    """One human-readable line (never the last line of a run)."""
    print(line, flush=True)


def emit_result(
    correct: bool,
    attempted: int,
    failed: int,
    metrics: Dict[str, float],
    units: Dict[str, str],
) -> None:
    """The result line: the last line of standard output."""
    payload = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(value), "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(payload), flush=True)


def write_json(path: Path, payload: object) -> None:
    """Atomic JSON write (temporary file + rename)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(payload))
    os.replace(tmp, path)


def benchmark_spec() -> Dict[str, object]:
    """``BENCHMARK.json`` from the checkout root."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_units(section: str) -> Dict[str, str]:
    """name → unit for one metric section of ``BENCHMARK.json``."""
    return {entry["name"]: entry["unit"] for entry in benchmark_spec()[section]}
