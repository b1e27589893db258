"""Op execution, host facts and summary statistics shared by the workloads.

Every op calls the CLI in-process through `skymine.cli.run` with stdout and
stderr captured, so process start-up (importing numpy, scipy and click) is
not part of any timing.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import importlib.metadata
import io
import math
import os
import platform
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

MB = 1e6

FLUSH_POLICY = ("skymine never fsyncs and the benchmark cannot drop the page cache, "
                "so every store is read from and written to the page cache: rates are "
                "page-cache rates, not disk rates")


@dataclass
class Op:
    """One CLI invocation. `check(stdout)` returns an error message or None;
    `nbytes` is the logical record bytes the command covers."""

    kind: str
    argv: list
    nbytes: int
    check: Callable[[str], str | None] = lambda out: None
    store_dir: Path | None = None  # a store this op writes, for written-bytes accounting


@dataclass
class Result:
    kind: str
    wall_s: float
    error: str | None
    digest: str
    nbytes: int
    written_bytes: int


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(message)


def _file_states(directory: Path | None) -> dict:
    if directory is None or not directory.exists():
        return {}
    return {p.name: (p.stat().st_size, p.stat().st_mtime_ns)
            for p in directory.iterdir() if p.is_file()}


def execute(op: Op, tally: Tally) -> Result:
    """Run one op, check its output and count it. Exceptions the CLI does not
    map to an exit code are caught here and counted as a failed op."""
    from skymine import cli

    gc.collect()
    before = _file_states(op.store_dir)
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(op.argv)
    except Exception:  # a crash is a failed op, not a failed benchmark
        code, error = None, traceback.format_exc(limit=3)
    wall = time.perf_counter() - t0
    stdout = out.getvalue()
    if code is not None:
        error = (f"exit {code}: {err.getvalue().strip()[-300:]}" if code != 0
                 else op.check(stdout))
    after = _file_states(op.store_dir)
    written = sum(size for name, (size, mtime) in after.items() if before.get(name) != (size, mtime))
    tally.attempted += 1
    if error:
        tally.fail(f"{op.kind} {' '.join(op.argv)}: {error}")
    return Result(op.kind, wall, error, hashlib.sha256(stdout.encode()).hexdigest(),
                  op.nbytes, written)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (q in [0, 1]) of at least one value."""
    if len(values) == 1:
        return values[0]
    if q == 0.5:
        return statistics.median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def geomean(values) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _read_first(path: str, prefix: str = "") -> str | None:
    try:
        with open(path) as fh:
            for line in fh:
                if line.startswith(prefix):
                    return line.split(":", 1)[-1].strip() if prefix else line.strip()
    except OSError:
        return None
    return None


def _version(package: str) -> str | None:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def host_facts() -> dict:
    l3 = _read_first("/sys/devices/system/cpu/cpu0/cache/index3/size")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _read_first("/proc/cpuinfo", "model name") or platform.processor(),
        "l3_cache": l3,
        "ram_bytes": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "click": _version("click"),
        "flush_policy": FLUSH_POLICY,
    }
