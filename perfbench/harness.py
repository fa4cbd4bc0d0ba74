"""Closed-loop op runner, statistics, output digests and environment records.

A workload hands the runner a deterministic stream of ops: op i is built
from (seed, stream, i) alone, outside the timed region, and only its
``run`` call is timed.  The oracle and the digest look at each output right
after its call, outside the timed region too.
"""

from __future__ import annotations

import gc
import hashlib
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Optional

import reference

# p90 needs ten samples beyond it, so a measured phase runs at least 100 ops.
MIN_OPS = 100
# The digest covers the first DIGEST_OPS ops, which every measured phase
# completes whatever the machine's speed, so it is equal across runs of a seed.
DIGEST_OPS = 100

# Speed calibration.  On shared virtual machines the speed of one CPU can
# drift by 2x within seconds and by half between minutes, which would swamp
# any regression bound.  So a small fixed piece of exact-arithmetic work that
# never touches the package is timed before every op and after the last, and
# each op's time is scaled by KERNEL_REF_S / (median kernel time of the
# KERNEL_WINDOW samples on each side of it): times are reported as they would
# read at the speed where the kernel takes KERNEL_REF_S.
KERNEL_REF_S = 0.0005
KERNEL_WINDOW = 3
_KERNEL_TABLE = [Fraction(0)] + [Fraction((i * 37) % 33 - 16, 8) for i in range(1, 256)]
_KERNEL_POINTS = [tuple(Fraction((j * (i + 3) * 7) % 17 - 8, 8) for i in range(8))
                  for j in range(1, 5)]


def kernel_seconds() -> float:
    """One timed run of the calibration kernel."""
    start = time.perf_counter()
    {x: reference.choquet(_KERNEL_TABLE, x) for x in _KERNEL_POINTS}
    return time.perf_counter() - start


def speed_factor() -> float:
    """Scale from measured time to reference-speed time, measured now from
    as many kernel samples as scale one op."""
    return KERNEL_REF_S / statistics.median(kernel_seconds() for _ in range(2 * KERNEL_WINDOW))


@dataclass
class Op:
    """One timed call plus what the oracle and the digest need to judge it."""

    run: Callable[[], Any]
    check: Callable[[Any], bool]
    canon: Callable[[Any], str]
    cell: str
    grid_points: int = 0
    instances: Callable[[Any], int] = lambda out: 0


@dataclass
class Phase:
    """What a phase keeps per op: its cell, its time, the oracle's verdict and
    the op record.  Outputs are judged right after their op and dropped, so
    the benchmark's own heap does not grow with the run."""

    round_cells: list = field(default_factory=list)
    cells: list = field(default_factory=list)
    durations_ns: list = field(default_factory=list)
    kernel_s: list = field(default_factory=list)
    verdicts: list = field(default_factory=list)
    records: list = field(default_factory=list)
    canon: list = field(default_factory=list)
    prefix_rss_mb: float = 0.0

    def scaled_ns(self) -> list:
        """Op times at the reference speed.  Kernel sample i precedes op i, so
        op i sits between samples i and i + 1."""
        k, w = self.kernel_s, KERNEL_WINDOW
        return [d * KERNEL_REF_S / statistics.median(k[max(0, i + 1 - w):i + 1 + w])
                for i, d in enumerate(self.durations_ns)]

    @property
    def attempted(self) -> int:
        return len(self.cells)

    @property
    def failed(self) -> int:
        return self.verdicts.count(False)

    def seconds(self) -> float:
        """Measured op time, unscaled."""
        return sum(self.durations_ns) / 1e9

    def ops_per_s(self) -> float:
        """Ops per second of one round's mix, each op at its cell's median
        latency: robust to the odd slow op, exact for a fixed mix."""
        by_cell = {}
        for cell, dur in zip(self.cells, self.scaled_ns()):
            by_cell.setdefault(cell, []).append(dur)
        round_ns = sum(statistics.median(by_cell[c]) for c in self.round_cells)
        return len(self.round_cells) / (round_ns / 1e9)

    def latency_ms(self) -> tuple[float, float]:
        """Median and 90th percentile of per-op latency in milliseconds."""
        ms = [d / 1e6 for d in self.scaled_ns()]
        return statistics.median(ms), statistics.quantiles(ms, n=10, method="inclusive")[8]

    def digest(self) -> tuple[str, int]:
        """sha256 over the canonical text of the first DIGEST_OPS outputs."""
        h = hashlib.sha256()
        for i, text in enumerate(self.canon):
            h.update(("%d\t%s\n" % (i, text)).encode())
        return h.hexdigest(), len(self.canon)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _verdict(op, out, err) -> bool:
    """The oracle's verdict: False when the op raised or its output is wrong."""
    if err is not None:
        return False
    try:
        return bool(op.check(out))
    except Exception:  # a malformed output that breaks the oracle is wrong
        return False


def run_phase(workload, state, stream: str, seconds: Optional[float] = None,
              rounds: Optional[int] = None, tracer=None,
              memory: Callable[[], float] = peak_rss_mb) -> Phase:
    """Run whole rounds of ops, either until ``seconds`` of op time (and at
    least MIN_OPS ops) or for a fixed number of ``rounds``.

    Stopping only at round boundaries keeps the op mix of every run the same.
    ``memory()`` is read once MIN_OPS ops are done (or at the end of a shorter
    phase), so the reading covers the same work however fast the ops ran.
    """
    per_round = workload.round_size(state)
    phase = Phase()
    clock = time.perf_counter_ns
    budget_ns = None if seconds is None else seconds * 1e9
    timed_ns = 0
    gc.collect()
    i = 0
    while True:
        phase.kernel_s.append(kernel_seconds())
        if i % per_round == 0:
            if rounds is not None and i >= rounds * per_round:
                break
            if budget_ns is not None and i >= MIN_OPS and timed_ns >= budget_ns:
                break
        op = workload.make_op(state, stream, i)
        out = err = None
        start = clock()
        try:
            out = op.run() if tracer is None else tracer.root(op.run)
        except Exception as exc:  # an unexpected raise is a failed op, not a crash
            err = exc
        dur = clock() - start
        timed_ns += dur
        ok = _verdict(op, out, err)
        if i < per_round:
            phase.round_cells.append(op.cell)
        if i < DIGEST_OPS:
            phase.canon.append("raised %s" % type(err).__name__ if err is not None
                               else op.canon(out))
        count = 0 if err is not None else op.instances(out)
        phase.cells.append(op.cell)
        phase.durations_ns.append(dur)
        phase.verdicts.append(ok)
        phase.records.append([op.cell, op.grid_points, count, dur // 1000])
        i += 1
        if i == MIN_OPS:
            phase.prefix_rss_mb = memory()
    if i < MIN_OPS:
        phase.prefix_rss_mb = memory()
    return phase


def current_rss_kb() -> float:
    gc.collect()
    with open("/proc/self/statm") as fh:
        resident = int(fh.read().split()[1])
    return resident * os.sysconf("SC_PAGE_SIZE") / 1024.0


def seconds_since_process_start() -> float:
    """Wall time since this process was created, from /proc (10 ms ticks)."""
    with open("/proc/self/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    start_ticks = int(fields[19])
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")


def _commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unavailable (not a git checkout)"


def _source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "comodular").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(root: Path, workload: str, seed: int, trace: int, caches_empty: bool) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "commit": _commit(root),
        "src_sha256": _source_digest(root),
        "executable": sys.executable,
        "fresh_process": True,
        "module_caches_empty_at_start": caches_empty,
        "clients": 1,
        "loop": "closed",
    }
