"""Statistics, outcome accounting and span tracing for the ekrlab benchmark.

Nothing here imports ekrlab, so the helpers are testable on their own.
"""

from __future__ import annotations

import json
import math
import re
import statistics
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# Metric tables: name -> unit.  BENCHMARK.json lists the same names.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "analytics.context_ms": "ms",
    "hypergraph.parse_ms": "ms",
    "hypergraph.sample_ms": "ms",
    "hypergraph.sample_ms_p50": "ms",
    "hypergraph.stats_ms": "ms",
    "hypergraph.stats_ms_p50": "ms",
    "hypergraph.edges": "count",
    "verifier.adjacency_ms": "ms",
    "verifier.omega_ms": "ms",
    "verifier.nontrivial_ms": "ms",
    "verifier.nontrivial_calls": "count",
    "verifier.undecided": "count",
    "witnesses.classify_ms": "ms",
    "witnesses.generic_ms": "ms",
    "witnesses.hm_ms": "ms",
    "witnesses.generic_found": "count",
    "montecarlo.trial_ms_p50": "ms",
    "montecarlo.trial_ms_p99": "ms",
    "montecarlo.parallel_efficiency": "ratio",
    "montecarlo.overhead_ms_per_point": "ms",
    "montecarlo.worker_rss_mb": "MB",
    "trace.overhead_s": "s",
}

_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
_UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def valid_name(name: str) -> bool:
    return bool(_NAME.match(name))


def valid_unit(unit: str) -> bool:
    return bool(_UNIT.match(unit))


# ---------------------------------------------------------------------------
# Percentiles
# ---------------------------------------------------------------------------

# candidate percentiles, in per mille so the "samples beyond" test is exact
PERMILLES = (500, 900, 990, 999)


def tail_permille(n: int) -> int | None:
    """Highest candidate percentile (per mille) with at least ten of n
    samples beyond it, or None when even the median has fewer."""
    best = None
    for pm in PERMILLES:
        if n * (1000 - pm) >= 10 * 1000:
            best = pm
    return best


def permille_label(pm: int) -> str:
    """p50, p90, p99, p99.9."""
    return "p" + (str(pm // 10) if pm % 10 == 0 else f"{pm / 10:g}")


def percentile(values, pm: int) -> float:
    """Nearest-rank percentile; the median itself is interpolated."""
    s = sorted(values)
    if not s:
        raise ValueError("percentile of no samples")
    if pm == 500:
        return statistics.median(s)
    return s[max(0, math.ceil(len(s) * pm / 1000) - 1)]


def median_per_op(rounds_of_op_times) -> list[float]:
    """Each operation's median time over the rounds (rounds x ops -> ops).

    Every round runs the same operations on the same inputs; the median
    keeps one slow or fast round from moving an operation, and the spread
    between operations is what the percentiles then describe.
    """
    return [statistics.median(times) for times in zip(*rounds_of_op_times)]


# ---------------------------------------------------------------------------
# Host speed
# ---------------------------------------------------------------------------

# reference_work's time on an idle 2-vCPU host (Python 3.11, numpy 2.4);
# reported times are scaled to that host speed.
REFERENCE_S = 0.005


def reference_work() -> int:
    """Fixed work shaped like one sweep trial: a Philox generator and integer
    draws (the sampler), tuple-keyed dict counts (degree stats) and big-int
    adjacency rows (the searches).  It is part of the benchmark and never
    changes with the program."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(2014, spawn_key=(0,))))
    members = rng.integers(0, 24, size=(1000, 3)).tolist()
    masks = [(1 << a) | (1 << b) | (1 << c) for a, b, c in members]
    pair: dict = {}
    for a, b, c in members:
        for key in ((a, b), (a, c), (b, c)):
            pair[key] = pair.get(key, 0) + 1
    adj = []
    for i, mi in enumerate(masks):
        row = 0
        for j in range(i + 1, min(i + 50, len(masks))):
            if mi & masks[j]:
                row |= 1 << j
        adj.append(row)
    return sum(r.bit_count() for r in adj) + len(pair)


def timed_reference(_=None) -> float:
    t0 = perf_counter()
    reference_work()
    return perf_counter() - t0


class HostSpeed:
    """Reference samples taken between operations, to rescale their times.

    The host is shared: the same work runs up to twice as slow while other
    tenants are busy, in phases from under a second to minutes.  A time
    scaled by REFERENCE_S / (mean reference time around it) cancels most of
    that common-mode slowdown.
    """

    def __init__(self, pool=None, workers: int = 1):
        # with a pool, a sample runs on every worker at once: the speed of
        # all CPUs, for calls that use them all
        self.samples: list[float] = []
        self.pool = pool
        self.workers = workers

    def sample(self) -> float:
        """Run reference_work (once per worker); return its mean time."""
        if self.pool is None:
            elapsed = timed_reference()
        else:
            elapsed = statistics.fmean(self.pool.map(timed_reference, range(self.workers)))
        self.samples.append(elapsed)
        return elapsed

    @staticmethod
    def scaled(seconds: float, *refs: float) -> float:
        """A time at reference speed, given reference samples taken around it."""
        return seconds * REFERENCE_S / statistics.fmean(refs)


# ---------------------------------------------------------------------------
# Outcome accounting
# ---------------------------------------------------------------------------

class Tally:
    """Attempted and failed operations plus correctness errors.

    An operation (a trial or an instance) fails when it runs out of budget
    or fails a correctness check; it counts once however many rounds it
    failed in.  A correctness error that concerns no single operation (two
    CSVs that differ, say) makes the run incorrect without failing an op.
    """

    def __init__(self, attempted: int = 0):
        self.attempted = attempted
        self.failed_ops: set = set()
        self.errors: list[str] = []

    def exhausted(self, op) -> None:
        self.failed_ops.add(op)

    def check(self, ok: bool, op, message: str) -> bool:
        if not ok:
            if op is not None:
                self.failed_ops.add(op)
            self.errors.append(message if op is None else f"{op}: {message}")
        return ok

    @property
    def failed(self) -> int:
        return len(self.failed_ops)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    @property
    def correct(self) -> bool:
        return not self.errors and self.attempted > 0


def result_line(tally: Tally, values: dict, units: dict) -> str:
    """The final JSON line: exactly the metrics of one table, by name."""
    if set(values) != set(units):
        raise ValueError(f"metrics {sorted(set(values) ^ set(units))} missing or unexpected")
    metrics = {}
    for name, unit in units.items():
        value = float(values[name])
        if not (valid_name(name) and valid_unit(unit) and math.isfinite(value)):
            raise ValueError(f"invalid metric {name}={value} {unit}")
        metrics[name] = {"value": value, "unit": unit}
    return json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                       "failed": tally.failed, "metrics": metrics})


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------

class Tracer:
    """In-memory spans (name, start, end, parent id) around calls into ekrlab."""

    def __init__(self):
        self.spans: list = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(None)
        self._open.append(sid)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._open.pop()
            self.spans[sid] = (name, start, end, parent)

    def durations_ms(self, name: str) -> list[float]:
        return [(s[2] - s[1]) * 1e3 for s in self.spans if s[0] == name]

    def total_ms(self, name: str) -> float:
        return sum(self.durations_ms(name))

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
