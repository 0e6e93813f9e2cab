"""The four workloads: inputs, one timed round, output checks, and the traced
stage-by-stage pipeline that gives the per-layer numbers.

Every call goes through ekrlab's public functions; spans are recorded here,
around those calls, never inside the program.
"""

from __future__ import annotations

import json
import os
import resource
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from ekrlab import analytics, hypergraph, montecarlo, verifier, witnesses
from ekrlab.errors import DomainError, ResourceLimitError

import inputs
from measure import PER_LAYER, HostSpeed, Tally, Tracer, percentile

PINS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")

# Search budgets set by the benchmark.  Every pinned instance finishes far
# inside them (see pin.py), so an exhausted budget is a regression.
FRONTIER_BUDGET = 200_000
WITNESS_BUDGET = 200_000
GENERIC_T, GENERIC_ZETA, HM_D = 7, 3, 5

EXHAUSTED = "exhausted"

# reference samples on each side of a sweep call, which is seconds long
SWEEP_REFS = 6


@dataclass
class Round:
    wall_s: float          # the timed section, at reference-host speed
    raw_wall_s: float      # the same, as measured
    op_s: list             # per operation at reference-host speed (banks only)
    out: object            # what the checks read


def timed_ops(calls, speed: HostSpeed):
    """Run calls in order, each between reference samples.

    Returns (results, scaled seconds per call, raw seconds in total)."""
    results, scaled, raw = [], [], 0.0
    before = speed.sample()
    for call in calls:
        t0 = perf_counter()
        results.append(call())
        dt = perf_counter() - t0
        after = speed.sample()
        scaled.append(speed.scaled(dt, before, after))
        raw += dt
        before = after
    return results, scaled, raw


def _rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def load_pins(key: str) -> list:
    with open(PINS, encoding="utf-8") as fh:
        return json.load(fh)[key]


def traced_verdict(H, Delta: int, edge_cap: int, budget: int, tracer: Tracer):
    """verify_ekr's two searches in its order: (holds, omega, witness)."""
    with tracer.span("verifier.omega"):
        omega, clique = verifier.max_intersecting_family(H, edge_cap, budget)
    if omega > Delta:
        return False, omega, tuple(clique)
    if omega <= 2:
        return True, omega, None
    with tracer.span("verifier.nontrivial"):
        witness = verifier.find_nontrivial_clique(H, target=omega, node_budget=budget)
    return witness is None, omega, witness


def time_adjacency(graphs, tracer: Tracer) -> None:
    """One extra intersection_adjacency build per graph, for its cost alone."""
    for H in graphs:
        with tracer.span("verifier.adjacency"):
            verifier.intersection_adjacency(H.edge_bits)


def layer_metrics(tracer: Tracer, **extra) -> dict:
    """Every per-layer metric; layers a workload does not run read 0."""
    m = dict.fromkeys(PER_LAYER, 0.0)
    for name in ("analytics.context", "hypergraph.parse", "hypergraph.sample",
                 "hypergraph.stats", "verifier.adjacency", "verifier.omega",
                 "verifier.nontrivial", "witnesses.classify", "witnesses.generic",
                 "witnesses.hm"):
        m[name + "_ms"] = tracer.total_ms(name)
    for name in ("hypergraph.sample", "hypergraph.stats"):
        if tracer.count(name):
            m[name + "_ms_p50"] = percentile(tracer.durations_ms(name), 500)
    m["verifier.nontrivial_calls"] = tracer.count("verifier.nontrivial")
    m.update(extra)
    return m


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

@dataclass
class SweepInputs:
    seed: int
    grid: list
    params: list


class Sweep:
    """estimate_ekr_curve on the README sweep, serial or over a pool."""

    def __init__(self, workers: int):
        self.workers = workers

    def build(self, seed: int) -> SweepInputs:
        grid = inputs.log_grid()
        params = [analytics.ModelParams.from_phi(inputs.SWEEP_N, inputs.SWEEP_K, phi)
                  for phi in grid]
        return SweepInputs(seed, grid, params)

    def ops(self, inp: SweepInputs) -> int:
        return len(inp.grid) * inputs.SWEEP_TRIALS

    @staticmethod
    def _trial_records(contexts):
        """run_one_trial on every key, one at a time: records, ms per trial."""
        records, ms = [], []
        for ctx in contexts:
            recs = []
            for t in range(inputs.SWEEP_TRIALS):
                t1 = perf_counter()
                recs.append(montecarlo.run_one_trial(ctx, t))
                ms.append((perf_counter() - t1) * 1e3)
            records.append(recs)
        return records, ms

    def _sweep(self, inp: SweepInputs, workers: int):
        return montecarlo.estimate_ekr_curve(
            inputs.SWEEP_N, inputs.SWEEP_K, inp.grid, trials=inputs.SWEEP_TRIALS,
            seed=inp.seed, sampler_mode=inputs.SWEEP_SAMPLER, workers=workers)

    def round(self, inp: SweepInputs, speed: HostSpeed) -> Round:
        refs = [speed.sample() for _ in range(SWEEP_REFS)]
        t0 = perf_counter()
        table = self._sweep(inp, self.workers)
        wall = perf_counter() - t0
        refs += [speed.sample() for _ in range(SWEEP_REFS)]
        return Round(speed.scaled(wall, *refs), wall, [],
                     (montecarlo.sweep_table_to_csv(table), table))

    def check(self, inp: SweepInputs, rounds, tally: Tally) -> None:
        csv, table = rounds[0].out
        for r in rounds[1:]:
            tally.check(r.out[0] == csv, None, "sweep CSV differs between rounds")
        self._check_table(inp, table, tally)
        if self.workers > 1:
            serial = montecarlo.sweep_table_to_csv(self._sweep(inp, 1))
            tally.check(serial == csv, None,
                        f"workers={self.workers} sweep CSV differs from the serial sweep CSV")

    @staticmethod
    def _check_table(inp: SweepInputs, table, tally: Tally) -> None:
        tally.check(len(table.rows) == len(inp.grid), None, "one sweep row per grid point")
        for gi, row in enumerate(table.rows):
            # undecided trials are the ones that ran out of budget
            for j in range(row.undecided):
                tally.exhausted((gi, "undecided", j))
            decided = row.trials - row.undecided
            where = f"row {gi}"
            tally.check(row.trials == inputs.SWEEP_TRIALS and 0 <= row.undecided <= row.trials,
                        None, f"{where}: trials != decided + undecided")
            tally.check(row.holds_count <= decided, None, f"{where}: holds_count > decided")
            if decided:
                tally.check(row.wilson_lo <= row.f_hat <= row.wilson_hi, None,
                            f"{where}: f_hat {row.f_hat} outside "
                            f"[{row.wilson_lo}, {row.wilson_hi}]")
            tally.check(sum(row.witness_counts.values()) == decided - row.holds_count,
                        None, f"{where}: witness kinds do not sum to the decided failures")

    def trace(self, inp: SweepInputs, tracer: Tracer, tally: Tally) -> dict:
        t0 = perf_counter()
        table = self._sweep(inp, self.workers)
        untraced = perf_counter() - t0
        worker_rss = _rss_mb(resource.RUSAGE_CHILDREN) if self.workers > 1 else 0.0
        self._check_table(inp, table, tally)

        contexts, graphs, outcomes = [], [], []
        t0 = perf_counter()
        for gi, params in enumerate(inp.params):
            with tracer.span("analytics.context"):
                ctx = montecarlo.make_trial_context(params, inputs.SWEEP_SAMPLER, inp.seed,
                                                    stream=(gi,))
            contexts.append(ctx)
            for t in range(inputs.SWEEP_TRIALS):
                with tracer.span("montecarlo.trial"):
                    H, outcome = self._traced_trial(ctx, t, tracer)
                graphs.append(H)
                outcomes.append(outcome)
        traced = perf_counter() - t0

        records, trial_ms = self._trial_records(contexts)
        for gi, recs in enumerate(records):
            for t, rec in enumerate(recs):
                want = (rec.m, rec.Delta, rec.omega if rec.decided else None,
                        rec.ekr_holds, rec.witness_kind)
                got = outcomes[gi * inputs.SWEEP_TRIALS + t]
                tally.check(got == want, (gi, t),
                            f"traced pipeline gave {got}, run_one_trial {want}")
        rows = tuple(montecarlo.summarize_trials(p, recs)
                     for p, recs in zip(inp.params, records))
        rebuilt = montecarlo.SweepTable(rows, table.eps_thr, table.seed, table.sampler_mode)
        tally.check(montecarlo.sweep_table_to_csv(rebuilt) == montecarlo.sweep_table_to_csv(table),
                    None, "run_one_trial over the sweep's keys does not reproduce the sweep CSV")
        time_adjacency(graphs, tracer)

        serial_s = sum(trial_ms) / 1e3
        return layer_metrics(
            tracer,
            **{"hypergraph.edges": sum(H.m for H in graphs),
               "verifier.undecided": sum(1 for o in outcomes if o[2] is None),
               "montecarlo.trial_ms_p50": percentile(trial_ms, 500),
               "montecarlo.trial_ms_p99": percentile(trial_ms, 990),
               "montecarlo.parallel_efficiency": serial_s / (self.workers * untraced),
               "montecarlo.overhead_ms_per_point":
                   (untraced - serial_s / self.workers) * 1e3 / len(inp.grid),
               "montecarlo.worker_rss_mb": worker_rss,
               # the same trials untraced: run_one_trial, one at a time
               "trace.overhead_s": traced - serial_s})

    @staticmethod
    def _traced_trial(ctx, t: int, tracer: Tracer):
        """run_one_trial stage by stage: (H, (m, Delta, omega, holds, kind))."""
        params = ctx.params
        seed_seq = np.random.SeedSequence(ctx.master_seed, spawn_key=(*ctx.stream, t))
        with tracer.span("hypergraph.sample"):
            H = hypergraph.sample_conditioned(params.n, params.k, float(params.p), seed_seq,
                                              psi=params.psi)[0]
        with tracer.span("hypergraph.stats"):
            stats = hypergraph.degree_stats(H)
            hypergraph.check_event_r(H, params, stats=stats, alpha=ctx.alpha, beta=ctx.beta)
        try:
            holds, omega, witness = traced_verdict(H, stats.Delta, ctx.edge_cap,
                                                   ctx.node_budget, tracer)
        except ResourceLimitError:
            return H, (H.m, stats.Delta, None, None, None)
        kind = None
        if not holds:
            with tracer.span("witnesses.classify"):
                kind = montecarlo.classify_witness_kind(H, witness, params, ctx.regime)
        return H, (H.m, stats.Delta, omega, holds, kind)


# ---------------------------------------------------------------------------
# Instance banks
# ---------------------------------------------------------------------------

@dataclass
class BankInputs:
    texts: list
    expected: list


class Frontier:
    """parse_hypergraph -> verify_ekr on hard dense and sparse instances."""

    name = "frontier"

    def build(self, seed: int) -> BankInputs:
        return BankInputs(inputs.bank_texts(inputs.FRONTIER_RECIPES, self.name, seed),
                          load_pins(self.name))

    def ops(self, inp: BankInputs) -> int:
        return len(inp.texts)

    @staticmethod
    def _verify(text):
        H = hypergraph.parse_hypergraph(text)
        try:
            return H, verifier.verify_ekr(H, node_budget=FRONTIER_BUDGET)
        except ResourceLimitError:
            return H, None

    def round(self, inp: BankInputs, speed: HostSpeed) -> Round:
        out, op_s, raw = timed_ops([lambda t=t: self._verify(t) for t in inp.texts], speed)
        return Round(sum(op_s), raw, op_s, out)

    def check(self, inp: BankInputs, rounds, tally: Tally) -> None:
        tally.check(len(inp.expected) == len(inp.texts), None, "pins do not match the bank")
        for r in rounds:
            for i, ((H, v), want) in enumerate(zip(r.out, inp.expected)):
                if v is None:
                    tally.exhausted(i)
                    continue
                got = [v.holds, v.omega, v.Delta]
                tally.check(got == want, i, f"(holds, omega, Delta) = {got}, pinned {want}")
                tally.check(v.omega >= v.Delta, i, f"omega {v.omega} < Delta {v.Delta}")
                if not v.holds:
                    tally.check(verifier.validate_witness(H, v), i, "failure witness is invalid")

    def trace(self, inp: BankInputs, tracer: Tracer, tally: Tally) -> dict:
        first = self.round(inp, HostSpeed())
        self.check(inp, [first], tally)
        graphs, undecided = [], 0
        t0 = perf_counter()
        for i, (text, want) in enumerate(zip(inp.texts, inp.expected)):
            with tracer.span("instance"):
                with tracer.span("hypergraph.parse"):
                    H = hypergraph.parse_hypergraph(text)
                with tracer.span("hypergraph.stats"):
                    Delta = hypergraph.degree_stats(H).Delta
                try:
                    holds, omega, _ = traced_verdict(H, Delta, verifier.DEFAULT_EDGE_CAP,
                                                     FRONTIER_BUDGET, tracer)
                except ResourceLimitError:
                    undecided += 1
                    tally.exhausted(i)
                    holds = omega = None
            graphs.append(H)
            if omega is not None:
                tally.check([holds, omega, Delta] == want, i,
                            f"traced (holds, omega, Delta) = {[holds, omega, Delta]}, "
                            f"pinned {want}")
        traced = perf_counter() - t0
        time_adjacency(graphs, tracer)
        return layer_metrics(tracer, **{"hypergraph.edges": sum(H.m for H in graphs),
                                        "verifier.undecided": undecided,
                                        "trace.overhead_s": traced - first.raw_wall_s})


def hm_witness_ok(H, w, d: int) -> bool:
    """Direct bitset test: B0 misses the centre; >= d distinct petals, each
    containing the centre and meeting B0."""
    bits = H.edge_bits
    x = 1 << w.center
    b0 = bits[w.b0_index]
    petals = set(w.petal_indices)
    return (not b0 & x and len(petals) >= d
            and all(i != w.b0_index and bits[i] & x and bits[i] & b0 for i in petals))


class WitnessScan:
    """find_generic_clique and find_hilton_milner over a sparse bank."""

    name = "witness_scan"

    def build(self, seed: int) -> BankInputs:
        return BankInputs(inputs.bank_texts(inputs.WITNESS_RECIPES, self.name, seed),
                          load_pins(self.name))

    def ops(self, inp: BankInputs) -> int:
        return len(inp.texts)

    @staticmethod
    def _generic(H):
        try:
            return witnesses.find_generic_clique(H, GENERIC_T, GENERIC_ZETA,
                                                 node_budget=WITNESS_BUDGET)
        except ResourceLimitError:
            return EXHAUSTED

    @classmethod
    def _scan(cls, text):
        H = hypergraph.parse_hypergraph(text)
        return H, cls._generic(H), witnesses.find_hilton_milner(H, HM_D)

    def round(self, inp: BankInputs, speed: HostSpeed) -> Round:
        out, op_s, raw = timed_ops([lambda t=t: self._scan(t) for t in inp.texts], speed)
        return Round(sum(op_s), raw, op_s, out)

    def check(self, inp: BankInputs, rounds, tally: Tally) -> None:
        tally.check(len(inp.expected) == len(inp.texts), None, "pins do not match the bank")
        for r in rounds:
            for i, ((H, g, hm), want) in enumerate(zip(r.out, inp.expected)):
                if g is EXHAUSTED:
                    tally.exhausted(i)
                else:
                    tally.check((g is not None) == want[0], i,
                                f"generic clique found={g is not None}, pinned {want[0]}")
                    if g is not None:
                        tally.check(len(g) == GENERIC_T and self._is_generic(H, g), i,
                                    f"{g} is not a generic {GENERIC_T}-clique")
                tally.check((hm is not None) == want[1], i,
                            f"HM witness found={hm is not None}, pinned {want[1]}")
                if hm is not None:
                    tally.check(hm_witness_ok(H, hm, HM_D), i, f"invalid HM witness {hm}")

    @staticmethod
    def _is_generic(H, g) -> bool:
        try:
            return witnesses.is_generic_clique(H, g, GENERIC_ZETA)
        except DomainError:        # not a clique at all
            return False

    def trace(self, inp: BankInputs, tracer: Tracer, tally: Tally) -> dict:
        first = self.round(inp, HostSpeed())
        self.check(inp, [first], tally)
        graphs, found = [], 0
        t0 = perf_counter()
        for i, text in enumerate(inp.texts):
            with tracer.span("instance"):
                with tracer.span("hypergraph.parse"):
                    H = hypergraph.parse_hypergraph(text)
                with tracer.span("witnesses.generic"):
                    g = self._generic(H)
                with tracer.span("witnesses.hm"):
                    witnesses.find_hilton_milner(H, HM_D)
            graphs.append(H)
            if g is EXHAUSTED:
                tally.exhausted(i)
            else:
                found += g is not None
                tally.check((g is not None) == inp.expected[i][0], i,
                            f"traced generic clique found={g is not None}, "
                            f"pinned {inp.expected[i][0]}")
        traced = perf_counter() - t0
        time_adjacency(graphs, tracer)
        return layer_metrics(tracer, **{"hypergraph.edges": sum(H.m for H in graphs),
                                        "witnesses.generic_found": found,
                                        "trace.overhead_s": traced - first.raw_wall_s})


WORKLOADS = {
    "sweep_serial": Sweep(workers=1),
    "sweep_parallel": Sweep(workers=2),
    "frontier": Frontier(),
    "witness_scan": WitnessScan(),
}
