"""Tests for the benchmark's own helpers.

    python3 -m pytest perfbench          # from the root of a checkout
"""

import json
import math
import os
import random
from argparse import Namespace

import pytest

import inputs
import measure
import run
from measure import END_TO_END, PER_LAYER, Tally

BENCHMARK_JSON = os.path.join(run.ROOT, "BENCHMARK.json")


# --- percentile choice ------------------------------------------------------

@pytest.mark.parametrize("n, want", [
    (0, None), (19, None), (20, 500), (99, 500), (100, 900), (999, 900),
    (1000, 990), (1200, 990), (9999, 990), (10000, 999),
])
def test_tail_permille_is_highest_with_ten_beyond(n, want):
    assert measure.tail_permille(n) == want


def test_tail_permille_leaves_at_least_ten_beyond():
    for n in range(1, 3000):
        pm = measure.tail_permille(n)
        if pm is not None:
            assert n * (1000 - pm) / 1000 >= 10
            higher = [p for p in measure.PERMILLES if p > pm]
            assert all(n * (1000 - p) / 1000 < 10 for p in higher)


def test_permille_labels():
    assert [measure.permille_label(p) for p in measure.PERMILLES] == \
        ["p50", "p90", "p99", "p99.9"]


def test_percentile_nearest_rank_and_median():
    values = list(range(1, 101))
    random.Random(0).shuffle(values)
    assert measure.percentile(values, 500) == 50.5
    assert measure.percentile(values, 900) == 90
    assert measure.percentile(values, 990) == 99
    assert measure.percentile([3.0], 999) == 3.0
    with pytest.raises(ValueError):
        measure.percentile([], 500)


def test_median_per_op_takes_each_ops_median_over_rounds():
    assert measure.median_per_op([[3, 1, 5], [2, 4, 5], [9, 9, 0.5]]) == [3, 4, 5]
    assert measure.median_per_op([[1, 2], [3, 4]]) == [2, 3]


def test_host_speed_scales_by_the_bracketing_reference_samples():
    r = measure.REFERENCE_S
    assert measure.HostSpeed.scaled(1.0, r, r) == pytest.approx(1.0)
    assert measure.HostSpeed.scaled(1.0, 2 * r, 2 * r) == pytest.approx(0.5)
    assert measure.HostSpeed.scaled(3.0, r, 2 * r) == pytest.approx(2.0)
    speed = measure.HostSpeed()
    assert speed.sample() > 0 and len(speed.samples) == 1


# --- failed_frac accounting -------------------------------------------------

def test_failed_counts_each_op_once():
    t = Tally(attempted=10)
    t.exhausted(3)
    t.exhausted(3)                      # same op, next round
    t.check(False, 3, "bad verdict")    # and it also failed a check
    t.check(False, 7, "bad witness")
    t.check(True, 8, "fine")
    assert t.failed == 2
    assert t.failed_frac == pytest.approx(0.2)
    assert not t.correct
    assert t.errors == ["3: bad verdict", "7: bad witness"]


def test_exhausted_budget_fails_but_is_not_incorrect():
    t = Tally(attempted=4)
    t.exhausted((0, 1))
    assert t.failed == 1 and t.failed_frac == 0.25
    assert t.correct


def test_run_level_error_is_incorrect_without_failing_an_op():
    t = Tally(attempted=4)
    t.check(False, None, "CSVs differ")
    assert t.failed == 0 and not t.correct


def test_nothing_attempted_is_not_correct():
    assert not Tally(attempted=0).correct


# --- result line and metric names -------------------------------------------

def test_result_line_has_exactly_the_four_keys():
    t = Tally(attempted=3)
    t.exhausted(1)
    values = {name: 1.5 for name in END_TO_END}
    out = json.loads(measure.result_line(t, values, END_TO_END))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert (out["correct"], out["attempted"], out["failed"]) == (True, 3, 1)
    assert out["metrics"]["wall_s"] == {"value": 1.5, "unit": "s"}
    assert set(out["metrics"]) == set(END_TO_END)


@pytest.mark.parametrize("values", [
    {"setup_s": 1.0},                                         # missing metrics
    {**{n: 1.0 for n in END_TO_END}, "extra": 1.0},           # unexpected one
    {**{n: 1.0 for n in END_TO_END}, "wall_s": math.nan},     # not a number
])
def test_result_line_rejects_bad_metrics(values):
    with pytest.raises(ValueError):
        measure.result_line(Tally(1), values, END_TO_END)


@pytest.mark.parametrize("name, ok", [
    ("wall_s", True), ("verifier.omega_ms", True), ("9lives", True),
    ("_x", False), (".x", False), ("a b", False), ("a" * 64, True), ("a" * 65, False),
])
def test_valid_name(name, ok):
    assert measure.valid_name(name) is ok


def test_metric_tables_are_valid():
    for table in (END_TO_END, PER_LAYER):
        for name, unit in table.items():
            assert measure.valid_name(name) and measure.valid_unit(unit), name
    assert not set(END_TO_END) & set(PER_LAYER)


def test_benchmark_json_matches_the_metric_tables():
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        spec = json.load(fh)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60


# --- inputs -----------------------------------------------------------------

def test_log_grid_is_the_cli_grid():
    run.import_program()
    from ekrlab import cli
    ns = Namespace(grid_points=12, grid_start=0.3, grid_stop=20.0, grid_scale="log")
    assert inputs.log_grid() == cli._grid(ns)


def test_bank_is_seeded_and_isomorphic_across_seeds():
    a = inputs.bank_texts(inputs.WITNESS_RECIPES, "witness_scan", 1)
    assert a == inputs.bank_texts(inputs.WITNESS_RECIPES, "witness_scan", 1)
    b = inputs.bank_texts(inputs.WITNESS_RECIPES, "witness_scan", 2)
    assert a != b

    def degree_sequence(text):
        lines = text.splitlines()
        n, _, m = map(int, lines[0].split())
        deg = [0] * n
        for ln in lines[1:]:
            for v in ln.split():
                deg[int(v) - 1] += 1
        return m, sorted(deg)

    assert [degree_sequence(t) for t in a] == [degree_sequence(t) for t in b]


def test_binomial_mean():
    rng = random.Random(5)
    draws = [inputs.binomial(rng, 2002, 0.08) for _ in range(2000)]
    assert abs(sum(draws) / len(draws) - 2002 * 0.08) < 1.5


# --- witness re-checks ------------------------------------------------------

def test_hm_witness_bitset_check():
    run.import_program()
    from ekrlab import hypergraph, witnesses
    import workloads
    # B0 = {0,1,2}; petals through centre 5, each meeting B0
    H = hypergraph.Hypergraph.from_edges(
        8, 3, [[0, 1, 2], [0, 5, 6], [1, 5, 7], [2, 5, 6], [3, 4, 7]])
    w = witnesses.find_hilton_milner(H, 3)
    assert w is not None and workloads.hm_witness_ok(H, w, 3)
    assert not workloads.hm_witness_ok(H, w, 4)
    bad = witnesses.HMWitness(center=5, b0_index=0, petal_indices=(1, 2, 4))
    assert not workloads.hm_witness_ok(H, bad, 3)      # edge 4 misses the centre
