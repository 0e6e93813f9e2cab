"""Seeded inputs for the workloads.

Pure Python on purpose: the instance banks come from the benchmark's own
generator, so a change to ekrlab's samplers cannot change what the frontier
and witness workloads feed the program.  The sweeps hand ekrlab only
(n, k, grid, trials, seed); sampling there is part of the measured work.
"""

from __future__ import annotations

import math
import random

# The README sweep: (n, k) = (24, 3), 12-point log grid over [0.3, 20],
# 100 trials per point, conditioned sampler.
SWEEP_N, SWEEP_K, SWEEP_TRIALS = 24, 3, 100
SWEEP_SAMPLER = "conditioned"


def log_grid(start: float = 0.3, stop: float = 20.0, points: int = 12) -> list[float]:
    """The grid `ekrlab sweep --grid-scale log` builds, same arithmetic."""
    ratio = (stop / start) ** (1.0 / (points - 1))
    return [start * ratio**i for i in range(points)]


# Banks are (n, k, phi, count) recipes.  Their base instances are fixed by
# BANK_SEED, like a published instance set; the workload seed renames the
# vertices, so exact answers are known for every seed.  Edge order is kept:
# the searches visit edges in index order and their cost moves with it (a
# shuffled order gave wall_s spreads of 0.35 of the median over five seeds).
BANK_SEED = "ekrlab-perfbench-bank-1"

# dense (n < 3k: pair-matching bound) and sparse (first-fit coloring)
FRONTIER_RECIPES = ((14, 5, 60, 8), (18, 5, 60, 12))
WITNESS_RECIPES = ((25, 5, 10, 16),)


def binomial(rng: random.Random, trials: int, p: float) -> int:
    """Bin(trials, p) by inversion; exact enough for pmf(0) > 1e-300."""
    u = rng.random()
    q = 1.0 - p
    pmf = q**trials
    cdf = pmf
    j = 0
    while cdf < u and j < trials:
        pmf *= (trials - j) / (j + 1) * p / q
        j += 1
        cdf += pmf
    return j


def sample_family(n: int, k: int, phi: float, rng: random.Random) -> list[tuple[int, ...]]:
    """H_k(n, p) with p = phi / C(n-1, k-1): m ~ Bin(C(n,k), p), then m
    distinct uniform k-sets, sorted (0-based vertices)."""
    m = binomial(rng, math.comb(n, k), phi / math.comb(n - 1, k - 1))
    edges: set[tuple[int, ...]] = set()
    while len(edges) < m:
        edges.add(tuple(sorted(rng.sample(range(n), k))))
    return sorted(edges)


def base_bank(recipes) -> list[tuple[int, int, list[tuple[int, ...]]]]:
    """The fixed base instances of a bank, recipe by recipe."""
    bank = []
    for n, k, phi, count in recipes:
        for i in range(count):
            rng = random.Random(f"{BANK_SEED}/{n}/{k}/{phi}/{i}")
            bank.append((n, k, sample_family(n, k, phi, rng)))
    return bank


def to_text(n: int, k: int, edges) -> str:
    """The ekrlab hypergraph file format: header "n k m", 1-based edges."""
    lines = [f"{n} {k} {len(edges)}"]
    lines += [" ".join(str(v + 1) for v in sorted(e)) for e in edges]
    return "\n".join(lines) + "\n"


def relabelled(n: int, edges, rng: random.Random) -> list[tuple[int, ...]]:
    """An isomorphic copy: vertices renamed, edges in the same order."""
    perm = list(range(n))
    rng.shuffle(perm)
    return [tuple(sorted(perm[v] for v in e)) for e in edges]


def bank_texts(recipes, workload: str, seed: int) -> list[str]:
    """The bank as the program sees it for one workload seed."""
    texts = []
    for i, (n, k, edges) in enumerate(base_bank(recipes)):
        rng = random.Random(f"{workload}/{seed}/{i}")
        texts.append(to_text(n, k, relabelled(n, edges, rng)))
    return texts
