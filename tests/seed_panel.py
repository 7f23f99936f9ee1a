"""Seed-panel comparison of the low-rank sampler with the dense oracle sampler.

Whether a 200-epoch copy-task run meets its thresholds depends on the seed:
at a single pinned seed such a gate passes or fails by luck. The panel runs
the same configuration at each of a fixed set of seeds, once with the
package's sampler and once with ``oracles.dense_sample_population`` (the
same sampling distribution through a dense Cholesky factor), and asks
whether the package's sampler meets the thresholds on fewer seeds than the
dense one by more than chance: an exact one-sided sign test over the seeds
on which exactly one of the two passes.
"""

import math

import pytest

from hvml import cmaes

from oracles import dense_sample_population

SEEDS = tuple(range(1, 21))
SAMPLERS = {"low-rank": cmaes.sample_population, "dense": dense_sample_population}
ALPHA = 0.05


def run_panel(run_one):
    """``{(seed, sampler name): run_one(seed)}`` with the trainer drawing its
    populations from each sampler in turn."""
    runs = {}
    for name, sampler in SAMPLERS.items():
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cmaes, "sample_population", sampler)
            for seed in SEEDS:
                runs[seed, name] = run_one(seed)
    return runs


def sign_test(passed):
    """Counts of seeds passed by the dense sampler alone and by the low-rank
    sampler alone, and the exact one-sided p-value of the first count under
    the hypothesis that both samplers pass equally often."""
    dense_only = sum(passed[s, "dense"] and not passed[s, "low-rank"] for s in SEEDS)
    low_rank_only = sum(passed[s, "low-rank"] and not passed[s, "dense"] for s in SEEDS)
    n = dense_only + low_rank_only
    p = sum(math.comb(n, k) for k in range(dense_only, n + 1)) / 2**n
    return dense_only, low_rank_only, p


def summary(passed):
    """One line: pass counts per sampler and the sign test."""
    dense_only, low_rank_only, p = sign_test(passed)
    counts = {name: sum(passed[s, name] for s in SEEDS) for name in SAMPLERS}
    return (f"seeds {SEEDS[0]}-{SEEDS[-1]} passed: low-rank {counts['low-rank']}, "
            f"dense {counts['dense']}; discordant dense-only {dense_only}, "
            f"low-rank-only {low_rank_only}; one-sided sign test p = {p:.3f}")
