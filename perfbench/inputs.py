"""Seeded inputs for the benchmark and the numpy checks it applies to outputs.

Nothing here imports the program: the inputs are files the program reads
(an ARFF dataset, front CSVs) and the checks recompute what they need.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

GRID = 1000          # front coordinates are multiples of 1/GRID
# two-sided normal tail beyond 5 standard errors
FIVE_SIGMA_TAIL = math.erfc(5.0 / math.sqrt(2.0))


# ---------------------------------------------------------------------------
# datasets

def write_arff(path, x: np.ndarray, y: np.ndarray, relation: str) -> None:
    """Mulan-style multi-label ARFF: numeric features, then {0,1} labels.

    Features are written with 17 significant digits so they load back
    bit for bit.
    """
    lines = [f"@relation {relation}", ""]
    lines += [f"@attribute f{j} numeric" for j in range(x.shape[1])]
    lines += [f"@attribute l{j} {{0,1}}" for j in range(y.shape[1])]
    lines += ["", "@data"]
    for xr, yr in zip(x.tolist(), y.tolist()):
        lines.append(",".join([f"{v:.17g}" for v in xr] + [str(int(v)) for v in yr]))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# loss-space fronts

def grid_front(rng: np.random.Generator, n_front: int, n_dup: int, n_dominated: int,
               n_ties: int) -> np.ndarray:
    """Rows on the 1/GRID grid inside (0, 1)^3, in shuffled order.

    ``n_front`` mutually non-dominated points lie near the sphere of radius
    0.9 around (1, 1, 1); ``n_ties`` of them share one coordinate with an
    earlier point. Then come ``n_dup`` exact copies of front points and
    ``n_dominated`` points each dominated by a front point.
    """
    pts: list[np.ndarray] = []

    def fits(v):
        return all(not (q <= v).all() and not (v <= q).all() for q in pts)

    while len(pts) < n_front:
        u = np.abs(rng.standard_normal(3))
        v = 1.0 - 0.9 * u / np.linalg.norm(u)
        v = np.clip(np.round(v * GRID), 1, GRID - 1) / GRID
        if len(pts) >= n_front - n_ties and pts:
            axis = int(rng.integers(3))
            v[axis] = pts[int(rng.integers(len(pts)))][axis]
        if fits(v):
            pts.append(v)
    front = np.array(pts)
    dups = front[rng.integers(n_front, size=n_dup)]
    base = front[rng.integers(n_front, size=n_dominated)]
    step = rng.integers(0, 60, size=(n_dominated, 3))
    step[np.arange(n_dominated), rng.integers(3, size=n_dominated)] += 1  # strictly worse somewhere
    dominated = np.minimum(np.round(base * GRID) + step, GRID - 1) / GRID
    rows = np.vstack([front, dups, dominated])
    return rows[rng.permutation(rows.shape[0])]


def write_front_csv(path, rows: np.ndarray) -> None:
    """Front CSV for ``hvml hv``: a header, then tag and three losses."""
    lines = ["tag,l1,l2,l3"]
    lines += [f"r{i},{a:.3f},{b:.3f},{c:.3f}" for i, (a, b, c) in enumerate(rows)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# output checks

def mc_hypervolume(rows: np.ndarray, samples: int, rng: np.random.Generator) -> float:
    """Share of uniform points in [0, 1]^3 weakly dominated by some row."""
    hit = 0
    for lo in range(0, samples, 4096):
        z = rng.random((min(4096, samples - lo), 3))
        hit += int((z[:, None, :] >= rows[None, :, :]).all(axis=2).any(axis=1).sum())
    return hit / samples


def within_standard_errors(estimate: float, exact: float, samples: int, k: float = 5.0) -> bool:
    """|estimate - exact| within k binomial standard errors at the exact value."""
    return abs(estimate - exact) <= k * math.sqrt(exact * (1.0 - exact) / samples)


def binomial_consistent(hits: int, samples: int, p: float) -> bool:
    """Whether ``hits`` of ``samples`` Bernoulli(p) draws lie within 5 standard
    errors of the mean, judged by the exact binomial tail.

    The two-sided tail beyond the observed deviation must be at least the
    normal tail beyond 5 standard errors. Exclusive contributions can be far
    below 1/samples, where the normal approximation would reject a single
    hit that has ordinary probability.
    """
    if p <= 0.0:
        return hits == 0
    if p >= 1.0:
        return hits == samples
    k = np.arange(samples + 1)
    steps = np.log((samples - k[:-1]) / (k[:-1] + 1.0)) + math.log(p / (1.0 - p))
    log_pmf = samples * math.log1p(-p) + np.concatenate([[0.0], np.cumsum(steps)])
    mean = samples * p
    far = np.abs(k - mean) >= abs(hits - mean) - 1e-9
    return float(np.exp(log_pmf[far]).sum()) >= FIVE_SIGMA_TAIL
