"""Aggregation and statistics over a methods x datasets results table.

A results table holds one loss triple per (dataset, method) cell, loaded
from CSV. The module derives per-cell geometric means and per-method
medians, per-dataset hypervolume contributions, Friedman statistics with
midrank ties, and the Bonferroni-Dunn critical difference, whose z comes from
``statistics.NormalDist``; chi-square critical values come from bisection.

Published tables sometimes carry an aggregate column computed from unrounded
losses; when the input CSV provides a ``geometric_mean`` column its values
take precedence over re-derived ones for the median summary, because the
3-decimal loss triples cannot reproduce the unrounded aggregates exactly.

The Friedman statistic is reported in two orientations. Ranking methods
within each dataset (treatments = methods) is the orientation that answers
whether methods differ; its critical value has k_methods - 1 degrees of
freedom. Ranking datasets within each method (treatments = datasets) is also
computed because published tables have been observed to use it (a critical
value matching df = n_datasets - 1 is the tell); the summary prints both and
flags the discrepancy rather than silently picking one.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import losses, pareto
from .errors import GridError, NumericError, ParseError

GM_KEY = "gm"
METRIC_KEYS = ("l1", "l2", "l3", GM_KEY)


@dataclass(frozen=True)
class ResultsTable:
    """A full methods x datasets grid of loss triples.

    ``aggregates`` optionally carries externally supplied per-cell aggregate
    values (see module docstring); it is either None or complete.
    """

    datasets: tuple[str, ...]
    methods: tuple[str, ...]
    cells: dict[tuple[str, str], np.ndarray]
    aggregates: dict[tuple[str, str], float] | None = None

    def require_full_grid(self) -> "ResultsTable":
        missing = [(d, m) for d in self.datasets for m in self.methods
                   if (d, m) not in self.cells]
        if missing:
            raise GridError(f"results grid incomplete; missing cells: {missing}")
        return self

    @classmethod
    def from_rows(cls, rows) -> "ResultsTable":
        datasets: list[str] = []
        methods: list[str] = []
        cells: dict[tuple[str, str], np.ndarray] = {}
        aggregates: dict[tuple[str, str], float] = {}
        for row in rows:
            d, m = str(row["dataset"]), str(row["method"])
            if (d, m) in cells:
                raise ParseError(f"duplicate (dataset, method) pair: ({d}, {m})")
            vec = np.array([float(row["l1"]), float(row["l2"]), float(row["l3"])])
            if not ((vec >= 0) & (vec <= 1)).all():   # a NaN fails both compares
                raise ParseError(f"loss components out of [0,1] for ({d}, {m})")
            cells[(d, m)] = vec
            if d not in datasets:
                datasets.append(d)
            if m not in methods:
                methods.append(m)
            if row.get("geometric_mean") not in (None, ""):
                gm = float(row["geometric_mean"])
                if not 0.0 <= gm <= 1.0:
                    raise ParseError(f"geometric_mean out of [0,1] for ({d}, {m})")
                aggregates[(d, m)] = gm
        return cls(tuple(datasets), tuple(methods), cells,
                   aggregates if len(aggregates) == len(cells) else None)

    @classmethod
    def from_csv(cls, path) -> "ResultsTable":
        path = Path(path)
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            required = {"dataset", "method", "l1", "l2", "l3"}
            if reader.fieldnames is None or not required <= set(reader.fieldnames):
                raise ParseError(f"results CSV needs columns {sorted(required)}", path)
            try:
                return cls.from_rows(list(reader))
            except (ValueError, KeyError) as exc:
                raise ParseError(f"malformed results row: {exc}", path) from None
            except ParseError as exc:   # a refused cell: name the file
                raise ParseError(str(exc), path) from None


def geometric_means(table: ResultsTable) -> dict[tuple[str, str], float]:
    """Per-cell geometric mean recomputed from the loss triples."""
    return {key: losses.geometric_mean(vec) for key, vec in table.cells.items()}


def method_medians(table: ResultsTable) -> dict[str, float]:
    """Per-method median over datasets of the table's external aggregate
    column when present, otherwise of recomputed geometric means; even
    counts use the midpoint."""
    table.require_full_grid()
    values = table.aggregates if table.aggregates is not None else geometric_means(table)
    return {
        m: float(np.median([values[(d, m)] for d in table.datasets]))
        for m in table.methods
    }


def contribution_table(table: ResultsTable, ref=pareto.UNIT_REF):
    """Exact hypervolume contribution of each method within its dataset's
    front, plus contributions normalized per dataset (0/0 -> 0)."""
    out: dict[tuple[str, str], dict[str, float]] = {}
    for d in table.datasets:
        front = [(table.cells[(d, m)], m) for m in table.methods if (d, m) in table.cells]
        _, values = pareto.exact_contributions(front, ref)
        contribs = dict(zip((m for _, m in front), values.tolist()))
        total = sum(contribs.values())
        for m, c in contribs.items():
            out[(d, m)] = {
                "contribution": c,
                "normalized": c / total if total > 0 else 0.0,
            }
    return out


def midranks(values) -> np.ndarray:
    """Ranks 1..n along the last axis (ascending), ties sharing the average
    position: (count below + count at or below + 1) / 2."""
    v = np.asarray(values, dtype=float)[..., np.newaxis]
    w = v.swapaxes(-1, -2)
    return ((w < v).sum(axis=-1) + (w <= v).sum(axis=-1) + 1) / 2.0


def friedman_statistic(values: np.ndarray) -> tuple[float, np.ndarray]:
    """Friedman chi-square over a blocks x treatments matrix (lower = better).

    Returns (statistic, mean rank per treatment). Ties within a block share
    midranks; a NaN, which has no rank, is refused (NumericError).
    """
    mat = np.asarray(values, dtype=float)
    if mat.ndim != 2 or mat.shape[0] < 2 or mat.shape[1] < 2:
        raise GridError(f"friedman needs at least a 2x2 grid, got shape {mat.shape}")
    if np.isnan(mat).any():
        raise NumericError("friedman cannot rank a NaN value")
    t, k = mat.shape
    mean_ranks = midranks(mat).mean(axis=0)
    stat = 12.0 * t / (k * (k + 1)) * float(np.sum((mean_ranks - (k + 1) / 2.0) ** 2))
    return stat, mean_ranks


def critical_difference(k: int, t: int, alpha: float = 0.05) -> float:
    """Bonferroni-Dunn two-sided critical difference for k methods over t
    datasets: z_{alpha/(2(k-1))} * sqrt(k(k+1)/(6t))."""
    if k < 2 or t < 2:
        raise GridError("critical difference needs k >= 2 methods and t >= 2 datasets")
    from statistics import NormalDist   # on use: importing it adds ~4 ms to every start-up
    z = NormalDist().inv_cdf(1.0 - alpha / (2.0 * (k - 1)))
    return z * math.sqrt(k * (k + 1) / (6.0 * t))


def friedman_both_orientations(table: ResultsTable, metric: str, alpha: float = 0.05) -> dict:
    """Friedman statistic with treatments = methods and treatments = datasets,
    plus the chi-square critical values for both df bases."""
    return _friedman_tests(table, alpha)[0][metric]


def _friedman_tests(table: ResultsTable, alpha: float) -> tuple[dict, dict]:
    """``friedman_both_orientations`` of every metric, and each method's mean
    rank under it (methods ranked within each dataset, in the table's method
    order), both keyed by metric.

    The metrics are laid out once as a datasets x methods x metrics array in
    sorted label order, so that results do not depend on the order rows
    appeared in the input file (floating-point summation is not
    associative); the two critical values serve every metric."""
    table.require_full_grid()
    datasets, methods = sorted(table.datasets), sorted(table.methods)
    gms = table.aggregates if table.aggregates is not None else geometric_means(table)
    values = np.array([[[*table.cells[(d, m)], gms[(d, m)]] for m in methods] for d in datasets])
    k, t = len(methods), len(datasets)
    critical = chi2_quantile(1 - alpha, k - 1), chi2_quantile(1 - alpha, t - 1)
    tests, mean_ranks = {}, {}
    for i, metric in enumerate(METRIC_KEYS):
        mat = values[..., i]
        statistic, ranks = friedman_statistic(mat)
        rank_of = dict(zip(methods, ranks.tolist()))
        mean_ranks[metric] = {m: rank_of[m] for m in table.methods}
        tests[metric] = {
            "metric": metric,
            "treatments_methods": {"statistic": statistic, "df": k - 1,
                                   "critical_value": critical[0]},
            "treatments_datasets": {"statistic": friedman_statistic(mat.T)[0], "df": t - 1,
                                    "critical_value": critical[1]},
            "note": ("orientations differ: method comparison ranks methods within each "
                     "dataset (df = methods - 1); tables whose critical value matches "
                     "df = datasets - 1 ranked datasets within each method"),
        }
    return tests, mean_ranks


def _gammainc_lower(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x) for a > 0 and x >= 0."""
    if x == 0.0:
        return 0.0
    lg = math.lgamma(a)
    if x < a + 1.0:
        # series expansion
        term = 1.0 / a
        total = term
        n = a
        for _ in range(500):
            n += 1.0
            term *= x / n
            total += term
            if abs(term) < abs(total) * 1e-16:
                break
        return total * math.exp(-x + a * math.log(x) - lg)
    # continued fraction for Q(a, x)
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 500):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    q = math.exp(-x + a * math.log(x) - lg) * h
    return 1.0 - q


def chi2_quantile(p: float, df: int) -> float:
    """Inverse chi-square CDF by bisection on the incomplete gamma function."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    if df < 1:
        raise ValueError("df must be >= 1")
    a = df / 2.0
    hi = float(df)
    while _gammainc_lower(a, hi / 2.0) < p:
        hi *= 2.0
    lo = 0.0
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if mid == lo or mid == hi:
            break   # adjacent floats: further steps leave (lo + hi) / 2 at mid
        if _gammainc_lower(a, mid / 2.0) < p:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


# ---------------------------------------------------------------------------
# full report

def write_report(table: ResultsTable, out_dir, alpha: float = 0.05) -> dict:
    """Write the CSV/JSON report files and return the JSON summary dict. An
    incomplete grid or one of fewer than two methods or datasets is refused
    (GridError) before ``out_dir`` is created."""
    table.require_full_grid()
    cd = critical_difference(len(table.methods), len(table.datasets), alpha)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    gms = geometric_means(table)
    with open(out / "geometric_means.csv", "w", encoding="utf-8") as fh:
        fh.write("dataset,method,geometric_mean\n")
        for d in table.datasets:
            for m in table.methods:
                fh.write(f"{d},{m},{gms[(d, m)]:.6f}\n")

    contribs = contribution_table(table)
    with open(out / "contributions.csv", "w", encoding="utf-8") as fh:
        fh.write("dataset,method,hv_contribution,normalized_contribution\n")
        for d in table.datasets:
            for m in table.methods:
                c = contribs[(d, m)]
                fh.write(f"{d},{m},{c['contribution']:.6f},{c['normalized']:.6f}\n")

    medians = method_medians(table)
    with open(out / "medians.csv", "w", encoding="utf-8") as fh:
        fh.write("method,median_geometric_mean\n")
        for m in table.methods:
            fh.write(f"{m},{medians[m]:.3f}\n")

    friedman, mean_ranks = _friedman_tests(table, alpha)
    summary = {"medians": medians, "mean_ranks": mean_ranks, "friedman": friedman,
               "cd": cd, "alpha": alpha}
    (out / "summary.json").write_text(json.dumps(summary, indent=2, allow_nan=False))
    return summary
