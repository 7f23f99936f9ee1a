"""Aggregation and statistics over a methods x datasets results table.

A results table holds one loss triple per (dataset, method) cell, loaded
from CSV. The module derives per-cell geometric means and per-method
medians, per-dataset hypervolume contributions, Friedman statistics with
midrank ties, and the Bonferroni-Dunn critical difference.

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
from .errors import GridError, ParseError
from .quantiles import chi2_quantile, normal_quantile

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
            if (vec < 0).any() or (vec > 1).any():
                raise ParseError(f"loss components out of [0,1] for ({d}, {m})")
            cells[(d, m)] = vec
            if d not in datasets:
                datasets.append(d)
            if m not in methods:
                methods.append(m)
            if row.get("geometric_mean") not in (None, ""):
                aggregates[(d, m)] = float(row["geometric_mean"])
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
    """Ranks 1..n of values (ascending), ties sharing the average position."""
    v = np.asarray(values, dtype=float)
    order = np.argsort(v, kind="stable")
    ranks = np.empty(v.size)
    sv = v[order]
    i = 0
    while i < v.size:
        j = i
        while j + 1 < v.size and sv[j + 1] == sv[i]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def friedman_statistic(values: np.ndarray) -> tuple[float, np.ndarray]:
    """Friedman chi-square over a blocks x treatments matrix (lower = better).

    Returns (statistic, mean rank per treatment). Ties within a block share
    midranks.
    """
    mat = np.asarray(values, dtype=float)
    if mat.ndim != 2 or mat.shape[0] < 2 or mat.shape[1] < 2:
        raise GridError(f"friedman needs at least a 2x2 grid, got shape {mat.shape}")
    ranks = np.vstack([midranks(row) for row in mat])
    t, k = mat.shape
    mean_ranks = ranks.mean(axis=0)
    stat = 12.0 * t / (k * (k + 1)) * float(np.sum((mean_ranks - (k + 1) / 2.0) ** 2))
    return stat, mean_ranks


def critical_difference(k: int, t: int, alpha: float = 0.05) -> float:
    """Bonferroni-Dunn two-sided critical difference for k methods over t
    datasets: z_{alpha/(2(k-1))} * sqrt(k(k+1)/(6t))."""
    if k < 2 or t < 2:
        raise GridError("critical difference needs k >= 2 methods and t >= 2 datasets")
    z = normal_quantile(1.0 - alpha / (2.0 * (k - 1)))
    return z * math.sqrt(k * (k + 1) / (6.0 * t))


def _metric_matrix(table: ResultsTable, metric: str) -> tuple[np.ndarray, list[str]]:
    """datasets x methods value matrix for one metric (lower = better).

    Rows and columns are laid out in sorted label order so that results do
    not depend on the order rows appeared in the input file (floating-point
    summation is not associative)."""
    table.require_full_grid()
    datasets = sorted(table.datasets)
    methods = sorted(table.methods)
    if metric == GM_KEY:
        values = table.aggregates if table.aggregates is not None else geometric_means(table)
        mat = np.array([[values[(d, m)] for m in methods] for d in datasets])
    else:
        idx = {"l1": 0, "l2": 1, "l3": 2}[metric]
        mat = np.array([[table.cells[(d, m)][idx] for m in methods] for d in datasets])
    return mat, methods


def rank_summary(table: ResultsTable, metric: str) -> dict[str, float]:
    """Each method's mean rank under one metric, ranking methods within each
    dataset (the method-comparison orientation), in the table's method order."""
    mat, methods = _metric_matrix(table, metric)
    by_method = dict(zip(methods, friedman_statistic(mat)[1].tolist()))
    return {m: by_method[m] for m in table.methods}


def friedman_both_orientations(table: ResultsTable, metric: str, alpha: float = 0.05) -> dict:
    """Friedman statistic with treatments = methods and treatments = datasets,
    plus the chi-square critical values for both df bases."""
    return _friedman_tests(table, (metric,), alpha)[metric]


def _friedman_tests(table: ResultsTable, metrics, alpha: float) -> dict[str, dict]:
    """``friedman_both_orientations`` of each metric, keyed by metric; the two
    critical values are computed once for all of them."""
    k, t = len(table.methods), len(table.datasets)
    critical = chi2_quantile(1 - alpha, k - 1), chi2_quantile(1 - alpha, t - 1)
    tests = {}
    for metric in metrics:
        mat, _ = _metric_matrix(table, metric)
        tests[metric] = {
            "metric": metric,
            "treatments_methods": {"statistic": friedman_statistic(mat)[0], "df": k - 1,
                                   "critical_value": critical[0]},
            "treatments_datasets": {"statistic": friedman_statistic(mat.T)[0], "df": t - 1,
                                    "critical_value": critical[1]},
            "note": ("orientations differ: method comparison ranks methods within each "
                     "dataset (df = methods - 1); tables whose critical value matches "
                     "df = datasets - 1 ranked datasets within each method"),
        }
    return tests


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

    summary = {
        "medians": medians,
        "mean_ranks": {metric: rank_summary(table, metric) for metric in METRIC_KEYS},
        "friedman": _friedman_tests(table, METRIC_KEYS, alpha),
        "cd": cd,
        "alpha": alpha,
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2))
    return summary
