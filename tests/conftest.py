import csv
import time

import numpy as np
import pytest

from hvml import benchmark_results_path, data, synth, trainer

import seed_panel


@pytest.fixture(scope="session")
def write_csv():
    """Writes a dataset as the paired feature and label CSV files that
    ``data.load_csv`` reads back exactly (features to 17 digits)."""
    def write(dataset, features_path, labels_path):
        np.savetxt(features_path, dataset.x, delimiter=",", fmt="%.17g")
        np.savetxt(labels_path, dataset.y, delimiter=",", fmt="%d")
    return write


@pytest.fixture(scope="session")
def messy_front():
    """Builds n rows in (0, 1)^3 near the sphere of radius 0.9 around
    (1, 1, 1), a fifth of them then given one coordinate of another row (ties),
    a fifth made copies of other rows (duplicates) and a fifth moved above
    other rows (dominated); with ``grid`` every coordinate is rounded to the
    1/1000 grid, which keeps every tie, copy and weak dominance."""
    def build(seed, n, grid=False):
        rng = np.random.default_rng(seed)
        u = np.abs(rng.standard_normal((n, 3))) + 1e-9
        pts = 1.0 - 0.9 * u / np.linalg.norm(u, axis=1, keepdims=True)
        k = n // 5
        axis = rng.integers(3, size=k)
        pts[rng.integers(n, size=k), axis] = pts[rng.integers(n, size=k), axis]
        pts[rng.integers(n, size=k)] = pts[rng.integers(n, size=k)]
        pts[rng.integers(n, size=k)] = pts[rng.integers(n, size=k)] + rng.random((k, 3)) * 0.1
        pts = np.clip(pts, 0.001, 0.999)
        return np.round(pts * 1000) / 1000 if grid else pts
    return build


@pytest.fixture(scope="session")
def benchmark_rows():
    """Rows of the bundled benchmark table as dicts with parsed floats."""
    with open(benchmark_results_path(), "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 63
    for row in rows:
        row["losses"] = np.array([float(row["l1"]), float(row["l2"]), float(row["l3"])])
        row["hv_contribution"] = float(row["hv_contribution"])
        row["normalized_contribution"] = float(row["normalized_contribution"])
        row["geometric_mean"] = float(row["geometric_mean"])
    return rows


@pytest.fixture(scope="session")
def benchmark_by_dataset(benchmark_rows):
    by_ds = {}
    for row in benchmark_rows:
        by_ds.setdefault(row["dataset"], []).append(row)
    assert len(by_ds) == 9 and all(len(v) == 7 for v in by_ds.values())
    return by_ds


@pytest.fixture(scope="session")
def copy_task_panel():
    """Criterion 9's copy-task run at every seed of the panel under both
    samplers: ``{(seed, sampler): (TrainResult, seconds)}``. The moving-average
    check on curves.csv reads the same runs."""
    ds = synth.copy_task(n=64, d=4, k=2, seed=7)
    ds = data.normalize(ds.with_split(data.stratified_split(ds, seed=7)))

    def run(seed):
        t0 = time.perf_counter()
        result = trainer.train(ds, trainer.TrainConfig(
            epochs=200, embedding=4, seed=seed, lambda_pop=16, mu=4, sigma=0.3, c_cov=0.1))
        return result, time.perf_counter() - t0

    return seed_panel.run_panel(run)
