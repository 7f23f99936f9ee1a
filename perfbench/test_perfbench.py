"""Tests of the benchmark harness's own logic (not of the program)."""

import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import inputs  # noqa: E402
import spans  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tracer = spans.Tracer(clock)
    ns = SimpleNamespace()

    def exact_hypervolume(points):
        clock.now += 2.0
        return 0.5

    def exact_contribution(points):
        clock.now += 1.0
        full = ns.exact_hypervolume(points)
        rest = ns.exact_hypervolume(points[1:])
        clock.now += 0.5
        return full - rest

    ns.exact_hypervolume = exact_hypervolume
    ns.exact_contribution = exact_contribution
    tracer.wrap(ns, "exact_hypervolume", "pareto.exact_hypervolume",
                lambda args, kwargs, result: {"points": len(args[0])})
    tracer.wrap(ns, "exact_contribution", "pareto.exact_contribution")
    tracer.wrap(ns, "gone", "pareto.gone")
    ns.exact_contribution([1, 2, 3])

    stats = spans.layer_stats(tracer.spans)
    assert stats["pareto.exact_contribution"].total_s == 5.5
    assert stats["pareto.exact_contribution"].self_s == 1.5
    assert stats["pareto.exact_hypervolume"].calls == 2
    assert stats["pareto.exact_hypervolume"].self_s == 4.0
    assert [i["points"] for i in stats["pareto.exact_hypervolume"].info] == [3, 2]
    assert spans.root_time(tracer.spans) == 5.5
    assert tracer.absent == ["pareto.gone"]

    tracer.unwrap()
    assert ns.exact_hypervolume is exact_hypervolume
    assert ns.exact_contribution is exact_contribution


def test_disabled_tracer_records_nothing():
    tracer = spans.Tracer(FakeClock())
    ns = SimpleNamespace(f=lambda: 1)
    tracer.wrap(ns, "f", "x.f")
    tracer.enabled = False
    assert ns.f() == 1
    assert tracer.spans == []


def test_start_gaps_per_parent():
    tracer = spans.Tracer(FakeClock())
    for parent, start in ((-1, 0.0), (0, 1.0), (0, 3.5), (-1, 10.0), (3, 11.0), (3, 12.0)):
        tracer.spans.append(spans.Span("s" if parent >= 0 else "train", start, parent, 0))
    assert spans.start_gaps(tracer.spans, "s") == [2.5, 1.0]


@pytest.mark.parametrize("n, expected", [
    (19, None),          # the median would have only 9 samples beyond it
    (20, 50.0),
    (99, 50.0),          # p90 would have only 9 beyond
    (100, 90.0),
    (999, 90.0),
    (1000, 99.0),
    (10_000, 99.9),
])
def test_tail_percentile_rule(n, expected):
    samples = list(range(n, 0, -1))
    got = spans.tail_percentile(samples)
    if expected is None:
        assert got is None
        return
    pct, value, count = got
    assert pct == expected
    assert count == n
    assert sum(s > value for s in samples) >= spans.MIN_SAMPLES_BEYOND


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    assert spans.percentile(samples, 50) == 50
    assert spans.percentile(samples, 90) == 90
    assert spans.percentile(samples, 99.9) == 100
    assert spans.percentile([7.0], 90) == 7.0


def test_arff_writer_round_trips_through_load_arff(tmp_path):
    from hvml import data

    rng = np.random.default_rng(3)
    x = rng.random((40, 5))
    x[0, 0] = 1e-300
    x[1, 1] = 0.1 + 0.2
    y = (rng.random((40, 3)) < 0.4).astype(np.int8)
    path = tmp_path / "d.arff"
    inputs.write_arff(path, x, y, relation="rt")
    ds = data.load_arff(path, label_count=3, labels_at="back")
    assert ds.name == "rt"
    assert np.array_equal(ds.x, x)
    assert np.array_equal(ds.y, y)
    assert ds.feature_kinds == (data.NUMERIC,) * 5


def test_grid_front_shape():
    rng = np.random.default_rng(5)
    rows = inputs.grid_front(rng, n_front=12, n_dup=2, n_dominated=3, n_ties=3)
    assert rows.shape == (17, 3)
    assert ((rows > 0) & (rows < 1)).all()
    assert np.array_equal(np.round(rows * inputs.GRID) / inputs.GRID, rows)
    weakly_dominated = [(np.delete(rows, i, axis=0) <= rows[i]).all(axis=1).any()
                        for i in range(len(rows))]
    assert sum(weakly_dominated) >= 2 + 3


def test_binomial_check():
    # a single hit on a contribution far below 1/samples is ordinary
    assert inputs.binomial_consistent(1, 10_000, 1e-6)
    assert inputs.binomial_consistent(0, 10_000, 0.0)
    assert not inputs.binomial_consistent(1, 10_000, 0.0)
    assert inputs.binomial_consistent(5_050, 10_000, 0.5)
    assert not inputs.binomial_consistent(5_300, 10_000, 0.5)
    assert inputs.within_standard_errors(0.505, 0.5, 10_000)
    assert not inputs.within_standard_errors(0.53, 0.5, 10_000)
