import numpy as np
import pytest

from hvml import benchmark_results_path, report
from hvml.errors import GridError, NumericError, ParseError
from hvml.report import (ResultsTable, chi2_quantile, contribution_table, critical_difference,
                         friedman_statistic, geometric_means, method_medians, midranks)

from oracles import loop_midranks

TABLE1_MEDIANS = {"CLML": 0.240, "DELA": 0.254, "CLIF": 0.269, "MLKNN": 0.249,
                  "C2AE": 0.394, "GNB-CC": 0.415, "GNB-BR": 0.481}


@pytest.fixture(scope="module")
def table():
    return ResultsTable.from_csv(benchmark_results_path())


class TestResultsTable:
    def test_shape(self, table):
        assert len(table.datasets) == 9 and len(table.methods) == 7
        assert table.aggregates is not None
        table.require_full_grid()

    def test_missing_cell_listed(self, table):
        cells = dict(table.cells)
        cells.pop(("yeast", "CLML"))
        broken = ResultsTable(table.datasets, table.methods, cells)
        with pytest.raises(GridError, match="yeast.*CLML"):
            broken.require_full_grid()

    def test_duplicate_pair_rejected(self):
        rows = [{"dataset": "a", "method": "m", "l1": 0.1, "l2": 0.2, "l3": 0.3}] * 2
        with pytest.raises(ParseError, match="duplicate"):
            ResultsTable.from_rows(rows)


class TestGeometricTable:
    def test_median_reproduction(self, table):
        medians = method_medians(table)
        for method, published in TABLE1_MEDIANS.items():
            assert round(medians[method], 3) == published

    def test_single_dataset_median_is_identity(self):
        rows = [{"dataset": "only", "method": m, "l1": v, "l2": v, "l3": v}
                for m, v in (("a", 0.2), ("b", 0.4))]
        t = ResultsTable.from_rows(rows)
        med = method_medians(t)
        assert med["a"] == pytest.approx(0.2)

    def test_median_invariant_to_dataset_order(self, table):
        rev = ResultsTable(tuple(reversed(table.datasets)), table.methods,
                           table.cells, table.aggregates)
        assert method_medians(rev) == method_medians(table)

    def test_recomputed_cells_close_to_published(self, table, benchmark_rows):
        gms = geometric_means(table)
        worst = max(abs(gms[(r["dataset"], r["method"])] - r["geometric_mean"])
                    for r in benchmark_rows)
        # 3-decimal loss triples cannot reproduce the unrounded aggregates
        # exactly; the worst case stays within one rounding quantum
        assert worst < 1e-3


class TestContributionTable:
    def test_published_emotions_values(self, table):
        contribs = contribution_table(table)
        assert contribs[("emotions", "DELA")]["contribution"] == pytest.approx(0.005072, abs=1e-3)
        assert contribs[("emotions", "CLML")]["contribution"] == pytest.approx(0.021444, abs=1e-3)

    def test_published_zero_rows_exact(self, table, benchmark_rows):
        contribs = contribution_table(table)
        for row in benchmark_rows:
            if row["hv_contribution"] == 0.0:
                assert contribs[(row["dataset"], row["method"])]["contribution"] == 0.0

    def test_normalized_sums_to_one(self, table):
        contribs = contribution_table(table)
        for d in table.datasets:
            total = sum(contribs[(d, m)]["normalized"] for m in table.methods)
            assert total == pytest.approx(1.0)

    def test_all_dominated_normalizes_to_zero(self):
        rows = [{"dataset": "d", "method": "a", "l1": 1.0, "l2": 1.0, "l3": 1.0},
                {"dataset": "d", "method": "b", "l1": 1.0, "l2": 1.0, "l3": 1.0}]
        t = ResultsTable.from_rows(rows)
        contribs = contribution_table(t)
        assert contribs[("d", "a")]["normalized"] == 0.0


class TestFriedman:
    def test_identical_performance_is_zero(self):
        stat, _ = friedman_statistic(np.full((5, 4), 0.3))
        assert stat == 0.0

    def test_perfect_ordering_closed_form(self):
        t, k = 6, 4
        mat = np.tile(np.arange(1, k + 1, dtype=float), (t, 1))
        stat, ranks = friedman_statistic(mat)
        expected = 12 * t / (k * (k + 1)) * sum((j - (k + 1) / 2) ** 2 for j in range(1, k + 1))
        assert stat == pytest.approx(expected)
        assert ranks.tolist() == [1, 2, 3, 4]

    def test_rank_sums_preserved_with_ties(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            row = rng.integers(0, 3, 6) / 2.0
            r = midranks(row)
            assert r.sum() == pytest.approx(6 * 7 / 2)

    def test_midranks_equal_the_loop_bit_for_bit(self):
        # each row of a matrix ranked along the last axis, as the former
        # per-row loop over tie groups ranked it
        rng = np.random.default_rng(2)
        for _ in range(1000):
            t, k = rng.integers(1, 10, size=2)
            mat = rng.integers(0, rng.integers(1, 6), (t, k)) / 4.0
            want = np.vstack([loop_midranks(row) for row in mat])
            got = midranks(mat)
            assert got.dtype == want.dtype and np.array_equal(got, want)
            assert np.array_equal(midranks(mat[0]), want[0])

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(1)
        mat = rng.random((7, 5))
        a, _ = friedman_statistic(mat)
        b, _ = friedman_statistic(np.exp(3 * mat))
        assert a == pytest.approx(b)

    def test_published_statistics_dataset_orientation(self, table):
        # the published test ranked datasets within each method (its critical
        # value matches df = 9 - 1); reproduce those numbers to +-1.0
        expected = {"l1": 35.62, "l2": 25.64, "l3": 17.75, "gm": 21.37}
        friedman = report._friedman_tests(table, 0.05)[0]
        for metric, target in expected.items():
            both = friedman[metric]
            assert both["treatments_datasets"]["statistic"] == pytest.approx(target, abs=1.0)
            assert both["treatments_datasets"]["df"] == 8
            assert both["treatments_datasets"]["critical_value"] == pytest.approx(15.507, abs=0.01)
            assert both["treatments_methods"]["df"] == 6
            assert both["treatments_methods"]["critical_value"] == pytest.approx(12.592, abs=0.01)

    def test_methods_orientation_mean_ranks(self, table, tmp_path):
        mean_ranks = report.write_report(table, tmp_path)["mean_ranks"]["gm"]
        assert list(mean_ranks) == list(table.methods)
        assert sum(mean_ranks.values()) == pytest.approx(7 * 8 / 2)
        # the control method achieves the best (lowest) mean rank on gm
        assert min(mean_ranks, key=mean_ranks.get) == "CLML"

    def test_nan_refused(self):
        mat = np.random.default_rng(3).random((4, 3))
        mat[2, 1] = np.nan
        with pytest.raises(NumericError):
            friedman_statistic(mat)

    def test_needs_at_least_two_by_two(self):
        with pytest.raises(GridError):
            friedman_statistic(np.ones((1, 5)))
        with pytest.raises(GridError):
            friedman_statistic(np.ones((5, 1)))


class TestCriticalDifference:
    def test_published_constant(self):
        assert critical_difference(7, 9, 0.05) == pytest.approx(2.686, abs=0.01)

    def test_two_methods_closed_form(self):
        expected = 1.959964 * np.sqrt(2 * 3 / (6 * 9))
        assert critical_difference(2, 9, 0.05) == pytest.approx(expected, abs=1e-4)
        assert critical_difference(2, 9, 0.05) == pytest.approx(0.653, abs=1e-3)

    def test_vanishes_with_many_datasets(self):
        assert critical_difference(7, 10**8, 0.05) < 1e-3

    def test_preconditions(self):
        with pytest.raises(GridError):
            critical_difference(1, 9)
        with pytest.raises(GridError):
            critical_difference(7, 1)


class TestQuantiles:
    def test_published_constants_bit_for_bit(self):
        # the bits of the published constants: the critical difference's z
        # from statistics.NormalDist, the chi-square values by bisection
        assert critical_difference(7, 9, 0.05) == 2.6866697018833383
        assert chi2_quantile(0.95, 6) == 12.591587243743977
        assert chi2_quantile(0.95, 8) == 15.507313055865446

    @pytest.mark.parametrize("p,df,names", [(1.0, 3, "p must lie in"), (0.0, 3, "p must lie in"),
                                            (0.5, 0, "df must be >= 1")],
                             ids=["p-one", "p-zero", "df-zero"])
    def test_chi2_quantile_refuses_arguments(self, p, df, names):
        with pytest.raises(ValueError, match=names):
            chi2_quantile(p, df)

    def test_chi2_quantile_vs_scipy(self):
        st = pytest.importorskip("scipy.stats")
        for df in (1, 2, 6, 8, 30):
            for p in (0.05, 0.5, 0.95, 0.99):
                assert chi2_quantile(p, df) == pytest.approx(st.chi2.ppf(p, df), rel=1e-9)

    def test_chi2_quantile_equals_the_full_bisection(self):
        # stopping once the midpoint repeats an end must not change a bit
        def full_bisection(p, df):
            a, hi = df / 2.0, float(df)
            while report._gammainc_lower(a, hi / 2.0) < p:
                hi *= 2.0
            lo = 0.0
            for _ in range(200):
                mid = (lo + hi) / 2.0
                if report._gammainc_lower(a, mid / 2.0) < p:
                    lo = mid
                else:
                    hi = mid
            return (lo + hi) / 2.0

        for df in range(1, 41):
            for p in (1e-6, 0.01, 0.05, 0.5, 0.95, 0.99, 1 - 1e-9):
                assert chi2_quantile(p, df) == full_bisection(p, df)

    def test_chi2_tabled_values(self):
        assert chi2_quantile(0.95, 6) == pytest.approx(12.5916, abs=1e-3)
        assert chi2_quantile(0.95, 8) == pytest.approx(15.5073, abs=1e-3)


class TestWriteReport:
    def test_files_and_summary(self, table, tmp_path):
        summary = report.write_report(table, tmp_path)
        for name in ("geometric_means.csv", "contributions.csv", "medians.csv", "summary.json"):
            assert (tmp_path / name).exists()
        assert summary["cd"] == pytest.approx(2.686, abs=0.01)
        assert set(summary["medians"]) == set(table.methods)
        assert set(summary["friedman"]) == {"l1", "l2", "l3", "gm"}

    def test_critical_values_once_per_report(self, table, tmp_path, monkeypatch):
        # two chi-square bisections (df = methods - 1 and datasets - 1) serve
        # all four metrics, and each metric's entry carries the one of its df
        calls = []

        def counted(p, df):
            calls.append(df)
            return chi2_quantile(p, df)

        monkeypatch.setattr(report, "chi2_quantile", counted)
        summary = report.write_report(table, tmp_path, alpha=0.05)
        assert sorted(calls) == sorted([len(table.methods) - 1, len(table.datasets) - 1])
        for metric in report.METRIC_KEYS:
            for orientation in ("treatments_methods", "treatments_datasets"):
                entry = summary["friedman"][metric][orientation]
                assert entry["critical_value"] == chi2_quantile(0.95, entry["df"])
