import math

import numpy as np
import pytest

from hvml import losses
from hvml.errors import DimensionError, UndefinedMetricError

from oracles import (brute_hamming, brute_lrap, brute_micro_f1, cube_lrap, gather_lrap,
                     mean_hamming, two_log_bce)


class TestBinarize:
    def test_boundary_is_inclusive(self):
        out = losses.binarize(np.full((2, 3), 0.5), 0.5)
        assert (out == 1).all()

    def test_direct_comparison(self):
        out = losses.binarize([[0.9, 0.2], [0.6, 0.4]], 0.5)
        assert out.tolist() == [[1, 0], [1, 0]]

    def test_idempotent_on_binary(self):
        m = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert (losses.binarize(m, 0.5) == m).all()

    @pytest.mark.parametrize("t", [0.0, 1.0, -0.1, 1.5])
    def test_threshold_must_be_interior(self, t):
        with pytest.raises(ValueError):
            losses.binarize([[0.5]], t)


class TestHamming:
    def test_perfect(self):
        m = np.array([[1, 0], [0, 1]])
        assert losses.hamming_loss(m, m) == 0.0

    def test_total_mismatch(self):
        t = np.array([[1, 0], [0, 1]])
        assert losses.hamming_loss(1 - t, t) == 1.0

    def test_hand_count(self):
        assert losses.hamming_loss([[1, 0], [1, 0]], [[1, 0], [0, 1]]) == 0.5

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            losses.hamming_loss([[1, 0]], [[1], [0]])


class TestLrap:
    def test_perfect_ranking(self):
        scores = [[0.9, 0.8, 0.1, 0.05], [0.7, 0.1, 0.9, 0.2]]
        truth = [[1, 1, 0, 0], [1, 0, 1, 0]]
        assert losses.lrap(scores, truth) == 1.0

    def test_hand_ranking(self):
        assert losses.lrap([[0.9, 0.8, 0.7, 0.1]], [[1, 0, 1, 0]]) == pytest.approx(5 / 6)

    def test_single_label(self):
        assert losses.lrap([[0.13]], [[1]]) == 1.0

    def test_all_zero_labels_undefined(self):
        with pytest.raises(UndefinedMetricError):
            losses.lrap([[0.3, 0.8]], [[0, 0]])

    def test_zero_positive_rows_skipped(self):
        scores = [[0.9, 0.8, 0.7, 0.1], [0.4, 0.3, 0.2, 0.1]]
        truth = [[1, 0, 1, 0], [0, 0, 0, 0]]
        assert losses.lrap(scores, truth) == pytest.approx(5 / 6)

    def test_tied_scores_use_competition_rank(self):
        # both labels tied: rank 2 each, both positives at/above -> exactly 1
        assert losses.lrap([[0.5, 0.5]], [[1, 1]]) == pytest.approx(1.0)
        # one positive among two tied scores: rank 2, one positive at/above
        assert losses.lrap([[0.5, 0.5]], [[1, 0]]) == pytest.approx(0.5)

    def test_ties_never_push_above_one(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            scores = rng.integers(0, 2, (4, 5)) / 1.0
            truth = (rng.random((4, 5)) < 0.6).astype(int)
            truth[truth.sum(axis=1) == 0, 0] = 1
            assert losses.lrap(scores, truth) <= 1.0 + 1e-12

    def test_matches_brute_enumeration(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            scores = rng.random((6, 5))
            truth = (rng.random((6, 5)) < 0.4).astype(int)
            if not truth.any(axis=1).any():
                truth[0, 0] = 1
            assert losses.lrap(scores, truth) == pytest.approx(brute_lrap(scores, truth), abs=1e-12)

    def test_matches_brute_with_ties(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            scores = rng.integers(0, 3, (5, 4)) / 2.0  # heavy ties
            truth = (rng.random((5, 4)) < 0.5).astype(int)
            if not truth.any(axis=1).any():
                truth[0, 0] = 1
            assert losses.lrap(scores, truth) == pytest.approx(brute_lrap(scores, truth), abs=1e-12)

    def test_matches_sklearn(self):
        sk = pytest.importorskip("sklearn.metrics")
        rng = np.random.default_rng(7)
        for _ in range(50):
            scores = np.round(rng.random((8, 6)), 1)  # some ties
            truth = (rng.random((8, 6)) < 0.4).astype(int)
            truth[truth.sum(axis=1) == 0, 0] = 1
            expected = sk.label_ranking_average_precision_score(truth, scores)
            assert losses.lrap(scores, truth) == pytest.approx(expected, abs=1e-12)

    def test_row_permutation_invariant(self):
        rng = np.random.default_rng(5)
        scores = rng.random((10, 4))
        truth = (rng.random((10, 4)) < 0.5).astype(int)
        truth[truth.sum(axis=1) == 0, 0] = 1
        perm = rng.permutation(10)
        assert losses.lrap(scores, truth) == pytest.approx(losses.lrap(scores[perm], truth[perm]))


class TestMicroF1:
    def test_perfect(self):
        m = np.array([[1, 0], [0, 1]])
        assert losses.micro_f1(m, m) == 1.0

    def test_hand_counts(self):
        assert losses.micro_f1([[1, 0], [1, 0]], [[1, 0], [0, 1]]) == pytest.approx(0.5)

    def test_all_negative_prediction(self):
        assert losses.micro_f1([[0, 0]], [[1, 1]]) == 0.0

    def test_vacuous_case_is_one(self):
        assert losses.micro_f1([[0, 0]], [[0, 0]]) == 1.0

    def test_row_permutation_invariant(self):
        rng = np.random.default_rng(5)
        pred = (rng.random((10, 4)) < 0.5).astype(int)
        truth = (rng.random((10, 4)) < 0.5).astype(int)
        perm = rng.permutation(10)
        assert losses.micro_f1(pred, truth) == losses.micro_f1(pred[perm], truth[perm])
        assert losses.hamming_loss(pred, truth) == losses.hamming_loss(pred[perm], truth[perm])


def test_hamming_and_micro_f1_exhaustive_oracle():
    # all 2^(N*K) prediction matrices for a 3x3 problem, several truths
    rng = np.random.default_rng(0)
    for _ in range(4):
        truth = (rng.random((3, 3)) < 0.5).astype(int)
        for code in range(512):
            pred = np.array([(code >> b) & 1 for b in range(9)]).reshape(3, 3)
            assert losses.hamming_loss(pred, truth) == pytest.approx(brute_hamming(pred, truth))
            assert losses.micro_f1(pred, truth) == pytest.approx(brute_micro_f1(pred, truth))


class TestBce:
    def test_near_perfect_confidence(self):
        eps = losses.BCE_EPS
        assert losses.bce([[1.0 - eps]], [[1]]) == pytest.approx(-math.log(1 - eps), rel=1e-6)

    def test_closed_form_at_half(self):
        assert losses.bce([[0.5, 0.5]], [[1, 0]]) == pytest.approx(2 * math.log(2))

    def test_symmetric_case(self):
        assert losses.bce([[0.5]], [[0]]) == pytest.approx(math.log(2))

    def test_clipping_keeps_loss_finite(self):
        assert np.isfinite(losses.bce([[0.0, 1.0]], [[1, 0]]))

    def test_mean_over_samples_sum_over_labels(self):
        # two identical samples: same value as one; two labels: twice one label
        one = losses.bce([[0.3, 0.6]], [[1, 0]])
        assert losses.bce([[0.3, 0.6]] * 2, [[1, 0]] * 2) == pytest.approx(one)
        assert losses.bce([[0.3]], [[1]]) + losses.bce([[0.6]], [[0]]) == pytest.approx(one)


class TestLossVector:
    def test_perfect_model(self):
        truth = [[1, 0], [0, 1]]
        assert losses.loss_vector(np.array(truth, dtype=float), truth) == (0.0, 0.0, 0.0)

    def test_composed_hand_example(self):
        lv = losses.loss_vector([[0.9, 0.2], [0.6, 0.4]], [[1, 0], [0, 1]])
        assert lv.l1 == pytest.approx(0.5)
        # row 1 ranks its positive first (1.0); row 2 ranks it second (1/2)
        assert lv.l2 == pytest.approx(1 - (1.0 + 0.5) / 2)
        assert lv.l3 == pytest.approx(0.5)

    def test_constant_scores_predict_everything(self):
        rng = np.random.default_rng(1)
        truth = (rng.random((8, 5)) < 0.4).astype(int)
        truth[truth.sum(axis=1) == 0, 0] = 1
        lv = losses.loss_vector(np.full((8, 5), 0.5), truth, 0.5)
        assert lv.l1 == pytest.approx(np.mean(truth == 0))

    def test_all_components_in_unit_interval(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            scores = rng.random((6, 4))
            truth = (rng.random((6, 4)) < 0.5).astype(int)
            truth[truth.sum(axis=1) == 0, 0] = 1
            lv = losses.loss_vector(scores, truth)
            assert all(0.0 <= v <= 1.0 for v in lv)


def _grid_case(rng, n, k):
    """Scores on a 0.1 grid (ties, entries exactly at the 0.5 threshold) and
    truth with some rows that have no positive label."""
    scores = rng.integers(0, 11, (n, k)) / 10.0
    truth = (rng.random((n, k)) < rng.uniform(0.05, 0.6)).astype(int)
    truth[rng.random(n) < 0.2] = 0
    if not truth.any():
        truth[0, 0] = 1
    return scores, truth


class TestTruth:
    def test_indexes_positives_row_major(self):
        t = losses.Truth([[0, 1, 1], [0, 0, 0], [1, 0, 0]])
        assert t.rows.tolist() == [0, 0, 2] and t.flat.tolist() == [1, 2, 6]
        assert t.neg_flat.tolist() == [0, 3, 4, 5, 7, 8]
        assert t.positives == 3
        # two counted rows: a row with two positives weighs 1/4 each
        assert t.weights.tolist() == [0.25, 0.25, 0.5]
        assert t.matrix.dtype == bool

    @pytest.mark.parametrize("bad", [[[0, 2]], [[0.5, 1]], [[np.nan, 1]], [0, 1], [[]]])
    def test_checked_once_when_built(self, bad):
        with pytest.raises(DimensionError):
            losses.Truth(bad)

    @pytest.mark.parametrize("bad", [[[0.2, np.nan]], [[1.5, 0.1]], [[-0.1, 0.3]], [0.4]])
    def test_scores_checked_when_built(self, bad):
        with pytest.raises(DimensionError):
            losses.Scores(bad)

    @pytest.mark.parametrize("bad,message", [
        ([[0.2, np.nan]], "non-finite"), ([[np.nan, 0.2]], "non-finite"),
        ([[0.2, np.inf]], "non-finite"), ([[-np.inf, 0.2]], "non-finite"),
        ([[-0.5, np.nan]], "non-finite"), ([[1.5, np.nan]], "non-finite"),
        ([[0.3, -1e-300]], "must lie in"), ([[0.3, 1.0000000000000002, 0.2]], "must lie in"),
        ([[-0.0, 1.0], [0.5, -5e-324]], "must lie in")])
    def test_scores_refusals_name_the_rule(self, bad, message):
        with pytest.raises(DimensionError, match=message):
            losses.Scores(bad)

    def test_scores_accept_the_closed_interval(self):
        edges = np.array([[0.0, 1.0, -0.0, 0.5]])
        assert np.array_equal(losses.Scores(edges).matrix, edges)

    def test_shape_mismatch_with_prepared_truth(self):
        t = losses.Truth([[1, 0], [0, 1]])
        with pytest.raises(DimensionError):
            losses.lrap([[0.3, 0.2, 0.1]], t)
        with pytest.raises(DimensionError):
            losses.hamming_loss(np.ones((2, 3), dtype=bool), t)

    def test_boolean_prediction_needs_no_value_check(self):
        pred = np.array([[True, False], [True, True]])
        assert losses.hamming_loss(pred, [[1, 0], [0, 1]]) == 0.25
        assert losses.micro_f1(pred, [[1, 0], [0, 1]]) == pytest.approx(0.8)

    def test_undefined_lrap_through_prepared_truth(self):
        t = losses.Truth(np.zeros((3, 4), dtype=int))
        assert t.positives == 0
        with pytest.raises(UndefinedMetricError):
            losses.lrap(np.full((3, 4), 0.5), t)
        with pytest.raises(UndefinedMetricError):
            losses.loss_vector(losses.Scores(np.full((3, 4), 0.5)), t)


class TestPreparedTruthMatchesOracles:
    """The prepared path (Truth and Scores, as the trainer calls it) against
    plain arrays and the independent oracles, over random populations."""

    @pytest.mark.parametrize("k", [1, 6, 14, 53, 174])
    def test_population(self, k):
        rng = np.random.default_rng(1000 + k)
        n = 40 if k < 100 else 12
        scores0, truth = _grid_case(rng, n, k)
        prepared = losses.Truth(truth)
        for member in range(8):
            scores = scores0 if member == 0 else _grid_case(rng, n, k)[0]
            checked = losses.Scores(scores)
            lv = losses.loss_vector(checked, prepared)
            assert lv == losses.loss_vector(scores, truth)
            assert losses.bce(checked, prepared) == losses.bce(scores, truth)
            pred = (scores >= 0.5).astype(int)
            assert lv.l1 == pytest.approx(brute_hamming(pred, truth), abs=1e-12)
            assert lv.l2 == pytest.approx(1.0 - brute_lrap(scores, truth), abs=1e-12)
            assert lv.l2 == pytest.approx(1.0 - cube_lrap(scores, truth), abs=1e-12)
            assert lv.l3 == pytest.approx(1.0 - brute_micro_f1(pred, truth), abs=1e-12)

    @pytest.mark.parametrize("k", [1, 6, 14, 53])
    def test_bitwise_equal_to_former_forms(self, k):
        # 0.1-grid scores: ties, entries exactly on the threshold, and rows
        # without a positive label; then continuous scores
        rng = np.random.default_rng(2000 + k)
        for n in (1, 7, 40, 593):
            for scores in (_grid_case(rng, n, k)[0], rng.random((n, k))):
                truth = _grid_case(rng, n, k)[1]
                prepared, checked = losses.Truth(truth), losses.Scores(scores)
                pred = losses.binarize(checked)
                assert type(losses.hamming_loss(pred, prepared)) is float
                assert type(losses.lrap(checked, prepared)) is float
                assert losses.hamming_loss(pred, prepared) == mean_hamming(pred, truth)
                assert losses.hamming_loss(pred, truth) == mean_hamming(pred, truth)
                assert losses.lrap(checked, prepared) == gather_lrap(scores, truth)
                assert losses.lrap(scores, truth) == gather_lrap(scores, truth)

    def test_bce_against_direct_sum(self):
        rng = np.random.default_rng(12)
        scores, truth = _grid_case(rng, 30, 14)
        p = np.clip(scores, losses.BCE_EPS, 1 - losses.BCE_EPS)
        direct = np.mean([-sum(np.log(p[i, j]) if truth[i, j] else np.log1p(-p[i, j])
                               for j in range(14)) for i in range(30)])
        got = losses.bce(losses.Scores(scores), losses.Truth(truth))
        assert got == pytest.approx(direct, abs=1e-12)

    @pytest.mark.parametrize("k", [1, 6, 14, 53])
    def test_bce_within_tolerance_of_two_log_form(self, k):
        # continuous and 0.1-grid scores, then the clipping edges 0, 1, eps and
        # 1 - eps, each on all-positive and all-negative rows, alone and mixed
        rng = np.random.default_rng(3000 + k)
        eps = losses.BCE_EPS
        cases = [(rng.random((40, k)), _grid_case(rng, 40, k)[1]), _grid_case(rng, 40, k)]
        for edge in (0.0, 1.0, eps, 1.0 - eps):
            for label in (0, 1):
                cases.append((np.full((5, k), edge), np.full((5, k), label)))
        edges = rng.choice([0.0, 1.0, eps, 1.0 - eps], (12, k))
        labels = np.repeat([[0], [1]], 6, axis=0) * np.ones(k, dtype=int)
        cases.append((edges, labels))
        for scores, truth in cases:
            want = two_log_bce(scores, truth)
            assert losses.bce(scores, truth) == pytest.approx(want, rel=1e-12, abs=0)
            assert losses.bce(losses.Scores(scores), losses.Truth(truth)) == \
                pytest.approx(want, rel=1e-12, abs=0)

    def test_lrap_matches_cube_on_continuous_scores(self):
        rng = np.random.default_rng(13)
        for k in (2, 6, 14, 53):
            scores = rng.random((200, k))
            truth = (rng.random((200, k)) < 0.3).astype(int)
            assert losses.lrap(scores, losses.Truth(truth)) == pytest.approx(
                cube_lrap(scores, truth), abs=1e-12)


class TestGeometricMean:
    def test_published_benchmark_value(self):
        # 3-decimal inputs reproduce the published 6-decimal aggregate to 1e-4
        assert losses.geometric_mean((0.547, 0.713, 0.647)) == pytest.approx(0.631976, abs=5e-4)

    def test_annihilator(self):
        assert losses.geometric_mean((0.0, 0.4, 0.9)) == 0.0

    def test_identity(self):
        assert losses.geometric_mean((1.0, 1.0, 1.0)) == 1.0

    def test_bounded_by_min_and_max(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            v = rng.random(3)
            g = losses.geometric_mean(v)
            assert v.min() - 1e-12 <= g <= v.max() + 1e-12


def _block_case(rng, k, n_tr, n_va, b, saturated=False):
    """A label-major (b, K, n_tr + n_va) block of scores (0.1-grid ties and
    threshold hits, continuous, or saturated at 0, 1 and the BCE clip edges)
    and its truth, with rows that have no positive label in both splits."""
    n = n_tr + n_va
    if saturated:
        eps = losses.BCE_EPS
        scores = rng.choice([0.0, 1.0, eps, 1.0 - eps, 0.5], (b, k, n))
    else:
        scores = rng.integers(0, 11, (b, k, n)) / 10.0
        scores[::2] = rng.random((len(scores[::2]), k, n))
    truth = _grid_case(rng, n, k)[1]
    truth[[0, n_tr]] = 1            # each split: a row of every label,
    truth[[n_tr - 1, n - 1]] = 0    # and one of none where it has two rows
    truth[[0, n_tr], 0] = 1
    return scores, truth


class TestBlockLosses:
    """``block_losses`` on a label-major block against the per-candidate
    losses of each candidate's N x K scores of each split, bit for bit."""

    @pytest.mark.parametrize("k", [1, 6, 14, 53])
    @pytest.mark.parametrize("saturated", [False, True])
    def test_bitwise_equal_to_per_candidate_losses(self, k, saturated):
        rng = np.random.default_rng(4000 + k + 100 * saturated)
        for n_tr, n_va, b in ((1, 1, 1), (7, 3, 2), (40, 13, 5), (332, 83, 7)):
            scores, truth = _block_case(rng, k, n_tr, n_va, b, saturated)
            n = n_tr + n_va
            splits = (losses.Truth(truth[:n_tr], 0, n), losses.Truth(truth[n_tr:], n_tr, n))
            got = losses.block_losses(scores, splits)
            assert got.shape == (2, b, 4)
            for (lo, hi), per_split in zip(((0, n_tr), (n_tr, n)), got):
                for cand, row in zip(scores, per_split):
                    mine = np.ascontiguousarray(cand.T[lo:hi])
                    want = [*losses.loss_vector(mine, truth[lo:hi]), losses.bce(mine, truth[lo:hi])]
                    assert row.tolist() == want

    def test_ranks_beyond_255_labels(self):
        # 300 labels on a 0 / 0.5 / 1 grid: ranks and true-above counts pass
        # 255, the most that one byte holds
        rng = np.random.default_rng(4300)
        scores, truth = _block_case(rng, 300, 7, 3, 3, saturated=True)
        splits = (losses.Truth(truth[:7], 0, 10), losses.Truth(truth[7:], 7, 10))
        got = losses.block_losses(scores, splits)
        for (lo, hi), per_split in zip(((0, 7), (7, 10)), got):
            for cand, row in zip(scores, per_split):
                mine = np.ascontiguousarray(cand.T[lo:hi])
                assert row.tolist() == [*losses.loss_vector(mine, truth[lo:hi]),
                                        losses.bce(mine, truth[lo:hi])]

    def test_all_negative_split_rows_and_all_positive_labels(self):
        # a split whose rows are all negative but one, and a block thresholded
        # above every score: micro F1 then counts no hit
        truth = np.zeros((6, 3), dtype=int)
        truth[2, 1] = 1
        scores = np.full((2, 3, 6), 0.25)
        scores[1, 1, 2] = 0.75
        got = losses.block_losses(scores, (losses.Truth(truth),))
        for cand, row in zip(scores, got[0]):
            assert row.tolist() == [*losses.loss_vector(cand.T, truth), losses.bce(cand.T, truth)]
        assert got[0, 1, :3].tolist() == [0.0, 0.0, 0.0]

    def test_split_without_a_positive_label_is_undefined(self):
        truth = np.zeros((4, 3), dtype=int)
        with pytest.raises(UndefinedMetricError, match="no sample has a positive label"):
            losses.block_losses(np.full((2, 3, 4), 0.5), (losses.Truth(truth),))

    @pytest.mark.parametrize("bad,message", [
        (np.nan, "scores contains non-finite entries"),
        (np.inf, "scores contains non-finite entries"),
        (1.5, r"scores entries must lie in \[0, 1\]"),
        (-1e-300, r"scores entries must lie in \[0, 1\]")])
    def test_refused_scores_name_the_rule(self, bad, message):
        scores = np.full((3, 2, 5), 0.5)
        scores[2, 1, 4] = bad
        with pytest.raises(DimensionError, match=message):
            losses.block_losses(scores, (losses.Truth(np.eye(5, 2, dtype=int)),))

    def test_placement_must_fit_the_block(self):
        truth = losses.Truth(np.eye(4, 2, dtype=int), 3, 7)
        assert truth.block_cols.tolist() == [3, 4]
        assert truth.block_pos.tolist() == [3, 7 + 4]
        with pytest.raises(DimensionError):
            losses.block_losses(np.full((1, 2, 6), 0.5), (truth,))
        with pytest.raises(DimensionError):
            losses.block_losses(np.full((1, 3, 7), 0.5), (truth,))
        with pytest.raises(DimensionError):
            losses.Truth(np.eye(4, 2, dtype=int), 4, 7)
