import numpy as np
import pytest

from hvml.errors import DimensionError
from hvml.pareto import (Front, dominates, exact_contribution, exact_contributions,
                         exact_hypervolume, hv_decomposition, mc_contribution,
                         update_reference_set)

from oracles import (first_dominating_pair, grid_hv, iex_hv, leave_one_out_contribution,
                     loop_merge, nondominated_filter, slab_hv, tagged)

EMPTY = Front(np.empty((0, 3)), ())


def merged(pairs):
    """The package's non-dominated merge of pairs into an empty front."""
    return update_reference_set(EMPTY, pairs)


class TestDominates:
    def test_one_strict_rest_equal(self):
        assert dominates((0.1, 0.2, 0.3), (0.2, 0.2, 0.3))

    def test_equality_is_not_dominance(self):
        assert not dominates((0.1, 0.2, 0.3), (0.1, 0.2, 0.3))

    def test_incomparable(self):
        assert not dominates((0.1, 0.9, 0.3), (0.2, 0.2, 0.3))

    def test_order_properties_on_random_triples(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            a, b, c = rng.random((3, 3))
            assert not dominates(a, a)
            assert not (dominates(a, b) and dominates(b, a))
            if dominates(a, b) and dominates(b, c):
                assert dominates(a, c)


class TestNondominatedFilter:
    """Non-dominated filtering by ``update_reference_set`` from an empty front."""

    def test_single_point(self):
        front = merged([((0.3, 0.3, 0.3), "only")])
        assert len(front) == 1 and front.tags == ("only",)

    def test_chain_keeps_minimum(self):
        pts = [((0.1, 0.1, 0.1), "a"), ((0.2, 0.2, 0.2), "b"), ((0.3, 0.3, 0.3), "c")]
        assert merged(pts).tags == ("a",)

    def test_duplicates_keep_first(self):
        pts = [((0.5, 0.2, 0.6), "first"), ((0.5, 0.2, 0.6), "second")]
        assert merged(pts).tags == ("first",)

    def test_published_emotions_front(self, benchmark_by_dataset):
        rows = benchmark_by_dataset["emotions"]
        front = merged([(r["losses"], r["method"]) for r in rows])
        assert set(front.tags) == {"DELA", "CLML"}

    def test_survivors_exactly_the_nondominated(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            pts = rng.random((10, 3))
            front = merged([(p, str(i)) for i, p in enumerate(pts)])
            for i, p in enumerate(pts):
                expect = not any(dominates(q, p) for q in pts) and not any(
                    (pts[j] == p).all() for j in range(i))
                assert (str(i) in front.tags) == expect

    def test_front_validate(self):
        with pytest.raises(ValueError):
            Front(np.array([[0.1, 0.1, 0.1], [0.2, 0.2, 0.2]]), ("a", "b")).validate()

    def test_front_validate_names_the_first_dominating_pair(self):
        # grid points give duplicates (never a dominance) and ties in some
        # components; a nan row dominates nothing and nothing dominates it
        rng = np.random.default_rng(4)
        for _ in range(300):
            pts = rng.integers(0, 4, size=(rng.integers(0, 10), 3)) / 4.0
            if len(pts) and rng.random() < 0.2:
                pts[rng.integers(len(pts))] = np.nan
            pair = first_dominating_pair(tagged(pts))
            front = Front(pts, tuple(str(i) for i in range(len(pts))))
            if pair is None:
                assert front.validate() is front
            else:
                with pytest.raises(ValueError, match=f": {pair[0]} dominates {pair[1]}$"):
                    front.validate()


class TestExactHypervolume:
    def test_single_box(self):
        assert exact_hypervolume([((0.5, 0.5, 0.5), "a")]) == pytest.approx(0.125)

    def test_two_box_union(self):
        front = [((0.2, 0.8, 0.5), "a"), ((0.8, 0.2, 0.5), "b")]
        assert exact_hypervolume(front) == pytest.approx(0.14)

    def test_empty_front(self):
        assert exact_hypervolume([]) == 0.0

    def test_arrays_and_bare_vectors_are_refused(self):
        pts = np.array([[0.2, 0.8, 0.5], [0.8, 0.2, 0.5]])
        for bad in (pts, pts[:, :2], list(pts), [tuple(p) for p in pts], [(0.2, 0.8)],
                    [((0.2, 0.8), "a")], [pts[0]]):
            with pytest.raises(DimensionError):
                exact_hypervolume(bad)

    def test_point_at_reference_contributes_nothing(self):
        assert exact_hypervolume([((1.0, 1.0, 1.0), "a")]) == 0.0
        front = [((0.5, 0.5, 0.5), "a"), ((1.0, 0.0, 0.0), "b")]
        assert exact_hypervolume(front) == pytest.approx(0.125)

    def test_iex_and_sweep_agree(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            pts = rng.random((rng.integers(1, 13), 3))
            ref = np.ones(3)
            assert exact_hypervolume(tagged(pts), ref) == pytest.approx(iex_hv(pts, ref), abs=1e-12)

    def test_iex_and_sweep_agree_with_offset_reference(self):
        rng = np.random.default_rng(3)
        ref = np.array([0.9, 1.1, 0.8])
        for _ in range(200):
            pts = rng.random((rng.integers(1, 10), 3))
            assert exact_hypervolume(tagged(pts), ref) == pytest.approx(iex_hv(pts, ref), abs=1e-12)

    def test_monotone_in_points(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            pts = rng.random((6, 3))
            base = exact_hypervolume(tagged(pts[:5]))
            grown = exact_hypervolume(tagged(pts))
            assert grown >= base - 1e-12

    def test_dominated_point_changes_nothing(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            pts = rng.random((5, 3))
            dominated = np.clip(pts[0] + rng.random(3) * (1 - pts[0]) * 0.9, 0, 0.999)
            with_dup = np.vstack([pts, dominated])
            assert exact_hypervolume(tagged(with_dup)) == pytest.approx(
                exact_hypervolume(tagged(pts)), abs=1e-12)

    def test_iex_and_sweep_agree_near_dispatch_limit(self):
        # the largest fronts the exponential oracle can check in seconds
        rng = np.random.default_rng(13)
        for n in (13, 16, 18, 20):
            pts = rng.random((n, 3))
            assert exact_hypervolume(tagged(pts)) == pytest.approx(iex_hv(pts), abs=1e-12)

    def test_sweep_beyond_iex_limit(self):
        rng = np.random.default_rng(6)
        pts = rng.integers(0, 200, (40, 3)) / 200.0
        assert exact_hypervolume(tagged(pts)) == pytest.approx(grid_hv(pts, 200), rel=1e-12, abs=1e-15)

    def test_reference_must_be_one_3_vector(self):
        pts = np.array([[0.2, 0.2, 0.2]])
        for bad in ([1.0, 1.0], [[1.0, 1.0, 1.0]], [[0.6, 1.0, 1.0], [1.0, 0.6, 1.0]]):
            with pytest.raises(DimensionError):
                exact_hypervolume(tagged(pts), bad)
            with pytest.raises(DimensionError):
                exact_contribution([(pts[0], "a")], "a", bad)
            with pytest.raises(DimensionError):
                mc_contribution([(pts[0], "a")], "a", bad, g=10, seed=0)


class TestExactContribution:
    def test_published_emotions_contributions(self, benchmark_by_dataset):
        rows = benchmark_by_dataset["emotions"]
        front = [(r["losses"], r["method"]) for r in rows]
        dela = exact_contribution(front, "DELA")
        assert dela == pytest.approx(0.005072, abs=1e-3)

    def test_dominated_point_is_exactly_zero(self):
        front = [((0.2, 0.2, 0.2), "good"), ((0.5, 0.5, 0.5), "bad")]
        assert exact_contribution(front, "bad") == 0.0

    def test_singleton_is_full_box(self):
        assert exact_contribution([((0.25, 0.5, 0.5), "a")], "a") == pytest.approx(0.75 * 0.5 * 0.5)

    def test_unknown_tag(self):
        with pytest.raises(KeyError):
            exact_contribution([((0.5, 0.5, 0.5), "a")], "missing")

    def test_duplicate_points_annihilate(self):
        front = [((0.4, 0.4, 0.4), "a"), ((0.4, 0.4, 0.4), "b")]
        assert exact_contribution(front, "a") == 0.0
        assert exact_contribution(front, "b") == 0.0

    def test_matches_direct_difference(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            pts = rng.random((6, 3))
            front = [(p, str(i)) for i, p in enumerate(pts)]
            i = int(rng.integers(6))
            expected = (exact_hypervolume(tagged(pts))
                        - exact_hypervolume(tagged(np.delete(pts, i, axis=0))))
            assert exact_contribution(front, str(i)) == pytest.approx(max(0.0, expected), abs=1e-12)


class TestExactContributions:
    """The one-pass exclusive volumes against the leave-one-out difference of
    three independent volume oracles."""

    @staticmethod
    def assert_matches(pts, ref=np.ones(3), oracles=(slab_hv, iex_hv)):
        total, got = exact_contributions(tagged(pts), ref)
        assert total == exact_hypervolume(tagged(pts), ref)
        assert got.shape == (len(pts),)
        for hv in oracles:
            want = [leave_one_out_contribution(pts, i, ref, hv) for i in range(len(pts))]
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        covered = [bool((np.delete(pts, i, axis=0) <= pts[i]).all(axis=1).any())
                   or not (pts[i] < ref).all() for i in range(len(pts))]
        for c, zero in zip(got, covered):
            assert c >= 0.0
            if zero:
                assert c == 0.0
        return got

    def test_random_fronts(self):
        rng = np.random.default_rng(21)
        for _ in range(150):
            self.assert_matches(rng.random((rng.integers(1, 11), 3)))

    def test_lattice_fronts_with_ties_duplicates_and_points_on_the_reference(self):
        # a 0.2 lattice makes equal coordinates, repeated and dominated rows
        # and rows on the reference (coordinate 1.0) common
        rng = np.random.default_rng(22)
        grid = lambda p, ref: grid_hv(p, 5)
        for _ in range(300):
            pts = rng.integers(0, 6, (rng.integers(1, 13), 3)) / 5.0
            self.assert_matches(pts, oracles=(slab_hv, iex_hv, grid))

    def test_non_unit_reference(self):
        rng = np.random.default_rng(23)
        ref = np.array([0.8, 1.1, 0.6])
        for _ in range(200):
            pts = rng.integers(0, 7, (rng.integers(1, 11), 3)) / 5.0 * rng.choice([1.0, 0.5])
            self.assert_matches(pts, ref)
            self.assert_matches(rng.random((rng.integers(1, 11), 3)), ref)

    def test_larger_fronts_against_the_slab_oracle(self):
        rng = np.random.default_rng(24)
        plane = rng.dirichlet(np.ones(3), 40)
        pts = np.vstack([plane, plane[:3], plane[3:6] + 0.01])
        self.assert_matches(pts, oracles=(slab_hv,))

    def test_empty_front(self):
        total, got = exact_contributions([])
        assert total == 0.0 and got.shape == (0,)

    def test_single_points(self):
        total, got = exact_contributions([((0.25, 0.5, 0.5), "a")])
        assert total == got[0] == 0.75 * 0.5 * 0.5
        for p in ((1.0, 0.5, 0.5), (0.5, 1.2, 0.5)):
            total, got = exact_contributions([(p, "a")])
            assert total == 0.0 and got[0] == 0.0

    def test_exact_contribution_indexes_the_pass(self):
        rng = np.random.default_rng(25)
        pts = rng.random((9, 3))
        _, got = exact_contributions(tagged(pts))
        assert [exact_contribution(tagged(pts), str(i)) for i in range(9)] == got.tolist()


class TestDecomposition:
    def test_partition_sums_to_total(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            pts = rng.random((rng.integers(1, 9), 3))
            front = [(p, str(i)) for i, p in enumerate(pts)]
            total, parts = hv_decomposition(front)
            assert total == pytest.approx(exact_hypervolume(tagged(pts)), rel=1e-12, abs=1e-15)
            assert parts.shape == (len(pts),)
            assert parts.sum() == pytest.approx(total, rel=1e-9, abs=1e-15)
            assert (parts >= 0).all()

    def test_repeated_tags_get_one_part_per_row(self):
        # tags are provenance, not keys: two rows tagged "a" keep a part each
        total, parts = hv_decomposition([((0.2, 0.8, 0.5), "a"), ((0.8, 0.2, 0.5), "a")])
        assert total == pytest.approx(0.14, abs=1e-15)
        assert parts.tolist() == pytest.approx([0.08, 0.06], abs=1e-15)
        assert parts.sum() == pytest.approx(total, abs=1e-15)

    def test_parts_follow_front_order(self):
        # a row gets what it adds to the rows before it: a dominated row
        # first keeps its box, and one after its dominator gets 0
        lo, hi = (0.2, 0.2, 0.2), (0.5, 0.5, 0.5)
        assert hv_decomposition([(hi, "hi"), (lo, "lo")])[1].tolist() == \
            pytest.approx([0.125, 0.512 - 0.125], abs=1e-15)
        assert hv_decomposition([(lo, "lo"), (hi, "hi")])[1].tolist() == [pytest.approx(0.512), 0.0]

    def test_matches_grid_oracle_on_lattice_fronts(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            pts = rng.integers(0, 200, (rng.integers(1, 9), 3)) / 200.0
            front = [(p, str(i)) for i, p in enumerate(pts)]
            total, _ = hv_decomposition(front)
            assert total == pytest.approx(grid_hv(pts, 200), rel=1e-12, abs=1e-15)


class TestMcContribution:
    def test_singleton_three_sigma(self):
        got = mc_contribution([((0.5, 0.5, 0.5), "a")], "a", g=10**6, seed=123)
        bound = 3 * np.sqrt(0.125 * 0.875 / 10**6)
        assert abs(got - 0.125) <= bound

    def test_dominated_point_is_zero_for_any_g(self):
        front = [((0.2, 0.2, 0.2), "good"), ((0.5, 0.5, 0.5), "bad")]
        assert mc_contribution(front, "bad", g=1, seed=0) == 0.0
        assert mc_contribution(front, "bad", g=1000, seed=1) == 0.0

    def test_single_sample_hit_gives_one(self):
        # seed 1's first draw lies inside the box above (0.1, 0.1, 0.1)
        draw = np.random.default_rng(1).random(3)
        assert (draw >= 0.1).all()
        assert mc_contribution([((0.1, 0.1, 0.1), "a")], "a", g=1, seed=1) == 1.0

    def test_deterministic_per_seed(self):
        front = [((0.3, 0.6, 0.4), "a"), ((0.5, 0.2, 0.7), "b")]
        a = mc_contribution(front, "a", g=5000, seed=42)
        b = mc_contribution(front, "a", g=5000, seed=42)
        assert a == b
        assert mc_contribution(front, "a", g=5000, seed=43) != a

    def test_four_sigma_bound_quick(self):
        rng = np.random.default_rng(10)
        ok = total = 0
        for trial in range(100):
            pts = rng.random((rng.integers(2, 9), 3))
            front = [(p, str(i)) for i, p in enumerate(pts)]
            i = int(rng.integers(len(pts)))
            p = exact_contribution(front, str(i))
            est = mc_contribution(front, str(i), g=10_000, seed=trial)
            bound = 4 * np.sqrt(p * (1 - p) / 10_000)
            total += 1
            ok += abs(est - p) <= bound
        assert ok / total >= 0.99

    def test_respects_reference_clipping(self):
        ref = np.array([0.6, 1.0, 0.9])
        front = [((0.2, 0.2, 0.2), "a"), ((0.1, 0.5, 0.4), "b")]
        exact = exact_contribution(front, "a", ref)
        est = mc_contribution(front, "a", ref, g=200_000, seed=5)
        assert est == pytest.approx(exact, abs=4 * np.sqrt(exact * (1 - exact) / 200_000))

    def test_g_validation(self):
        with pytest.raises(ValueError):
            mc_contribution([((0.5, 0.5, 0.5), "a")], "a", g=0, seed=0)


class TestUpdateReferenceSet:
    def test_interior_point_replaces_unit_vector(self):
        r0 = Front(np.ones((1, 3)), ("r0",))
        out = update_reference_set(r0, [((0.4, 0.4, 0.4), "p")])
        assert out.tags == ("p",)

    def test_union_with_empty_is_identity(self):
        r = merged([((0.2, 0.8, 0.5), "a"), ((0.8, 0.2, 0.5), "b")])
        out = update_reference_set(r, [])
        assert out.tags == r.tags and np.array_equal(out.points, r.points)

    def test_incomparable_points_coexist(self):
        r = merged([((0.2, 0.8, 0.5), "a")])
        out = update_reference_set(r, [((0.8, 0.2, 0.5), "b")])
        assert set(out.tags) == {"a", "b"}

    @staticmethod
    def assert_agrees(base, new):
        """Merging ``new`` into the merged ``base`` keeps what the batch oracle
        keeps of base + new: the same tags in the same order, the same points."""
        incremental = update_reference_set(merged(base), new)
        points, tags = nondominated_filter(base + new)
        assert incremental.tags == tags
        assert np.array_equal(incremental.points, points)

    def test_agrees_with_batch_filter(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            base = [(p, f"a{i}") for i, p in enumerate(rng.random((5, 3)))]
            new = [(p, f"b{i}") for i, p in enumerate(rng.random((5, 3)))]
            self.assert_agrees(base, new)

    def test_agrees_with_batch_filter_on_lattice_ties_and_duplicates(self):
        # a 0.1 lattice makes equal coordinates and repeated points common
        rng = np.random.default_rng(12)
        for _ in range(200):
            base = [(p, f"a{i}") for i, p in enumerate(rng.integers(0, 11, (8, 3)) / 10)]
            new = [(p, f"b{i}") for i, p in enumerate(rng.integers(0, 11, (8, 3)) / 10)]
            new += [(base[0][0].copy(), "dup_a0"), (new[0][0].copy(), "dup_b0")]
            self.assert_agrees(base, new)

    def test_agrees_with_batch_filter_at_archive_cap_size(self):
        # points on the plane x + y + z = 1 never dominate one another, so the
        # merged base holds all 512 of them; the new points dominate some
        rng = np.random.default_rng(13)
        base_pts = rng.dirichlet(np.ones(3), 512)
        new_pts = np.vstack([base_pts[:13] * 0.99, rng.dirichlet(np.ones(3), 13)])
        base = [(p, f"a{i}") for i, p in enumerate(base_pts)]
        assert len(merged(base)) == 512
        self.assert_agrees(base, [(p, f"b{i}") for i, p in enumerate(new_pts)])


class TestUpdateReferenceSetMatchesFormerLoop:
    """The vectorized merge against the former per-point loop: the same
    points, bit for bit, and the same tags in the same order."""

    @staticmethod
    def assert_matches(base, news):
        front, oracle = merged(base), loop_merge([], base)
        for new in news:
            front = update_reference_set(front, new)
            oracle = loop_merge(list(zip(*oracle)), new)
            assert front.tags == oracle[1]
            assert np.array_equal(front.points.view(np.uint64), oracle[0].view(np.uint64))

    def test_random_fronts(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            base = [(p, f"a{i}") for i, p in enumerate(rng.random((6, 3)))]
            news = [[(p, f"e{e}c{i}") for i, p in enumerate(rng.random((26, 3)))]
                    for e in range(5)]
            self.assert_matches(base, news)

    def test_lattice_fronts(self):
        rng = np.random.default_rng(22)
        for _ in range(60):
            base = [(p, f"a{i}") for i, p in enumerate(rng.integers(0, 11, (8, 3)) / 10)]
            news = [[(p, f"e{e}c{i}") for i, p in enumerate(rng.integers(0, 11, (10, 3)) / 10)]
                    for e in range(4)]
            news[1] += [(base[0][0].copy(), "dup_a0"), (news[0][0][0].copy(), "dup_e0c0")]
            self.assert_matches(base, news)

    def test_512_point_front(self):
        rng = np.random.default_rng(23)
        base_pts = rng.dirichlet(np.ones(3), 512)
        base = [(p, f"a{i}") for i, p in enumerate(base_pts)]
        news = [[(p, f"b{i}") for i, p in enumerate(
            np.vstack([base_pts[rng.choice(512, 13)] * 0.99, rng.dirichlet(np.ones(3), 13)]))],
            [(p, f"c{i}") for i, p in enumerate(base_pts[:5])]]
        self.assert_matches(base, news)


class TestMultiReference:
    """A reference vector other than the unit vector bounds the region."""

    def test_point_outside_all_references_is_zero(self):
        ref = np.array([0.5, 0.5, 0.5])
        assert exact_hypervolume(tagged([[0.6, 0.1, 0.1]]), ref) == 0.0
        assert exact_contribution([((0.6, 0.1, 0.1), "a")], "a", ref) == 0.0
