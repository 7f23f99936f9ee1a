import csv
import json

import numpy as np
import pytest

from hvml import data, synth
from hvml.data import (Dataset, compute_stats, load_arff, load_csv, load_manifest,
                       normalize, stratified_split)
from hvml.errors import ConfigError, ParseError

from oracles import loop_iterative_stratify

TOY_ARFF = """% toy multi-label file
@relation toy

@attribute feat1 numeric
@attribute feat2 real
@attribute flag {0,1}
@attribute labelA {0,1}
@attribute labelB {0,1}

@data
1.0,2.0,0,1,0
2.0,4.0,1,0,1
3.0,6.0,0,1,1
"""


def write_toy_arff(tmp_path, text=TOY_ARFF, name="toy.arff"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestArff:
    def test_basic_parse(self, tmp_path):
        ds = load_arff(write_toy_arff(tmp_path), label_count=2)
        assert (ds.n, ds.d, ds.k) == (3, 3, 2)
        assert ds.feature_kinds == ("numeric", "numeric", "binary")
        assert ds.y.tolist() == [[1, 0], [0, 1], [1, 1]]
        assert ds.x[:, 0].tolist() == [1.0, 2.0, 3.0]

    def test_labels_at_front(self, tmp_path):
        text = TOY_ARFF.replace(
            "@attribute feat1 numeric\n@attribute feat2 real\n@attribute flag {0,1}\n"
            "@attribute labelA {0,1}\n@attribute labelB {0,1}",
            "@attribute labelA {0,1}\n@attribute labelB {0,1}\n"
            "@attribute feat1 numeric\n@attribute feat2 real\n@attribute flag {0,1}",
        ).replace("1.0,2.0,0,1,0", "1,0,1.0,2.0,0").replace(
            "2.0,4.0,1,0,1", "0,1,2.0,4.0,1").replace("3.0,6.0,0,1,1", "1,1,3.0,6.0,0")
        ds = load_arff(write_toy_arff(tmp_path, text), label_count=2, labels_at="front")
        assert ds.y.tolist() == [[1, 0], [0, 1], [1, 1]]
        assert ds.x[:, 0].tolist() == [1.0, 2.0, 3.0]

    def test_single_label_toy(self, tmp_path):
        text = """@relation t
@attribute a numeric
@attribute b numeric
@attribute y {0,1}
@data
1,2,1
3,4,0
"""
        ds = load_arff(write_toy_arff(tmp_path, text), label_count=1)
        assert (ds.d, ds.k) == (2, 1)

    def test_sparse_rows(self, tmp_path):
        text = """@relation t
@attribute a numeric
@attribute b numeric
@attribute y1 {0,1}
@attribute y2 {0,1}
@data
{0 2.5, 2 1}
{1 1.5, 3 1}
{}
"""
        ds = load_arff(write_toy_arff(tmp_path, text), label_count=2)
        assert ds.x.tolist() == [[2.5, 0.0], [0.0, 1.5], [0.0, 0.0]]
        assert ds.y.tolist() == [[1, 0], [0, 1], [0, 0]]

    def test_missing_values_imputed_with_count(self, tmp_path):
        text = """@relation t
@attribute a numeric
@attribute y {0,1}
@data
1.0,1
?,0
3.0,1
"""
        ds = load_arff(write_toy_arff(tmp_path, text), label_count=1)
        assert ds.imputed == 1
        assert ds.x[1, 0] == pytest.approx(2.0)  # mean of observed

    def test_missing_binary_feature_imputed_with_mode(self, tmp_path):
        text = """@relation t
@attribute flag {0,1}
@attribute y {0,1}
@data
1,1
1,0
?,1
0,1
"""
        ds = load_arff(write_toy_arff(tmp_path, text), label_count=1)
        assert ds.imputed == 1
        assert ds.x[2, 0] == 1.0  # mode of observed {1, 1, 0}

    def test_real_benchmark_arff_if_available(self):
        import os
        path = os.environ.get("HVML_EMOTIONS_ARFF")
        if not path or not os.path.exists(path):
            pytest.skip("set HVML_EMOTIONS_ARFF to the emotions ARFF to run")
        ds = load_arff(path, label_count=6, labels_at="back")
        assert (ds.n, ds.d, ds.k) == (593, 72, 6)
        stats = compute_stats(ds)
        assert stats.cardinality == pytest.approx(1.869, abs=2e-3)
        assert stats.dispersion == pytest.approx(231.14, abs=0.5)
        assert stats.interaction == pytest.approx(134.57, abs=0.5)

    def test_non_binary_label_value_names_attribute(self, tmp_path):
        text = """@relation t
@attribute a numeric
@attribute weird {0,1,2}
@data
1.0,2
"""
        with pytest.raises(ParseError, match="weird"):
            load_arff(write_toy_arff(tmp_path, text), label_count=1)

    def test_numeric_label_with_bad_data_names_attribute(self, tmp_path):
        text = """@relation t
@attribute a numeric
@attribute y numeric
@data
1.0,2
"""
        with pytest.raises(ParseError, match="'y'"):
            load_arff(write_toy_arff(tmp_path, text), label_count=1)

    @pytest.mark.parametrize("labels_at", ["middle", "Back"])
    def test_labels_at_neither_end_is_config_error(self, tmp_path, labels_at):
        with pytest.raises(ConfigError, match=f"labels_at must be 'front' or 'back', got "
                                              f"'{labels_at}'"):
            load_arff(write_toy_arff(tmp_path), label_count=2, labels_at=labels_at)

    def test_label_count_bounds(self, tmp_path):
        with pytest.raises(ParseError, match="label_count"):
            load_arff(write_toy_arff(tmp_path), label_count=5)

    def test_ragged_row(self, tmp_path):
        with pytest.raises(ParseError, match="expected 5"):
            load_arff(write_toy_arff(tmp_path, TOY_ARFF + "1.0,2.0,0,1\n"), label_count=2)

    def test_missing_data_section(self, tmp_path):
        with pytest.raises(ParseError, match="@data"):
            load_arff(write_toy_arff(tmp_path, "@relation t\n@attribute a numeric\n"), 1)

    def test_non_binary_nominal_feature_rejected(self, tmp_path):
        text = """@relation t
@attribute color {red,green,blue}
@attribute y {0,1}
@data
red,1
"""
        with pytest.raises(ParseError, match="color"):
            load_arff(write_toy_arff(tmp_path, text), label_count=1)

    def test_non_numeric_binary_feature_names_file_and_attribute(self, tmp_path):
        path = write_toy_arff(tmp_path, TOY_ARFF.replace("2.0,4.0,1,0,1", "2.0,4.0,x,0,1"))
        with pytest.raises(ParseError, match="binary feature 'flag'") as err:
            load_arff(path, label_count=2)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity", "1e400"])
    def test_non_finite_numeric_cell_names_file_and_attribute(self, tmp_path, cell):
        path = write_toy_arff(tmp_path, TOY_ARFF.replace("2.0,4.0,1,0,1", f"2.0,{cell},1,0,1"))
        with pytest.raises(ParseError, match="non-finite value in numeric attribute 'feat2'") as err:
            load_arff(path, label_count=2)
        assert str(path) in str(err.value)


    @pytest.mark.parametrize("line", [
        "1.0,2.0,0,1,0", "1.0, 2.0 ,0,  1,0", "1.0,,0,1,", ",,,,", "1.0,'a b',0,1,0",
        "1.0,'a,b',0,1", "it's,2.0,0,1,0", '1.0,"a,b",0,1,0', '1.0, "a, b" ,0,1,0',
        '"x""y",2.0,0,1,0', "1.0\t,\t2.0,0,1,0",
    ])
    def test_dense_cells_equal_the_csv_reader_cells(self, line):
        # up to the whitespace around a cell, which the loader's float cast
        # and its label and {0,1} checks skip
        expect = [c.strip() for c in next(csv.reader([line], skipinitialspace=True))]
        if len(expect) == 5:
            assert [c.strip() for c in data._parse_arff_row(line, 5, "f.arff", 1)] == expect
        else:
            with pytest.raises(ParseError, match=f"row has {len(expect)} values"):
                data._parse_arff_row(line, 5, "f.arff", 1)

    def test_padded_quoted_sparse_and_missing_cells(self, tmp_path):
        # padded cells, labels written 1.0 and 0.0, a quoted line, a sparse
        # line, and '?' (padded or not) in a numeric feature, a {0,1}
        # feature and a label
        text = """@relation padded
@attribute num numeric
@attribute flag {0,1}
@attribute other real
@attribute la {0,1}
@attribute lb {0,1}
@data
 1 ,1,\t0.5,1.0,0
2.5, ? ,1e-3,0.0,1
"3", 0 , ? ,1,?
{0 4, 1 1, 3 1, 4 1}
?,1,\t-2 ,0 , 1
"""
        ds = load_arff(write_toy_arff(tmp_path, text), label_count=2)
        other = [0.5, 1e-3, 0.0, -2.0]
        want_x = np.array([[1.0, 1.0, 0.5], [2.5, 1.0, 1e-3], [3.0, 0.0, np.mean(other)],
                           [4.0, 1.0, 0.0], [np.mean([1.0, 2.5, 3.0, 4.0]), 1.0, -2.0]])
        assert ds.x.tobytes() == want_x.tobytes()
        assert ds.y.tolist() == [[1, 0], [0, 1], [1, 1], [1, 1], [0, 1]]
        assert ds.feature_kinds == ("numeric", "binary", "numeric")
        assert ds.imputed == 3
        assert ds.name == "padded"

    def test_bad_label_is_named_before_a_bad_feature(self, tmp_path):
        text = TOY_ARFF.replace("2.0,4.0,1,0,1", "2.0,abc,1,0,2")
        with pytest.raises(ParseError, match="label attribute 'labelB' has non-binary value '2'"):
            load_arff(write_toy_arff(tmp_path, text), label_count=2)

    @pytest.mark.parametrize("cell", ["1\x1c", "\x1c0.5"])
    def test_whitespace_the_cast_refuses_is_stripped(self, tmp_path, cell):
        # str.strip removes U+001C but numpy's cast refuses it; the cells still
        # load as stripped numbers
        text = TOY_ARFF.replace("2.0,4.0,1,0,1", f"2.0,{cell},1,0,1")
        ds = load_arff(write_toy_arff(tmp_path, text), label_count=2)
        assert ds.x[1, 1] == float(cell.strip())


class TestArffRoundTrip:
    """Random feature and label matrices written as ARFF (17 significant
    digits, some '?' cells, dense and sparse rows, labels at either end) load
    back bit for bit, with each '?' imputed by its column's rule."""

    @staticmethod
    def _write(path, x, y, binary, x_missing, y_missing, labels_at, rng, pad):
        def cell(v, is_binary, missing):
            text = "?" if missing else str(int(v)) if is_binary else f"{v:.17g}"
            if pad and rng.random() < 0.5:
                text = rng.choice([" ", "\t"]) + text + rng.choice(["", " ", " \t"])
            return text

        feats = [f"@attribute f{j} {'{0,1}' if b else 'numeric'}" for j, b in enumerate(binary)]
        labels = [f"@attribute l{j} {{0,1}}" for j in range(y.shape[1])]
        lines = ["@relation rt", *(labels + feats if labels_at == "front" else feats + labels),
                 "@data"]
        for i in range(x.shape[0]):
            xc = [cell(x[i, j], binary[j], x_missing[i, j]) for j in range(x.shape[1])]
            yc = [cell(y[i, j], True, y_missing[i, j]) for j in range(y.shape[1])]
            cells = yc + xc if labels_at == "front" else xc + yc
            if rng.random() < 0.5:
                lines.append(", ".join(cells))
            else:
                lines.append("{" + ", ".join(f"{j} {c}" for j, c in enumerate(cells)
                                             if c != "0") + "}")
        path.write_text("\n".join(lines) + "\n")

    @pytest.mark.parametrize("seed", range(12))
    def test_loads_back_bit_for_bit(self, tmp_path, seed):
        self._check(tmp_path, seed, pad=False)

    @pytest.mark.parametrize("seed", range(12))
    def test_padded_cells_load_back_bit_for_bit(self, tmp_path, seed):
        self._check(tmp_path, seed, pad=True)

    def _check(self, tmp_path, seed, pad):
        rng = np.random.default_rng(seed)
        n, d, k = int(rng.integers(2, 40)), int(rng.integers(1, 8)), int(rng.integers(1, 5))
        binary = rng.random(d) < 0.4
        x = np.where(binary, rng.integers(0, 2, (n, d)),
                     rng.standard_normal((n, d)) * 10.0 ** rng.integers(-5, 6, d))
        y = rng.integers(0, 2, (n, k))
        x_missing, y_missing = rng.random((n, d)) < 0.15, rng.random((n, k)) < 0.15
        labels_at = ("front", "back")[seed % 2]
        path = tmp_path / "rt.arff"
        self._write(path, x, y, binary, x_missing, y_missing, labels_at, rng, pad)

        want_x, want_y = x.astype(float), y.astype(float)
        for want, missing, rounded in ((want_x, x_missing, binary),
                                       (want_y, y_missing, np.ones(k, dtype=bool))):
            for j in range(want.shape[1]):
                observed = want[~missing[:, j], j]
                mean = observed.mean() if observed.size else 0.0
                want[missing[:, j], j] = round(mean) if rounded[j] else mean
        ds = load_arff(path, label_count=k, labels_at=labels_at)
        assert ds.x.tobytes() == want_x.tobytes()
        assert ds.y.tolist() == want_y.astype(int).tolist()
        assert ds.feature_kinds == tuple("binary" if b else "numeric" for b in binary)
        assert ds.imputed == int(x_missing.sum())
        assert ds.name == "rt"


class TestCsv:
    def test_basic_pair(self, tmp_path):
        (tmp_path / "x.csv").write_text("0.5,1.0\n0.25,2.0\n")
        (tmp_path / "y.csv").write_text("1\n0\n")
        ds = load_csv(tmp_path / "x.csv", tmp_path / "y.csv")
        assert (ds.n, ds.d, ds.k) == (2, 2, 1)

    def test_header_row_skipped(self, tmp_path):
        (tmp_path / "x.csv").write_text("f1,f2\n0.5,1.0\n")
        (tmp_path / "y.csv").write_text("y\n1\n")
        ds = load_csv(tmp_path / "x.csv", tmp_path / "y.csv")
        assert ds.n == 1

    def test_row_count_mismatch_names_both(self, tmp_path):
        (tmp_path / "x.csv").write_text("1,2\n3,4\n")
        (tmp_path / "y.csv").write_text("1\n")
        with pytest.raises(ParseError, match="2 feature rows vs 1"):
            load_csv(tmp_path / "x.csv", tmp_path / "y.csv")

    def test_header_only_is_empty(self, tmp_path):
        (tmp_path / "x.csv").write_text("f1,f2\n")
        (tmp_path / "y.csv").write_text("y\n")
        with pytest.raises(ParseError, match="header only"):
            load_csv(tmp_path / "x.csv", tmp_path / "y.csv")

    def test_ragged_rows(self, tmp_path):
        (tmp_path / "x.csv").write_text("1,2\n3\n")
        (tmp_path / "y.csv").write_text("1\n0\n")
        with pytest.raises(ParseError, match="ragged"):
            load_csv(tmp_path / "x.csv", tmp_path / "y.csv")

    def test_non_binary_labels(self, tmp_path):
        (tmp_path / "x.csv").write_text("1,2\n")
        (tmp_path / "y.csv").write_text("2\n")
        with pytest.raises(ParseError, match="0/1"):
            load_csv(tmp_path / "x.csv", tmp_path / "y.csv")

    @pytest.mark.parametrize("cell", ["nan", "inf", "1e400"])
    def test_non_finite_cell_names_file_and_line(self, tmp_path, cell):
        (tmp_path / "x.csv").write_text(f"f1,f2\n1,2\n\n3,{cell}\n")
        (tmp_path / "y.csv").write_text("1\n0\n")
        with pytest.raises(ParseError, match="non-finite value") as err:
            load_csv(tmp_path / "x.csv", tmp_path / "y.csv")
        assert f"{tmp_path / 'x.csv'}:4: " in str(err.value)

    def test_round_trip(self, tmp_path, write_csv):
        ds = synth.linear_multilabel(n=40, d=6, k=3, seed=5)
        write_csv(ds, tmp_path / "x.csv", tmp_path / "y.csv")
        back = load_csv(tmp_path / "x.csv", tmp_path / "y.csv")
        assert np.array_equal(back.x, ds.x)
        assert np.array_equal(back.y, ds.y)


class TestManifest:
    def test_arff_manifest(self, tmp_path):
        write_toy_arff(tmp_path)
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps(
            {"name": "toy", "arff_path": "toy.arff", "label_count": 2, "labels_at": "back"}))
        ds = load_manifest(manifest)
        assert ds.name == "toy" and ds.k == 2

    def test_csv_manifest_with_env_var(self, tmp_path, monkeypatch):
        (tmp_path / "x.csv").write_text("1,0\n0,1\n")
        (tmp_path / "y.csv").write_text("1\n0\n")
        monkeypatch.setenv("TOY_DIR", str(tmp_path))
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps(
            {"name": "toy", "csv_paths": ["$TOY_DIR/x.csv", "$TOY_DIR/y.csv"]}))
        assert load_manifest(manifest).n == 2

    def test_manifest_requires_source(self, tmp_path):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"name": "bad"}))
        with pytest.raises(ParseError, match="arff_path or csv_paths"):
            load_manifest(manifest)

    def test_manifest_bad_json(self, tmp_path):
        manifest = tmp_path / "m.json"
        manifest.write_text("{nope")
        with pytest.raises(ParseError, match="JSON"):
            load_manifest(manifest)


class TestNormalize:
    def _with_identity_split(self, ds):
        n = ds.n
        idx = np.arange(n)
        return ds.with_split(data.SplitIndices(idx[: n - 2], idx[n - 2: n - 1], idx[n - 1:]))

    def test_min_max_by_hand(self):
        ds = Dataset(x=np.array([[0.0], [5.0], [10.0]]), y=np.ones((3, 1), dtype=np.int8),
                     feature_kinds=("numeric",))
        out = normalize(ds)
        assert out.x[:, 0].tolist() == [0.0, 0.5, 1.0]

    def test_constant_column_maps_to_zero(self):
        ds = Dataset(x=np.full((4, 1), 3.3), y=np.ones((4, 1), dtype=np.int8),
                     feature_kinds=("numeric",))
        assert (normalize(ds).x == 0).all()

    def test_out_of_range_rows_clipped(self):
        x = np.array([[0.0], [10.0], [20.0], [-5.0], [30.0]])
        ds = Dataset(x=x, y=np.ones((5, 1), dtype=np.int8), feature_kinds=("numeric",))
        ds = ds.with_split(data.SplitIndices(np.array([0, 1, 2]), np.array([3]), np.array([4])))
        out = normalize(ds)
        assert out.x[:3, 0].tolist() == [0.0, 0.5, 1.0]
        assert out.x[3, 0] == 0.0  # below train min
        assert out.x[4, 0] == 1.0  # above train max

    def test_binary_columns_untouched(self):
        x = np.array([[0.0, 1.0], [4.0, 0.0]])
        ds = Dataset(x=x, y=np.ones((2, 1), dtype=np.int8),
                     feature_kinds=("numeric", "binary"))
        out = normalize(ds)
        assert out.x[:, 1].tolist() == [1.0, 0.0]

    def test_idempotent(self):
        ds = synth.linear_multilabel(n=50, d=5, k=2, seed=3)
        ds = ds.with_split(stratified_split(ds, seed=1))
        once = normalize(ds)
        twice = normalize(once)
        assert np.allclose(once.x, twice.x, atol=1e-15)


class TestStratifiedSplit:
    def test_disjoint_and_exhaustive_over_seeds(self):
        ds = synth.linear_multilabel(n=97, d=4, k=3, seed=0)
        for seed in range(10):
            split = stratified_split(ds, seed)
            combined = np.sort(np.concatenate([split.train, split.validation, split.test]))
            assert np.array_equal(combined, np.arange(97))

    def test_proportions(self):
        ds = synth.linear_multilabel(n=200, d=4, k=3, seed=0)
        split = stratified_split(ds, 5)
        assert len(split.test) == pytest.approx(60, abs=2)
        assert len(split.validation) == pytest.approx(28, abs=2)

    def test_same_seed_identical(self):
        ds = synth.linear_multilabel(n=60, d=4, k=3, seed=0)
        a = stratified_split(ds, 9)
        b = stratified_split(ds, 9)
        assert np.array_equal(a.train, b.train)
        assert np.array_equal(a.validation, b.validation)
        assert np.array_equal(a.test, b.test)

    def test_rare_label_lands_three_in_test(self):
        rng = np.random.default_rng(0)
        y = (rng.random((100, 3)) < 0.4).astype(np.int8)
        y[:, 2] = 0
        rare_rows = rng.choice(100, size=10, replace=False)
        y[rare_rows, 2] = 1
        ds = Dataset(x=rng.random((100, 2)), y=y, feature_kinds=("numeric",) * 2)
        for seed in range(5):
            split = stratified_split(ds, seed)
            in_test = sum(1 for r in rare_rows if r in set(split.test.tolist()))
            assert abs(in_test - 3) <= 1

    def test_single_label_ratio_preserved(self):
        rng = np.random.default_rng(1)
        y = (rng.random((200, 1)) < 0.5).astype(np.int8)
        ds = Dataset(x=rng.random((200, 2)), y=y, feature_kinds=("numeric",) * 2)
        global_rate = y.mean()
        for seed in range(50):
            split = stratified_split(ds, seed)
            test_rate = y[split.test].mean()
            assert abs(test_rate - global_rate) <= 0.02

    def test_too_small(self):
        ds = Dataset(x=np.random.default_rng(0).random((5, 2)),
                     y=np.ones((5, 1), dtype=np.int8), feature_kinds=("numeric",) * 2)
        with pytest.raises(ConfigError):
            stratified_split(ds, 0)


class _CountingRng:
    """A seeded generator that counts its ``choice`` calls."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.choices = 0

    def permutation(self, n):
        return self._rng.permutation(n)

    def choice(self, a):
        self.choices += 1
        return self._rng.choice(a)


def _label_matrices():
    base = (np.random.default_rng(0).random((60, 4)) < 0.3).astype(np.int8)
    one_positive, all_positive, empty_rows = base.copy(), base.copy(), base.copy()
    one_positive[:, 1] = 0
    one_positive[17, 1] = 1
    all_positive[:, 2] = 1
    empty_rows[:20] = 0
    return {"k1": base[:, :1], "one-positive": one_positive, "all-positive": all_positive,
            "rows-without-positives": empty_rows, "n10": base[:10]}


class TestIterativeStratifyOracle:
    """The per-label mask pass gives the folds of the former scan over all
    samples per label (tests/oracles.py), with the same seeded draws."""

    @pytest.mark.parametrize("proportions", [(0.7, 0.3), (0.8, 0.2), (0.5, 0.5), (1, 1, 1)])
    @pytest.mark.parametrize("case", sorted(_label_matrices()))
    def test_same_folds_and_draws_as_the_loop(self, case, proportions):
        y = _label_matrices()[case]
        draws = 0
        for seed in range(10):
            got_rng, want_rng = _CountingRng(seed), _CountingRng(seed)
            got = data._iterative_stratify(y, proportions, got_rng)
            want = loop_iterative_stratify(y, proportions, want_rng)
            assert got.tolist() == want.tolist()
            assert got_rng.choices == want_rng.choices
            draws += got_rng.choices
        if len(set(proportions)) == 1:  # equal folds tie on the first sample
            assert draws >= 10

    @pytest.mark.parametrize("n,d,k", [(2417, 103, 14), (593, 72, 6)])
    def test_benchmark_shapes_split_as_the_loop(self, monkeypatch, n, d, k):
        ds = synth.linear_multilabel(n=n, d=d, k=k, seed=n)
        got = [stratified_split(ds, seed) for seed in range(20)]
        monkeypatch.setattr(data, "_iterative_stratify", loop_iterative_stratify)
        for seed, split in enumerate(got):
            want = stratified_split(ds, seed)
            for part in ("train", "validation", "test"):
                assert np.array_equal(getattr(split, part), getattr(want, part))


class TestStats:
    def test_hand_fixture(self):
        y = np.array([[1, 0, 0], [1, 1, 0], [0, 0, 0], [1, 1, 1]], dtype=np.int8)
        ds = Dataset(x=np.zeros((4, 5)), y=y, feature_kinds=("numeric",) * 5)
        stats = compute_stats(ds)
        assert (stats.n, stats.d, stats.k, stats.dk) == (4, 5, 3, 15)
        assert stats.cardinality == pytest.approx(6 / 4)
        assert stats.dispersion == pytest.approx(15 / 1.5)
        assert stats.interaction == pytest.approx(5 * 1.5)

    def test_every_sample_one_label(self):
        y = np.eye(4, 3, dtype=np.int8)[:, :3]
        y[3, 0] = 1
        ds = Dataset(x=np.zeros((4, 6)), y=y, feature_kinds=("numeric",) * 6)
        stats = compute_stats(ds)
        assert stats.cardinality == 1.0
        assert stats.dispersion == stats.dk

    def test_dispersion_cardinality_identity(self):
        for seed in range(10):
            ds = synth.linear_multilabel(n=80, d=7, k=4, seed=seed)
            stats = compute_stats(ds)
            assert stats.dispersion * stats.cardinality == pytest.approx(stats.dk, abs=0.01)

    # published size statistics: from each table row's (d, k, cardinality),
    # the derived columns DK, DK/cardinality, and D*cardinality must follow.
    # (the CAL500 row of the published table prints DK = 251,000 and
    # dispersion 9,637.54, inconsistent with its own D=68, K=174; the values
    # here are the ones the definitions produce)
    @pytest.mark.parametrize("name,d,k,card,dk,disp,inter", [
        ("flags", 19, 7, 3.392, 133, 39.21, 64.45),
        ("CAL500", 68, 174, 26.044, 11832, 454.31, 1770.99),
        ("emotions", 72, 6, 1.869, 432, 231.14, 134.57),
        ("genbase", 1186, 27, 1.252, 32022, 25576.68, 1484.87),
        ("enron", 1001, 53, 3.378, 53053, 15705.45, 3381.38),
        ("yeast", 103, 14, 4.237, 1442, 340.335, 436.411),
        ("tmc2007-500", 500, 22, 2.158, 11000, 5097.31, 1079.0),
        ("mediamill", 120, 101, 4.376, 12120, 2769.65, 525.12),
        ("IMDB-F", 1001, 28, 2.000, 28028, 14014.0, 2002.0),
    ])
    def test_published_derived_columns(self, name, d, k, card, dk, disp, inter):
        assert d * k == dk
        assert dk / card == pytest.approx(disp, rel=2e-3)
        assert d * card == pytest.approx(inter, rel=2e-3)


class TestDatasetInvariants:
    def test_labels_must_be_binary(self):
        with pytest.raises(ParseError):
            Dataset(x=np.zeros((2, 2)), y=np.array([[2, 0], [0, 1]]),
                    feature_kinds=("numeric",) * 2)

    def test_arrays_are_frozen(self):
        ds = synth.copy_task(seed=0)
        with pytest.raises(ValueError):
            ds.x[0, 0] = 5.0

    @pytest.mark.parametrize("x,y,kinds,names", [
        (np.zeros(2), np.zeros((2, 1)), ("numeric",), "must be 2-D"),
        (np.zeros((3, 1)), np.zeros((2, 1)), ("numeric",), "row count mismatch"),
        (np.zeros((2, 2)), np.zeros((2, 1)), ("numeric",), "one feature kind per column"),
    ], ids=["one-dimensional", "row-count", "kind-count"])
    def test_refused_arrays(self, x, y, kinds, names):
        with pytest.raises(ParseError, match=names):
            Dataset(x=x, y=y, feature_kinds=kinds)

    @pytest.mark.parametrize("parts,names", [
        (([0, 1], [1, 2], [3]), "overlap"), (([0, 1], [2], [4]), "do not cover 0..3")],
        ids=["overlapping", "not-covering"])
    def test_refused_split(self, parts, names):
        with pytest.raises(ConfigError, match=names):
            data.SplitIndices(*parts).check(4)

    @pytest.mark.parametrize("make,names", [
        (lambda: synth.copy_task(d=2, k=3), "at least as many features as labels"),
        (lambda: synth.linear_multilabel(n=20, d=3, k=2, label_freq=[0.5]),
         "need 2 label frequencies"),
    ], ids=["copy-task-more-labels-than-features", "label-freq-length"])
    def test_synthetic_shape_refused(self, make, names):
        with pytest.raises(ValueError, match=names):
            make()

    def test_rows_requires_split(self):
        ds = synth.copy_task(seed=0)
        with pytest.raises(ConfigError):
            ds.rows("train")
