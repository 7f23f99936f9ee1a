import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

from hvml import benchmark_results_path, cli, cmaes, pareto, seeds, synth, trainer
from hvml.cli import main

import seed_panel
from oracles import loop_mc_contribution, tagged


@pytest.fixture()
def toy_manifest(tmp_path, write_csv):
    write_csv(synth.copy_task(seed=7), tmp_path / "x.csv", tmp_path / "y.csv")
    manifest = tmp_path / "toy.json"
    manifest.write_text(json.dumps({"name": "toy", "csv_paths": ["x.csv", "y.csv"]}))
    return manifest


@pytest.fixture()
def unlabeled_manifest(tmp_path):
    """A 4-sample dataset in which no sample has a positive label."""
    np.savetxt(tmp_path / "x0.csv", np.arange(8.0).reshape(4, 2), delimiter=",")
    np.savetxt(tmp_path / "y0.csv", np.zeros((4, 3)), delimiter=",", fmt="%d")
    manifest = tmp_path / "unlabeled.json"
    manifest.write_text(json.dumps({"csv_paths": ["x0.csv", "y0.csv"]}))
    return manifest


def run_cli(args):
    return main([str(a) for a in args])


def refuse_constant(token):
    """A ``parse_constant`` for json.loads that refuses NaN, Infinity and -Infinity."""
    raise ValueError(f"not strict JSON: {token}")


def edit_meta(run_dir, edit):
    """Rewrite the meta entry (epoch, shape and config as JSON) of a run's
    state.npz with edit(meta), which returns the new meta as a dict or as text."""
    path = run_dir / "state.npz"
    with np.load(path) as blob:
        arrays = dict(blob)
    meta = edit(json.loads(arrays["meta"].item()))
    arrays["meta"] = meta if isinstance(meta, str) else json.dumps(meta)
    np.savez(path, **arrays)


def with_config(**changes):
    """A meta edit for edit_meta that sets config keys."""
    return lambda meta: {**meta, "config": {**meta["config"], **changes}}


class TestStats:
    def test_toy_manifest(self, toy_manifest, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli(["stats", "--manifest", toy_manifest, "--out", out]) == 0
        payload = json.loads((out / "stats.json").read_text())
        assert (payload["n"], payload["d"], payload["k"]) == (64, 4, 2)
        assert payload["dk"] == 8
        assert payload["dispersion"] * payload["cardinality"] == pytest.approx(8, abs=0.01)
        assert (out / "resolved_config.json").exists()

    def test_no_positive_label_gives_null_dispersion(self, unlabeled_manifest, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli(["stats", "--manifest", unlabeled_manifest, "--out", out]) == 0
        payload = json.loads((out / "stats.json").read_text(), parse_constant=refuse_constant)
        assert payload["cardinality"] == 0.0 and payload["dispersion"] is None

    def test_missing_manifest_exits_2(self, tmp_path, capsys):
        code = run_cli(["stats", "--manifest", tmp_path / "absent.json", "--out", tmp_path / "o"])
        assert code == 2
        err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert "absent.json" in err["message"]

    ARFF = ("@relation r\n@attribute f1 numeric\n@attribute f2 numeric\n"
            "@attribute l1 {0,1}\n@attribute l2 {0,1}\n@data\n0.1,0.2,0,1\n")
    ARFF_MANIFEST = json.dumps({"arff_path": "d.arff", "label_count": 2})

    @pytest.mark.parametrize("manifest,arff,where", [
        ("[1, 2]", ARFF, "m.json: "),
        (ARFF_MANIFEST, ARFF.replace("@attribute f2 numeric", "@attribute"), "d.arff:3: "),
        (ARFF_MANIFEST, ARFF + "{x 1}\n", "d.arff:8: "),
        (json.dumps({"arff_path": "d.arff", "label_count": "two"}), ARFF, "m.json: "),
        (json.dumps({"arff_path": "d.arff", "label_count": 2, "labels_at": "middle"}), ARFF,
         "m.json: "),
        (ARFF_MANIFEST, ARFF.replace("f2 numeric", "f2 {0,1}").replace("0.2,", "x,"),
         "d.arff: binary feature 'f2'"),
        (ARFF_MANIFEST, ARFF.replace("0.2,", "inf,"), "d.arff: non-finite value in numeric "
                                                      "attribute 'f2'"),
        (ARFF_MANIFEST, "@relation r\n@data\n0,1\n", "d.arff:2: @data before any @attribute"),
        (ARFF_MANIFEST, ARFF.replace("@attribute f1", "@attrib f1"),
         "d.arff:2: unrecognized header line"),
        (ARFF_MANIFEST, ARFF.replace("@attribute f1", "@attribute 'f1"),
         "d.arff:2: unterminated attribute name"),
        (ARFF_MANIFEST, ARFF.replace("l1 {0,1}", "l1 {0,1"),
         "d.arff:4: unterminated nominal value list for attribute 'l1'"),
        (ARFF_MANIFEST, ARFF.replace("f1 numeric", "f1 string"),
         "d.arff:2: unsupported attribute type 'string' for attribute 'f1'"),
        (ARFF_MANIFEST, ARFF.replace("0.1,0.2,0,1\n", ""), "d.arff: no data rows found"),
        (ARFF_MANIFEST, ARFF + "{0 1, 2 1\n", "d.arff:8: unterminated sparse data row"),
        (ARFF_MANIFEST, ARFF + "{9 1}\n", "d.arff:8: sparse index 9 out of range"),
        (ARFF_MANIFEST, ARFF.replace("0.1,0.2,", "0.1,x,"),
         "d.arff: non-numeric value in numeric attribute 'f2'"),
        (json.dumps({"csv_paths": "d.arff"}), ARFF,
         "m.json: csv_paths must be [features_csv, labels_csv]"),
    ], ids=["manifest-list", "attribute-without-name", "sparse-index-not-int",
            "label-count-not-int", "labels-at-neither-end", "binary-feature-not-a-number",
            "numeric-cell-not-finite", "data-before-attribute", "unrecognized-header-line",
            "unterminated-attribute-name", "unterminated-nominal-list",
            "unsupported-attribute-type", "no-data-rows", "unterminated-sparse-row",
            "sparse-index-out-of-range", "non-numeric-numeric-cell", "csv-paths-not-a-pair"])
    def test_malformed_dataset_input_exits_2(self, tmp_path, capsys, manifest, arff, where):
        (tmp_path / "m.json").write_text(manifest)
        (tmp_path / "d.arff").write_text(arff)
        assert run_cli(["stats", "--manifest", tmp_path / "m.json", "--out", tmp_path / "o"]) == 2
        err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert err["error"] == "ParseError"
        assert f"{tmp_path}/{where}" in err["message"]

    @pytest.mark.parametrize("features,where", [
        ("", "x.csv: empty file"),
        ("0.1,0.2\n0.3,x\n", "x.csv:2: could not convert string to float: 'x'"),
    ], ids=["empty-file", "cell-not-a-number"])
    def test_malformed_csv_pair_exits_2(self, tmp_path, capsys, features, where):
        (tmp_path / "m.json").write_text(json.dumps({"csv_paths": ["x.csv", "y.csv"]}))
        (tmp_path / "x.csv").write_text(features)
        (tmp_path / "y.csv").write_text("0\n1\n")
        assert run_cli(["stats", "--manifest", tmp_path / "m.json", "--out", tmp_path / "o"]) == 2
        err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert err["error"] == "ParseError" and err["message"].startswith(f"{tmp_path}/{where}")
        assert not (tmp_path / "o").exists()

class TestFlags:
    REQUIRED = {"stats": ["--manifest", "m.json"], "report": ["r.csv"], "hv": ["f.csv"],
                "eval": ["--checkpoint", "run", "--manifest", "m.json"],
                "train": [], "sweep": []}

    @pytest.mark.parametrize("command,flag", [
        ("stats", ["--seed", "1"]), ("stats", ["--config", "c.json"]),
        ("report", ["--seed", "1"]), ("report", ["--config", "c.json"]),
        ("report", ["--workers", "2"]),
        ("hv", ["--workers", "2"]), ("hv", ["--config", "c.json"]),
        ("eval", ["--workers", "2"]), ("eval", ["--config", "c.json"]),
        ("eval", ["--seed", "5"]), ("eval", ["--threshold", "0.5"]),
        ("train", ["--literal-cma"]), ("train", ["--sigma-rule", "fifth"]),
        ("sweep", ["--literal-cma"]), ("sweep", ["--embedding", "3"]),
        ("train", ["--workers", "2"]), ("sweep", ["--workers", "2"]),
        ("train", ["--mc-samples", "500"]), ("sweep", ["--mc-samples", "500"]),
        ("train", ["--exact-fitness"]), ("sweep", ["--exact-fitness"]),
    ], ids=lambda v: v if isinstance(v, str) else " ".join(v))
    def test_flag_the_command_does_not_read_is_refused(self, command, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, *self.REQUIRED[command], *flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err

    def test_stats_refuses_workers(self, toy_manifest, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["stats", "--manifest", toy_manifest, "--workers", 2, "--out", tmp_path / "o"])
        assert exc.value.code == 2
        assert not (tmp_path / "o").exists()

    def test_train_and_sweep_share_their_flags(self):
        def flags(command):
            sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
            return {opt for action in sub.choices[command]._actions
                    for opt in action.option_strings}
        assert flags("train") - flags("sweep") == {"--embedding", "--resume"}
        assert flags("sweep") - flags("train") == {"--c-list"}
        assert "--archive-cap" in flags("sweep")


class TestHv:
    def test_single_row_total(self, tmp_path, capsys):
        front = tmp_path / "front.csv"
        front.write_text("0.5,0.5,0.5\n")
        assert run_cli(["hv", front, "--out", tmp_path / "o"]) == 0
        payload = json.loads((tmp_path / "o" / "hv.json").read_text())
        assert payload["total"] == pytest.approx(0.125)

    def test_published_front_contributions(self, tmp_path, benchmark_by_dataset):
        front = tmp_path / "front.csv"
        rows = benchmark_by_dataset["emotions"]
        front.write_text("method,l1,l2,l3\n" + "\n".join(
            f"{r['method']},{r['losses'][0]},{r['losses'][1]},{r['losses'][2]}" for r in rows))
        out = tmp_path / "o"
        assert run_cli(["hv", front, "--out", out, "--mc-samples", 200000, "--seed", 3]) == 0
        payload = json.loads((out / "hv.json").read_text())
        got = {r["tag"]: r for r in payload["rows"]}
        for r in rows:
            assert got[r["method"]]["contribution"] == pytest.approx(r["hv_contribution"], abs=1e-3)
            exact = got[r["method"]]["contribution"]
            mc = got[r["method"]]["mc_contribution"]
            bound = 3 * np.sqrt(max(exact * (1 - exact), 1e-9) / 200000)
            assert abs(mc - exact) <= bound

    def test_offset_reference_total(self, tmp_path, capsys):
        pts = np.random.default_rng(4).random((6, 3))
        front = tmp_path / "front.csv"
        front.write_text("".join(",".join(repr(float(v)) for v in p) + "\n" for p in pts))
        out = tmp_path / "o"
        assert run_cli(["hv", front, "--ref", "0.9,1.1,0.8", "--out", out]) == 0
        expected = pareto.exact_hypervolume(tagged(pts), np.array([0.9, 1.1, 0.8]))
        assert capsys.readouterr().out.splitlines()[0] == f"total_hypervolume {expected:.6f}"
        assert json.loads((out / "hv.json").read_text())["total"] == expected

    def test_two_component_reference_exits_2(self, tmp_path, capsys):
        # a header-only front is refused too: the reference is checked first
        for body in ("0.5,0.5,0.5\n", "l1,l2,l3\n"):
            front = tmp_path / "front.csv"
            front.write_text(body)
            assert run_cli(["hv", front, "--ref", "1,1", "--out", tmp_path / "o"]) == 2
            err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
            assert (err["error"], err["exit_code"]) == ("DimensionError", 2)

    @pytest.mark.parametrize("body,flags,code,error,names", [
        ("0.5,0.5,0.5\n", ["--ref", "1,1"], 2, "DimensionError", "reference"),
        ("0.5,0.5,0.5\n", ["--mc-samples", -5], 3, "ConfigError", "--mc-samples"),
        ("l1,l2,l3\n", ["--mc-samples", -5], 3, "ConfigError", "--mc-samples"),
        ("b,0.2,0.3,0.4\na,-0.5,0.5,0.5\n", ["--mc-samples", 100_000, "--seed", 7], 2,
         "ParseError", "front.csv:2: negative loss value"),
        ("a,nan,0.5,0.5\nb,0.2,0.3,0.4\n", ["--mc-samples", 1000, "--seed", 7], 2,
         "ParseError", "front.csv:1: negative loss value, or one that is not a finite"),
        ("b,0.2,0.3,0.4\na,0.5,inf,0.5\n", [], 2,
         "ParseError", "front.csv:2: negative loss value, or one that is not a finite"),
        ("0.5,0.5,0.5\n", ["--ref", "1,1,nan"], 2, "ParseError", "--ref must be finite"),
        ("0.5,0.5,0.5\n", ["--ref", "1,inf,1"], 2, "ParseError", "--ref must be finite"),
        ("0.5,0.5,0.5\n0.2,0.3\n", [], 2, "ParseError",
         "front.csv:2: need at least 3 loss columns, got 2"),
    ], ids=["two-component-ref", "negative-mc-samples", "negative-mc-samples-header-only",
            "negative-loss", "nan-loss", "inf-loss", "nan-ref", "inf-ref", "two-column-row"])
    def test_refused_request_writes_nothing(self, tmp_path, capsys, body, flags, code, error,
                                            names):
        front = tmp_path / "front.csv"
        front.write_text(body)
        assert run_cli(["hv", front, *flags, "--out", tmp_path / "o"]) == code
        assert not (tmp_path / "o").exists()
        err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert err["error"] == error and names in err["message"]

    def test_blank_rows_are_skipped(self, tmp_path):
        front = tmp_path / "front.csv"
        front.write_text("a,0.2,0.8,0.5\n\n , \nb,0.8,0.2,0.5\n")
        assert run_cli(["hv", front, "--out", tmp_path / "o"]) == 0
        rows = json.loads((tmp_path / "o" / "hv.json").read_text())["rows"]
        assert [r["tag"] for r in rows] == ["a", "b"]

    def test_zero_mc_samples_gives_no_estimates(self, tmp_path):
        front = tmp_path / "front.csv"
        front.write_text("0.5,0.5,0.5\n0.2,0.7,0.6\n")
        assert run_cli(["hv", front, "--mc-samples", 0, "--out", tmp_path / "o"]) == 0
        rows = json.loads((tmp_path / "o" / "hv.json").read_text())["rows"]
        assert len(rows) == 2 and not any("mc_contribution" in r for r in rows)

    def test_mc_estimates_follow_the_row_seed_streams(self, tmp_path, messy_front):
        # row i's estimate uses stream (seed, STREAM_MC, 0, i), bit for bit
        pts = messy_front(9, 80, grid=True)
        assert len(np.unique(pts, axis=0)) < 80
        pairs = [(p, f"t{i}") for i, p in enumerate(pts)]
        front = tmp_path / "front.csv"
        front.write_text("tag,l1,l2,l3\n" + "".join(
            f"{t},{','.join(map(repr, p.tolist()))}\n" for p, t in pairs))
        out = tmp_path / "o"
        assert run_cli(["hv", front, "--mc-samples", 10_000, "--seed", 9, "--out", out]) == 0
        rows = json.loads((out / "hv.json").read_text())["rows"]
        assert [r["tag"] for r in rows] == [t for _, t in pairs]
        assert sum(r["contribution"] == 0.0 for r in rows) >= 16
        for i, r in enumerate(rows):
            seed = seeds.seed_sequence(9, seeds.STREAM_MC, 0, i)
            assert r["mc_contribution"] == loop_mc_contribution(pairs, r["tag"], g=10_000,
                                                                seed=seed)

    def test_non_numeric_reference_exits_2(self, tmp_path, capsys):
        front = tmp_path / "front.csv"
        front.write_text("0.5,0.5,0.5\n")
        assert run_cli(["hv", front, "--ref", "a,b,c", "--out", tmp_path / "o"]) == 2
        err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert (err["error"], err["exit_code"]) == ("ParseError", 2)
        assert "--ref" in err["message"] and "a,b,c" in err["message"]

    def test_rows_equal_exact_contribution_per_tag(self, tmp_path):
        pts = np.random.default_rng(5).integers(0, 6, (12, 3)) / 5.0
        pairs = [(p, f"t{i}") for i, p in enumerate(pts)]
        front = tmp_path / "front.csv"
        front.write_text("".join(f"{t},{','.join(map(repr, p.tolist()))}\n" for p, t in pairs))
        out = tmp_path / "o"
        assert run_cli(["hv", front, "--ref", "0.9,1,0.9", "--out", out]) == 0
        rows = json.loads((out / "hv.json").read_text())["rows"]
        assert [r["tag"] for r in rows] == [t for _, t in pairs]
        for r in rows:
            assert r["contribution"] == pareto.exact_contribution(pairs, r["tag"], [0.9, 1, 0.9])

    def test_repeated_tag_exits_2_naming_the_line(self, tmp_path, capsys):
        front = tmp_path / "front.csv"
        front.write_text("tag,l1,l2,l3\na,0.1,0.8,0.5\nb,0.5,0.5,0.9\na,0.8,0.2,0.5\n")
        assert run_cli(["hv", front, "--out", tmp_path / "o"]) == 2
        err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert (err["error"], err["exit_code"]) == ("ParseError", 2)
        assert f"{front}:4:" in err["message"] and "line 2" in err["message"]

    def test_malformed_row_names_line(self, tmp_path, capsys):
        front = tmp_path / "front.csv"
        front.write_text("0.5,0.5,0.5\n0.1,oops,0.3\n")
        assert run_cli(["hv", front, "--out", tmp_path / "o"]) == 2
        err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert ":2:" in err["message"]


class TestReport:
    def test_bundled_benchmark_table(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert run_cli(["report", benchmark_results_path(), "--out", out]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert round(summary["medians"]["CLML"], 3) == 0.240
        assert round(summary["medians"]["GNB-BR"], 3) == 0.481
        assert summary["cd"] == pytest.approx(2.686, abs=0.01)

    def test_single_method_refused(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("dataset,method,l1,l2,l3\na,only,0.1,0.2,0.3\nb,only,0.2,0.3,0.4\n")
        assert run_cli(["report", bad, "--out", tmp_path / "o"]) == 3
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("alpha", [1.5, 0.0])
    def test_alpha_outside_unit_interval_exits_3_and_writes_nothing(self, tmp_path, capsys,
                                                                    alpha):
        assert run_cli(["report", benchmark_results_path(), "--alpha", alpha,
                        "--out", tmp_path / "o"]) == 3
        err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert err["error"] == "ConfigError" and "--alpha" in err["message"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("cells,names", [
        (("0.1,nan,0.3", "", ""), "loss components"),
        (("0.1,0.2,0.3", "nan", "0.2"), "geometric_mean"),
        (("0.1,0.2,0.3", "inf", "0.2"), "geometric_mean"),
        (("0.1,0.2,0.3", "1.5", "0.2"), "geometric_mean"),
        (("0.1,0.2,0.3", "-0.1", "0.2"), "geometric_mean"),
    ], ids=["nan-loss", "nan-geometric-mean", "inf-geometric-mean",
            "geometric-mean-above-1", "negative-geometric-mean"])
    def test_cell_that_is_not_a_number_in_range_exits_2_and_writes_nothing(
            self, tmp_path, capsys, cells, names):
        first, gm, other_gm = cells
        gm_column = ",geometric_mean" if gm else ""
        bad = tmp_path / "bad.csv"
        bad.write_text(f"dataset,method,l1,l2,l3{gm_column}\n"
                       f"a,m1,{first}{',' + gm if gm else ''}\n"
                       + "".join(f"{d},{m},0.2,0.3,0.4{',' + other_gm if gm else ''}\n"
                                 for d, m in (("a", "m2"), ("b", "m1"), ("b", "m2"))))
        assert run_cli(["report", bad, "--out", tmp_path / "o"]) == 2
        err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert err["error"] == "ParseError" and names in err["message"]
        assert "(a, m1)" in err["message"] and err["message"].startswith(f"{bad}: ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("body,names", [
        ("a,m1,0.1,nan,0.3\na,m2,0.2,0.3,0.4\nb,m1,0.3,0.4,0.5\nb,m2,0.2,0.3,0.4\n",
         "loss components out of [0,1] for (a, m1)"),
        ("a,m1,0.1,0.2,0.3\na,m2,0.2,0.3,0.4\nb,m1,0.3,0.4,0.5\na,m1,0.2,0.3,0.4\n",
         "duplicate (dataset, method) pair: (a, m1)")], ids=["nan-l2", "duplicate-pair"])
    def test_refused_table_error_starts_with_the_path(self, tmp_path, capsys, body, names):
        bad = tmp_path / "bad.csv"
        bad.write_text("dataset,method,l1,l2,l3\n" + body)
        assert run_cli(["report", bad, "--out", tmp_path / "o"]) == 2
        err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert err["error"] == "ParseError" and err["message"] == f"{bad}: {names}"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("text,names", [
        ("dataset,method,l1,l2,l3\na,m1,0.1,0.2\na,m2,0.2,0.3,0.4\n",
         "bad.csv:2: row has fewer cells than the header's 5"),
        ("dataset,method,l1,l2,l3,geometric_mean\na,m1,0.1,0.2,0.3,0.2\na,m2,0.2,0.3,0.4\n",
         "bad.csv:3: row has fewer cells than the header's 6"),
        ("dataset,method,l1,l2\na,m1,0.1,0.2\n",
         "bad.csv: results CSV needs columns ['dataset', 'l1', 'l2', 'l3', 'method']"),
        ("dataset,method,l1,l2,l3\na,m1,0.1,x,0.3\n",
         "bad.csv: malformed results row: could not convert string to float: 'x'"),
    ], ids=["short-row", "short-row-without-geometric-mean", "missing-column", "malformed-row"])
    def test_unreadable_table_exits_2_naming_the_file(self, tmp_path, capsys, text, names):
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        assert run_cli(["report", bad, "--out", tmp_path / "o"]) == 2
        err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert err["error"] == "ParseError" and err["message"].startswith(f"{tmp_path}/{names}")
        assert not (tmp_path / "o").exists()

    def test_incomplete_grid_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("dataset,method,l1,l2,l3\n"
                       "a,m1,0.1,0.2,0.3\na,m2,0.2,0.3,0.4\nb,m1,0.3,0.4,0.5\n")
        assert run_cli(["report", bad, "--out", tmp_path / "o"]) == 3
        err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert "m2" in err["message"]
        assert not (tmp_path / "o").exists()

    def test_row_order_invariance(self, tmp_path):
        rows = benchmark_results_path().read_text().strip().splitlines()
        header, body = rows[0], rows[1:]
        shuffled = tmp_path / "shuffled.csv"
        shuffled.write_text("\n".join([header] + body[::-1]))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run_cli(["report", benchmark_results_path(), "--out", out_a]) == 0
        assert run_cli(["report", shuffled, "--out", out_b]) == 0
        a = json.loads((out_a / "summary.json").read_text())
        b = json.loads((out_b / "summary.json").read_text())
        assert a["medians"] == b["medians"]
        assert a["friedman"] == b["friedman"]


class TestTrain:
    def test_short_run_outputs(self, toy_manifest, tmp_path, capsys):
        out = tmp_path / "run"
        code = run_cli(["train", "--manifest", toy_manifest, "--out", out, "--seed", 5,
                        "--epochs", 2, "--embedding", 3, "--lambda-pop", 8, "--mu", 3])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["epochs"] == 2 and summary["seed"] == 5
        assert set(summary["per_loss"]) == {"l1", "l2", "l3", "l4"}
        curves = (out / "curves.csv").read_text().strip().splitlines()
        assert len(curves) == 1 + 2 * 2 * 8  # header + 2 epochs x 8 candidates x 2 splits
        assert (out / "resolved_config.json").exists() and (out / "state.npz").exists()
        assert not (out / "checkpoint.json").exists()
        assert not (out / "incumbent.model").exists()

    def test_zero_epochs_neutral_summary(self, toy_manifest, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_cli(["train", "--manifest", toy_manifest, "--out", out, "--seed", 5,
                        "--epochs", 0, "--embedding", 3]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert 0 < summary["final"]["validation"]["l1"] < 1

    @pytest.mark.parametrize("command", ["train", "sweep"])
    def test_no_manifest_exits_3_and_writes_nothing(self, tmp_path, capsys, command):
        assert run_cli([command, "--seed", 1, "--out", tmp_path / "o"]) == 3
        err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert err["error"] == "ConfigError" and "manifest is required" in err["message"]
        assert not (tmp_path / "o").exists()

    def test_missing_dataset_path_exits_2(self, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"csv_paths": ["nope_x.csv", "nope_y.csv"]}))
        code = run_cli(["train", "--manifest", manifest, "--out", tmp_path / "o", "--seed", 1])
        assert code == 2
        err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert "nope_x.csv" in err["message"]

    def test_config_file_with_flag_override(self, toy_manifest, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"manifest": str(toy_manifest), "epochs": 1,
                                   "embedding": 3, "seed": 9, "lambda_pop": 8, "mu": 3}))
        out = tmp_path / "run"
        assert run_cli(["train", "--config", cfg, "--out", out, "--epochs", 2]) == 0
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["epochs"] == 2 and resolved["seed"] == 9

    def test_unknown_config_key_exits_2(self, toy_manifest, tmp_path, capsys):
        cfg = tmp_path / "typo.json"
        cfg.write_text(json.dumps({"manifest": str(toy_manifest), "epoch": 5}))
        assert run_cli(["train", "--config", cfg, "--out", tmp_path / "o", "--seed", 1]) == 2
        err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert err["error"] == "ParseError"
        assert "typo.json" in err["message"] and "epoch" in err["message"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command,value", [
        ("train", {"epochs": "5"}), ("train", {"embedding": 2.5}), ("train", {"epochs": True}),
        ("train", {"mu": 3.0}), ("train", {"seed": None}), ("train", {"manifest": 3}),
        ("sweep", {"c_list": [2, "3"]}), ("sweep", {"c_list": "2,3"}),
    ], ids=lambda v: v if isinstance(v, str) else json.dumps(v))
    def test_config_value_of_wrong_type_exits_2(self, toy_manifest, tmp_path, capsys,
                                                command, value):
        cfg = tmp_path / "typed.json"
        cfg.write_text(json.dumps({"manifest": str(toy_manifest), **value}))
        assert run_cli([command, "--config", cfg, "--out", tmp_path / "o", "--seed", 1]) == 2
        err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert err["error"] == "ParseError"
        assert "typed.json" in err["message"] and next(iter(value)) in err["message"]
        assert not (tmp_path / "o").exists()

    def test_config_int_for_float_and_null_for_optional(self, toy_manifest, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"manifest": str(toy_manifest), "sigma": 1, "c_cov": None,
                                   "epochs": 1, "embedding": 3, "lambda_pop": 8, "mu": 3}))
        assert run_cli(["train", "--config", cfg, "--out", tmp_path / "o", "--seed", 1]) == 0
        resolved = json.loads((tmp_path / "o" / "resolved_config.json").read_text())
        assert resolved["sigma"] == 1 and resolved["c_cov"] is None

    def test_config_file_recording_workers_exits_2(self, toy_manifest, tmp_path, capsys):
        # resolved_config.json files written while --workers existed record it
        cfg = tmp_path / "old.json"
        cfg.write_text(json.dumps({"manifest": str(toy_manifest), "workers": 1}))
        assert run_cli(["train", "--config", cfg, "--out", tmp_path / "o", "--seed", 1]) == 2
        err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert err["error"] == "ParseError"
        assert "old.json" in err["message"] and "workers" in err["message"]

    @pytest.mark.parametrize("key,value", [
        ("mc_samples", 10000), ("exact_fitness", False), ("track_archive_hv", True),
    ])
    def test_config_file_recording_removed_fitness_option_exits_2(
            self, toy_manifest, tmp_path, capsys, key, value):
        # resolved_config.json files written while these options existed
        cfg = tmp_path / "old.json"
        cfg.write_text(json.dumps({"manifest": str(toy_manifest), key: value}))
        for command in ("train", "sweep"):
            assert run_cli([command, "--config", cfg, "--out", tmp_path / "o", "--seed", 1]) == 2
            err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
            assert err["error"] == "ParseError"
            assert "old.json" in err["message"] and key in err["message"]
            assert not (tmp_path / "o").exists()

    def test_resolved_config_reproduces_run(self, toy_manifest, tmp_path, capsys):
        # no --seed: the drawn seed is recorded and the file alone repeats the run
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"archive_cap": 4}))
        assert run_cli(["train", "--config", cfg, "--manifest", toy_manifest,
                        "--out", tmp_path / "a", "--epochs", 3, "--embedding", 3,
                        "--lambda-pop", 8, "--mu", 3]) == 0
        resolved = tmp_path / "a" / "resolved_config.json"
        assert json.loads(resolved.read_text())["archive_cap"] == 4
        assert run_cli(["train", "--config", resolved, "--out", tmp_path / "b"]) == 0
        for name in ("summary.json", "curves.csv", "state.npz"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_eval_round_trip(self, toy_manifest, tmp_path, capsys):
        # eval takes the seed (so the split) and the threshold from the run's
        # checkpoint, and scores the incumbent as the run's summary does
        out = tmp_path / "run"
        assert run_cli(["train", "--manifest", toy_manifest, "--out", out, "--seed", 5,
                        "--epochs", 1, "--embedding", 3, "--lambda-pop", 8, "--mu", 3,
                        "--threshold", 0.6]) == 0
        train_summary = json.loads((out / "summary.json").read_text())
        eval_out = tmp_path / "eval"
        assert run_cli(["eval", "--checkpoint", out, "--manifest", toy_manifest,
                        "--split", "test", "--out", eval_out]) == 0
        assert json.loads((eval_out / "eval.json").read_text()) == train_summary["final"]["test"]
        resolved = json.loads((eval_out / "resolved_config.json").read_text())
        assert (resolved["seed"], resolved["threshold"]) == (5, 0.6)

    def test_eval_onto_manifest_of_another_width_exits_2(self, toy_manifest, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_cli(["train", "--manifest", toy_manifest, "--out", out, "--seed", 5,
                        "--epochs", 1, "--embedding", 3, "--lambda-pop", 8, "--mu", 3]) == 0
        lines = (tmp_path / "x.csv").read_text().splitlines()
        (tmp_path / "wide_x.csv").write_text("".join(f"{r},{r.split(',')[0]}\n" for r in lines))
        wide = tmp_path / "wide.json"
        wide.write_text(json.dumps({"name": "wide", "csv_paths": ["wide_x.csv", "y.csv"]}))
        capsys.readouterr()
        assert run_cli(["eval", "--checkpoint", out, "--manifest", wide,
                        "--out", tmp_path / "eval"]) == 2
        err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert err["error"] == "DimensionError" and "eval" in err["message"]
        assert not (tmp_path / "eval").exists()

    @pytest.mark.parametrize("command,flag", [("train", "--resume"), ("eval", "--checkpoint")])
    @pytest.mark.parametrize("name", ["state.npz", "incumbent.model"])
    def test_checkpoint_given_a_file_path_exits_2(self, toy_manifest, tmp_path, capsys,
                                                  command, flag, name):
        # a checkpoint is a run directory; a file in one (state.npz, or the
        # incumbent.model of an older version) is an input error naming it
        out = tmp_path / "run"
        assert run_cli(["train", "--manifest", toy_manifest, "--out", out, "--seed", 5,
                        "--epochs", 1, "--embedding", 3, "--lambda-pop", 8, "--mu", 3]) == 0
        (out / name).touch()
        capsys.readouterr()
        assert run_cli([command, "--manifest", toy_manifest, flag, out / name,
                        "--out", tmp_path / "o"]) == 2
        err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert str(out / name) in err["message"]
        assert not (tmp_path / "o").exists()

    def test_resume_from_checkpoint(self, toy_manifest, tmp_path, capsys):
        out = tmp_path / "run"
        args = ["train", "--manifest", toy_manifest, "--seed", 5, "--epochs", 2,
                "--embedding", 3, "--lambda-pop", 8, "--mu", 3]
        assert run_cli(args + ["--out", out]) == 0
        assert run_cli(args + ["--out", tmp_path / "resumed", "--resume", out]) == 0

    def test_resume_continues_to_requested_epochs(self, toy_manifest, tmp_path, capsys):
        # train(2) then resume to 4 equals train(4): the resumed run takes the
        # checkpoint's seed (none is given) and so its split, and its
        # curves.csv covers every epoch
        args = ["train", "--manifest", toy_manifest, "--seed", 5, "--embedding", 3,
                "--lambda-pop", 8, "--mu", 3]
        assert run_cli(args + ["--epochs", 2, "--out", tmp_path / "two"]) == 0
        assert run_cli(args + ["--epochs", 4, "--out", tmp_path / "four"]) == 0
        assert run_cli(["train", "--manifest", toy_manifest, "--resume", tmp_path / "two",
                        "--epochs", 4, "--out", tmp_path / "resumed"]) == 0
        for name in ("summary.json", "curves.csv", "state.npz"):
            assert ((tmp_path / "resumed" / name).read_bytes()
                    == (tmp_path / "four" / name).read_bytes()), name
        resolved = json.loads((tmp_path / "resumed" / "resolved_config.json").read_text())
        assert resolved["seed"] == 5 and resolved["epochs"] == 4
        assert json.loads((tmp_path / "resumed" / "summary.json").read_text())["epochs"] == 4
        _, saved = trainer.load_checkpoint(tmp_path / "resumed")
        assert (saved.seed, saved.epochs) == (5, 4)

    def test_resume_from_files_of_two_runs_follows_the_state(self, toy_manifest, tmp_path,
                                                             capsys):
        # the state.npz of a 4-epoch run copied into a 2-epoch run's
        # directory (its curves.csv kept): the resume follows the one file it
        # reads and equals a direct 6-epoch run
        args = ["train", "--manifest", toy_manifest, "--seed", 5, "--embedding", 3,
                "--lambda-pop", 8, "--mu", 3]
        for epochs, name in ((2, "two"), (4, "four"), (6, "six")):
            assert run_cli(args + ["--epochs", epochs, "--out", tmp_path / name]) == 0
        mixed = tmp_path / "mixed"
        shutil.copytree(tmp_path / "two", mixed)
        shutil.copy(tmp_path / "four" / "state.npz", mixed / "state.npz")
        assert run_cli(["train", "--manifest", toy_manifest, "--resume", mixed,
                        "--epochs", 6, "--out", tmp_path / "resumed"]) == 0
        for name in ("summary.json", "curves.csv", "state.npz"):
            assert ((tmp_path / "resumed" / name).read_bytes()
                    == (tmp_path / "six" / name).read_bytes()), name

    @pytest.mark.parametrize("change,key", [
        (["--seed", 6], "seed"), (["--sigma", 0.5], "sigma"), (["--embedding", 4], "embedding"),
        (["--config", "cfg.json"], "archive_cap"),
    ])
    def test_resume_refuses_changed_setting(self, toy_manifest, tmp_path, capsys, change, key):
        (tmp_path / "cfg.json").write_text(json.dumps({"archive_cap": 7}))
        change = [tmp_path / c if c == "cfg.json" else c for c in change]
        args = ["train", "--manifest", toy_manifest, "--seed", 5, "--embedding", 3,
                "--lambda-pop", 8, "--mu", 3, "--epochs", 1]
        assert run_cli(args + ["--out", tmp_path / "one"]) == 0
        capsys.readouterr()
        assert run_cli(["train", "--manifest", toy_manifest, "--resume", tmp_path / "one",
                        "--out", tmp_path / "resumed", *change]) == 3
        err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert err["error"] == "ConfigError" and key in err["message"]
        assert not (tmp_path / "resumed").exists()

    @pytest.mark.parametrize("command", ["train", "sweep"])
    @pytest.mark.parametrize("bad,key", [
        (["--sigma", "nan"], "sigma"), (["--sigma", "inf"], "sigma"),
        (["--c-cov", "nan"], "c_cov"),
    ])
    def test_setting_that_is_not_finite_exits_3_and_writes_nothing(
            self, toy_manifest, tmp_path, capsys, command, bad, key):
        sizes = ["--embedding", 3] if command == "train" else ["--c-list", 3]
        assert run_cli([command, "--manifest", toy_manifest, "--seed", 5, "--epochs", 1,
                        *sizes, *bad, "--out", tmp_path / "o"]) == 3
        err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert err["error"] == "ConfigError"
        assert f"{key} must be a finite number" in err["message"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["train", "sweep"])
    @pytest.mark.parametrize("key,value", [
        ("sigma", float("nan")), ("c_cov", float("inf")), ("threshold", float("-inf")),
    ])
    def test_config_value_that_is_not_finite_exits_2_and_writes_nothing(
            self, toy_manifest, tmp_path, capsys, command, key, value):
        cfg = tmp_path / "nan.json"
        cfg.write_text(json.dumps({"manifest": str(toy_manifest), key: value}))
        assert "NaN" in cfg.read_text() or "Infinity" in cfg.read_text()
        assert run_cli([command, "--config", cfg, "--out", tmp_path / "o", "--seed", 1]) == 2
        err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert err["error"] == "ParseError"
        assert "nan.json" in err["message"] and f"config key {key}" in err["message"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("cap", [0, -1])
    def test_archive_cap_below_one_exits_3(self, toy_manifest, tmp_path, capsys, cap):
        assert run_cli(["train", "--manifest", toy_manifest, "--seed", 5, "--epochs", 1,
                        "--archive-cap", cap, "--out", tmp_path / "o"]) == 3
        err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert err["error"] == "ConfigError" and "archive_cap" in err["message"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("bad,key", [
        (["--lambda-pop", 1], "lambda_pop"), (["--sigma", -0.1], "sigma"),
        (["--embedding", 0], "embedding"), (["--mu", 0], "mu"), (["--c-cov", 1.5], "c_cov"),
        (["--lambda-pop", 8, "--mu", 8], "mu"),
        (["--mu", 14], "mu"),   # the default lambda at this dataset's L = 35
    ])
    def test_refused_run_keeps_the_resolved_config_in_out(self, toy_manifest, tmp_path, capsys,
                                                          bad, key):
        out = tmp_path / "run"
        assert run_cli(["train", "--manifest", toy_manifest, "--seed", 5, "--epochs", 1,
                        "--embedding", 3, "--lambda-pop", 8, "--mu", 3, "--out", out]) == 0
        before = (out / "resolved_config.json").read_bytes()
        assert run_cli(["train", "--manifest", toy_manifest, "--epochs", 1, "--embedding", 3,
                        *bad, "--out", out]) == 3
        err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert key in err["message"]
        assert (out / "resolved_config.json").read_bytes() == before

    def test_resume_below_checkpoint_epoch_exits_3(self, toy_manifest, tmp_path, capsys):
        args = ["train", "--manifest", toy_manifest, "--seed", 5, "--embedding", 3,
                "--lambda-pop", 8, "--mu", 3]
        assert run_cli(args + ["--epochs", 2, "--out", tmp_path / "two"]) == 0
        assert run_cli(["train", "--manifest", toy_manifest, "--resume", tmp_path / "two",
                        "--epochs", 1, "--out", tmp_path / "resumed"]) == 3

    @pytest.mark.parametrize("widen", ["x.csv", "y.csv"])
    def test_resume_onto_manifest_of_another_width_keeps_resolved_config(
            self, toy_manifest, tmp_path, capsys, widen):
        args = ["train", "--seed", 5, "--embedding", 3, "--lambda-pop", 8, "--mu", 3]
        out = tmp_path / "two"
        assert run_cli(args + ["--manifest", toy_manifest, "--epochs", 2, "--out", out]) == 0
        before = (out / "resolved_config.json").read_bytes()
        lines = (tmp_path / widen).read_text().splitlines()
        (tmp_path / ("wide_" + widen)).write_text("".join(f"{r},{r.split(',')[0]}\n"
                                                          for r in lines))
        wide = tmp_path / "wide.json"
        wide.write_text(json.dumps({"name": "wide", "csv_paths": [
            "wide_x.csv" if widen == "x.csv" else "x.csv",
            "wide_y.csv" if widen == "y.csv" else "y.csv"]}))
        capsys.readouterr()
        assert run_cli(["train", "--manifest", wide, "--resume", out, "--epochs", 3,
                        "--out", out]) == 2
        err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert err["error"] == "DimensionError" and "resume" in err["message"]
        assert (out / "resolved_config.json").read_bytes() == before

    def test_checkpoint_with_removed_options_exits_2(self, toy_manifest, tmp_path, capsys):
        # checkpoints that still record the removed optimizer variants
        out = tmp_path / "run"
        args = ["train", "--manifest", toy_manifest, "--seed", 5, "--epochs", 1,
                "--embedding", 3, "--lambda-pop", 8, "--mu", 3]
        assert run_cli(args + ["--out", out]) == 0
        edit_meta(out, with_config(literal_cma=False, sigma_rule="none"))
        capsys.readouterr()
        assert run_cli(args + ["--out", tmp_path / "resumed", "--resume", out]) == 2
        err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert err["error"] == "ParseError" and "state.npz" in err["message"]

    def test_checkpoint_recording_workers_exits_2(self, toy_manifest, tmp_path, capsys):
        # checkpoints written while --workers existed record it
        out = tmp_path / "run"
        args = ["train", "--manifest", toy_manifest, "--seed", 5, "--epochs", 1,
                "--embedding", 3, "--lambda-pop", 8, "--mu", 3]
        assert run_cli(args + ["--out", out]) == 0
        edit_meta(out, with_config(workers=1))
        capsys.readouterr()
        assert run_cli(args + ["--out", tmp_path / "resumed", "--resume", out]) == 2
        err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert err["error"] == "ParseError"
        assert "state.npz" in err["message"] and "workers" in err["message"]

    @pytest.mark.parametrize("key,value", [
        ("mc_samples", 10000), ("exact_fitness", False), ("track_archive_hv", True),
    ])
    def test_checkpoint_recording_removed_fitness_option_exits_2(
            self, toy_manifest, tmp_path, capsys, key, value):
        # checkpoints written while these options existed record them
        out = tmp_path / "run"
        args = ["train", "--manifest", toy_manifest, "--seed", 5, "--epochs", 1,
                "--embedding", 3, "--lambda-pop", 8, "--mu", 3]
        assert run_cli(args + ["--out", out]) == 0
        edit_meta(out, with_config(**{key: value}))
        capsys.readouterr()
        assert run_cli(args + ["--out", tmp_path / "resumed", "--resume", out]) == 2
        err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert err["error"] == "ParseError"
        assert "state.npz" in err["message"] and key in err["message"]
        assert not (tmp_path / "resumed").exists()

    def test_dense_format_checkpoint_exits_2(self, toy_manifest, tmp_path, capsys):
        # a state.npz from before the low-rank covariance holds cov, not cov_steps
        out = tmp_path / "run"
        args = ["train", "--manifest", toy_manifest, "--seed", 5, "--epochs", 2,
                "--embedding", 3, "--lambda-pop", 8, "--mu", 3]
        assert run_cli(args + ["--out", out]) == 0
        with np.load(out / "state.npz") as blob:
            arrays = dict(blob)
        steps = arrays.pop("cov_steps")
        arrays["cov"] = np.eye(steps.shape[1])
        np.savez_compressed(out / "state.npz", **arrays)
        capsys.readouterr()
        assert run_cli(args + ["--out", tmp_path / "resumed", "--resume", out]) == 2
        err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert err["error"] == "ParseError"
        assert "state.npz" in err["message"] and "cov_steps" in err["message"]

    @pytest.mark.parametrize("edit", [
        with_config(unknown_option=1),
        lambda meta: json.dumps(meta)[: len(json.dumps(meta)) // 2],
    ], ids=["unknown-config-key", "not-json"])
    def test_malformed_checkpoint_json_exits_2(self, toy_manifest, tmp_path, capsys, edit):
        out = tmp_path / "run"
        args = ["train", "--manifest", toy_manifest, "--seed", 5, "--epochs", 2,
                "--embedding", 3, "--lambda-pop", 8, "--mu", 3]
        assert run_cli(args + ["--out", out]) == 0
        edit_meta(out, edit)
        capsys.readouterr()
        assert run_cli(args + ["--out", tmp_path / "resumed", "--resume", out]) == 2
        err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert err["error"] == "ParseError" and "state.npz" in err["message"]

    @pytest.mark.parametrize("key,edit", [
        ("epoch", lambda meta: {**meta, "epoch": 2.9}),
        ("epoch", lambda meta: {**meta, "epoch": True}),
        ("shape", lambda meta: {**meta, "shape": [meta["shape"][0], 3.0, meta["shape"][2]]}),
    ], ids=["epoch-2.9", "epoch-true", "shape-entry-3.0"])
    def test_checkpoint_epoch_or_shape_of_wrong_type_exits_2(self, toy_manifest, tmp_path,
                                                             capsys, key, edit):
        out = tmp_path / "two"
        assert run_cli(["train", "--manifest", toy_manifest, "--seed", 5, "--epochs", 2,
                        "--embedding", 3, "--lambda-pop", 8, "--mu", 3, "--out", out]) == 0
        edit_meta(out, edit)
        capsys.readouterr()
        assert run_cli(["train", "--manifest", toy_manifest, "--resume", out, "--epochs", 4,
                        "--out", tmp_path / "resumed"]) == 2
        err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert err["error"] == "ParseError"
        assert "state.npz" in err["message"] and key in err["message"]
        assert not (tmp_path / "resumed").exists()

    @pytest.mark.parametrize("key,value", [
        ("epochs", 2.0), ("seed", 3.7), ("archive_cap", 1.5), ("embedding", True)])
    def test_checkpoint_value_of_wrong_type_exits_2(self, toy_manifest, tmp_path, capsys,
                                                    key, value):
        # the type rule of a --config file holds for a checkpoint's config too
        out = tmp_path / "two"
        assert run_cli(["train", "--manifest", toy_manifest, "--seed", 5, "--epochs", 2,
                        "--embedding", 3, "--lambda-pop", 8, "--mu", 3, "--out", out]) == 0
        edit_meta(out, with_config(**{key: value}))
        capsys.readouterr()
        assert run_cli(["train", "--manifest", toy_manifest, "--resume", out,
                        "--out", tmp_path / "resumed"]) == 2
        err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert err["error"] == "ParseError"
        assert "state.npz" in err["message"] and key in err["message"]
        assert not (tmp_path / "resumed").exists()

    @pytest.mark.parametrize("key,value", [("archive_cap", 0), ("mu", 30), ("threshold", 1.5)])
    def test_checkpoint_value_out_of_range_exits_2(self, toy_manifest, tmp_path, capsys,
                                                   key, value):
        # a checkpoint config that TrainConfig refuses (mu 30 is not below
        # lambda_pop 24) is a bad checkpoint, not a bad setting
        out = tmp_path / "two"
        assert run_cli(["train", "--manifest", toy_manifest, "--seed", 5, "--epochs", 2,
                        "--embedding", 3, "--lambda-pop", 24, "--mu", 6, "--out", out]) == 0
        edit_meta(out, with_config(**{key: value}))
        capsys.readouterr()
        assert run_cli(["train", "--manifest", toy_manifest, "--resume", out,
                        "--out", tmp_path / "resumed"]) == 2
        err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert err["error"] == "ParseError"
        assert "state.npz" in err["message"] and key in err["message"]
        assert not (tmp_path / "resumed").exists()

    @pytest.mark.parametrize("entries", [
        # the previous format also stored the optimizer's constants and the loss keys
        lambda cma: dict(sigma=cma.sigma, lambda_pop=cma.lambda_pop, mu=cma.mu,
                         weights=cmaes.default_weights(cma.mu), c_cov=cma.c_cov,
                         best_keys=np.array(sorted(trainer.LOSS_KEYS))),
        # a step size that the checkpoint's config (sigma 0.3) contradicts
        lambda cma: dict(sigma=0.5),
    ], ids=["previous-format", "sigma-0.5"])
    def test_resume_takes_the_optimizer_constants_from_the_config(
            self, toy_manifest, tmp_path, capsys, entries):
        # entries for the optimizer's constants in state.npz are ignored: the
        # resume equals the direct run and a replay of its resolved_config.json
        args = ["train", "--manifest", toy_manifest, "--seed", 5, "--embedding", 3,
                "--lambda-pop", 24, "--mu", 6]
        assert run_cli(args + ["--epochs", 2, "--out", tmp_path / "two"]) == 0
        assert run_cli(args + ["--epochs", 4, "--out", tmp_path / "four"]) == 0
        path = tmp_path / "two" / "state.npz"
        with np.load(path) as blob:
            arrays = dict(blob)
        cma = trainer.load_checkpoint(tmp_path / "two")[0].cma
        np.savez(path, **{**arrays, **entries(cma)})
        assert run_cli(["train", "--manifest", toy_manifest, "--resume", tmp_path / "two",
                        "--epochs", 4, "--out", tmp_path / "resumed"]) == 0
        assert run_cli(["train", "--config", tmp_path / "resumed" / "resolved_config.json",
                        "--out", tmp_path / "replay"]) == 0
        for run in ("resumed", "replay"):
            for name in ("summary.json", "curves.csv", "state.npz"):
                assert ((tmp_path / run / name).read_bytes()
                        == (tmp_path / "four" / name).read_bytes()), (run, name)

    def test_config_file_not_an_object_exits_2(self, toy_manifest, tmp_path, capsys):
        cfg = tmp_path / "list.json"
        cfg.write_text("[1, 2]")
        assert run_cli(["train", "--config", cfg, "--manifest", toy_manifest,
                        "--out", tmp_path / "o"]) == 2
        err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert err["error"] == "ParseError" and "list.json" in err["message"]
        assert not (tmp_path / "o").exists()

    def test_malformed_config_file_exits_2(self, toy_manifest, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{bad")
        assert run_cli(["train", "--config", cfg, "--manifest", toy_manifest,
                        "--out", tmp_path / "o"]) == 2
        err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert err["error"] == "ParseError" and "bad.json" in err["message"]

    def test_corrupt_checkpoint_numeric_failure_exits_4(self, toy_manifest, tmp_path, capsys):
        # a NaN in the incumbent's parameters (row 0 of params)
        out = tmp_path / "run"
        assert run_cli(["train", "--manifest", toy_manifest, "--out", out, "--seed", 5,
                        "--epochs", 1, "--embedding", 3, "--lambda-pop", 8, "--mu", 3]) == 0
        with np.load(out / "state.npz") as blob:
            arrays = dict(blob)
        arrays["params"][0, 0] = np.nan
        np.savez(out / "state.npz", **arrays)
        code = run_cli(["eval", "--checkpoint", out, "--manifest", toy_manifest,
                        "--out", tmp_path / "o"])
        assert code == 4

    @staticmethod
    def _set(name, index, value):
        """A state.npz edit that sets one entry of one array."""
        def edit(arrays):
            arrays[name][index] = value
        return edit

    @pytest.mark.parametrize("edit,names", [
        (_set("mean", 0, np.nan), "mean holds an entry that is not a finite number"),
        (_set("cov_steps", (1, 2), np.inf), "cov_steps holds an entry"),
        (_set("archive_points", (0, 1), np.nan), "archive_points holds an entry"),
        (_set("archive_points", (0, 1), 5.0), "front components must lie in [0, 1]"),
        (_set("archive_hv", 1, np.nan), "archive_hv holds an entry"),
        (_set("params_meta", (0, 0), np.nan), "params_meta holds an entry"),
        (_set("curves", (3, 7), np.nan), "curves holds an entry"),
        (lambda arrays: arrays.update(archive_points=np.array([[0.1, 0.1, 0.1], [0.2, 0.2, 0.2]]),
                                      archive_tags=np.array(["e1c0", "e1c1"])),
         "front is not mutually non-dominating: e1c0 dominates e1c1"),
    ], ids=["nan-mean", "inf-cov-steps", "nan-archive-point", "archive-point-above-1",
            "nan-archive-hv", "nan-params-meta", "nan-curves", "dominated-archive-point"])
    def test_checkpoint_value_no_run_writes_exits_2_and_writes_nothing(
            self, toy_manifest, tmp_path, capsys, edit, names):
        # the incumbent's params keep their numeric refusal (exit 4, above)
        out = tmp_path / "two"
        assert run_cli(["train", "--manifest", toy_manifest, "--seed", 5, "--epochs", 2,
                        "--embedding", 3, "--lambda-pop", 8, "--mu", 3, "--out", out]) == 0
        with np.load(out / "state.npz") as blob:
            arrays = dict(blob)
        edit(arrays)
        np.savez(out / "state.npz", **arrays)
        capsys.readouterr()
        for command in (["train", "--resume", out, "--epochs", 4],
                        ["eval", "--checkpoint", out]):
            assert run_cli([*command, "--manifest", toy_manifest, "--out", tmp_path / "o"]) == 2
            err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
            assert err["error"] == "ParseError" and names in err["message"]
            assert err["message"].startswith(f"{out / 'state.npz'}: ")
            assert not (tmp_path / "o").exists()

    def test_copy_task_learns_through_cli(self, toy_manifest, tmp_path, capsys):
        # the command's training path (its split by the run seed, its
        # flags) at every seed of the panel under both samplers: the final
        # incumbent generalizes (test l1 small) and validation is learned too
        def run(seed):
            dataset = cli._prepare_dataset(toy_manifest, seed)
            res = trainer.train(dataset, trainer.TrainConfig(
                seed=seed, epochs=200, embedding=4, lambda_pop=16, mu=4, c_cov=0.1))
            test_l1 = trainer.evaluate(res.final.params, dataset, "test")[0].l1
            return test_l1 <= 0.05 and res.final.validation.l1 <= 0.1

        passed = seed_panel.run_panel(run)
        _, _, p = seed_panel.sign_test(passed)
        assert p > seed_panel.ALPHA, seed_panel.summary(passed)

        out = tmp_path / "full"
        code = run_cli(["train", "--manifest", toy_manifest, "--out", out, "--seed", 4,
                        "--epochs", 20, "--embedding", 4, "--lambda-pop", 16, "--mu", 4,
                        "--c-cov", 0.1])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["epochs"] == 20 and summary["seed"] == 4
        for split in ("validation", "test"):
            assert 0.0 <= summary["final"][split]["l1"] <= 1.0


class TestSweep:
    def test_two_embeddings(self, toy_manifest, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = run_cli(["sweep", "--manifest", toy_manifest, "--c-list", "2,4",
                        "--out", out, "--seed", 3, "--epochs", 2,
                        "--lambda-pop", 8, "--mu", 3])
        assert code == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert lines[0].split(",") == ["c", "seed", "best_l1", "best_l2", "best_l3",
                                       "best_l4", "final_gm", "archive_hv"]
        assert len(lines) == 3
        assert (out / "archive_hv_c2.csv").exists()
        assert (out / "archive_hv_c4.csv").exists()

    def test_deterministic(self, toy_manifest, tmp_path, capsys):
        args = ["sweep", "--manifest", toy_manifest, "--c-list", "2,3", "--seed", 3,
                "--epochs", 1, "--lambda-pop", 8, "--mu", 3]
        assert run_cli(args + ["--out", tmp_path / "a"]) == 0
        assert run_cli(args + ["--out", tmp_path / "b"]) == 0
        assert (tmp_path / "a" / "sweep.csv").read_text() == (tmp_path / "b" / "sweep.csv").read_text()

    def test_config_file_options_reach_every_run(self, toy_manifest, tmp_path, capsys,
                                                 monkeypatch):
        configs = []
        real_train = trainer.train
        monkeypatch.setattr(trainer, "train", lambda dataset, config, **kwargs: (
            configs.append(config) or real_train(dataset, config, **kwargs)))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"manifest": str(toy_manifest), "c_list": [2, 3],
                                   "archive_cap": 2, "epochs": 2, "lambda_pop": 8,
                                   "mu": 3, "command": "sweep"}))
        out = tmp_path / "sweep"
        assert run_cli(["sweep", "--config", cfg, "--out", out, "--seed", 3]) == 0
        assert [(c.embedding, c.archive_cap, c.epochs, c.lambda_pop, c.mu) for c in configs] == [
            (2, 2, 2, 8, 3), (3, 2, 2, 8, 3)]
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["2", "3"]
        for line in lines[1:]:
            hv = np.loadtxt(out / f"archive_hv_c{line.split(',')[0]}.csv", delimiter=",",
                            skiprows=1)
            assert hv.shape == (3, 2)   # the initial archive and one row per epoch
            assert float(line.split(",")[-1]) == hv[-1, 1]
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["archive_cap"] == 2 and resolved["c_list"] == [2, 3]

    def test_archive_cap_flag(self, toy_manifest, tmp_path, capsys, monkeypatch):
        caps = []
        real_train = trainer.train

        def recording_train(dataset, config, **kwargs):
            caps.append(config.archive_cap)
            return real_train(dataset, config, **kwargs)

        monkeypatch.setattr(trainer, "train", recording_train)
        assert run_cli(["sweep", "--manifest", toy_manifest, "--c-list", "2",
                        "--out", tmp_path / "o", "--seed", 3, "--epochs", 1,
                        "--lambda-pop", 8, "--mu", 3,
                        "--archive-cap", 5]) == 0
        assert caps == [5]

    def test_embedding_in_config_exits_3(self, toy_manifest, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"embedding": 4}))
        assert run_cli(["sweep", "--config", cfg, "--manifest", toy_manifest,
                        "--c-list", "2", "--out", tmp_path / "o", "--seed", 1]) == 3

    @pytest.mark.parametrize("bad,key", [
        (["--c-list", "3,0"], "embedding"),
        (["--c-list", "3,2", "--mu", 13], "mu"),   # default lambda 14 at c=3, 13 at c=2
    ])
    def test_refused_sweep_keeps_the_resolved_config_in_out(self, toy_manifest, tmp_path,
                                                            capsys, bad, key, monkeypatch):
        out = tmp_path / "sweep"
        args = ["sweep", "--manifest", toy_manifest, "--epochs", 1, "--out", out]
        assert run_cli(args + ["--c-list", "2", "--seed", 3, "--lambda-pop", 8,
                               "--mu", 3]) == 0
        before = (out / "resolved_config.json").read_bytes()
        trained = []
        monkeypatch.setattr(trainer, "train", lambda *args, **kwargs: trained.append(args))
        assert run_cli(args + bad) == 3
        err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert key in err["message"] and trained == []
        assert (out / "resolved_config.json").read_bytes() == before

    def test_empty_c_list_exits_3(self, toy_manifest, tmp_path, capsys):
        assert run_cli(["sweep", "--manifest", toy_manifest, "--c-list", ",",
                        "--out", tmp_path / "o", "--seed", 1]) == 3


def test_console_entry_point(toy_manifest, tmp_path):
    proc = subprocess.run([sys.executable, "-m", "hvml.cli", "stats",
                           "--manifest", str(toy_manifest), "--out", str(tmp_path / "o")],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["n"] == 64


def test_commands_do_not_mutate_inputs(toy_manifest, tmp_path, capsys):
    results = benchmark_results_path()
    before = {toy_manifest: toy_manifest.read_bytes(), results: results.read_bytes()}
    run_cli(["stats", "--manifest", toy_manifest, "--out", tmp_path / "a"])
    run_cli(["report", results, "--out", tmp_path / "b"])
    run_cli(["train", "--manifest", toy_manifest, "--out", tmp_path / "c",
             "--seed", 1, "--epochs", 1, "--embedding", 3, "--lambda-pop", 8, "--mu", 3])
    for path, blob in before.items():
        assert path.read_bytes() == blob


def test_every_output_is_strict_json(toy_manifest, unlabeled_manifest, tmp_path, capsys):
    # every command on its fixtures, each JSON file, printout and checkpoint
    # meta parsed with NaN and Infinity refused; the dataset with no positive
    # label has no finite dispersion
    front = tmp_path / "front.csv"
    front.write_text("a,0.2,0.8,0.5\nb,0.8,0.2,0.5\nc,0.9,0.9,0.9\n")
    run = ["--seed", 3, "--epochs", 2, "--lambda-pop", 8, "--mu", 3]
    commands = {
        "train": ["train", "--manifest", toy_manifest, "--embedding", 3, *run],
        "sweep": ["sweep", "--manifest", toy_manifest, "--c-list", "2,3", *run],
        "eval": ["eval", "--checkpoint", tmp_path / "train", "--manifest", toy_manifest],
        "hv": ["hv", front, "--mc-samples", 1000, "--seed", 7],
        "stats": ["stats", "--manifest", toy_manifest],
        "stats_unlabeled": ["stats", "--manifest", unlabeled_manifest],
        "report": ["report", benchmark_results_path()],
    }
    for name, args in commands.items():
        capsys.readouterr()
        assert run_cli([*args, "--out", tmp_path / name]) == 0, name
        printed = capsys.readouterr().out
        if name != "hv":   # hv prints plain lines
            json.loads(printed, parse_constant=refuse_constant)
        written = [path.read_text() for path in (tmp_path / name).glob("*.json")]
        if name == "train":   # the checkpoint's meta entry
            with np.load(tmp_path / name / "state.npz") as blob:
                written.append(blob["meta"].item())
        assert written, name
        for text in written:
            json.loads(text, parse_constant=refuse_constant)


@pytest.mark.parametrize("command,bad", [
    (lambda p: ["hv", p["front.csv"]], "front.csv"),
    (lambda p: ["stats", "--manifest", p["arff.json"]], "d.arff"),
    (lambda p: ["train", "--config", p["config.json"], "--manifest", p["toy.json"]],
     "config.json"),
    (lambda p: ["report", p["table.csv"]], "table.csv"),
    (lambda p: ["stats", "--manifest", p["toy.json"]], "x.csv"),
    (lambda p: ["stats", "--manifest", p["toy.json"]], "toy.json"),
], ids=["hv-front", "arff-data-line", "config-file", "results-table", "csv-pair", "manifest"])
def test_file_that_is_not_utf8_exits_2_naming_it(toy_manifest, tmp_path, capsys, command, bad):
    # each file a command reads, with byte 0xff in its last line
    inputs = {"front.csv": "a,0.2,0.8,0.5\nb,0.8,0.2,0.5\n",
              "d.arff": TestStats.ARFF, "arff.json": json.dumps({"arff_path": "d.arff",
                                                                 "label_count": 2}),
              "config.json": json.dumps({"epochs": 1, "seed": 2}),
              "table.csv": "dataset,method,l1,l2,l3\na,m1,0.1,0.2,0.3\na,m2,0.2,0.3,0.4\n"}
    for name, text in inputs.items():
        (tmp_path / name).write_text(text)
    path = tmp_path / bad
    text = path.read_bytes().rstrip(b"\n")
    cut = text.rfind(b"\n") + 1 if bad != "toy.json" else len(text) - 1
    path.write_bytes(text[:cut] + b"\xff" + text[cut:] + b"\n")
    paths = {name: tmp_path / name for name in [*inputs, "toy.json"]}
    assert run_cli([*command(paths), "--out", tmp_path / "o"]) == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["error"] == "ParseError"
    assert err["message"].startswith(f"{path}: not UTF-8 text: ")
    assert not (tmp_path / "o").exists()
