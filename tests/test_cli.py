"""Pipeline wiring: artifacts, prerequisites, exit codes, determinism."""

from __future__ import annotations

import codecs
import csv
import json
import math
import shutil
from importlib import resources
from pathlib import Path

import pytest

from fleetfuel.cli import main
from fleetfuel.synthgen import SynthFeature, default_spec, generate

from .conftest import run_python

SMALL_CONFIG = {
    "fleet_id": "t1",
    "paths": {"out_dir": "out"},
    "train": {
        "max_rounds": 120,
        "patience": 20,
        "bags": 2,
        "learning_rate": 0.08,
        "seed": 4,
    },
    "split": {"seed": 4},
}


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(SMALL_CONFIG))
    return tmp_path


def run(*argv) -> int:
    return main(list(argv))


def synth_config(workdir) -> str:
    # a small fleet keeps the suite fast; the synth spec is echoed for reuse
    spec_cfg = dict(SMALL_CONFIG)
    cfg = workdir / "config.json"
    cfg.write_text(json.dumps(spec_cfg))
    assert run("synth", "--config", str(cfg)) == 0
    # shrink: regenerate with a spec file of fewer vehicles
    spec = json.loads((workdir / "out" / "synth_spec.json").read_text())
    spec["n_vehicles"] = 40
    spec["n_days"] = 12
    spec_path = workdir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    full = dict(SMALL_CONFIG)
    full["paths"] = {"out_dir": "out", "synth_spec": "spec.json"}
    cfg.write_text(json.dumps(full))
    shutil.rmtree(workdir / "out")
    assert run("synth", "--config", str(cfg)) == 0
    return str(cfg)


class TestSmokePipeline:
    def test_synth_then_pipeline_produces_all_artifacts(self, workdir):
        cfg = synth_config(workdir)
        assert run("pipeline", "--config", cfg) == 0
        out = workdir / "out"
        for name in (
            "far_raw.csv",
            "far_labeled.csv",
            "far_training.csv",
            "limits.csv",
            "model.json",
            "shape_curves.csv",
            "train_metrics.json",
            "explanations.csv",
            "explanations_prefilter.csv",
            "audit.jsonl",
            "inlier_medians.csv",
            "report_category_impact.csv",
            "report_outlier_explained.csv",
            "report_catalog_mape.csv",
            "monthly_impact.csv",
            "manifest.json",
        ):
            assert (out / name).exists(), name

    def test_manifest_covers_all_stages(self, workdir):
        cfg = synth_config(workdir)
        assert run("pipeline", "--config", cfg) == 0
        manifest = json.loads((workdir / "out" / "manifest.json").read_text())
        assert set(manifest["stages"]) == {
            "synth",
            "ingest",
            "clean",
            "train",
            "explain",
            "evaluate",
            "impact",
        }
        assert manifest["config"]["fleet_id"] == "t1"


class TestTrainHistory:
    def test_history_rows_and_manifest(self, workdir):
        cfg = synth_config(workdir)
        for stage in ("ingest", "clean", "train"):
            assert run(stage, "--config", cfg) == 0
        out = workdir / "out"
        with open(out / "train_history.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        bags = sorted({int(r["bag"]) for r in rows})
        assert bags == list(range(SMALL_CONFIG["train"]["bags"]))
        for bag in bags:
            rounds = [int(r["round"]) for r in rows if int(r["bag"]) == bag]
            # rounds 0..stopped_round, each once, and exactly one best round
            assert rounds == list(range(len(rounds)))
            assert sum(r["best"] == "1" for r in rows if int(r["bag"]) == bag) == 1
        manifest = json.loads((out / "manifest.json").read_text())
        outputs = manifest["stages"]["train"]["outputs"]
        assert any(name.endswith("train_history.csv") for name in outputs)

    def test_workers_flag_removed(self, workdir):
        assert run("train", "--workers", "2") == 1


class TestPrerequisites:
    def test_explain_without_train(self, workdir):
        cfg = synth_config(workdir)
        assert run("ingest", "--config", cfg) == 0
        assert run("clean", "--config", cfg) == 0
        code = run("explain", "--config", cfg)
        assert code == 2

    def test_clean_without_ingest(self, workdir):
        cfg = synth_config(workdir)
        assert run("clean", "--config", cfg) == 2

    def test_missing_feed_names_path(self, workdir, capsys):
        (workdir / "config.json").write_text(json.dumps({"paths": {"out_dir": "empty"}}))
        code = run("ingest", "--config", str(workdir / "config.json"))
        assert code == 2
        assert "feed.csv" in capsys.readouterr().err


class TestExitCodes:
    def test_bad_json_config_is_usage(self, workdir):
        bad = workdir / "bad.json"
        bad.write_text("nope")
        assert run("ingest", "--config", str(bad)) == 1

    def test_unknown_config_key_is_usage(self, workdir):
        bad = workdir / "bad.json"
        bad.write_text(json.dumps({"no_such_key": 1}))
        assert run("ingest", "--config", str(bad)) == 1

    def test_unknown_subcommand_is_usage(self, workdir):
        assert run("frobnicate") == 1

    def test_missing_config_file(self, workdir):
        assert run("ingest", "--config", "absent.json") == 2

    @pytest.mark.parametrize(
        "config, named",
        [
            ([1, 2], "bad.json"),
            ({"train": {"bags": "8"}}, "'train.bags'"),
            ({"train": {"seed": True}}, "'train.seed'"),
            ({"split": {"fraction": "x"}}, "'split.fraction'"),
            ({"rules": {"br2_threshold": "x"}}, "'rules.br2_threshold'"),
            ({"train": 8}, "'train'"),
            ({"train": {"workers": 2}}, "'train.workers'"),
        ],
        ids=[
            "not-object", "str-for-int", "bool-for-int", "str-for-float", "rules-str", "scalar-for-section",
            "removed-key",
        ],
    )
    def test_config_of_wrong_shape_is_usage(self, workdir, capsys, config, named):
        bad = workdir / "bad.json"
        bad.write_text(json.dumps(config))
        assert run("ingest", "--config", str(bad)) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err and named in err

    def test_int_for_float_is_accepted(self, workdir, capsys):
        # the config passes; ingest then stops at the missing feed
        cfg = workdir / "ints.json"
        cfg.write_text(json.dumps({"paths": {"out_dir": "empty"}, "catalog_offset": 1, "rules": {"br5_cap": 1}}))
        assert run("ingest", "--config", str(cfg)) == 2
        assert "feed.csv" in capsys.readouterr().err


class TestSynthBounds:
    def test_bound_a_double_cannot_hold(self, workdir):
        # the draws clamp to the bounds' doubles, so an int bound is never written in place of a drawn float
        spec = default_spec(seed=1, n_vehicles=100, n_days=40)
        spec.features = [*spec.features, SynthFeature("big", 2**60 + 1, 2**60 + 2**20 + 3, (), (0.0,), "mean")]
        spec.to_json(workdir / "spec.json")
        cfg = workdir / "config.json"
        cfg.write_text(json.dumps({**SMALL_CONFIG, "paths": {"out_dir": "out", "synth_spec": "spec.json"}}))
        assert run("synth", "--config", str(cfg)) == 0
        with open(workdir / "out" / "truth_days.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        cells = [row[f"value_{f.name}"] for row in rows for f in spec.features]
        with open(workdir / "out" / "feed.csv", newline="") as fh:
            cells += [row["variable_value"] for row in csv.DictReader(fh)]
        assert len(rows) == 4000 and {row["value_big"] for row in rows} > {"1.152921504606847e+18"}
        assert all(repr(float(cell)) == cell for cell in cells)


class TestSynthSeedFlag:
    def test_seed_flag_reseeds_a_spec_file(self, workdir):
        spec = default_spec(seed=3, n_vehicles=12, n_days=5)
        spec.to_json(workdir / "spec.json")
        cfg = workdir / "config.json"
        cfg.write_text(json.dumps({**SMALL_CONFIG, "paths": {"out_dir": "out", "synth_spec": "spec.json"}}))
        assert run("synth", "--config", str(cfg), "--seed", "11") == 0
        assert json.loads((workdir / "out" / "synth_spec.json").read_text())["seed"] == 11
        spec.seed = 11
        fleet = generate(spec, workdir / "ref")
        for path in (fleet.feed_path, fleet.vin_map_path, fleet.catalog_path, fleet.truth_days_path,
                     fleet.truth_savings_path):
            assert (workdir / "out" / path.name).read_bytes() == path.read_bytes(), path.name


class TestDeterminism:
    def test_reruns_are_byte_identical(self, workdir):
        cfg = synth_config(workdir)
        assert run("pipeline", "--config", cfg) == 0
        first = {
            p.name: p.read_bytes()
            for p in (workdir / "out").iterdir()
            if p.suffix in {".json", ".csv", ".jsonl"}
        }
        # wipe and regenerate everything from the same config and seed
        shutil.rmtree(workdir / "out")
        assert run("synth", "--config", cfg) == 0
        assert run("pipeline", "--config", cfg) == 0
        for name, blob in first.items():
            assert (workdir / "out" / name).read_bytes() == blob, name

    def test_seed_flag_changes_model(self, workdir):
        cfg = synth_config(workdir)
        assert run("pipeline", "--config", cfg) == 0
        base = (workdir / "out" / "model.json").read_bytes()
        assert run("train", "--config", cfg, "--seed", "99") == 0
        assert (workdir / "out" / "model.json").read_bytes() != base


@pytest.fixture(scope="class")
def finished_run(tmp_path_factory):
    """One small pipeline run; each test corrupts a copy of its outputs."""
    root = tmp_path_factory.mktemp("finished")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(root)
        cfg = synth_config(root)
        assert run("pipeline", "--config", cfg) == 0
    return root / "out", cfg


class TestModelFormat:
    def test_small_fleet_model_and_predictors(self, workdir):
        # 35 test days against 37 design columns, 16 of them single-bin
        default_spec(seed=3, n_vehicles=30, n_days=12).to_json(workdir / "spec.json")
        cfg = workdir / "config.json"
        cfg.write_text(json.dumps({**SMALL_CONFIG, "paths": {"out_dir": "out", "synth_spec": "spec.json"}}))
        assert run("synth", "--config", str(cfg)) == 0
        assert run("pipeline", "--config", str(cfg)) == 0
        model = json.loads((workdir / "out" / "model.json").read_text())
        assert model["version"] == 2
        assert "link" not in model and "workers" not in model["config"]
        single_bin = [feat for feat in model["features"] if not feat["cuts"]]
        assert single_bin
        assert all(feat["values"] == [0.0] for feat in single_bin)
        # adjusted R² counts the columns with cuts
        metrics = json.loads((workdir / "out" / "train_metrics.json").read_text())
        assert metrics["n_predictors"] == len(model["features"]) - len(single_bin)


class TestManifest:
    # every file each stage reads, beyond those the run's config names
    INPUTS = {
        "synth": {"spec.json"},
        "ingest": {"out/feed.csv", "out/vin_map.csv"},
        "clean": {"out/far_raw.csv", "out/identities.csv"},
        "train": {"out/far_training.csv"},
        "explain": {"out/model.json", "out/far_labeled.csv", "out/limits.csv"},
        "evaluate": {
            "out/far_labeled.csv",
            "out/limits.csv",
            "out/explanations.csv",
            "out/explanations_prefilter.csv",
            "out/identities.csv",
            "out/catalog.csv",
            "out/train_metrics.json",
        },
        "impact": {"out/explanations.csv", "out/far_labeled.csv"},
    }

    def test_inputs_are_every_file_a_stage_reads(self, finished_run):
        out, _ = finished_run
        manifest = json.loads((out / "manifest.json").read_text())
        assert {stage: set(entry["inputs"]) for stage, entry in manifest["stages"].items()} == self.INPUTS
        # every artifact is written to a temporary file and moved into place
        assert not list(out.rglob("*.tmp"))

    def test_input_digest_is_taken_on_reading(self, finished_run):
        out, _ = finished_run
        stages = json.loads((out / "manifest.json").read_text())["stages"]
        # clean reads ingest's identities.csv, then rewrites it with vehicle classes
        read = stages["clean"]["inputs"]["out/identities.csv"]
        assert read == stages["ingest"]["outputs"]["out/identities.csv"]
        assert read != stages["clean"]["outputs"]["out/identities.csv"]
        assert stages["evaluate"]["inputs"]["out/identities.csv"] == stages["clean"]["outputs"]["out/identities.csv"]


def _csv_rows(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class TestCleanRepeatedDay:
    """A FAR file holds one row per vehicle-day: clean refuses a repeated one, naming the repeat's line."""

    def test_noisy_and_low_repeats(self, finished_run, tmp_path, capsys):
        out, cfg = finished_run
        copy = tmp_path / "out"
        shutil.copytree(out, copy)
        # two training days in the middle of the largest cell's fuel, well inside its whiskers
        cells: dict[tuple, list[dict]] = {}
        for row in _csv_rows(out / "far_training.csv"):
            cells.setdefault((row["vehicle_group"], row["route_type"]), []).append(row)
        cell = sorted(max(cells.values(), key=len), key=lambda r: float(r["avg_fuel_consumption"]))
        noisy, low = cell[len(cell) // 2], cell[len(cell) // 2 + 1]
        keys = {"noisy": (noisy["vehicle_id"], noisy["date"]), "low": (low["vehicle_id"], low["date"])}

        with open(out / "far_raw.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        header = rows[0]
        key_of = lambda row: (row[header.index("vehicle_id")], row[header.index("date")])
        fuel = header.index("trip_fuel_used"), header.index("avg_fuel_consumption")
        written, repeats = [header], []
        for row in rows[1:]:
            written.append(row)
            for what, scale in (("noisy", 10.0), ("low", 0.1)):
                if key_of(row) == keys[what]:
                    repeat = list(row)
                    for k in fuel:
                        repeat[k] = repr(float(row[k]) * scale)
                    written.append(repeat)
                    repeats.append((len(written), keys[what]))  # the repeat's line, as the header is line 1
        with open(copy / "far_raw.csv", "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerows(written)
        before = (copy / "far_labeled.csv").read_bytes()

        capsys.readouterr()
        assert run("clean", "--config", cfg, "--out", str(copy)) == 2
        line, (vehicle, day) = min(repeats)
        assert f"{copy / 'far_raw.csv'}: line {line}: vehicle-day {vehicle}/{day} repeats line {line - 1}" in (
            capsys.readouterr().err
        )
        assert (copy / "far_labeled.csv").read_bytes() == before


class TestStageImports:
    """A stage run in a fresh interpreter imports only the modules it runs.

    No stage loads ``dataclasses``, and a stage without numpy loads no ``inspect``: the records are NamedTuples and
    plain classes, which need neither module.
    """

    GENERATED = {"dataclasses", "inspect"}

    def _modules_after(self, finished_run, tmp_path, *stages) -> set[str]:
        out, cfg = finished_run
        copy = tmp_path / "out"
        shutil.copytree(out, copy)
        stdout = run_python(
            "import sys\n"
            "from fleetfuel.cli import main\n"
            f"for stage in {list(stages)!r}:\n"
            f"    assert main([stage, '--config', {cfg!r}, '--out', {str(copy)!r}]) == 0, stage\n"
            "print(*sorted(sys.modules))\n",
            cwd=tmp_path,
        )
        return set(stdout.splitlines()[-1].split())

    def test_ingest_and_clean_load_no_numpy(self, finished_run, tmp_path):
        loaded = self._modules_after(finished_run, tmp_path, "ingest", "clean")
        assert {"fleetfuel.ingest", "fleetfuel.anomaly"} <= loaded
        unwanted = {"numpy", "fleetfuel.gam", "fleetfuel.explain", "fleetfuel.evaluate", "fleetfuel.synthgen"}
        assert loaded & unwanted == set()
        assert loaded & self.GENERATED == set()

    def test_evaluate_and_impact_load_no_numpy(self, finished_run, tmp_path):
        loaded = self._modules_after(finished_run, tmp_path, "evaluate", "impact")
        assert {"fleetfuel.explain", "fleetfuel.evaluate"} <= loaded
        assert loaded & {"numpy", "fleetfuel.gam", "fleetfuel.synthgen"} == set()
        assert loaded & self.GENERATED == set()

    def test_explain_loads_neither_evaluate_nor_synthgen(self, finished_run, tmp_path):
        loaded = self._modules_after(finished_run, tmp_path, "explain")
        assert {"fleetfuel.model", "fleetfuel.explain"} <= loaded
        assert loaded & {"numpy", "fleetfuel.gam", "fleetfuel.evaluate", "fleetfuel.synthgen"} == set()
        assert loaded & self.GENERATED == set()

    def test_train_loads_neither_explain_nor_dataclasses(self, finished_run, tmp_path):
        loaded = self._modules_after(finished_run, tmp_path, "train")
        assert {"numpy", "fleetfuel.gam", "fleetfuel.evaluate"} <= loaded
        # numpy itself loads inspect
        assert loaded & {"fleetfuel.explain", "fleetfuel.synthgen", "dataclasses"} == set()


def _corrupt_cell(path, line: int, column: str, text: str) -> None:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    rows[line - 1][rows[0].index(column)] = text
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _prefix_line(path, line: int, blob: bytes) -> None:
    lines = path.read_bytes().split(b"\n")
    lines[line - 1] = blob + lines[line - 1]
    path.write_bytes(b"\n".join(lines))


def _rewrite(path, change) -> None:
    path.write_bytes(change(path.read_bytes()))


def _corruptions(second_column: bytes, cell_column: str, cell: str) -> dict:
    """The thirteen corruptions of a CSV artifact, each applied to its file.

    ``duplicated-column`` renames the header's ``second_column`` to the first
    column's name, ``vehicle_id``; the three cell corruptions, named
    ``<how>-<cell>``, go on line 3's ``cell_column``; ``repeated-row``
    appends a copy of line 3.
    """
    return {
        "non-utf8": lambda path: _prefix_line(path, 3, b"\xff"),
        "nul": lambda path: _prefix_line(path, 3, b"\x00"),
        "empty": lambda path: path.write_bytes(b""),
        "header-only": lambda path: _rewrite(path, lambda data: data[: data.index(b"\n") + 1]),
        "duplicated-column": lambda path: _rewrite(
            path, lambda data: data.replace(b"," + second_column + b",", b",vehicle_id,", 1)),
        "extra-field": lambda path: _prefix_line(path, 3, b"x,"),
        f"inf-{cell}": lambda path: _corrupt_cell(path, 3, cell_column, "inf"),
        f"negative-{cell}": lambda path: _corrupt_cell(path, 3, cell_column, "-50.0"),
        f"1e400-{cell}": lambda path: _corrupt_cell(path, 3, cell_column, "1e400"),
        "crlf": lambda path: _rewrite(path, lambda data: data.replace(b"\n", b"\r\n")),
        "bom": lambda path: _rewrite(path, lambda data: codecs.BOM_UTF8 + data),
        "cut-in-half": lambda path: _rewrite(path, lambda data: data[: len(data) // 2]),
        "repeated-row": lambda path: _rewrite(path, lambda data: data + data.split(b"\n")[2] + b"\n"),
    }


FAR_CORRUPTIONS = _corruptions(b"date", "trip_kms", "distance")
#: (stage, FAR table it reads)
FAR_READERS = [
    ("clean", "far_raw.csv"),
    ("train", "far_training.csv"),
    ("explain", "far_labeled.csv"),
    ("evaluate", "far_labeled.csv"),
    ("impact", "far_labeled.csv"),
]
#: the (corruption, stage) cells that may exit 0, and why; every other cell exits 2 naming the table
FAR_MAY_PASS = {
    **{("nul", stage): "the NUL lands in a vehicle id, which is free text" for stage, _ in FAR_READERS},
    **{("crlf", stage): "the csv module reads CRLF line ends" for stage, _ in FAR_READERS},
    **{
        ("negative-distance", stage): "a finite distance is a number; clean's quality filter drops it from "
        "far_raw.csv, and only impact reads the distance of a cleaned table"
        for stage, _ in FAR_READERS
    },
    **{
        ("header-only", stage): "a header-only table is a valid empty table (train needs rows)"
        for stage in ("clean", "explain", "evaluate", "impact")
    },
    ("inf-distance", "clean"): "far_raw.csv may hold non-finite fixed cells, such as an infinite avg fuel on a "
    "day under 5 km, which quality_filter drops; the stages after clean refuse them",
    ("1e400-distance", "clean"): "1e400 reads as inf; see inf-distance",
}

EXPLANATION_CORRUPTIONS = _corruptions(b"date_tx", "y_diff", "saving")
#: (stage, explanation table it reads)
EXPLANATION_READERS = [
    ("evaluate", "explanations.csv"),
    ("impact", "explanations.csv"),
    ("evaluate", "explanations_prefilter.csv"),
]
#: the corruptions that may exit 0 in every explanation reader, and why; every other cell exits 2 naming the table
EXPLANATION_MAY_PASS = {
    "nul": "the NUL lands in a vehicle id, which is free text",
    "crlf": "the csv module reads CRLF line ends",
    "header-only": "a header-only table is a valid table without rows: no day had a saving",
    "negative-saving": "a finite saving is a number: the reader checks that numbers are finite, not their sign, "
    "which explain's own rows have by construction",
}


def _spec_edit(where, **changes):
    """An edit of a synth spec's JSON object that updates the node ``where`` leads to with ``changes``."""

    def edit(spec):
        node = spec
        for step in where:
            node = node[step]
        node.update(changes)

    return edit


def _zero_weights(spec):
    for group in spec["groups"]:
        group["weight"] = 0


def _repeat_name(spec):
    spec["features"][1]["name"] = spec["features"][0]["name"]


class TestCorruptInputs:
    """A corrupt artifact exits 2 with a message naming it, not 3 with a traceback."""

    @pytest.mark.parametrize("how", list(FAR_CORRUPTIONS))
    @pytest.mark.parametrize("stage, table", FAR_READERS)
    def test_far_matrix(self, finished_run, tmp_path, capsys, stage, table, how):
        out, cfg = self._copy(finished_run, tmp_path)
        FAR_CORRUPTIONS[how](out / table)
        capsys.readouterr()
        code = run(stage, "--config", cfg, "--out", str(out))
        err = capsys.readouterr().err
        assert code in ((0, 2) if (how, stage) in FAR_MAY_PASS else (2,)), err
        assert "Traceback" not in err
        if code == 2:
            assert str(out / table) in err
        self._names_repeat(how, out / table, err)

    @pytest.mark.parametrize("how", list(EXPLANATION_CORRUPTIONS))
    @pytest.mark.parametrize("stage, table", EXPLANATION_READERS)
    def test_explanation_matrix(self, finished_run, tmp_path, capsys, stage, table, how):
        out, cfg = self._copy(finished_run, tmp_path)
        EXPLANATION_CORRUPTIONS[how](out / table)
        capsys.readouterr()
        code = run(stage, "--config", cfg, "--out", str(out))
        err = capsys.readouterr().err
        assert code in ((0, 2) if how in EXPLANATION_MAY_PASS else (2,)), err
        assert "Traceback" not in err
        if code == 2:
            assert str(out / table) in err
        self._names_repeat(how, out / table, err)

    @staticmethod
    def _names_repeat(how, path, err):
        """A repeated row is refused on its own line, the file's last, naming line 3."""
        if how == "repeated-row":
            last = len(path.read_bytes().splitlines())
            assert f"{path}: line {last}: vehicle-day " in err and "repeats line 3" in err, err

    # the matrix puts inf and 1e400 on y_diff; these reach the per-day and the value columns
    @pytest.mark.parametrize("column, text", [("avg_fuel_consumption", "nan"), ("feature_value", "-inf")])
    @pytest.mark.parametrize("stage, table", EXPLANATION_READERS)
    def test_non_finite_explanation_cell(self, finished_run, tmp_path, capsys, stage, table, column, text):
        out, cfg = self._copy(finished_run, tmp_path)
        _corrupt_cell(out / table, 3, column, text)
        self._fails_naming(capsys, stage, cfg, out, f"{out / table}: line 3: {column} is not finite")

    @pytest.mark.parametrize("channel", ["TripFuel", "PerTimeCity", "count_jackrabbit", "mean_forward_acc"])
    def test_feed_sum_overflow(self, finished_run, tmp_path, capsys, channel):
        out, cfg = self._copy(finished_run, tmp_path)
        feed = tmp_path / "my_feed.csv"
        lines = (out / "feed.csv").read_text().splitlines(keepends=True)
        time_tx, vehicle, _, _ = lines[1].split(",")
        lines += [f"{time_tx},{vehicle},{channel},1e308\n"] * 2
        feed.write_text("".join(lines))
        cfg = _config_with_paths(cfg, tmp_path, feed=feed)
        before = (out / "far_raw.csv").read_bytes()
        self._fails_naming(capsys, "ingest", cfg, out, str(feed), vehicle, time_tx[:10], repr(channel), "overflows")
        assert (out / "far_raw.csv").read_bytes() == before

    def _copy(self, finished_run, tmp_path):
        out, cfg = finished_run
        copy = tmp_path / "out"
        shutil.copytree(out, copy)
        return copy, cfg

    def _fails_naming(self, capsys, stage, cfg, out, *names):
        capsys.readouterr()
        assert run(stage, "--config", cfg, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        for name in names:
            assert name in err

    def test_far_labeled_bad_cell(self, finished_run, tmp_path, capsys):
        out, cfg = self._copy(finished_run, tmp_path)
        _corrupt_cell(out / "far_labeled.csv", 6, "avg_fuel_consumption", "seven")
        self._fails_naming(capsys, "explain", cfg, out, "far_labeled.csv", "line 6")

    @pytest.mark.parametrize("text", ["", "nan", "inf"], ids=["blank", "nan", "inf"])
    @pytest.mark.parametrize("stage, table", [("train", "far_training.csv"), ("explain", "far_labeled.csv")])
    def test_far_feature_cell(self, finished_run, tmp_path, capsys, stage, table, text):
        out, cfg = self._copy(finished_run, tmp_path)
        _corrupt_cell(out / table, 6, "rpm_high", text)
        self._fails_naming(capsys, stage, cfg, out, table, "line 6", "'rpm_high'")

    @pytest.mark.parametrize(
        "how",
        [
            "truncated", "no-features", "version", "unordered-cuts", "nan-cut", "string-cut", "inf-value", "bool-value",
            "bogus-kind", "int-name", "int-origin", "numeric-level", "list-level", "unknown-origin",
            "unregistered-numeric",
        ],
    )
    def test_model_json(self, finished_run, tmp_path, capsys, how):
        out, cfg = self._copy(finished_run, tmp_path)
        path = out / "model.json"
        text = path.read_text()
        if how == "truncated":
            path.write_text(text[: len(text) // 3])
        else:
            data = json.loads(text)
            feature = next(f for f in data["features"] if len(f["cuts"]) >= 2)
            indicator = next(f for f in data["features"] if f["kind"] == "indicator")
            if how == "version":
                data["version"] = 1
            elif how == "no-features":
                del data["features"]
            elif how == "unordered-cuts":
                feature["cuts"].reverse()
            elif how == "nan-cut":
                feature["cuts"][0] = math.nan
            elif how == "string-cut":
                feature["cuts"][0] = str(feature["cuts"][0])
            elif how == "inf-value":
                feature["values"][0] = math.inf
            elif how == "bogus-kind":
                feature["kind"] = "bogus"
            elif how == "int-name":
                feature["name"] = 5
            elif how == "int-origin":
                feature["origin"] = 5
            elif how == "numeric-level":
                feature["level"] = "1"
            elif how == "list-level":
                indicator["level"] = [1]
            elif how == "unknown-origin":
                indicator["origin"] = "rpm_high"
            elif how == "unregistered-numeric":
                data["features"][0]["name"] = "zzz"
            else:
                feature["values"][0] = True
            path.write_text(json.dumps(data))
        named = ["'zzz'"] if how == "unregistered-numeric" else []
        self._fails_naming(capsys, "explain", cfg, out, "model.json", *named)

    @pytest.mark.parametrize(
        "key, value",
        [("learning_rate", 0.0), ("max_bins", 1), ("validation_fraction", 0.5), ("max_leaves", 1), ("bags", 0),
         ("max_rounds", 0), ("patience", 0)],
    )
    def test_train_config_bound(self, finished_run, tmp_path, capsys, key, value):
        out, cfg = self._copy(finished_run, tmp_path)
        config = json.loads(Path(cfg).read_text())
        config["train"][key] = value
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        before = (out / "model.json").read_bytes()
        self._fails_naming(capsys, "train", str(cfg), out, key)
        assert (out / "model.json").read_bytes() == before

    @pytest.mark.parametrize("fraction", [0, 1.5, -1])
    def test_split_fraction_bound(self, finished_run, tmp_path, capsys, fraction):
        out, cfg = self._copy(finished_run, tmp_path)
        config = json.loads(Path(cfg).read_text())
        config["split"]["fraction"] = fraction
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        # checked with the config, before the training table is read
        (out / "far_training.csv").unlink()
        self._fails_naming(capsys, "train", str(cfg), out, "split.fraction")

    @pytest.mark.parametrize("how", ["truncated", "not-object"])
    def test_train_metrics_json(self, finished_run, tmp_path, capsys, how):
        out, cfg = self._copy(finished_run, tmp_path)
        path = out / "train_metrics.json"
        path.write_text(path.read_text()[:100] if how == "truncated" else "[]")
        self._fails_naming(capsys, "evaluate", cfg, out, str(path))

    def test_explanations_bad_cell(self, finished_run, tmp_path, capsys):
        out, cfg = self._copy(finished_run, tmp_path)
        _corrupt_cell(out / "explanations.csv", 3, "y_diff", "0.1.2")
        self._fails_naming(capsys, "impact", cfg, out, "explanations.csv", "line 3")

    @pytest.mark.parametrize(
        "column, text", [("lim_sup", "high"), ("borrowed_flag", "maybe")], ids=["lim_sup", "borrowed_flag"]
    )
    def test_limits_bad_cell(self, finished_run, tmp_path, capsys, column, text):
        out, cfg = self._copy(finished_run, tmp_path)
        _corrupt_cell(out / "limits.csv", 2, column, text)
        self._fails_naming(capsys, "explain", cfg, out, "limits.csv", "line 2", f"column {column!r}")

    @pytest.mark.parametrize(
        "stage, table, line, column, text",
        [
            ("evaluate", "identities.csv", 3, "vehicle_group", "bad"),
            ("evaluate", "catalog.csv", 2, "l_per_100km", "bad"),
        ],
    )
    def test_table_artifact_bad_cell(self, finished_run, tmp_path, capsys, stage, table, line, column, text):
        out, cfg = self._copy(finished_run, tmp_path)
        _corrupt_cell(out / table, line, column, text)
        self._fails_naming(capsys, stage, cfg, out, table, f"line {line}", f"column {column!r}")

    @pytest.mark.parametrize(
        "stage, key, packaged, line, column, text",
        [
            ("clean", "class_table", "vehicle_classes.csv", 4, "l100km_max", "wide"),
            ("evaluate", "sota_limits", "sota_limits.csv", 5, "min_pct", "low"),
            ("clean", "registry", "feature_registry.csv", 7, "actionable", "maybe"),
        ],
    )
    def test_config_table_bad_cell(self, finished_run, tmp_path, capsys, stage, key, packaged, line, column, text):
        out, cfg = self._copy(finished_run, tmp_path)
        table = tmp_path / f"my_{packaged}"
        table.write_text(resources.files("fleetfuel.data").joinpath(packaged).read_text(encoding="utf-8"))
        _corrupt_cell(table, line, column, text)
        cfg = _config_with_paths(cfg, tmp_path, **{key: table})
        self._fails_naming(capsys, stage, cfg, out, table.name, f"line {line}", f"column {column!r}")

    @pytest.mark.parametrize("text", ["nan", "inf", "1e400"])
    @pytest.mark.parametrize(
        "stage, name, config_key, column",
        [
            ("explain", "limits.csv", None, "lim_sup"),
            ("evaluate", "limits.csv", None, "lim_sup"),
            ("evaluate", "catalog.csv", None, "l_per_100km"),
            ("evaluate", "sota_limits.csv", "sota_limits", "max_pct"),
        ],
        ids=["limits-explain", "limits-evaluate", "catalog", "sota_limits"],
    )
    def test_config_table_non_finite(self, finished_run, tmp_path, capsys, stage, name, config_key, column, text):
        """A float cell of a table read through read_table must be finite, whatever the file."""
        out, cfg = self._copy(finished_run, tmp_path)
        if config_key is None:
            table = out / name
        else:
            table = tmp_path / f"my_{name}"
            table.write_text(resources.files("fleetfuel.data").joinpath(name).read_text(encoding="utf-8"))
            cfg = _config_with_paths(cfg, tmp_path, **{config_key: table})
        _corrupt_cell(table, 3, column, text)
        self._fails_naming(capsys, stage, cfg, out, str(table), "line 3", f"column {column!r}")

    @pytest.mark.parametrize("how", ["truncated", "unknown-key", "not-object"])
    def test_synth_spec(self, finished_run, tmp_path, capsys, how):
        out, cfg = self._copy(finished_run, tmp_path)
        spec = tmp_path / "my_spec.json"
        text = (out / "synth_spec.json").read_text()
        bad = {"truncated": text[: len(text) // 2], "unknown-key": '{"seed": 1, "bogus": 2}', "not-object": "[1, 2]"}
        spec.write_text(bad[how])
        cfg = _config_with_paths(cfg, tmp_path, synth_spec=spec)
        self._fails_naming(capsys, "synth", cfg, out, str(spec))

    @pytest.mark.parametrize(
        "where, key, value",
        [
            ((), "n_days", "3"),
            ((), "noise_sigma", True),
            ((), "route_mix", {"city": "0.3"}),
            (("groups", 0), "base_fuel", "8.0"),
            (("features", 0), "cuts", ["40", 80, 150]),
            (("features", 0), "integer", 1),
            (("features", 8), "high", 10**400),
        ],
        ids=[
            "str-for-int", "bool-for-float", "str-in-route-mix", "str-for-group-float", "str-cut", "int-for-bool",
            "int-beyond-float",
        ],
    )
    def test_synth_spec_value_type(self, finished_run, tmp_path, capsys, where, key, value):
        out, cfg = self._copy(finished_run, tmp_path)
        spec = json.loads((out / "synth_spec.json").read_text())
        _spec_edit(where, **{key: value})(spec)
        path = tmp_path / "my_spec.json"
        path.write_text(json.dumps(spec))
        cfg = _config_with_paths(cfg, tmp_path, synth_spec=path)
        self._fails_naming(capsys, "synth", cfg, out, str(path), repr(key))

    @pytest.mark.parametrize(
        "edit, words",
        [
            (_spec_edit((), route_mix={"city": -0.3, "combined": 0.3, "highway": 1.0}), "route_mix"),
            (_spec_edit((), route_mix={"city": 0.0, "combined": 0.0, "highway": 0.0}), "route_mix"),
            (_spec_edit((), route_mix={}), "route_mix"),
            (_spec_edit((), route_mix={"city": 0.5, "gravel": 0.5}), "'gravel'"),
            (_zero_weights, "weights"),
            (_spec_edit(("groups", 0), weight=-1.0), "weight"),
            (_spec_edit(("features", 0), low=500), "above high"),
            (_spec_edit(("features", 0), cuts=[], values=[0.0]), "driver"),
            (_spec_edit((), start_date="2021-13-45"), "start_date"),
            (_spec_edit((), n_vehicles=0), "n_vehicles"),
            (_spec_edit((), n_days=0), "n_days"),
            (_spec_edit((), n_days=-2), "n_days"),
            (_repeat_name, "duplicate feature name"),
            (_spec_edit(("features", 0), aggregator="median"), "aggregator"),
            (_spec_edit((), noise_sigma=math.nan), "noise_sigma"),
            (_spec_edit((), seed=-1), "seed"),
            (_spec_edit(("features", 8), low=-1e308, high=1e308), "cannot draw uniformly from -1e+308 to 1e+308"),
            (_spec_edit(("features", 0), cuts=[40, 80, 250]), "cannot draw uniformly from 250 to 200"),
        ],
        ids=[
            "negative-route", "zero-routes", "no-routes", "unknown-route", "zero-weights", "negative-weight",
            "low-above-high", "driver-without-cuts", "bad-date", "no-vehicles", "no-days", "negative-days",
            "duplicate-feature", "unknown-aggregator", "nan-noise", "negative-seed", "overflowing-range",
            "top-cut-above-high",
        ],
    )
    def test_synth_spec_bad_value(self, finished_run, tmp_path, capsys, edit, words):
        out, cfg = self._copy(finished_run, tmp_path)
        spec = json.loads((out / "synth_spec.json").read_text())
        edit(spec)
        path = tmp_path / "my_spec.json"
        path.write_text(json.dumps(spec))
        cfg = _config_with_paths(cfg, tmp_path, synth_spec=path)
        self._fails_naming(capsys, "synth", cfg, out, str(path), words)

    @pytest.mark.parametrize(
        "stage, name",
        [
            ("ingest", "feed.csv"),
            ("explain", "far_labeled.csv"),
            ("impact", "far_labeled.csv"),
            ("impact", "explanations.csv"),
            ("evaluate", "explanations_prefilter.csv"),
            ("evaluate", "identities.csv"),
        ],
    )
    def test_not_utf8(self, finished_run, tmp_path, capsys, stage, name):
        out, cfg = self._copy(finished_run, tmp_path)
        path = out / name
        lines = path.read_bytes().split(b"\n")
        lines[2] = b"\xff" + lines[2]
        path.write_bytes(b"\n".join(lines))
        self._fails_naming(capsys, stage, cfg, out, str(path), "not UTF-8")

    def test_vin_map_short_row(self, finished_run, tmp_path, capsys):
        out, cfg = self._copy(finished_run, tmp_path)
        table = tmp_path / "my_vin_map.csv"
        lines = (out / "vin_map.csv").read_text().splitlines()
        lines[1] = ",".join(lines[1].split(",")[:3])
        table.write_text("\n".join(lines) + "\n")
        cfg = _config_with_paths(cfg, tmp_path, vin_map=table)
        self._fails_naming(capsys, "ingest", cfg, out, table.name, "line 2")

    @pytest.mark.parametrize(
        "header",
        ["time_tx,vehicle,variable_id,variable_value\n", "", "time_tx,vehicle_id,variable_id,variable_value,vehicle_id\n"],
        ids=["vehicle-header", "empty", "duplicated-column"],
    )
    def test_feed_header(self, finished_run, tmp_path, capsys, header):
        out, cfg = self._copy(finished_run, tmp_path)
        feed = tmp_path / "my_feed.csv"
        rows = (out / "feed.csv").read_text().splitlines(keepends=True)[1:4]
        feed.write_text(header + "".join(rows) if header else "")
        cfg = _config_with_paths(cfg, tmp_path, feed=feed)
        self._fails_naming(capsys, "ingest", cfg, out, str(feed))

    def test_feed_field_over_csv_limit(self, finished_run, tmp_path, capsys):
        out, cfg = self._copy(finished_run, tmp_path)
        feed = tmp_path / "my_feed.csv"
        lines = (out / "feed.csv").read_text().splitlines(keepends=True)[:4]
        time_tx, vehicle, variable, _ = lines[1].split(",")
        # the csv module refuses fields over 131,072 characters
        lines.append(",".join([time_tx, vehicle, variable, "1" * 140_000]) + "\n")
        feed.write_text("".join(lines))
        cfg = _config_with_paths(cfg, tmp_path, feed=feed)
        self._fails_naming(capsys, "ingest", cfg, out, str(feed), "line 5")

    def test_manifest_not_json(self, finished_run, tmp_path, capsys):
        out, cfg = self._copy(finished_run, tmp_path)
        manifest = out / "manifest.json"
        text = manifest.read_text()
        manifest.write_text(text[: len(text) // 2])
        self._fails_naming(capsys, "clean", cfg, out, str(manifest))
        # refused before the stage ran: nothing rewrote the manifest
        assert manifest.read_text() == text[: len(text) // 2]

    @pytest.mark.parametrize("stages", [[], "x", None], ids=["list", "string", "null"])
    @pytest.mark.parametrize("stage", ["ingest", "explain", "evaluate"])
    def test_manifest_stages_not_object(self, finished_run, tmp_path, capsys, stage, stages):
        out, cfg = self._copy(finished_run, tmp_path)
        manifest = out / "manifest.json"
        data = json.loads(manifest.read_text())
        data["stages"] = stages
        manifest.write_text(json.dumps(data))
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        self._fails_naming(capsys, stage, cfg, out, str(manifest), "stages")
        # refused before the stage ran: no output was rewritten
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    @pytest.mark.parametrize("stage, key", [("ingest", "feed"), ("ingest", "registry"), ("synth", "synth_spec")])
    def test_directory_for_config_path(self, finished_run, tmp_path, capsys, stage, key):
        out, cfg = self._copy(finished_run, tmp_path)
        folder = tmp_path / key
        folder.mkdir()
        cfg = _config_with_paths(cfg, tmp_path, **{key: folder})
        self._fails_naming(capsys, stage, cfg, out, f"not a file: {folder}")

    def test_directory_for_artifact(self, finished_run, tmp_path, capsys):
        out, cfg = self._copy(finished_run, tmp_path)
        (out / "model.json").unlink()
        (out / "model.json").mkdir()
        self._fails_naming(capsys, "explain", cfg, out, f"not a file: {out / 'model.json'}")

    @pytest.mark.parametrize("stage", ["ingest", "explain"])
    def test_directory_for_config(self, tmp_path, capsys, stage):
        capsys.readouterr()
        assert run(stage, "--config", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and f"not a file: {tmp_path}" in err

    @pytest.mark.parametrize("stage", ["synth", "ingest"])
    def test_file_for_out_dir(self, finished_run, tmp_path, capsys, stage):
        _, cfg = finished_run
        target = tmp_path / "out"
        target.write_text("not a directory")
        self._fails_naming(capsys, stage, cfg, target, f"output directory is not a directory: {target}")
        assert target.read_text() == "not a directory"

    @pytest.mark.parametrize(
        "stage, name, config_key, key",
        [
            ("explain", "limits.csv", None, "limits of group "),
            ("evaluate", "identities.csv", None, "vehicle '"),
            ("ingest", "vin_map.csv", "vin_map", "vin_prefix '"),
            ("evaluate", "sota_limits.csv", "sota_limits", "limits of "),
        ],
    )
    def test_keyed_table_repeated_key(self, finished_run, tmp_path, capsys, stage, name, config_key, key):
        """A keyed table that repeats its first row's key is refused on the repeat, naming line 2."""
        out, cfg = self._copy(finished_run, tmp_path)
        if name == "sota_limits.csv":
            text = resources.files("fleetfuel.data").joinpath(name).read_text(encoding="utf-8")
        else:
            text = (out / name).read_text(encoding="utf-8")
        lines = text.splitlines(keepends=True)
        table = out / name if config_key is None else tmp_path / f"my_{name}"
        table.write_text("".join(lines + [lines[1]]), encoding="utf-8")
        if config_key is not None:
            cfg = _config_with_paths(cfg, tmp_path, **{config_key: table})
        repeat = f"line {len(lines) + 1}: duplicate {key}"
        self._fails_naming(capsys, stage, cfg, out, str(table), repeat, "(first on line 2)")

    def test_registry_duplicate_feature(self, finished_run, tmp_path, capsys):
        out, cfg = self._copy(finished_run, tmp_path)
        table = tmp_path / "my_registry.csv"
        lines = resources.files("fleetfuel.data").joinpath("feature_registry.csv").read_text(encoding="utf-8")
        lines = lines.splitlines(keepends=True)
        table.write_text("".join(lines + [lines[3]]))
        cfg = _config_with_paths(cfg, tmp_path, registry=table)
        name = lines[3].split(",")[0]
        self._fails_naming(
            capsys, "ingest", cfg, out, table.name, f"line {len(lines) + 1}", f"duplicate feature name {name!r}"
        )


def _config_with_paths(cfg: str, tmp_path, **paths) -> str:
    config = json.loads(Path(cfg).read_text(encoding="utf-8"))
    config["paths"].update({key: str(value) for key, value in paths.items()})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return str(path)
