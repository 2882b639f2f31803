"""Config round-trip, ingestion validation, and CLI subcommand flows."""

import csv
import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

from hdsdm import csvio
from hdsdm.cli import _load_samples, main
from hdsdm.config import (
    EFFECT_KEYS,
    MODEL_KEYS,
    RunConfig,
    build_model,
    build_settings,
    ingest,
    read_point_cloud,
)
from hdsdm.exceptions import ValidationError
from hdsdm.mcmc import KERNELS, McmcSettings, fit
from hdsdm.model import assemble


def write_dataset(path: Path, n=240, seed=0):
    rng = np.random.default_rng(seed)
    x1 = rng.uniform(0.0, 1.0, n)
    vessel = rng.integers(1, 3, n)
    year = rng.integers(2000, 2012, n)
    eta = -0.3 + 1.2 * (x1 - 0.5) / np.sqrt(1 / 12) + np.where(vessel == 1, 0.4, -0.4)
    y = (rng.uniform(size=n) < 1 / (1 + np.exp(-eta))).astype(int)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["present", "sst", "vessel", "year"])
        for i in range(n):
            w.writerow([y[i], f"{x1[i]:.6f}", vessel[i], year[i]])
    return y, year


def base_config(data_path="data.csv", output="out"):
    return {
        "data": {"path": data_path, "response": "present", "year": "year"},
        "supports": {
            "sst": {"kind": "interval", "lower": 0.0, "upper": 1.0},
            "vessel": {"kind": "levels", "n": 2},
            "year": {"kind": "levels", "n": 12, "offset": 1999},
        },
        "model": {
            "intercept": True,
            "effects": [
                {"id": "sst", "kind": "pspline", "covariate": "sst", "n_basis": 12,
                 "side": "abiotic"},
                {"id": "vessel", "kind": "iid", "covariate": "vessel", "side": "abiotic"},
                {"id": "temporal", "kind": "rw1", "covariate": "year", "side": "biotic",
                 "group": "temporal"},
            ],
            "priors": {
                "total_variance": {"family": "jeffreys"},
                "abiotic_vs_biotic": {"family": "uniform"},
                "covariates": {"family": "dirichlet", "q": 0.5},
                "flex_splits": {"family": "pc0", "lam": 0.1},
            },
        },
        "mcmc": {"chains": 2, "iterations": 600, "burn_in": 300, "thinning": 3,
                 "seed": 5},
        "split": {"train_max_year": 2008},
        "output": output,
    }


# faulty mcmc sections, each with the message it is rejected with as the
# config is loaded, whichever command loads it
MCMC_FAULTS = [
    ({"burnin": 100}, "config mcmc section has unknown keys: ['burnin']"),
    ([1, 2], "config mcmc section must be a JSON object, got [1, 2]"),
    ({"burn_in": 1.5}, "config mcmc section: 'burn_in' must be an integer, got 1.5"),
    ({"seed": "5"}, "config mcmc section: 'seed' must be an integer, got '5'"),
]
MCMC_FAULT_IDS = ["unknown_key", "list", "fraction", "text"]


@pytest.fixture
def workdir(tmp_path):
    write_dataset(tmp_path / "data.csv")
    cfg = RunConfig.from_dict(base_config())
    cfg.save(tmp_path / "config.json")
    return tmp_path


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestConfig:
    def test_round_trip_identity(self, tmp_path):
        cfg = RunConfig.from_dict(base_config())
        cfg.save(tmp_path / "c.json")
        assert RunConfig.load(tmp_path / "c.json") == cfg

    def test_missing_support_rejected(self):
        raw = base_config()
        del raw["supports"]["sst"]
        with pytest.raises(ValidationError):
            RunConfig.from_dict(raw)

    def test_unknown_section_rejected(self):
        raw = base_config()
        raw["extra"] = {}
        with pytest.raises(ValidationError):
            RunConfig.from_dict(raw)

    def test_build_model_resolves_priors(self, workdir):
        cfg = RunConfig.load(workdir / "config.json")
        model = build_model(cfg, workdir)
        assert "sst_flex" in model.priors
        assert model.priors["sst_flex"].family == "pc0"
        assert model.tree.n_leaves == 4

    def test_flex_splits_default_checked_without_a_flex_split(self, tmp_path):
        # without the sst effect the tree has no *_flex split to take the default
        raw = base_config()
        del raw["model"]["effects"][0], raw["model"]["priors"]["covariates"]
        assert "flex_splits" not in build_model(RunConfig.from_dict(raw), tmp_path).priors
        raw["model"]["priors"]["flex_splits"] = {"family": "uniform", "q": 0.5, "bogus": 1}
        with pytest.raises(ValidationError, match=re.escape(
                "prior 'flex_splits': family 'uniform' takes no parameters, not ['q', 'bogus']")):
            build_model(RunConfig.from_dict(raw), tmp_path)

    def test_flex_splits_default_is_copied_under_each_split(self, workdir):
        raw = base_config()
        raw["model"]["effects"][1]["group"] = "sst"  # sst_lin, sst_nonlin and vessel
        del raw["model"]["priors"]["covariates"]  # sst is now the one abiotic group
        raw["model"]["priors"]["flex_splits"] = {"family": "pc0", "U": 0.2, "alpha": 0.5}
        priors = build_model(RunConfig.from_dict(raw), workdir).priors
        flex = {node: spec for node, spec in priors.items() if "_flex" in node}
        assert sorted(flex) == ["sst_flex", "sst_flex2"]
        assert all(spec.node == node and spec.params == flex["sst_flex"].params
                   for node, spec in flex.items())

    def test_build_settings_override(self, workdir):
        cfg = RunConfig.load(workdir / "config.json")
        assert build_settings(cfg).seed == 5
        assert build_settings(cfg, seed_override=9).seed == 9

    @pytest.mark.parametrize("key, bad", [("thinning", 0), ("chains", True),
                                          ("burn_in", 600)])  # iterations is 600
    def test_build_settings_rejects_breaking_values(self, key, bad):
        # a value that is not an integer is rejected as the config is loaded
        message = {"thinning": r"^thinning must be >= 1$",
                   "chains": r"^config mcmc section: 'chains' must be an integer, got True$",
                   "burn_in": r"^need iterations > burn_in >= 0$"}[key]
        raw = base_config()
        raw["mcmc"][key] = bad
        with pytest.raises(ValidationError, match=message):
            build_settings(RunConfig.from_dict(raw))

    @pytest.mark.parametrize("mcmc, message", MCMC_FAULTS, ids=MCMC_FAULT_IDS)
    def test_mcmc_section_checked_at_load(self, tmp_path, mcmc, message):
        raw = base_config()
        raw["mcmc"] = mcmc
        (tmp_path / "config.json").write_text(json.dumps(raw))
        with pytest.raises(ValidationError) as err:
            RunConfig.load(tmp_path / "config.json")
        assert str(err.value) == message

    @pytest.mark.parametrize("entry, key", [(0, "nbasis"), (0, "covariates"),
                                            (2, "priors")])
    def test_unknown_effect_key_rejected(self, entry, key):
        # a misspelt key would otherwise build the default silently
        raw = base_config()
        effect = raw["model"]["effects"][entry]
        effect[key] = 8
        with pytest.raises(ValidationError,
                           match=rf"effect '{effect['id']}' has unknown keys: \['{key}'\]"):
            RunConfig.from_dict(raw)

    def test_effect_without_its_column_rejected(self):
        raw = base_config()
        raw["model"]["effects"][1]["support"] = raw["model"]["effects"][1].pop("covariate")
        with pytest.raises(ValidationError, match="effect 'vessel' is missing 'covariate'"):
            RunConfig.from_dict(raw)

    def test_key_sets_are_the_keys_build_model_reads(self, tmp_path):
        # build_model reads every key that MODEL_KEYS and EFFECT_KEYS accept
        # (but "intercept", which it need not read), and no other
        class Recording(dict):
            def __getitem__(self, key):
                read.add(key)
                return super().__getitem__(key)

            def get(self, key, default=None):
                read.add(key)
                return super().get(key, default)

        (tmp_path / "cloud.csv").write_text("0.0,0.0\n1.0,0.0\n0.0,1.0\n1.0,1.0\n0.5,0.5\n")
        raw = base_config()
        raw["supports"]["cloud"] = {"kind": "point_cloud", "path": "cloud.csv"}
        raw["model"]["priors"]["spatial_vs_temporal"] = {"family": "uniform"}
        entries = [
            ({"id": "sst2", "kind": "pspline", "covariate": "sst", "support": "sst",
              "n_basis": 9, "side": "abiotic", "group": None}, "covariate"),
            ({"id": "space", "kind": "spatial2d", "covariates": ["lon", "lat"],
              "support": "cloud", "n_basis": [3, 3], "side": "biotic", "group": "spatial"},
             "covariates"),
        ]
        raw["model"]["effects"] += [entry for entry, _ in entries]
        cfg = RunConfig.from_dict(raw)
        read = set()  # the validation of a new config reads keys too
        for k, (entry, column) in enumerate(entries, start=3):
            assert set(entry) == EFFECT_KEYS | {column}
            effects = list(cfg.model["effects"])
            effects[k] = Recording(entry)
            one = dataclasses.replace(cfg, model={**cfg.model, "effects": effects})
            read = set()
            build_model(one, tmp_path)
            assert read == EFFECT_KEYS | {column}
        whole = dataclasses.replace(cfg, model=Recording(cfg.model))
        read = set()
        build_model(whole, tmp_path)
        assert read | {"intercept"} == MODEL_KEYS

    def test_role_is_an_unknown_effect_key(self):
        # it filed a main effect under an interactions split
        raw = base_config()
        raw["model"]["effects"][0]["role"] = "interaction"
        with pytest.raises(ValidationError,
                           match=r"^effect 'sst' has unknown keys: \['role'\]$"):
            RunConfig.from_dict(raw)

    @pytest.mark.parametrize("key", ["mu_prior_sd", "effect"])
    def test_unknown_model_key_rejected(self, key):
        raw = base_config()
        raw["model"][key] = 10.0
        with pytest.raises(ValidationError, match=rf"model section has unknown keys: \['{key}'\]"):
            RunConfig.from_dict(raw)

    @pytest.mark.parametrize("value", [False, 0, 1, "true", None])
    def test_intercept_can_only_be_true(self, value):
        raw = base_config()
        raw["model"]["intercept"] = value
        with pytest.raises(ValidationError, match="intercept must be true"):
            RunConfig.from_dict(raw)
        del raw["model"]["intercept"]
        assert build_model(RunConfig.from_dict(raw)).effects

    def test_readme_config_example_loads(self):
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        example = re.search(r"```jsonc\n(.*?)```", text, re.S).group(1)
        raw = json.loads(re.sub(r"//[^\n]*", "", example))
        cfg = RunConfig.from_dict(raw)
        assert build_settings(cfg) == McmcSettings(chains=4, iterations=8000, burn_in=4000,
                                                   thinning=2, seed=1)

    @pytest.mark.parametrize("bad", [[8, 8], "x", 2.7, 8.0, 0, -3, True, None])
    def test_bad_n_basis_rejected(self, bad):
        raw = base_config()
        raw["model"]["effects"][0]["n_basis"] = bad
        with pytest.raises(ValidationError,
                           match=r"effect 'sst': n_basis must be a positive integer"):
            build_model(RunConfig.from_dict(raw))

    @pytest.mark.parametrize("bad", [8, [8], [8, 8, 8], [8, 2.5], [0, 8], ["8", 8],
                                     [8, True], "88"])
    def test_bad_spatial_n_basis_rejected(self, tmp_path, bad):
        (tmp_path / "cloud.csv").write_text("0.0,0.0\n1.0,1.0\n")
        raw = base_config()
        raw["supports"]["cloud"] = {"kind": "point_cloud", "path": "cloud.csv"}
        raw["model"]["effects"].append(
            {"id": "space", "kind": "spatial2d", "covariates": ["lon", "lat"],
             "support": "cloud", "n_basis": bad})
        raw["model"]["priors"]["spatial_vs_temporal"] = {"family": "uniform"}
        with pytest.raises(ValidationError,
                           match=r"effect 'space': n_basis must be a pair of positive integers"):
            build_model(RunConfig.from_dict(raw), tmp_path)

    @pytest.mark.parametrize("kind", ["linear", "iid", "rw1"])
    def test_n_basis_on_a_kind_without_a_basis_size_rejected(self, kind):
        # it would otherwise be ignored, as a misspelt key would build the default
        raw = base_config()
        raw["model"]["effects"].append(
            {"id": "x", "kind": kind, "covariate": "vessel", "n_basis": 8})
        with pytest.raises(ValidationError,
                           match=rf"^effect 'x': kind '{kind}' takes no 'n_basis'$"):
            RunConfig.from_dict(raw)

    def test_n_basis_defaults_and_pairs(self, tmp_path):
        (tmp_path / "cloud.csv").write_text("0.0,0.0\n1.0,1.0\n")
        raw = base_config()
        del raw["model"]["effects"][0]["n_basis"]
        raw["supports"]["cloud"] = {"kind": "point_cloud", "path": "cloud.csv"}
        raw["model"]["effects"].append(
            {"id": "space", "kind": "spatial2d", "covariates": ["lon", "lat"],
             "support": "cloud", "n_basis": [3, 4]})
        raw["model"]["priors"]["spatial_vs_temporal"] = {"family": "uniform"}
        decls = build_model(RunConfig.from_dict(raw), tmp_path).effects
        assert decls[0].n_basis == 20
        assert decls[-1].n_basis_2d == (3, 4)

    def test_point_cloud_reader(self, tmp_path):
        p = tmp_path / "cloud.csv"
        p.write_text("z1,z2\n0.0,0.5\n1.0,0.25\n")
        pts = read_point_cloud(p)
        np.testing.assert_allclose(pts, [[0.0, 0.5], [1.0, 0.25]])

    def test_point_cloud_reader_skips_blank_lines(self, tmp_path):
        p = tmp_path / "cloud.csv"
        p.write_text("z1,z2\n\n0.0,0.5\n\n\n1.0,0.25\n\n")
        np.testing.assert_array_equal(read_point_cloud(p), [[0.0, 0.5], [1.0, 0.25]])

    @pytest.mark.parametrize("text, line, fault", [
        ("z1,z2\n0.0,0.5\n0.0,0.0,7\n", 3, "3 fields, but a point has 2"),
        ("0.0,0.5\n\n1.0\n", 3, "1 fields, but a point has 2"),
        ("z1,z2\n1.0,nan\n", 2, "y='nan' is not a finite number"),
        ("0.5,inf\n", 1, "y='inf' is not a finite number"),
        ("z1,z2\n0.0,0.5\nx,0.5\n", 3, "cannot parse x='x' as a number"),
    ], ids=["long", "short", "nan", "inf", "text"])
    def test_point_cloud_reader_rejects_bad_rows(self, tmp_path, text, line, fault):
        p = tmp_path / "cloud.csv"
        p.write_text(text)
        with pytest.raises(ValidationError, match=rf"^{re.escape(str(p))}: line {line}: {fault}$"):
            read_point_cloud(p)


class TestTables:
    def test_writer_writes_what_csv_writes(self, tmp_path):
        header = ["plain", "a,b", 'q"x', "two\nlines", "cr\r"]
        columns = [["x", "y,z"], np.array([3, -4]), [0.1, 1e300], [np.nan, -np.inf],
                   ['"', ""]]
        csvio.write_table(tmp_path / "t.csv", header, *columns)
        with open(tmp_path / "want.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows([[c[i] if isinstance(c[i], str) else
                          "%d" % c[i] if isinstance(c[i], np.integer) else "%.17g" % c[i]
                          for c in columns] for i in range(2)])
        assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
        with open(tmp_path / "t.csv", newline="") as fh:
            assert next(csv.reader(fh)) == header


class TestIngest:
    def test_counts_and_split(self, workdir):
        cfg = RunConfig.load(workdir / "config.json")
        data = ingest("data.csv", cfg, workdir)
        assert data.n == 240
        raw_years = data.columns["year"] + 1999
        assert np.all(raw_years[data.train_mask] <= 2008)
        assert np.all(raw_years[~data.train_mask] > 2008)
        # levels offset applied
        assert data.columns["year"].min() >= 1

    def test_three_row_toy(self, tmp_path):
        (tmp_path / "toy.csv").write_text("present,sst,vessel,year\n0,0.5,1,2000\n1,0.2,2,2001\n1,0.9,1,2002\n")
        cfg = RunConfig.from_dict(base_config(data_path="toy.csv"))
        data = ingest("toy.csv", cfg, tmp_path)
        assert data.n == 3

    def test_nonbinary_response_names_line(self, tmp_path):
        (tmp_path / "bad.csv").write_text("present,sst,vessel,year\n0,0.5,1,2000\n2,0.2,1,2001\n")
        cfg = RunConfig.from_dict(base_config(data_path="bad.csv"))
        with pytest.raises(ValidationError, match="line 3"):
            ingest("bad.csv", cfg, tmp_path)

    def test_unparseable_value_names_line(self, tmp_path):
        (tmp_path / "bad.csv").write_text("present,sst,vessel,year\n0,oops,1,2000\n")
        cfg = RunConfig.from_dict(base_config(data_path="bad.csv"))
        with pytest.raises(ValidationError, match="line 2"):
            ingest("bad.csv", cfg, tmp_path)

    def test_missing_column(self, tmp_path):
        (tmp_path / "bad.csv").write_text("present,sst,year\n0,0.5,2000\n")
        cfg = RunConfig.from_dict(base_config(data_path="bad.csv"))
        with pytest.raises(ValidationError, match="vessel"):
            ingest("bad.csv", cfg, tmp_path)

    @pytest.mark.parametrize("row, message", [
        ("1,0.2,2", "line 3: 3 fields, but the header has 4"),
        ("1,0.2,2,2001,7", "line 3: 5 fields, but the header has 4"),
    ], ids=["short", "long"])
    def test_row_of_another_width_names_line_and_field_counts(self, tmp_path, row, message):
        (tmp_path / "bad.csv").write_text(f"present,sst,vessel,year\n0,0.5,1,2000\n{row}\n")
        cfg = RunConfig.from_dict(base_config(data_path="bad.csv"))
        with pytest.raises(ValidationError, match=message):
            ingest("bad.csv", cfg, tmp_path)

    def test_errors_name_the_physical_line_after_blank_lines(self, tmp_path):
        text = "present,sst,vessel,year\n0,0.5,1,2000\n\n\n{}\n"
        (tmp_path / "ok.csv").write_text(text.format("1,0.2,2,2001"))
        cfg = RunConfig.from_dict(base_config(data_path="ok.csv"))
        data = ingest("ok.csv", cfg, tmp_path)
        np.testing.assert_array_equal(data.y, [0.0, 1.0])
        np.testing.assert_array_equal(data.columns["sst"], [0.5, 0.2])
        (tmp_path / "bad.csv").write_text(text.format("2,0.2,2,2001"))
        cfg = RunConfig.from_dict(base_config(data_path="bad.csv"))
        with pytest.raises(ValidationError, match=rf"^{re.escape(str(tmp_path / 'bad.csv'))}: "
                                                  r"line 5: response present='2'"):
            ingest("bad.csv", cfg, tmp_path)

    def test_first_faulty_line_is_named(self, tmp_path):
        # each row is checked in file order, whatever the kind of fault
        rows = ["0,0.5,1,2000", "1,0.2,1,inf", "7,0.2,1,2001", "1,oops,1,2001"]
        (tmp_path / "bad.csv").write_text("present,sst,vessel,year\n" + "\n".join(rows))
        cfg = RunConfig.from_dict(base_config(data_path="bad.csv"))
        with pytest.raises(ValidationError, match=rf"^{re.escape(str(tmp_path / 'bad.csv'))}: "
                                                  r"line 3: year='inf' is not a finite"):
            ingest("bad.csv", cfg, tmp_path)


class TestCliFlow:
    def test_fit_predict_metrics_partition(self, workdir):
        cfg_path = str(workdir / "config.json")
        assert main(["fit", "--config", cfg_path]) == 0
        out = workdir / "out"
        manifest = json.loads((out / "manifest.json").read_text())
        timings = manifest["timings_s"]
        assert set(timings) == set(KERNELS)
        assert all(t >= 0.0 for t in timings.values())
        assert 1 <= manifest["chain_workers"] <= 2
        assert manifest["peak_rss_mb"] > 0.0
        assert manifest["peak_rss_children_mb"] >= 0.0
        if manifest["chain_workers"] > 1:  # a forked worker was reaped
            assert manifest["peak_rss_children_mb"] > 0.0
        assert (out / "tree.json").exists()
        samples = read_rows(out / "samples.csv")
        assert len(samples) == 2 * 100  # 2 chains, (600-300)/3 retained each
        assert {"V", "mu", "omega_abiotic_vs_biotic"} <= set(samples[0])

        assert main(["predict", "--config", cfg_path]) == 0
        preds = read_rows(out / "predictions.csv")
        assert all(0.0 <= float(r["p_hat"]) <= 1.0 for r in preds)

        assert main(["metrics", "--config", cfg_path]) == 0
        m = read_rows(out / "metrics.csv")[0]
        assert set(m) == {"loglik", "brier", "tjur_r2", "accuracy"}
        assert 0.0 <= float(m["brier"]) <= 0.3

        assert main(["partition", "--config", cfg_path]) == 0
        rows = read_rows(out / "phi_mean.csv")
        assert {r["group"] for r in rows} == {"sst", "vessel", "temporal"}
        assert sum(float(r["phi_mean"]) for r in rows) == pytest.approx(1.0, abs=1e-9)

    def test_draw_files_round_trip_exactly(self, workdir):
        cfg_path = workdir / "config.json"
        assert main(["fit", "--config", str(cfg_path)]) == 0
        cfg = RunConfig.load(cfg_path)
        result = fit(build_model(cfg, workdir), ingest("data.csv", cfg, workdir),
                     build_settings(cfg))
        out = workdir / "out"
        loaded = _load_samples(out, result.assembled)
        np.testing.assert_array_equal(loaded.mu, result.mu)
        assert loaded.coefficients.keys() == result.coefficients.keys()
        for leaf, draws in result.coefficients.items():
            np.testing.assert_array_equal(loaded.coefficients[leaf], draws)
        for name in ("samples.csv", "coefficients.csv"):
            raw = (out / name).read_bytes()
            assert raw.count(b"\n") == raw.count(b"\r\n") == len(read_rows(out / name)) + 1

    def test_sound_rows_np_loadtxt_cannot_read_are_converted(self, workdir):
        # quoted cells make np.loadtxt fail and a blank first row makes it warn;
        # the converter reads the same values
        cfg_path = workdir / "config.json"
        assert main(["fit", "--config", str(cfg_path)]) == 0
        assembled = assemble(build_model(RunConfig.load(cfg_path), workdir), None)
        out = workdir / "out"
        written = _load_samples(out, assembled)
        for name in ("samples.csv", "coefficients.csv"):
            with open(out / name, newline="") as fh:
                rows = list(csv.reader(fh))
            with open(out / name, "w", newline="") as fh:
                fh.write(",".join(rows[0]) + "\r\n\r\n")
                csv.writer(fh, quoting=csv.QUOTE_ALL).writerows(rows[1:])
        read = _load_samples(out, assembled)
        np.testing.assert_array_equal(read.mu, written.mu)
        for leaf, draws in written.coefficients.items():
            np.testing.assert_array_equal(read.coefficients[leaf], draws)

    @pytest.mark.parametrize("command", ["predict", "partition"])
    def test_stale_fit_files_rejected(self, workdir, capsys, command):
        cfg_path = str(workdir / "config.json")
        assert main(["fit", "--config", cfg_path]) == 0
        raw = base_config()
        raw["model"]["effects"][0]["n_basis"] = 8
        RunConfig.from_dict(raw).save(workdir / "config.json")
        capsys.readouterr()
        assert main([command, "--config", cfg_path]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["error"] == "ValidationError"
        assert "coefficients.csv" in record["message"]
        assert "sst_nonlin[8]" in record["message"]

    def test_mcmc_faults_fail_predict_and_partition(self, workdir, capsys):
        # predict and partition read no settings, so a misspelt key was
        # recorded in their manifests, and a list ended predict in a TypeError
        # after predictions.csv was written
        cfg_path = str(workdir / "config.json")
        assert main(["fit", "--config", cfg_path]) == 0
        out = workdir / "out"
        for mcmc, message in MCMC_FAULTS:
            raw = base_config()
            raw["mcmc"] = mcmc
            (workdir / "config.json").write_text(json.dumps(raw))
            for command, written in (("predict", "predictions.csv"),
                                     ("partition", "phi_mean.csv")):
                capsys.readouterr()
                assert main([command, "--config", cfg_path]) == 2
                lines = capsys.readouterr().err.strip().splitlines()
                assert [json.loads(line) for line in lines] == [
                    {"error": "ValidationError", "message": message}]
                assert not (out / written).exists()
                assert not (out / f"manifest_{command}.json").exists()

    def test_fit_deterministic_across_runs(self, workdir):
        cfg_path = str(workdir / "config.json")
        assert main(["fit", "--config", cfg_path, "--out", str(workdir / "a")]) == 0
        assert main(["fit", "--config", cfg_path, "--out", str(workdir / "b")]) == 0
        a = (workdir / "a" / "samples.csv").read_bytes()
        b = (workdir / "b" / "samples.csv").read_bytes()
        assert a == b

    def test_seed_flag_overrides_the_config_seed(self, workdir):
        cfg_path = str(workdir / "config.json")
        assert main(["fit", "--config", cfg_path, "--seed", "11", "--out",
                     str(workdir / "flag")]) == 0
        manifest = json.loads((workdir / "flag" / "manifest.json").read_text())
        assert manifest["seed"] == 11
        assert manifest["settings"]["seed"] == 11
        raw = base_config()
        raw["mcmc"]["seed"] = 11
        RunConfig.from_dict(raw).save(workdir / "seeded.json")
        assert main(["fit", "--config", str(workdir / "seeded.json"), "--out",
                     str(workdir / "seeded")]) == 0
        for name in ("samples.csv", "coefficients.csv"):
            assert (workdir / "flag" / name).read_bytes() == \
                (workdir / "seeded" / name).read_bytes()
        assert json.loads((workdir / "seeded" / "manifest.json").read_text())["seed"] is None

    def test_no_split_trains_on_every_row(self, workdir):
        raw = base_config()
        del raw["split"]
        RunConfig.from_dict(raw).save(workdir / "config.json")
        assert main(["fit", "--config", str(workdir / "config.json")]) == 0
        manifest = json.loads((workdir / "out" / "manifest.json").read_text())
        assert manifest["n_train"] == manifest["n_total"] == 240

    def test_sensitivity_writes_per_q_tables(self, workdir):
        cfg_path = str(workdir / "config.json")
        code = main(
            ["sensitivity", "--config", cfg_path, "--q", "1.0", "0.5", "--split",
             "covariates"]
        )
        assert code == 0
        out = workdir / "out"
        assert (out / "phi_mean_q1.csv").exists()
        assert (out / "phi_mean_q0p5.csv").exists()
        assert (out / "trends_q1.csv").exists()

    @pytest.mark.parametrize("q, named", [(["0.1", "0.1000001"], "0.1 and 0.1000001"),
                                          (["1", "0.5", "1.0"], "1.0 and 1.0")],
                             ids=["close", "equal"])
    def test_sensitivity_q_values_of_one_file_tag_rejected(self, workdir, capsys, q, named):
        # the later sweep overwrote the earlier one's tables
        cfg_path = str(workdir / "config.json")
        assert main(["sensitivity", "--config", cfg_path, "--q", *q]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        tag = "q0p1" if named.startswith("0.1") else "q1"
        assert record == {"error": "ValidationError",
                          "message": f"--q values {named} would both write the files "
                                     f"tagged {tag}"}
        assert not list((workdir / "out").glob("*_q*.csv"))

    def test_later_commands_keep_the_fit_manifest(self, workdir):
        # predict, sensitivity and prior-check each rewrote manifest.json, and
        # the fit's timings, workers, memory and row counts were lost
        cfg_path = str(workdir / "config.json")
        out = workdir / "out"
        assert main(["fit", "--config", cfg_path]) == 0
        fit_manifest = (out / "manifest.json").read_text()
        runs = {"predict": [], "sensitivity": ["--q", "1"], "prior-check": []}
        for command, flags in runs.items():
            assert main([command, "--config", cfg_path, *flags]) == 0
        assert (out / "manifest.json").read_text() == fit_manifest
        assert json.loads(fit_manifest)["command"] == "fit"
        assert {"timings_s", "chain_workers", "peak_rss_mb", "n_train",
                "n_total"} <= set(json.loads(fit_manifest))
        for command, key in (("predict", "n_test"), ("sensitivity", "q_values"),
                             ("prior-check", "prior_only")):
            manifest = json.loads((out / f"manifest_{command}.json").read_text())
            assert manifest["command"] == command
            assert key in manifest

    def test_sensitivity_on_unknown_split_gives_validation_record(self, workdir, capsys):
        cfg_path = str(workdir / "config.json")
        code = main(["sensitivity", "--config", cfg_path, "--q", "1", "0.1", "--split", "bogus"])
        assert code == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ValidationError"
        assert "bogus" in record["message"]
        assert not list((workdir / "out").glob("phi_mean_q*.csv"))

    def test_draw_files_of_different_lengths_rejected(self, workdir, capsys):
        cfg_path = str(workdir / "config.json")
        assert main(["fit", "--config", cfg_path]) == 0
        coefficients = workdir / "out" / "coefficients.csv"
        lines = coefficients.read_bytes().splitlines(keepends=True)
        coefficients.write_bytes(b"".join(lines[:-1]))  # one draw short
        capsys.readouterr()
        assert main(["predict", "--config", cfg_path]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ValidationError"
        assert "coefficients.csv" in record["message"]

    @pytest.mark.parametrize("damage", ["last_row", "cut_row", "header_only"])
    def test_truncated_draw_file_gives_validation_record(self, workdir, capsys, damage):
        cfg_path = str(workdir / "config.json")
        assert main(["fit", "--config", cfg_path]) == 0
        out = workdir / "out"
        if damage == "last_row":  # both files one draw short
            for name in ("samples.csv", "coefficients.csv"):
                lines = (out / name).read_bytes().splitlines(keepends=True)
                (out / name).write_bytes(b"".join(lines[:-1]))
            message = (f"{out / 'samples.csv'}: the chain and draw columns are not "
                       "2 chains of equally many draws, in order")
        elif damage == "header_only":
            lines = (out / "samples.csv").read_bytes().splitlines(keepends=True)
            (out / "samples.csv").write_bytes(lines[0])
            message = f"{out / 'samples.csv'}: no rows below the header"
        else:  # the last row ends within a cell
            raw = (out / "coefficients.csv").read_bytes()
            (out / "coefficients.csv").write_bytes(raw[:raw.rindex(b",")])
            fields = len(read_rows(out / "coefficients.csv")[0])
            message = (f"{out / 'coefficients.csv'}: line 201: {fields - 1} fields, "
                       f"but the header has {fields}")
        capsys.readouterr()
        for command in ("predict", "partition"):
            assert main([command, "--config", cfg_path]) == 2
            record = json.loads(capsys.readouterr().err.strip())
            assert record == {"error": "ValidationError", "message": message}

    @pytest.mark.parametrize("cell, fault", [("abc", "cannot parse {}='abc' as a number"),
                                             ("nan", "{}='nan' is not a finite number")])
    def test_non_number_in_draw_file_gives_validation_record(self, workdir, capsys, cell,
                                                             fault):
        cfg_path = str(workdir / "config.json")
        assert main(["fit", "--config", cfg_path]) == 0
        path = workdir / "out" / "coefficients.csv"
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        rows[4][3] = cell  # file line 5
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        capsys.readouterr()
        assert main(["predict", "--config", cfg_path]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record == {"error": "ValidationError",
                          "message": f"{path}: line 5: " + fault.format(rows[0][3])}

    def test_names_with_a_comma_or_a_quote_round_trip(self, workdir):
        raw = base_config()
        raw["model"]["effects"][1]["id"] = "ves,sel"
        raw["model"]["effects"][0]["group"] = 'g"x'
        RunConfig.from_dict(raw).save(workdir / "config.json")
        cfg_path = str(workdir / "config.json")
        for command in ("fit", "predict", "metrics", "partition"):
            assert main([command, "--config", cfg_path]) == 0
        out = workdir / "out"
        assert 'omega_g"x_flex' in read_rows(out / "samples.csv")[0]
        assert "ves,sel[0]" in read_rows(out / "coefficients.csv")[0]
        assert [r["group"] for r in read_rows(out / "phi_mean.csv")] == \
            ['g"x', "ves,sel", "temporal"]
        assert set(read_rows(out / "phi_samples.csv")[0]) == {"sample", 'g"x', "ves,sel",
                                                              "temporal"}

    def test_prior_check_on_intercept_only_model_gives_validation_record(self, workdir,
                                                                         capsys):
        raw = base_config()
        raw["model"]["effects"] = []
        RunConfig.from_dict(raw).save(workdir / "config.json")
        assert main(["prior-check", "--config", str(workdir / "config.json")]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ValidationError"
        assert "no variance proportions" in record["message"]

    def test_partition_of_intercept_only_model_gives_validation_record(self, workdir,
                                                                       capsys):
        # every sample was skipped, and partition reported "all samples have
        # zero total realized variance"
        raw = base_config()
        raw["model"]["effects"] = []
        RunConfig.from_dict(raw).save(workdir / "config.json")
        assert main(["fit", "--config", str(workdir / "config.json")]) == 0
        capsys.readouterr()
        assert main(["partition", "--config", str(workdir / "config.json")]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record == {"error": "ValidationError",
                          "message": "an intercept-only model has no effects to partition"}

    def test_prior_check_reports_ks(self, workdir, capsys):
        cfg_path = str(workdir / "config.json")
        assert main(["prior-check", "--config", cfg_path]) == 0
        rows = read_rows(workdir / "out" / "prior_check.csv")
        params = {r["param"] for r in rows}
        assert "V" in params
        assert any(p.startswith("sst_flex:") for p in params)
        captured = capsys.readouterr()
        assert "prior-check" in captured.out

    def test_prior_check_median_matches_shrinkage_prior(self, tmp_path, capsys):
        # long prior-only run: the reported median of the flexibility share
        # under rate 0.1 sits at 0.238 within 0.01. The pc0 density there is
        # about 1, so the median's Monte Carlo error is about 0.49/sqrt(ESS):
        # two chains of 10,000 draws (bulk ESS near 9,000 each) put the
        # tolerance at about 2.7 standard errors; thinning by 20 leaves the
        # draws nearly independent, as the KS test assumes
        raw = base_config()
        raw["model"]["effects"] = [
            {"id": "sst", "kind": "pspline", "covariate": "sst", "n_basis": 6,
             "side": "abiotic"},
            {"id": "temporal", "kind": "rw1", "covariate": "year", "side": "biotic",
             "group": "temporal"},
        ]
        raw["model"]["priors"] = {
            "total_variance": {"family": "jeffreys"},
            "abiotic_vs_biotic": {"family": "uniform"},
            "flex_splits": {"family": "pc0", "lam": 0.1},
        }
        raw["mcmc"] = {"chains": 2, "iterations": 201000, "burn_in": 1000,
                       "thinning": 20, "seed": 2}
        write_dataset(tmp_path / "data.csv")
        cfg = RunConfig.from_dict(raw)
        cfg.save(tmp_path / "config.json")
        assert main(["prior-check", "--config", str(tmp_path / "config.json")]) == 0
        rows = read_rows(tmp_path / "out" / "prior_check.csv")
        row = next(r for r in rows if r["param"] == "sst_flex:sst_nonlin")
        assert float(row["sample_median"]) == pytest.approx(0.238, abs=0.01)
        assert float(row["pvalue"]) > 0.01

    @pytest.mark.parametrize("edit, message", [
        (lambda raw: raw["supports"]["sst"].pop("upper"), "support 'sst' is missing 'upper'"),
        (lambda raw: raw["supports"]["vessel"].pop("n"), "support 'vessel' is missing 'n'"),
        (lambda raw: raw["supports"].update(cloud={"kind": "point_cloud", "file": "c.csv"}),
         "support 'cloud' is missing 'path'"),
        (lambda raw: raw["supports"]["sst"].update(offset=1),
         "support 'sst' has unknown keys: ['offset']"),
        (lambda raw: raw["model"]["priors"]["covariates"].pop("family"),
         "prior 'covariates' is missing 'family'"),
        (lambda raw: raw.update(split={"train_max_yr": 2008}),
         "config split section has unknown keys: ['train_max_yr']"),
        (lambda raw: raw["data"].update(yaer="year"),
         "config data section has unknown keys: ['yaer']"),
        (lambda raw: raw["supports"].update(sst=[0.0, 1.0]),
         "support 'sst' must be a JSON object, got [0.0, 1.0]"),
        (lambda raw: raw["supports"]["sst"].pop("kind"), "support 'sst' is missing 'kind'"),
        (lambda raw: raw.update(supports=[]), "config supports section must be a JSON object, "
                                              "got []"),
        (lambda raw: raw["model"]["effects"].append("sst"),
         "effect entry must be a JSON object, got 'sst'"),
        (lambda raw: raw.update(mcmc=[1, 2]), "config mcmc section must be a JSON object, "
                                              "got [1, 2]"),
    ], ids=["interval_without_upper", "levels_without_n", "cloud_without_path",
            "offset_on_interval", "prior_without_family", "split_typo", "data_typo",
            "support_not_an_object", "support_without_kind", "supports_not_an_object",
            "effect_not_an_object", "mcmc_not_an_object"])
    def test_config_key_faults_give_validation_record(self, workdir, capsys, edit, message):
        # each would otherwise be a bare KeyError, or be ignored: a misspelt
        # split trains on every row
        raw = base_config()
        edit(raw)
        (workdir / "config.json").write_text(json.dumps(raw))
        assert main(["fit", "--config", str(workdir / "config.json")]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record == {"error": "ValidationError", "message": message}

    @pytest.mark.parametrize("support, key, value, want", [
        ("vessel", "n", 2.7, "an integer"),
        ("vessel", "n", 2.0, "an integer"),
        ("vessel", "n", "2", "an integer"),
        ("vessel", "n", True, "an integer"),
        ("year", "offset", 1999.5, "an integer"),
        ("year", "offset", None, "an integer"),
        ("sst", "lower", "0", "a finite number"),
        ("sst", "upper", float("inf"), "a finite number"),
        ("sst", "upper", float("nan"), "a finite number"),
        ("sst", "lower", False, "a finite number"),
        ("cloud", "path", 5, "a string"),
    ], ids=["n_fraction", "n_float", "n_text", "n_bool", "offset_fraction", "offset_null",
            "lower_text", "upper_inf", "upper_nan", "lower_bool", "path_number"])
    def test_support_value_faults_give_validation_record(self, workdir, capsys, support, key,
                                                         value, want):
        # a fractional level count was truncated, and a 2.7-level vessel
        # support built a 2-level model that prior-check ran without a word
        raw = base_config()
        raw["supports"]["cloud"] = {"kind": "point_cloud", "path": "cloud.csv"}
        raw["supports"][support][key] = value
        (workdir / "config.json").write_text(json.dumps(raw))
        assert main(["prior-check", "--config", str(workdir / "config.json")]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record == {"error": "ValidationError",
                          "message": f"support {support!r}: {key!r} must be {want}, got {value!r}"}

    @pytest.mark.parametrize("edit, message", [
        (lambda raw: raw["supports"]["sst"].update(kind=["interval"]),
         "support 'sst': 'kind' must be a string, got ['interval']"),
        (lambda raw: raw.update(output=5), "config: 'output' must be a string, got 5"),
        (lambda raw: raw["data"].update(path=5),
         "config data section: 'path' must be a string, got 5"),
        (lambda raw: raw["data"].update(year=["year"]),
         "config data section: 'year' must be a string or null, got ['year']"),
        (lambda raw: raw["split"].update(train_max_year=[2008]),
         "config split section: 'train_max_year' must be a finite number or null, got [2008]"),
        (lambda raw: raw["model"]["effects"][1].update(id=["v"]),
         "effect entry {'id': ['v'], 'kind': 'iid', 'covariate': 'vessel', "
         "'side': 'abiotic'}: 'id' must be a string, got ['v']"),
        (lambda raw: raw["model"]["effects"][1].update(group=["g"]),
         "effect 'vessel': 'group' must be a string or null, got ['g']"),
        (lambda raw: raw["model"]["effects"][1].update(support=["vessel"]),
         "effect 'vessel': 'support' must be a string, got ['vessel']"),
        (lambda raw: raw["model"]["priors"]["covariates"].update(family=["dirichlet"]),
         "prior 'covariates': 'family' must be a string, got ['dirichlet']"),
        (lambda raw: raw["model"]["effects"][1].update(id=7),
         "effect entry {'id': 7, 'kind': 'iid', 'covariate': 'vessel', "
         "'side': 'abiotic'}: 'id' must be a string, got 7"),
        (lambda raw: raw["split"].update(train_max_year="2008"),
         "config split section: 'train_max_year' must be a finite number or null, got '2008'"),
        (lambda raw: raw["model"].update(effects={"id": "x"}),
         "config model section: 'effects' must be a list, got {'id': 'x'}"),
    ], ids=["support_kind_list", "output_number", "data_path_number", "data_year_list",
            "split_year_list", "effect_id_list", "effect_group_list", "effect_support_list",
            "prior_family_list", "effect_id_number", "split_year_text", "effects_object"])
    def test_config_value_type_faults_give_validation_record(self, workdir, capsys, edit,
                                                             message):
        # the first nine ended in a TypeError record; an id of 7 built the leaf
        # 7, a text threshold compared as a number, and an effects object was
        # read as its keys ("effect entry must be a JSON object, got 'id'")
        raw = base_config()
        edit(raw)
        (workdir / "config.json").write_text(json.dumps(raw))
        (workdir / "data.csv").unlink()  # the config is rejected before any file is read
        with pytest.raises(ValidationError) as err:
            RunConfig.load(workdir / "config.json")
        assert str(err.value) == message
        assert main(["fit", "--config", str(workdir / "config.json")]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record == {"error": "ValidationError", "message": message}

    def test_null_split_and_group_take_their_defaults(self, workdir):
        raw = base_config()
        raw["model"]["effects"][1]["group"] = None
        raw["split"]["train_max_year"] = None
        cfg = RunConfig.from_dict(raw)
        assert build_model(cfg, workdir).effects[1].group == "vessel"
        assert ingest("data.csv", cfg, workdir).train_mask.all()

    @pytest.mark.parametrize("edit, message", [
        (lambda raw: raw["supports"]["vessel"].update(n=0),
         "support 'vessel': need >= 1 level, got 0"),
        (lambda raw: raw["supports"]["sst"].update(lower=2.0),
         "support 'sst': empty interval [2.0, 1.0]"),
    ], ids=["no_levels", "empty_interval"])
    def test_support_range_faults_name_the_support(self, workdir, capsys, edit, message):
        raw = base_config()
        edit(raw)
        (workdir / "config.json").write_text(json.dumps(raw))
        assert main(["prior-check", "--config", str(workdir / "config.json")]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record == {"error": "ValidationError", "message": message}

    @pytest.mark.parametrize("support, got", [("vessel", "UniformLevels"),
                                              ("cloud", "PointCloud")])
    def test_linear_on_levels_or_a_cloud_gives_validation_record(self, workdir, capsys,
                                                                 support, got):
        # on a cloud assemble failed with an AttributeError, and on levels the
        # values went unchecked against any support
        (workdir / "cloud.csv").write_text("0.0,0.0\n1.0,1.0\n")
        raw = base_config()
        raw["supports"]["cloud"] = {"kind": "point_cloud", "path": "cloud.csv"}
        raw["model"]["effects"].append(
            {"id": "x", "kind": "linear", "covariate": "sst", "support": support})
        (workdir / "config.json").write_text(json.dumps(raw))
        assert main(["fit", "--config", str(workdir / "config.json")]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record == {"error": "ValidationError", "message":
                          f"effect 'x': kind 'linear' takes a UniformInterval support, got {got}"}

    @pytest.mark.parametrize("entry, message", [
        ({"id": "x", "kind": "pspline", "covariate": ["sst", "vessel"]},
         "effect 'x': 'covariate' must be a string, got ['sst', 'vessel']"),
        ({"id": "space", "kind": "spatial2d", "covariates": ["sst"], "support": "cloud"},
         "effect 'space': 'covariates' must be a list of two distinct strings, got ['sst']"),
        ({"id": "space", "kind": "spatial2d", "covariates": "ab", "support": "cloud"},
         "effect 'space': 'covariates' must be a list of two distinct strings, got 'ab'"),
    ], ids=["covariate_list", "covariates_one", "covariates_string"])
    def test_column_names_of_the_wrong_type_give_validation_record(self, workdir, capsys,
                                                                   entry, message):
        # a list under covariate failed with a TypeError record, one column
        # under covariates failed in assemble ("tensor basis expects (N, 2)
        # input"), and the string "ab" was read as the columns a and b
        (workdir / "cloud.csv").write_text("0.0,0.0\n1.0,1.0\n0.0,1.0\n")
        raw = base_config()
        raw["supports"]["cloud"] = {"kind": "point_cloud", "path": "cloud.csv"}
        raw["model"]["effects"].append(entry)
        (workdir / "config.json").write_text(json.dumps(raw))
        assert main(["fit", "--config", str(workdir / "config.json")]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record == {"error": "ValidationError", "message": message}

    def test_offset_applies_through_a_support_of_another_name(self, workdir):
        # the offset was applied to the column named like the support, so the
        # raw years reached the rw1 effect: "177 value(s) are not levels in 1..12"
        raw = base_config()
        raw["supports"]["years"] = raw["supports"].pop("year")
        raw["model"]["effects"][2]["support"] = "years"
        (workdir / "config.json").write_text(json.dumps(raw))
        assert main(["fit", "--config", str(workdir / "config.json")]) == 0
        data = ingest("data.csv", RunConfig.from_dict(raw), workdir)
        assert data.columns["year"].min() >= 1 and data.columns["year"].max() <= 12

    def test_column_read_under_two_offsets_rejected(self, workdir):
        raw = base_config()
        raw["supports"]["span"] = {"kind": "interval", "lower": 2000.0, "upper": 2011.0}
        raw["model"]["effects"].append(
            {"id": "trend", "kind": "linear", "covariate": "year", "support": "span"})
        with pytest.raises(ValidationError, match=r"^column 'year' is read through support "
                                                  r"'year' \(offset 1999\) and support 'span' "
                                                  r"\(offset 0\)$"):
            ingest("data.csv", RunConfig.from_dict(raw), workdir)

    def test_support_values_of_numpy_types_accepted(self):
        raw = base_config()
        raw["supports"]["vessel"]["n"] = np.int64(2)
        raw["supports"]["sst"]["upper"] = np.float64(1.0)
        assert build_model(RunConfig.from_dict(raw), ".").effects[1].dist.n_levels == 2

    def test_error_record_on_bad_config(self, workdir, capsys):
        bad = workdir / "broken.json"
        bad.write_text(json.dumps({"data": {"path": "x"}}))
        code = main(["fit", "--config", str(bad)])
        assert code == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert "error" in record and "message" in record

    # the adaptation constants are no settings, at any value
    @pytest.mark.parametrize("key, bad", [("seed", -1), ("iterations", 100.5),
                                          ("adaptation_window", 50),
                                          ("target_accept_hyper", 0.234),
                                          ("target_accept_block", 0.44)])
    def test_bad_mcmc_settings_give_validation_record(self, workdir, capsys, key, bad):
        raw = base_config()
        raw["mcmc"][key] = bad
        (workdir / "config.json").write_text(json.dumps(raw))
        assert main(["fit", "--config", str(workdir / "config.json")]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ValidationError"
        assert key in record["message"]

    @pytest.mark.parametrize("column, value", [("sst", "nan"), ("vessel", "NaN"),
                                               ("year", "inf")])
    def test_non_finite_covariate_gives_validation_record(self, workdir, capsys, column,
                                                          value):
        path = workdir / "data.csv"
        rows = read_rows(path)
        rows[5][column] = value  # file line 7
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        assert main(["fit", "--config", str(workdir / "config.json")]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ValidationError"
        assert f"line 7: {column}={value!r} is not a finite number" in record["message"]

    def test_short_row_gives_validation_record(self, workdir, capsys):
        path = workdir / "data.csv"
        lines = path.read_text().splitlines()
        lines[6] = lines[6].rsplit(",", 1)[0]  # file line 7 loses its year
        path.write_text("\n".join(lines) + "\n")
        assert main(["fit", "--config", str(workdir / "config.json")]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record == {"error": "ValidationError",
                          "message": f"{path}: line 7: 3 fields, but the header has 4"}

    def test_bad_cloud_row_gives_validation_record(self, workdir, capsys):
        (workdir / "cloud.csv").write_text("z1,z2\n0.0,0.0\n\n0.0,0.0,7\n1.0,1.0\n")
        raw = base_config()
        raw["supports"]["cloud"] = {"kind": "point_cloud", "path": "cloud.csv"}
        RunConfig.from_dict(raw).save(workdir / "config.json")
        assert main(["fit", "--config", str(workdir / "config.json")]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record == {"error": "ValidationError",
                          "message": f"{workdir / 'cloud.csv'}: line 4: 3 fields, "
                                     "but a point has 2"}

    @pytest.mark.parametrize("command, train_max_year, message", [
        ("fit", 1990, "no training rows"),
        ("sensitivity", 1990, "at q=1.0: the data have no training rows"),
        ("predict", 2100, "no test rows"),
    ])
    def test_empty_split_gives_validation_record(self, workdir, capsys, command,
                                                 train_max_year, message):
        raw = base_config()
        raw["split"]["train_max_year"] = train_max_year
        RunConfig.from_dict(raw).save(workdir / "config.json")
        cfg_path = str(workdir / "config.json")
        if command == "predict":  # predicts from the draws of a fit
            assert main(["fit", "--config", cfg_path]) == 0
            capsys.readouterr()
        assert main([command, "--config", cfg_path]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ValidationError"
        assert message in record["message"]

    @pytest.mark.parametrize("key, entry, named", [
        ("covariates", {"family": "dirichlet", "q": [0.5, 0.5, 0.5]}, "covariates"),
        ("flex_splits", {"family": "pc0", "U": 0.5}, "sst_flex"),
        ("covariates", {"family": "dirichlet", "q": "0.5"}, "covariates"),
    ])
    def test_bad_prior_parameters_give_validation_record(self, workdir, capsys, key, entry,
                                                         named):
        raw = base_config()
        raw["model"]["priors"][key] = entry
        RunConfig.from_dict(raw).save(workdir / "config.json")
        assert main(["fit", "--config", str(workdir / "config.json")]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ValidationError"
        assert named in record["message"]

    def test_infeasible_prior_target_gives_validation_record(self, workdir, capsys):
        # alpha below sqrt(U) has no rate; the record names the prior, not a CalibrationError
        raw = base_config()
        raw["model"]["priors"]["sst_flex"] = {"family": "pc0", "U": 0.2, "alpha": 0.1}
        RunConfig.from_dict(raw).save(workdir / "config.json")
        assert main(["fit", "--config", str(workdir / "config.json")]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ValidationError"
        assert record["message"].startswith(
            "prior 'sst_flex': infeasible target: alpha=0.1 < sqrt(U)=0.447214; ")

    def test_prior_key_its_family_does_not_take_gives_validation_record(self, workdir, capsys):
        # a uniform prior takes no q: it used to fit q = 1 and exit 0
        raw = base_config()
        raw["model"]["priors"]["abiotic_vs_biotic"] = {"family": "uniform", "q": 0.5}
        RunConfig.from_dict(raw).save(workdir / "config.json")
        assert main(["fit", "--config", str(workdir / "config.json")]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record == {"error": "ValidationError",
                          "message": "prior 'abiotic_vs_biotic': family 'uniform' takes no "
                                     "parameters, not ['q']"}
