"""Config round-trip, ingestion validation, and CLI subcommand flows."""

import csv
import json
from pathlib import Path

import numpy as np
import pytest

from hdsdm.cli import _load_samples, main
from hdsdm.config import RunConfig, build_model, build_settings, ingest, read_point_cloud
from hdsdm.exceptions import ValidationError
from hdsdm.mcmc import KERNELS, fit


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
        tree = model.build_tree()
        assert tree.n_leaves == 4

    def test_build_settings_override(self, workdir):
        cfg = RunConfig.load(workdir / "config.json")
        assert build_settings(cfg).seed == 5
        assert build_settings(cfg, seed_override=9).seed == 9

    @pytest.mark.parametrize("key, bad", [("adaptation_window", 0),
                                          ("target_accept_block", 1.5),
                                          ("target_accept_hyper", 0.0)])
    def test_build_settings_rejects_breaking_values(self, key, bad):
        raw = base_config()
        raw["mcmc"][key] = bad
        with pytest.raises(ValidationError, match=key):
            build_settings(RunConfig.from_dict(raw))

    def test_point_cloud_reader(self, tmp_path):
        p = tmp_path / "cloud.csv"
        p.write_text("z1,z2\n0.0,0.5\n1.0,0.25\n")
        pts = read_point_cloud(p)
        np.testing.assert_allclose(pts, [[0.0, 0.5], [1.0, 0.25]])


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

    def test_fit_deterministic_across_runs(self, workdir):
        cfg_path = str(workdir / "config.json")
        assert main(["fit", "--config", cfg_path, "--out", str(workdir / "a")]) == 0
        assert main(["fit", "--config", cfg_path, "--out", str(workdir / "b")]) == 0
        a = (workdir / "a" / "samples.csv").read_bytes()
        b = (workdir / "b" / "samples.csv").read_bytes()
        assert a == b

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
        # under rate 0.1 sits at 0.238 within 0.01
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
        raw["mcmc"] = {"chains": 1, "iterations": 101000, "burn_in": 1000,
                       "thinning": 10, "seed": 2}
        write_dataset(tmp_path / "data.csv")
        cfg = RunConfig.from_dict(raw)
        cfg.save(tmp_path / "config.json")
        assert main(["prior-check", "--config", str(tmp_path / "config.json")]) == 0
        rows = read_rows(tmp_path / "out" / "prior_check.csv")
        row = next(r for r in rows if r["param"] == "sst_flex:sst_nonlin")
        assert float(row["sample_median"]) == pytest.approx(0.238, abs=0.01)
        assert float(row["pvalue"]) > 0.01

    def test_error_record_on_bad_config(self, workdir, capsys):
        bad = workdir / "broken.json"
        bad.write_text(json.dumps({"data": {"path": "x"}}))
        code = main(["fit", "--config", str(bad)])
        assert code == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert "error" in record and "message" in record

    @pytest.mark.parametrize("key, bad", [("seed", -1), ("iterations", 100.5)])
    def test_bad_mcmc_settings_give_validation_record(self, workdir, capsys, key, bad):
        raw = base_config()
        raw["mcmc"][key] = bad
        RunConfig.from_dict(raw).save(workdir / "config.json")
        assert main(["fit", "--config", str(workdir / "config.json")]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ValidationError"
        assert key in record["message"]

    @pytest.mark.parametrize("command, train_max_year, message", [
        ("fit", 1990, "no training rows"),
        ("predict", 2100, "no test rows"),
    ])
    def test_empty_split_gives_validation_record(self, workdir, capsys, command,
                                                 train_max_year, message):
        raw = base_config()
        raw["split"]["train_max_year"] = train_max_year
        RunConfig.from_dict(raw).save(workdir / "config.json")
        cfg_path = str(workdir / "config.json")
        if command != "fit":
            assert main(["fit", "--config", cfg_path]) == 0
            capsys.readouterr()
        assert main([command, "--config", cfg_path]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ValidationError"
        assert message in record["message"]

    @pytest.mark.parametrize("key, entry, named", [
        ("covariates", {"family": "dirichlet", "q": [0.5, 0.5, 0.5]}, "covariates"),
        ("flex_splits", {"family": "pc0", "U": 0.5}, "sst_flex"),
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
