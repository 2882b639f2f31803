"""The three benchmark workloads, built from the seed alone.

Each workload exposes the same steps to ``run.py``:

- ``setup(span)``: the model build a user pays before sampling, timed on
  its own and repeated;
- ``round(span, passes)``: one fit followed by ``passes`` passes of the
  read side (predict, metrics, phi); returns timings and the outputs to
  check;
- ``check(out)``: correctness checks on a round's outputs, as
  ``(name, passed, detail)`` triples.

``span(name)`` is a context manager; ``run.py`` passes a no-op one for
untraced runs. Workload calls go through the public ``hdsdm`` API only.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.stats import kstest

import hdsdm
import hdsdm.cli
from hdsdm import (
    CoefficientBlock,
    Dataset,
    EffectDecl,
    McmcSettings,
    ModelSpec,
    PointCloud,
    PosteriorSample,
    PriorSpec,
    UniformInterval,
    UniformLevels,
)
from hdsdm.config import RunConfig, build_model, ingest

from diagnostics import ess_bulk

# 5,892 rows over 20 survey years; years 1..17 (5,020 rows) train.
ROWS_PER_YEAR = [296] * 5 + [295] * 12 + [291, 291, 290]
TRAIN_MAX_YEAR = 17
FIRST_YEAR = 2000

# Per-test level of the prior KS checks. A correct sampler fails a test at
# level a in a share a of seeds; with two tests per run and some fifty runs
# of a workload per change, 0.01 / 100 keeps the chance that a correct
# sampler fails any of them near 1%, while a wrong prior density (a missing
# Jacobian, say) still gives p-values far below it at 4,000 draws.
KS_ALPHA = 1e-4

# README prior set; ``flex_splits`` covers every ``*_flex`` node.
SURVEY_PRIORS = {
    "total_variance": {"family": "jeffreys"},
    "abiotic_vs_biotic": {"family": "uniform"},
    "covariates": {"family": "dirichlet", "q": 0.5},
    "spatial_vs_temporal": {"family": "uniform"},
    "flex_splits": {"family": "pc0", "lam": 0.1},
}


def digest(*parts) -> str:
    """SHA-256 over arrays (dtype, shape and bytes) and byte strings."""
    h = hashlib.sha256()
    for p in parts:
        if isinstance(p, bytes):
            h.update(p)
        else:
            a = np.ascontiguousarray(p)
            h.update(f"{a.dtype}{a.shape}".encode())
            h.update(a.tobytes())
    return h.hexdigest()


def l_shaped_cloud(resolution: int) -> np.ndarray:
    g = np.linspace(0.0, 1.0, resolution)
    xx, yy = np.meshgrid(g, g, indexing="ij")
    keep = ~((xx > 0.5) & (yy > 0.5))
    return np.column_stack([xx[keep], yy[keep]])


def survey_inputs(seed: int) -> dict[str, np.ndarray]:
    """Synthetic survey: smooth effects of sst, depth, space and year, a
    vessel offset, and Bernoulli responses through the logit link."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    cloud = l_shaped_cloud(30)
    year = np.repeat(np.arange(1, 21), ROWS_PER_YEAR)
    n = year.size
    sst = rng.uniform(3.0, 27.0, n)
    depth = rng.uniform(10.0, 500.0, n)
    vessel = rng.integers(1, 3, n)
    z1, z2 = cloud[rng.integers(0, cloud.shape[0], n)].T
    eta = (
        -0.5
        + 0.8 * np.sin((sst - 3.0) / 24.0 * 1.5 * np.pi)
        - 0.6 * (depth - 255.0) / 141.0
        + 0.6 * np.sin(3.0 * z1) * np.cos(2.0 * z2)
        + 0.3 * np.sin(year / 3.0)
        + np.where(vessel == 1, 0.2, -0.2)
    )
    y = (rng.uniform(size=n) < 1.0 / (1.0 + np.exp(-eta))).astype(np.int64)
    return dict(y=y, sst=sst, depth=depth, vessel=vessel, year=year, z1=z1, z2=z2,
                cloud=cloud)


def survey_model(cloud: np.ndarray) -> ModelSpec:
    """7 leaves, 155 coefficients: the reference model of the roadmap."""
    effects = [
        EffectDecl("sst", "pspline", "sst", UniformInterval(3.0, 27.0), side="abiotic"),
        EffectDecl("depth", "pspline", "depth", UniformInterval(10.0, 500.0),
                   side="abiotic"),
        EffectDecl("vessel", "iid", "vessel", UniformLevels(2), side="abiotic"),
        EffectDecl("spatial", "spatial2d", ("z1", "z2"), PointCloud(cloud),
                   side="biotic", group="spatial", n_basis_2d=(10, 10)),
        EffectDecl("temporal", "rw1", "year", UniformLevels(20), side="biotic",
                   group="temporal"),
    ]
    priors = {}
    for node in ["total_variance", "abiotic_vs_biotic", "covariates",
                 "spatial_vs_temporal", "sst_flex", "depth_flex"]:
        entry = SURVEY_PRIORS.get(node, SURVEY_PRIORS["flex_splits"])
        params = {k: v for k, v in entry.items() if k != "family"}
        priors[node] = PriorSpec(node, entry["family"], params)
    return ModelSpec(effects=effects, priors=priors)


def survey_config(seed: int, mcmc: dict) -> dict:
    """The survey model as a CLI run config over ``survey.csv``."""
    return {
        "data": {"path": "survey.csv", "response": "present", "year": "year"},
        "supports": {
            "sst": {"kind": "interval", "lower": 3.0, "upper": 27.0},
            "depth": {"kind": "interval", "lower": 10.0, "upper": 500.0},
            "vessel": {"kind": "levels", "n": 2},
            "year": {"kind": "levels", "n": 20, "offset": FIRST_YEAR - 1},
            "spatial": {"kind": "point_cloud", "path": "cloud.csv"},
        },
        "model": {
            "intercept": True,
            "effects": [
                {"id": "sst", "kind": "pspline", "covariate": "sst", "n_basis": 20,
                 "side": "abiotic"},
                {"id": "depth", "kind": "pspline", "covariate": "depth", "n_basis": 20,
                 "side": "abiotic"},
                {"id": "vessel", "kind": "iid", "covariate": "vessel", "side": "abiotic"},
                {"id": "spatial", "kind": "spatial2d", "covariates": ["z1", "z2"],
                 "support": "spatial", "n_basis": [10, 10], "side": "biotic",
                 "group": "spatial"},
                {"id": "temporal", "kind": "rw1", "covariate": "year", "side": "biotic",
                 "group": "temporal"},
            ],
            "priors": SURVEY_PRIORS,
        },
        "mcmc": dict(mcmc, seed=seed),
        "split": {"train_max_year": FIRST_YEAR - 1 + TRAIN_MAX_YEAR},
        "output": "run",
    }


def write_cli_inputs(seed: int, directory: Path, mcmc: dict) -> Path:
    """Write survey.csv, cloud.csv and config.json; return the config path."""
    inp = survey_inputs(seed)
    with open(directory / "cloud.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["z1", "z2"])
        w.writerows([repr(float(a)), repr(float(b))] for a, b in inp["cloud"])
    with open(directory / "survey.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["present", "sst", "depth", "vessel", "year", "z1", "z2"])
        for i in range(inp["y"].size):
            w.writerow([
                int(inp["y"][i]), repr(float(inp["sst"][i])), repr(float(inp["depth"][i])),
                int(inp["vessel"][i]), FIRST_YEAR - 1 + int(inp["year"][i]),
                repr(float(inp["z1"][i])), repr(float(inp["z2"][i])),
            ])
    path = directory / "config.json"
    path.write_text(json.dumps(survey_config(seed, mcmc), indent=2, sort_keys=True))
    return path


def prior_model() -> ModelSpec:
    """Acceptance criterion 08: case-study priors on a reduced tree."""
    cloud = l_shaped_cloud(15)
    effects = [
        EffectDecl("x1", "pspline", "x1", UniformInterval(0, 1), side="abiotic", n_basis=6),
        EffectDecl("x2", "pspline", "x2", UniformInterval(0, 1), side="abiotic", n_basis=6),
        EffectDecl("vessel", "iid", "v", UniformLevels(2), side="abiotic"),
        EffectDecl("spatial", "spatial2d", ("z1", "z2"), PointCloud(cloud),
                   side="biotic", group="spatial", n_basis_2d=(5, 5)),
        EffectDecl("temporal", "rw1", "t", UniformLevels(10), side="biotic",
                   group="temporal"),
    ]
    priors = {
        "total_variance": PriorSpec("total_variance", "jeffreys"),
        "abiotic_vs_biotic": PriorSpec("abiotic_vs_biotic", "uniform"),
        "covariates": PriorSpec("covariates", "dirichlet", {"q": 0.5}),
        "spatial_vs_temporal": PriorSpec("spatial_vs_temporal", "uniform"),
        "x1_flex": PriorSpec("x1_flex", "pc0", {"lam": 0.1}),
        "x2_flex": PriorSpec("x2_flex", "pc0", {"lam": 0.1}),
    }
    return ModelSpec(effects=effects, priors=priors)


def prior_rows(seed: int, n: int = 1000) -> dict[str, np.ndarray]:
    """Covariate rows at which the prior-only fit predicts."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    cloud = l_shaped_cloud(15)
    z1, z2 = cloud[rng.integers(0, cloud.shape[0], n)].T
    return dict(x1=rng.uniform(0, 1, n), x2=rng.uniform(0, 1, n),
                v=rng.integers(1, 3, n).astype(float), z1=z1, z2=z2,
                t=rng.integers(1, 11, n).astype(float))


@dataclass
class Posterior:
    """Retained draws as arrays: hyper (chains, draws, p), coef (chains, draws, K)."""

    names: list[str]
    hyper: np.ndarray
    coef: np.ndarray
    acceptance: dict[str, float]

    @property
    def digest(self) -> str:
        return digest(self.hyper, self.coef)


def posterior_of(result) -> Posterior:
    leaves = result.assembled.leaf_ids
    chains, n_keep, _ = result.hyper_draws.shape
    coef = np.array([
        np.concatenate([s.coefficients[l].values for l in leaves]) for s in result.samples
    ]).reshape(chains, n_keep, -1)
    return Posterior(list(result.hyper_names), result.hyper_draws.copy(), coef,
                     dict(result.acceptance))


@dataclass
class Round:
    fit_s: float
    predict_s: list[float] = field(default_factory=list)
    metrics_s: list[float] = field(default_factory=list)
    phi_s: list[float] = field(default_factory=list)
    ops: int = 0
    failed_ops: int = 0
    posterior: Posterior | None = None
    outputs: dict = field(default_factory=dict)

    @property
    def postfit_s(self) -> float:
        return float(np.median(np.add(np.add(self.predict_s, self.metrics_s), self.phi_s)))


def _params(assembled, **extra) -> dict:
    leaves = assembled.leaf_ids
    return dict(n_train=assembled.n_train, leaves=len(leaves),
                coefficients=sum(assembled.effects[l].n_coef for l in leaves), **extra)


def _timed(span, name, fn, *args, **kwargs):
    with span(name):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        return out, time.perf_counter() - t0


class SurveyFit:
    """Reference survey model, in memory: fit, predict held-out rows, phi."""

    name = "survey_fit"
    settings_kw = dict(chains=2, iterations=4000, burn_in=2000, thinning=1)

    def __init__(self, seed: int):
        self.inputs = survey_inputs(seed)
        self.settings = McmcSettings(seed=seed, **self.settings_kw)
        cols = {k: v for k, v in self.inputs.items() if k not in ("y", "cloud")}
        self.data = Dataset.from_arrays(
            y=self.inputs["y"], train_mask=self.inputs["year"] <= TRAIN_MAX_YEAR, **cols
        )
        self.model = survey_model(self.inputs["cloud"])
        self.inputs_digest = digest(*(self.inputs[k] for k in sorted(self.inputs)),
                                    repr(self.settings).encode())
        self.assembled = None

    def setup(self, span):
        self.assembled, dt = _timed(span, "model.assemble", hdsdm.assemble,
                                    self.model, self.data)
        return dt

    def params(self) -> dict:
        return _params(self.assembled, rows=self.data.n, **self.settings_kw)

    def round(self, span, passes: int) -> Round:
        result, fit_s = _timed(span, "mcmc.fit", hdsdm.fit, self.assembled, None,
                               self.settings)
        r = Round(fit_s=fit_s, ops=1)
        test = ~self.data.train_mask
        for _ in range(passes):
            p_hat, dt = _timed(span, "mcmc.predict", hdsdm.predict, result, self.data,
                               mask=test)
            r.predict_s.append(dt)
            scores, dt = _timed(span, "mcmc.metrics", hdsdm.metrics, p_hat,
                                self.data.y[test])
            r.metrics_s.append(dt)
            part, dt = _timed(span, "partition.phi", hdsdm.phi, result)
            r.phi_s.append(dt)
            r.ops += 2
        r.posterior = posterior_of(result)
        r.outputs = dict(p_hat=p_hat, scores=scores, phi=part.phi)
        return r

    def check(self, r: Round):
        p = r.outputs["p_hat"]
        y_train = self.data.y[self.data.train_mask]
        y_test = self.data.y[~self.data.train_mask]
        base = float(np.mean((y_train.mean() - y_test) ** 2))
        brier = r.outputs["scores"]["brier"]
        row_err = float(np.max(np.abs(r.outputs["phi"].sum(axis=1) - 1.0)))
        return [
            ("p_hat finite in (0, 1)", bool(np.all(np.isfinite(p) & (p > 0) & (p < 1))),
             f"min={p.min():.3g} max={p.max():.3g}"),
            ("phi rows sum to 1 within 1e-12", row_err <= 1e-12, f"max error {row_err:.3g}"),
            ("held-out Brier below prevalence Brier", brier < base,
             f"{brier:.5f} < {base:.5f}"),
        ]


def _ks_pvalue(draws: np.ndarray, cdf) -> float:
    """KS p-value on draws thinned to about one per effective sample: the
    test assumes independent draws, and autocorrelated ones inflate it."""
    step = int(np.ceil(draws.size / ess_bulk(draws[None])))
    return float(kstest(draws[::max(step, 1)], cdf).pvalue)


class PriorOnly:
    """Criterion-08 model without data: one long, heavily thinned chain."""

    name = "prior_only"
    settings_kw = dict(chains=1, iterations=5000 + 25 * 4000, burn_in=5000, thinning=25)

    def __init__(self, seed: int):
        self.rows = prior_rows(seed)
        self.settings = McmcSettings(seed=seed, **self.settings_kw)
        self.model = prior_model()
        self.inputs_digest = digest(*(self.rows[k] for k in sorted(self.rows)),
                                    repr(self.settings).encode())
        self.assembled = None

    def setup(self, span):
        self.assembled, dt = _timed(span, "model.assemble", hdsdm.assemble, self.model, None)
        return dt

    def params(self) -> dict:
        return _params(self.assembled, rows=0, predict_rows=len(self.rows["x1"]),
                       **self.settings_kw)

    def round(self, span, passes: int) -> Round:
        result, fit_s = _timed(span, "mcmc.fit", hdsdm.fit, self.assembled, None,
                               self.settings, likelihood_weight=0.0)
        r = Round(fit_s=fit_s, ops=1)
        for _ in range(passes):
            # prior draws of V reach exp(30), so some linear predictors overflow
            # the logistic; p_hat of exactly 0 or 1 is the right answer there
            with np.errstate(over="ignore"):
                _, dt = _timed(span, "mcmc.predict", hdsdm.predict, result, self.rows)
            r.predict_s.append(dt)
            r.metrics_s.append(0.0)
            _, dt = _timed(span, "partition.phi", hdsdm.phi, result)
            r.phi_s.append(dt)
            r.ops += 2
        r.posterior = posterior_of(result)
        return r

    def check(self, r: Round):
        post = r.posterior
        omega_a = post.hyper[:, :, post.names.index("omega_abiotic_vs_biotic")].ravel()
        omega_n = post.hyper[:, :, post.names.index("omega_x1_flex")].ravel()
        p_a = _ks_pvalue(omega_a, lambda w: w)
        p_n = _ks_pvalue(omega_n, lambda w: hdsdm.pc0_cdf(w, 0.1))
        return [
            (f"KS omega_abiotic_vs_biotic vs uniform p > {KS_ALPHA:g}", p_a > KS_ALPHA,
             f"p={p_a:.4f}"),
            (f"KS omega_x1_flex vs pc0(0.1) p > {KS_ALPHA:g}", p_n > KS_ALPHA, f"p={p_n:.4f}"),
        ]


def _files(directory: Path) -> dict[str, tuple[int, int]]:
    return {p.name: (p.stat().st_mtime_ns, p.stat().st_size)
            for p in directory.iterdir() if p.is_file()}


def _read_table(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path, newline="") as fh:
        header = next(csv.reader(fh))
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


class CliRoundtrip:
    """The survey through files: write inputs, then ``hdsdm fit``, ``predict``,
    ``metrics`` and ``partition``, each re-reading what the last one wrote."""

    name = "cli_roundtrip"
    settings_kw = dict(chains=2, iterations=1000, burn_in=500, thinning=1)

    def __init__(self, seed: int, workdir: Path):
        self.dir = workdir
        self.config = write_cli_inputs(seed, workdir, self.settings_kw)
        self.outdir = workdir / "run"
        self.inputs_digest = digest(*((workdir / f).read_bytes()
                                      for f in ("survey.csv", "cloud.csv", "config.json")))
        self.bytes_written = 0
        self.log = io.StringIO()

    def setup(self, span):
        t0 = time.perf_counter()
        cfg = RunConfig.load(self.config)
        self.data, _ = _timed(span, "config.ingest", ingest, cfg.data["path"], cfg, self.dir)
        model = build_model(cfg, self.dir)
        self.assembled, _ = _timed(span, "model.assemble", hdsdm.assemble, model, self.data)
        return time.perf_counter() - t0

    def params(self) -> dict:
        return _params(self.assembled, rows=self.data.n, **self.settings_kw)

    def _command(self, span, r: Round, command: str) -> float:
        before = _files(self.outdir) if self.outdir.exists() else {}
        with contextlib.redirect_stdout(self.log):
            code, dt = _timed(span, f"cli.{command}", hdsdm.cli.main,
                              [command, "--config", str(self.config)])
        after = _files(self.outdir)
        self.bytes_written += sum(size for name, (mtime, size) in after.items()
                                  if before.get(name) != (mtime, size))
        r.ops += 1
        r.failed_ops += code != 0
        return dt

    def round(self, span, passes: int) -> Round:
        r = Round(fit_s=0.0)
        r.fit_s = self._command(span, r, "fit")
        for _ in range(passes):
            r.predict_s.append(self._command(span, r, "predict"))
            r.metrics_s.append(self._command(span, r, "metrics"))
            r.phi_s.append(self._command(span, r, "partition"))
        if r.failed_ops:
            raise RuntimeError(f"{r.failed_ops} CLI command(s) failed:\n"
                               + self.log.getvalue())
        r.posterior = self._load_posterior()
        return r

    def _load_posterior(self) -> Posterior:
        header, rows = _read_table(self.outdir / "samples.csv")
        chains = int(rows[:, 0].max()) + 1
        hyper = rows[:, 2:].reshape(chains, -1, len(header) - 2)
        _, coef = _read_table(self.outdir / "coefficients.csv")
        with open(self.outdir / "acceptance.csv", newline="") as fh:
            acceptance = {row["kernel"]: float(row["rate"]) for row in csv.DictReader(fh)}
        return Posterior(header[2:], hyper, coef[:, 1:].reshape(chains, hyper.shape[1], -1),
                         acceptance)

    def check(self, r: Round):
        """The CLI predictions against library ``predict`` on the draws it wrote."""
        post = r.posterior
        a = self.assembled
        mu = post.hyper[:, :, post.names.index("mu")].ravel()
        coef = post.coef.reshape(-1, post.coef.shape[-1])
        bounds = np.cumsum([0] + [a.effects[l].n_coef for l in a.leaf_ids])
        samples = [
            PosteriorSample(hd=None, mu=float(mu[i]), eta=np.zeros(0), coefficients={
                l: CoefficientBlock(coef[i, bounds[k]:bounds[k + 1]], l)
                for k, l in enumerate(a.leaf_ids)})
            for i in range(coef.shape[0])
        ]
        test = ~self.data.train_mask
        p_lib = hdsdm.predict(samples, self.data, assembled=a, mask=test)
        _, pred = _read_table(self.outdir / "predictions.csv")
        err = float(np.max(np.abs(pred[:, 2] - p_lib))) if pred.shape[0] == p_lib.size \
            else float("inf")
        return [("predictions.csv matches library predict within 1e-12", err <= 1e-12,
                 f"max error {err:.3g}")]
