"""Model declaration, dataset validation, and assembly."""

import numpy as np
import pytest

from hdsdm.distributions import PointCloud, UniformInterval, UniformLevels
from hdsdm.exceptions import DomainError, ValidationError
from hdsdm.mcmc import McmcSettings, fit
from hdsdm.model import Dataset, EffectDecl, ModelSpec, assemble
from hdsdm.priors import PriorSpec


def small_cloud():
    g = np.linspace(0.0, 1.0, 20)
    xx, yy = np.meshgrid(g, g, indexing="ij")
    keep = ~((xx > 0.5) & (yy > 0.5))
    return np.column_stack([xx[keep], yy[keep]])


def survey_model(n_basis=20, spatial_funcs=(6, 6), n_years=20):
    effects = []
    for p in range(1, 6):
        effects.append(
            EffectDecl(
                effect_id=f"x{p}",
                kind="pspline",
                covariate=f"x{p}",
                dist=UniformInterval(0.0, 1.0),
                side="abiotic",
                n_basis=n_basis,
            )
        )
    effects.append(
        EffectDecl(
            effect_id="vessel",
            kind="iid",
            covariate="vessel",
            dist=UniformLevels(2),
            side="abiotic",
        )
    )
    effects.append(
        EffectDecl(
            effect_id="spatial",
            kind="spatial2d",
            covariate=("z1", "z2"),
            dist=PointCloud(small_cloud()),
            side="biotic",
            group="spatial",
            n_basis_2d=spatial_funcs,
        )
    )
    effects.append(
        EffectDecl(
            effect_id="temporal",
            kind="rw1",
            covariate="year",
            dist=UniformLevels(n_years),
            side="biotic",
            group="temporal",
        )
    )
    priors = {
        "total_variance": PriorSpec("total_variance", "jeffreys"),
        "abiotic_vs_biotic": PriorSpec("abiotic_vs_biotic", "uniform"),
        "covariates": PriorSpec("covariates", "dirichlet", {"q": 0.5}),
        "spatial_vs_temporal": PriorSpec("spatial_vs_temporal", "uniform"),
    }
    for p in range(1, 6):
        priors[f"x{p}_flex"] = PriorSpec(f"x{p}_flex", "pc0", {"lam": 0.1})
    return ModelSpec(effects=effects, priors=priors)


def survey_data(n=200, seed=0, n_years=20):
    rng = np.random.default_rng(seed)
    cloud = small_cloud()
    pick = rng.integers(0, cloud.shape[0], size=n)
    cols = {f"x{p}": rng.uniform(0, 1, n) for p in range(1, 6)}
    cols["vessel"] = rng.integers(1, 3, n).astype(float)
    cols["z1"] = cloud[pick, 0]
    cols["z2"] = cloud[pick, 1]
    cols["year"] = rng.integers(1, n_years + 1, n).astype(float)
    y = rng.integers(0, 2, n)
    return Dataset.from_arrays(y=y, **cols)


class TestDataset:
    def test_rejects_nonbinary_response(self):
        with pytest.raises(ValidationError):
            Dataset.from_arrays(y=[0, 1, 2], x=[1.0, 2.0, 3.0])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValidationError):
            Dataset.from_arrays(y=[0, 1], x=[1.0])

    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            Dataset.from_arrays(y=[0, 1], x=[1.0, np.nan])

    def test_train_test_rows(self):
        d = Dataset.from_arrays(
            y=[0, 1, 1], train_mask=np.array([True, True, False]), x=[1.0, 2.0, 3.0]
        )
        assert d.n_train == 2
        np.testing.assert_allclose(d.rows(~d.train_mask)["x"], [3.0])


class TestAssemble:
    def test_survey_model_thirteen_blocks(self):
        model = survey_model(n_basis=8, spatial_funcs=(5, 5))
        data = survey_data(n=150)
        asm = assemble(model, data)
        assert len(asm.leaf_ids) == 13
        kinds = {l: asm.decl_by_leaf[l].kind for l in asm.leaf_ids}
        assert sum(k == "pspline" for k in kinds.values()) == 10  # 5 linear + 5 nonlinear
        assert {"vessel", "spatial", "temporal"} <= set(asm.leaf_ids)
        for leaf in asm.leaf_ids:
            assert asm.designs[leaf].shape[0] == data.n_train

    def test_linear_predictor_dimension(self):
        model = survey_model(n_basis=8, spatial_funcs=(5, 5))
        data = survey_data(n=150)
        asm = assemble(model, data)
        coeffs = {l: np.zeros(asm.effects[l].n_coef) for l in asm.leaf_ids}
        eta = asm.linear_predictor(coeffs, mu=0.3)
        assert eta.shape == (data.n_train,)
        np.testing.assert_allclose(eta, 0.3)

    def test_intercept_only(self):
        model = ModelSpec(effects=[], priors={})
        data = Dataset.from_arrays(y=[0, 1, 1])
        asm = assemble(model, data)
        assert asm.leaf_ids == ()
        eta = asm.linear_predictor({}, mu=1.5)
        np.testing.assert_allclose(eta, [1.5, 1.5, 1.5])

    def test_out_of_support_covariate(self):
        model = survey_model(n_basis=8, spatial_funcs=(5, 5))
        data = survey_data(n=50)
        data.columns["x1"][3] = 2.5  # outside [0, 1]
        with pytest.raises(DomainError):
            assemble(model, data)

    def test_unresolvable_column(self):
        model = ModelSpec(
            effects=[
                EffectDecl(
                    effect_id="a",
                    kind="linear",
                    covariate="missing",
                    dist=UniformInterval(0, 1),
                    side="abiotic",
                ),
                EffectDecl(
                    effect_id="b",
                    kind="iid",
                    covariate="g",
                    dist=UniformLevels(2),
                    side="biotic",
                ),
            ],
            priors={
                "total_variance": PriorSpec("total_variance", "jeffreys"),
                "abiotic_vs_biotic": PriorSpec("abiotic_vs_biotic", "uniform"),
            },
        )
        data = Dataset.from_arrays(y=[0, 1], g=[1.0, 2.0])
        with pytest.raises(ValidationError):
            assemble(model, data)

    def test_missing_prior_rejected(self):
        model = survey_model()
        del model.priors["x3_flex"]
        with pytest.raises(ValidationError):
            model.build_tree()

    def test_no_training_rows_rejected(self):
        # fitting such data would return prior draws as if fitted to it
        model = survey_model(n_basis=8, spatial_funcs=(5, 5))
        data = survey_data(n=50)
        data.train_mask[:] = False
        with pytest.raises(ValidationError, match="no training rows"):
            assemble(model, data)
        with pytest.raises(ValidationError, match="no training rows"):
            fit(model, data, McmcSettings(chains=1, iterations=20, burn_in=10))

    def test_prior_only_assembly(self):
        model = survey_model(n_basis=8, spatial_funcs=(5, 5))
        asm = assemble(model, None)
        assert asm.n_train == 0
        for leaf in asm.leaf_ids:
            assert asm.designs[leaf].shape[0] == 0

    def test_standardized_effects_satisfy_contract_cheaply(self):
        # spot check: reference scaling is applied to every assembled effect
        model = survey_model(n_basis=8, spatial_funcs=(5, 5))
        asm = assemble(model, None)
        for leaf in asm.leaf_ids:
            eff = asm.effects[leaf]
            G = eff.quadrature_design()
            T = eff.whitening_transform()
            H = G @ T
            var = np.mean(np.sum(H * H, axis=1))
            assert var == pytest.approx(1.0, rel=1e-8)

    def test_effect_kind_validation(self):
        with pytest.raises(ValidationError):
            EffectDecl("a", "unknown", "x", UniformInterval(0, 1))
        with pytest.raises(ValidationError):
            EffectDecl("a", "pspline", "x", UniformLevels(3))
        with pytest.raises(ValidationError):
            EffectDecl("a", "spatial2d", ("z1", "z2"), UniformInterval(0, 1))
