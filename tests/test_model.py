"""Model declaration, dataset validation, and assembly."""

import warnings

import numpy as np
import pytest

from scipy.sparse.csgraph import connected_components

from hdsdm import bases
from hdsdm.config import _entry
from hdsdm.distributions import PointCloud, UniformInterval, UniformLevels
from hdsdm.exceptions import DomainError, ValidationError
from hdsdm.mcmc import Draws, McmcSettings, fit, predict
from hdsdm.model import EFFECT_KINDS, Dataset, EffectDecl, ModelSpec, assemble, build_effects
from hdsdm.partition import phi
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


def linear_model():
    """A linear abiotic effect of column ``a`` and an iid biotic vessel effect."""
    effects = [
        EffectDecl("a", "linear", "a", UniformInterval(0.0, 1.0), side="abiotic"),
        EffectDecl("vessel", "iid", "vessel", UniformLevels(2), side="biotic"),
    ]
    priors = {
        "total_variance": PriorSpec("total_variance", "jeffreys"),
        "abiotic_vs_biotic": PriorSpec("abiotic_vs_biotic", "uniform"),
    }
    return ModelSpec(effects=effects, priors=priors)


def island_cloud(seed):
    """2-4 square islands of 20-79 uniform points, +-0.6 around centres in [0, 10]^2."""
    rng = np.random.default_rng(seed)
    parts = []
    for _ in range(rng.integers(2, 5)):
        centre = rng.uniform(0.0, 10.0, 2)
        parts.append(centre + rng.uniform(-0.6, 0.6, (rng.integers(20, 80), 2)))
    return np.vstack(parts)


def island_effect(cloud):
    """The assembled spatial effect of a linear-plus-spatial model on ``cloud``."""
    model = ModelSpec(
        effects=[
            EffectDecl("a", "linear", "a", UniformInterval(0.0, 1.0), side="abiotic"),
            EffectDecl("spatial", "spatial2d", ("z1", "z2"), PointCloud(cloud),
                       side="biotic", n_basis_2d=(12, 12)),
        ],
        priors=linear_model().priors,
    )
    return assemble(model, None).effects["spatial"]


def check_one_constraint_per_island(eff):
    """Each constraint column is nonzero on exactly one component of the cell
    lattice (read off Q's nonzeros), one column per component, and each
    component has zero quadrature mean under the whitened law."""
    n_comp, labels = connected_components(eff.precision.Q != 0, directed=False)
    assert eff.constraints.shape[1] == n_comp
    owners = [set(labels[col != 0]) for col in eff.constraints.T]
    assert all(len(owner) == 1 for owner in owners)
    assert set().union(*owners) == set(range(n_comp))
    G, T = eff.quadrature_design(), eff.whitening_transform()
    for c in range(n_comp):
        G_c = G[G[:, labels == c].any(axis=1)]
        assert np.abs(G_c.mean(axis=0) @ T).max() <= 1e-10


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

    @pytest.mark.parametrize("column, value, message", [
        ("x1", 2.5, "effect 'x1': 1 covariate value(s) outside support [0.0, 1.0]"),
        ("year", 21.0, "effect 'temporal': 1 value(s) are not levels in 1..20"),
        ("z2", 1.5, "effect 'spatial': 1 covariate value(s) outside support [-2e-06, 1.000002]"),
    ], ids=["interval", "levels", "point_cloud"])
    def test_out_of_support_error_names_the_effect(self, column, value, message):
        # only the interval check named the effect; the basis's own checks
        # of levels and of the cloud's box did not
        model = survey_model(n_basis=8, spatial_funcs=(5, 5))
        data = survey_data(n=50)
        asm = assemble(model, data)
        data.columns[column][3] = value
        want = f"{message}; first offending indices: [3]"
        for build in (lambda: asm.designs_at(data.columns), lambda: assemble(model, data)):
            with pytest.raises(DomainError) as err:
                build()
            assert str(err.value) == want
            assert err.value.indices == [3]

    @pytest.mark.parametrize("make_model, column", [
        (linear_model, "a"),                                # linear
        (lambda: survey_model(8, (5, 5)), "x1"),            # pspline
        (lambda: survey_model(8, (5, 5)), "vessel"),        # iid
        (lambda: survey_model(8, (5, 5)), "z2"),            # spatial2d
        (lambda: survey_model(8, (5, 5)), "year"),          # rw1
    ], ids=["linear", "pspline", "iid", "spatial2d", "rw1"])
    def test_non_finite_covariate_is_a_domain_error(self, make_model, column):
        # every comparison with nan is false, so a check written as
        # "outside" would let it through to the basis evaluation
        model = make_model()
        data = survey_data(n=50)
        data.columns["a"] = np.full(data.n, 0.5)
        asm = assemble(model, data)
        draws = Draws(mu=np.zeros((1, 1)), coefficients={
            l: np.zeros((1, 1, asm.effects[l].n_coef)) for l in asm.leaf_ids})
        for bad in (np.nan, np.inf):
            columns = {k: v.copy() for k, v in data.columns.items()}
            columns[column][[4, 9]] = bad
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DomainError) as err:
                    predict(draws, columns, assembled=asm)
                assert err.value.indices == [4, 9]
                data.columns[column][[4, 9]] = bad  # past the Dataset's own check
                with pytest.raises(DomainError) as err:
                    assemble(model, data)
                assert err.value.indices == [4, 9]
            data.columns[column][[4, 9]] = columns[column][0]

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
        priors = {node: p for node, p in model.priors.items() if node != "x3_flex"}
        with pytest.raises(ValidationError):
            ModelSpec(effects=model.effects, priors=priors)

    @pytest.mark.parametrize("node", ["bogus", "x6_flex"])
    def test_prior_on_unknown_node_rejected(self, node):
        # a prior the tree never reads would be silently ignored
        model = survey_model(n_basis=8, spatial_funcs=(5, 5))
        priors = {**model.priors, node: PriorSpec(node, "uniform")}
        with pytest.raises(ValidationError, match=rf"unknown tree nodes: \['{node}'\]"):
            ModelSpec(effects=model.effects, priors=priors)

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

    def test_disconnected_spatial_lattice(self):
        # two separated clusters leave two components of the cell lattice;
        # each gets its own quadrature zero-mean constraint, so every draw
        # has zero mean over each cluster
        g = np.linspace(0.0, 0.2, 8)
        block = np.column_stack([a.ravel() for a in np.meshgrid(g, g)])
        cloud = np.vstack([block, block + 0.8])
        model = ModelSpec(
            effects=[
                EffectDecl("a", "linear", "a", UniformInterval(0.0, 1.0), side="abiotic"),
                EffectDecl("spatial", "spatial2d", ("z1", "z2"), PointCloud(cloud),
                           side="biotic", n_basis_2d=(12, 12)),
            ],
            priors=linear_model().priors,
        )
        eff = assemble(model, None).effects["spatial"]
        assert eff.precision.null_dim == 2
        assert eff.constraints.shape[1] == 2
        on_first = eff.design(block).any(axis=0)
        for col in eff.constraints.T:  # each constraint sits on one cluster
            assert (col[on_first] == 0).all() or (col[~on_first] == 0).all()
        H = eff.quadrature_design() @ eff.whitening_transform()
        np.testing.assert_allclose(H[: len(block)].mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(H[len(block) :].mean(axis=0), 0.0, atol=1e-12)
        assert np.mean(np.sum(H * H, axis=1)) == pytest.approx(1.0, rel=1e-8)

        rng = np.random.default_rng(16)
        pick = rng.integers(0, cloud.shape[0], 60)
        data = Dataset.from_arrays(y=rng.integers(0, 2, 60), a=rng.uniform(0.0, 1.0, 60),
                                   z1=cloud[pick, 0], z2=cloud[pick, 1])
        result = fit(model, data, McmcSettings(chains=1, iterations=200, burn_in=100, seed=3))
        assert np.isfinite(result.hyper_draws).all()
        assert result.coefficients["spatial"].shape == (1, 100, eff.n_coef)
        np.testing.assert_allclose(result.coefficients["spatial"][0] @ eff.constraints, 0.0,
                                   atol=1e-10)

    @pytest.mark.parametrize("seed", [30, 94])
    def test_a_two_island_cloud_assembles(self, seed):
        # when the islands were read off eigenvectors of the repeated zero
        # eigenvalue, one vector could span both, which left the restricted
        # precision singular (seed 94, under one LAPACK build)
        eff = island_effect(island_cloud(seed))
        assert eff.precision.null_dim == 2
        check_one_constraint_per_island(eff)

    def test_island_clouds_get_one_zero_mean_constraint_per_component(self):
        components = []
        for seed in range(40):
            eff = island_effect(island_cloud(seed))
            check_one_constraint_per_island(eff)
            components.append(eff.precision.null_dim)
        assert max(components) >= 3 and components.count(1) < 40

    def test_effect_kind_validation(self):
        with pytest.raises(ValidationError):
            EffectDecl("a", "unknown", "x", UniformInterval(0, 1))
        with pytest.raises(ValidationError):
            EffectDecl("a", "pspline", "x", UniformLevels(3))
        with pytest.raises(ValidationError):
            EffectDecl("a", "spatial2d", ("z1", "z2"), UniformInterval(0, 1))

    @pytest.mark.parametrize("dist", [PointCloud(small_cloud()), UniformLevels(3)],
                             ids=["cloud", "levels"])
    def test_linear_takes_an_interval_only(self, dist):
        # on a cloud assemble failed with an AttributeError, and on levels the
        # values went unchecked against any support
        name = type(dist).__name__
        with pytest.raises(ValidationError, match=rf"^effect 'x': kind 'linear' takes a "
                                                  rf"UniformInterval support, got {name}$"):
            EffectDecl("x", "linear", "x", dist)

    def test_repeated_leaf_id_named(self):
        effects = [EffectDecl("x", "pspline", "x", UniformInterval(0, 1)),
                   EffectDecl("x_lin", "linear", "y", UniformInterval(0, 1))]
        with pytest.raises(ValidationError, match=r"^leaf ids are not unique: \['x_lin'\]$"):
            ModelSpec(effects=effects, priors={})

    def test_side_and_group_default_by_kind(self):
        space = EffectDecl("space", "spatial2d", ("z1", "z2"), PointCloud(small_cloud()))
        assert (space.side, space.group) == ("biotic", "spatial")
        curve = EffectDecl("x1", "pspline", "x1", UniformInterval(0, 1))
        assert (curve.side, curve.group) == ("abiotic", "x1")
        given = EffectDecl("space", "spatial2d", ("z1", "z2"), PointCloud(small_cloud()),
                           side="abiotic", group="region")
        assert (given.side, given.group) == ("abiotic", "region")


def pspline_spatial_model():
    effects = [
        EffectDecl("x1", "pspline", "x1", UniformInterval(0.0, 1.0), side="abiotic",
                   n_basis=8),
        EffectDecl("spatial", "spatial2d", ("z1", "z2"), PointCloud(small_cloud()),
                   side="biotic", n_basis_2d=(5, 5)),
    ]
    priors = {
        "total_variance": PriorSpec("total_variance", "jeffreys"),
        "abiotic_vs_biotic": PriorSpec("abiotic_vs_biotic", "uniform"),
        "x1_flex": PriorSpec("x1_flex", "pc0", {"lam": 0.1}),
    }
    return ModelSpec(effects=effects, priors=priors)


class TestBuildOnce:
    """Assembly evaluates each basis once per point set and keeps the
    quadrature designs, whatever the data."""

    def test_each_factor_evaluated_once_per_point_set(self, monkeypatch):
        calls = []
        original = bases._eval_bspline1d

        def counted(spec, x):
            calls.append((spec, x.tobytes()))
            return original(spec, x)

        monkeypatch.setattr(bases, "_eval_bspline1d", counted)
        model = pspline_spatial_model()
        data = survey_data(n=60)
        asm = assemble(model, data)
        # the pspline on its grid and on the rows; both tensor factors on the
        # cloud and on the rows
        assert len(calls) == 6
        assert len(set(calls)) == 6
        rng = np.random.default_rng(2)
        draws = Draws(mu=np.zeros((1, 5)), coefficients={
            l: rng.normal(size=(1, 5, asm.effects[l].n_coef)) for l in asm.leaf_ids})
        del calls[:]
        phi(draws, asm)
        assert calls == []

    @pytest.mark.parametrize("make_model", [survey_model, linear_model])
    def test_effects_do_not_depend_on_the_data(self, make_model):
        model = make_model()
        rng = np.random.default_rng(4)
        data = survey_data(n=80) if make_model is survey_model else Dataset.from_arrays(
            y=rng.integers(0, 2, 80), a=rng.uniform(0, 1, 80),
            vessel=rng.integers(1, 3, 80).astype(float))
        with_data = assemble(model, data).effects
        without = assemble(model, None).effects
        for leaf, eff in with_data.items():
            other = without[leaf]
            assert eff.scale_constant == other.scale_constant
            for get in ("whitening_transform", "quadrature_design"):
                a, b = getattr(eff, get)(), getattr(other, get)()
                assert a.shape == b.shape and a.tobytes() == b.tobytes(), (leaf, get)

    @pytest.mark.parametrize("make_model", [survey_model, linear_model])
    def test_quadrature_design_is_read_only(self, make_model):
        for leaf, eff in assemble(make_model(), None).effects.items():
            G = eff.quadrature_design()
            assert G is eff.quadrature_design()
            assert not G.flags.writeable, leaf
            with pytest.raises(ValueError):
                G[0, 0] = 1.0


class TestKindTable:
    """``EFFECT_KINDS`` is the one owner of what a kind reads and produces:
    the leaf ids a declaration names are the ids of the effects built for it,
    and a config entry names its columns under ``covariates`` exactly for
    the kinds that read two."""

    DISTS = {UniformInterval: UniformInterval(0.0, 1.0), UniformLevels: UniformLevels(3),
             PointCloud: PointCloud(small_cloud())}

    @pytest.mark.parametrize("kind", sorted(EFFECT_KINDS))
    def test_leaf_ids_are_the_built_effect_ids(self, kind):
        row = EFFECT_KINDS[kind]
        covariate = ("a", "b") if row.columns == 2 else "a"
        decl = EffectDecl("e", kind, covariate, self.DISTS[row.support],
                          n_basis=6, n_basis_2d=(4, 4))
        assert decl.leaf_ids == tuple(eff.effect_id for eff in build_effects(decl))
        assert len(set(decl.leaf_ids)) == len(row.leaves)

    @pytest.mark.parametrize("kind", sorted(EFFECT_KINDS))
    def test_config_entry_asks_for_covariates_exactly_for_two_column_kinds(self, kind):
        column = "covariates" if EFFECT_KINDS[kind].columns == 2 else "covariate"
        with pytest.raises(ValidationError, match=f"^effect 'e' is missing '{column}'$"):
            _entry({"id": "e", "kind": kind})
