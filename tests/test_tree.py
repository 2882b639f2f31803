"""Tree construction and the (V, omega) <-> sigma2 bijection."""

import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import settings as hyp_settings
from hypothesis import strategies as st

from hdsdm.exceptions import ValidationError
from hdsdm.tree import (
    DecompTree,
    EffectLabel,
    HDParams,
    TreeNode,
    build_default_tree,
    from_unconstrained,
    from_variances,
    log_jacobian,
    natural_columns,
    natural_values,
    to_unconstrained,
    to_variances,
)

from test_priors import trees_and_priors


def survey_labels():
    labels = []
    for p in range(1, 6):
        labels.append(EffectLabel(f"x{p}_lin", side="abiotic", group=f"x{p}"))
        labels.append(EffectLabel(f"x{p}_nonlin", side="abiotic", group=f"x{p}"))
    labels.append(EffectLabel("vessel", side="abiotic"))
    labels.append(EffectLabel("spatial", side="biotic", group="spatial"))
    labels.append(EffectLabel("temporal", side="biotic", group="temporal"))
    return labels


def survey_tree():
    return build_default_tree(survey_labels())


class TestBuildDefaultTree:
    def test_survey_tree_shape(self):
        tree = survey_tree()
        assert tree.n_leaves == 13
        names = {s.name: s for s in tree.splits}
        assert set(names) == {
            "abiotic_vs_biotic",
            "covariates",
            "spatial_vs_temporal",
            "x1_flex",
            "x2_flex",
            "x3_flex",
            "x4_flex",
            "x5_flex",
        }
        assert names["covariates"].n_children == 6
        assert names["abiotic_vs_biotic"].child_names[0] == "covariates"
        # designated children: abiotic share, spatial share, nonlinear share
        ab = names["abiotic_vs_biotic"]
        assert ab.omega_index == 0
        st = names["spatial_vs_temporal"]
        assert st.child_names[st.omega_index] == "spatial"
        fx = names["x1_flex"]
        assert fx.child_names[fx.omega_index] == "x1_nonlin"

    def test_two_effect_model_single_split(self):
        tree = build_default_tree(
            [EffectLabel("a", side="abiotic"), EffectLabel("b", side="biotic")]
        )
        assert tree.n_leaves == 2
        assert [s.name for s in tree.splits] == ["abiotic_vs_biotic"]

    def test_interactions_retain_level_two(self):
        tree = build_default_tree(
            [
                EffectLabel("x1", side="abiotic"),
                EffectLabel("x2", side="abiotic"),
                EffectLabel("x1x2", side="abiotic", role="interaction", group="x1x2"),
                EffectLabel("spatial", side="biotic", group="spatial"),
            ]
        )
        names = [s.name for s in tree.splits]
        assert "abiotic_mains_vs_interactions" in names
        split = tree.split("abiotic_mains_vs_interactions")
        assert split.child_names[split.omega_index] == "x1x2"

    def test_several_interaction_groups_share_one_split(self):
        tree = build_default_tree(
            [
                EffectLabel("x1", side="abiotic"),
                EffectLabel("x2", side="abiotic"),
                EffectLabel("x1x2", side="abiotic", role="interaction"),
                EffectLabel("x1x3_lin", side="abiotic", role="interaction", group="x1x3"),
                EffectLabel("x1x3_nonlin", side="abiotic", role="interaction", group="x1x3"),
                EffectLabel("spatial", side="biotic", group="spatial"),
            ]
        )
        splits = {s.name: (s.child_names, s.omega_index) for s in tree.splits}
        assert splits == {
            "abiotic_vs_biotic": (("abiotic_mains_vs_interactions", "spatial"), 0),
            "abiotic_mains_vs_interactions": (("covariates", "abiotic_interactions"), 1),
            "covariates": (("x1", "x2"), 0),
            "abiotic_interactions": (("x1x2", "x1x3_flex"), 0),
            "x1x3_flex": (("x1x3_lin", "x1x3_nonlin"), 1),
        }
        assert [s.name for s in tree.splits] == list(splits)  # preorder
        assert tree.leaves == ("x1", "x2", "x1x2", "x1x3_lin", "x1x3_nonlin", "spatial")

    def test_side_with_only_interactions(self):
        tree = build_default_tree(
            [
                EffectLabel("x1", side="abiotic"),
                EffectLabel("space_time", side="biotic", role="interaction"),
                EffectLabel("space_year", side="biotic", role="interaction"),
            ]
        )
        splits = {s.name: (s.child_names, s.omega_index) for s in tree.splits}
        assert splits == {
            "abiotic_vs_biotic": (("x1", "biotic_interactions"), 0),
            "biotic_interactions": (("space_time", "space_year"), 0),
        }
        assert tree.leaves == ("x1", "space_time", "space_year")
        # one interaction group on its own is its flexibility chain, with no split above it
        alone = build_default_tree(
            [
                EffectLabel("st_a", side="biotic", role="interaction", group="st"),
                EffectLabel("st_b", side="biotic", role="interaction", group="st"),
            ]
        )
        assert [(s.name, s.child_names, s.omega_index) for s in alone.splits] == \
            [("st_flex", ("st_a", "st_b"), 1)]
        assert alone.leaves == ("st_a", "st_b")

    def test_no_interactions_prunes_level_two(self):
        names = [s.name for s in survey_tree().splits]
        assert not any("mains_vs_interactions" in n for n in names)

    def test_deterministic(self):
        t1, t2 = survey_tree(), survey_tree()
        assert t1.to_dict() == t2.to_dict()

    def test_missing_tags_rejected(self):
        with pytest.raises(ValidationError):
            EffectLabel("a", side="unknown")
        with pytest.raises(ValidationError):
            build_default_tree([])
        with pytest.raises(ValidationError):
            build_default_tree([EffectLabel("a", side="abiotic")] * 2)

    def test_a_groups_second_flexibility_split_is_flex2(self):
        labels = [EffectLabel(e, side="abiotic", group="g") for e in ("a", "b", "c")]
        tree = build_default_tree([*labels, EffectLabel("d", side="biotic")])
        assert [(s.name, s.child_names, s.omega_index) for s in tree.splits] == [
            ("abiotic_vs_biotic", ("g_flex", "d"), 0),
            ("g_flex", ("a", "g_flex2"), 1),
            ("g_flex2", ("b", "c"), 1),
        ]

    @pytest.mark.parametrize("side, role, branch", [
        ("biotic", "main", "biotic mains"),
        ("abiotic", "interaction", "abiotic interactions"),
    ])
    def test_group_in_two_branches_named(self, side, role, branch):
        # each branch would get a split named g_flex
        labels = [EffectLabel("a", side="abiotic", group="g"),
                  EffectLabel("b", side="abiotic", group="g"),
                  EffectLabel("c", side=side, role=role, group="g"),
                  EffectLabel("d", side=side, role=role, group="g")]
        with pytest.raises(ValidationError, match=re.escape(
                f"group 'g' has several effects in more than one branch of the tree "
                f"(abiotic mains ['a', 'b']; {branch} ['c', 'd'])")):
            build_default_tree(labels)
        # one effect of the group in a branch makes no flexibility split there
        assert "g_flex" in {s.name for s in build_default_tree(labels[:3]).splits}


class TestVarianceMaps:
    def test_two_leaf_example(self):
        tree = build_default_tree(
            [EffectLabel("a", side="abiotic"), EffectLabel("b", side="biotic")]
        )
        p = HDParams(total=2.0, proportions={"abiotic_vs_biotic": np.array([0.5, 0.5])})
        np.testing.assert_allclose(
            [to_variances(tree, p)[l] for l in ("a", "b")], [1.0, 1.0]
        )

    def test_survey_tree_equal_shares(self):
        tree = survey_tree()
        props = {
            "abiotic_vs_biotic": np.array([0.6, 0.4]),
            "covariates": np.full(6, 1 / 6),
            "spatial_vs_temporal": np.array([0.5, 0.5]),
        }
        for p in range(1, 6):
            props[f"x{p}_flex"] = np.array([0.5, 0.5])
        p = HDParams(total=3.0, proportions=props)
        sig = to_variances(tree, p)
        for c in range(1, 6):
            group = sig[f"x{c}_lin"] + sig[f"x{c}_nonlin"]
            assert group == pytest.approx(0.6 * 3.0 / 6)
        assert sig["vessel"] == pytest.approx(0.6 * 3.0 / 6)

    def test_from_variances_two_leaves(self):
        tree = build_default_tree(
            [EffectLabel("a", side="abiotic"), EffectLabel("b", side="biotic")]
        )
        p = from_variances(tree, {"a": 1.0, "b": 1.0})
        assert p.total == pytest.approx(2.0)
        assert p.omega(tree, "abiotic_vs_biotic") == pytest.approx(0.5)

    def test_survey_tree_reparametrization_algebra(self):
        # sigma_S^2 = 3, sigma_T^2 = 1, everything else 0.5
        tree = survey_tree()
        sigma2 = {leaf: 0.5 for leaf in tree.leaves}
        sigma2["spatial"], sigma2["temporal"] = 3.0, 1.0
        p = from_variances(tree, sigma2)
        V = 5 * 1.0 + 0.5 + 3.0 + 1.0
        assert p.total == pytest.approx(V)
        assert p.omega(tree, "spatial_vs_temporal") == pytest.approx(3.0 / 4.0)
        assert p.omega(tree, "abiotic_vs_biotic") == pytest.approx(5.5 / V)
        np.testing.assert_allclose(
            p.proportions["covariates"], [1 / 5.5] * 5 + [0.5 / 5.5]
        )
        for c in range(1, 6):
            assert p.omega(tree, f"x{c}_flex") == pytest.approx(0.5)

    def test_round_trip_random(self):
        tree = survey_tree()
        rng = np.random.default_rng(0)
        for _ in range(200):
            sigma2 = {leaf: rng.uniform(1e-3, 5.0) for leaf in tree.leaves}
            p = from_variances(tree, sigma2)
            back = to_variances(tree, p)
            assert max(abs(back[l] - sigma2[l]) for l in tree.leaves) < 1e-12
            assert sum(back.values()) == pytest.approx(p.total, abs=1e-12)

    def test_degenerate_split_maps_to_barycenter(self):
        tree = survey_tree()
        sigma2 = {leaf: 0.0 for leaf in tree.leaves}
        sigma2["spatial"] = 1.0
        with pytest.warns(RuntimeWarning):
            p = from_variances(tree, sigma2)
        assert "covariates" in p.degenerate_splits
        np.testing.assert_allclose(p.proportions["x1_flex"], [0.5, 0.5])

    def test_validation(self):
        tree = survey_tree()
        with pytest.raises(ValidationError):
            from_variances(tree, {"spatial": 1.0})
        with pytest.raises(ValidationError):
            from_variances(tree, {leaf: 0.0 for leaf in tree.leaves})
        with pytest.raises(ValidationError):
            HDParams(total=1.0, proportions={"s": np.array([0.5, 0.6])})

    @pytest.mark.parametrize("total, proportions, message", [
        (np.nan, {}, "total variance must be finite and >= 0, got nan"),
        (np.inf, {}, "total variance must be finite and >= 0, got inf"),
        (1.0, {"s": [np.nan, 1.0]}, "split 's': [nan  1.] are not proportions in [0, 1]"),
        (1.0, {"s": [1.5, -0.5]}, "split 's': [ 1.5 -0.5] are not proportions in [0, 1]"),
    ], ids=["total_nan", "total_inf", "nan_proportion", "proportions_outside_0_1"])
    def test_bad_values_rejected(self, total, proportions, message):
        # each passed: nan slipped through the sum check, and [1.5, -0.5]
        # became a leaf variance of -0.5
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            HDParams(total, proportions)


class TestUnconstrainedCoordinates:
    def test_simple_binary_origin(self):
        tree = build_default_tree(
            [EffectLabel("a", side="abiotic"), EffectLabel("b", side="biotic")]
        )
        p = HDParams(total=1.0, proportions={"abiotic_vs_biotic": np.array([0.5, 0.5])})
        np.testing.assert_allclose(to_unconstrained(tree, p), [0.0, 0.0], atol=1e-15)

    def test_round_trip(self):
        tree = survey_tree()
        rng = np.random.default_rng(1)
        for _ in range(100):
            theta = rng.normal(scale=2.0, size=tree.n_coordinates)
            p = from_unconstrained(tree, theta)
            np.testing.assert_allclose(to_unconstrained(tree, p), theta, atol=1e-12)

    def test_boundary_rejected(self):
        tree = build_default_tree(
            [EffectLabel("a", side="abiotic"), EffectLabel("b", side="biotic")]
        )
        p = HDParams(total=1.0, proportions={"abiotic_vs_biotic": np.array([1.0, 0.0])})
        with pytest.raises(ValidationError):
            to_unconstrained(tree, p)

    def test_an_exact_zero_in_a_three_way_split_rejected(self):
        # no proportion is 1, so only the lower end of the open simplex catches it
        tree = build_default_tree([EffectLabel(e, side="abiotic") for e in "abc"]
                                  + [EffectLabel("d", side="biotic")])
        p = HDParams(total=1.0, proportions={"abiotic_vs_biotic": np.array([0.5, 0.5]),
                                             "covariates": np.array([0.5, 0.5, 0.0])})
        with pytest.raises(ValidationError, match=r"^split 'covariates': .* are not "
                                                  "proportions off the simplex boundary$"):
            to_unconstrained(tree, p)

    @pytest.mark.parametrize("split, props", [("covariates", [0.5, 0.5]),
                                              ("x1_flex", [0.2, 0.3, 0.5])],
                             ids=["too_few", "too_many"])
    def test_proportions_of_another_length_rejected(self, split, props):
        # a short simplex gave a theta of the wrong length, or was broadcast
        # across the split's coordinates; a long one was read in part
        tree = survey_tree()
        p = from_unconstrained(tree, np.zeros(tree.n_coordinates))
        bad = HDParams(total=1.0, proportions={**p.proportions, split: np.array(props)})
        n = tree.split(split).n_children
        with pytest.raises(ValidationError, match=f"^split '{split}': .* are not {n} "):
            to_unconstrained(tree, bad)

    @pytest.mark.parametrize("shape", [(2, 16), (2, 12), (13,)],
                             ids=["wide", "narrow", "one_row_1d"])
    def test_natural_values_takes_rows_of_d_coordinates(self, shape):
        # extra columns were ignored, and too few or a 1-D array was a bare IndexError
        tree = survey_tree()
        assert tree.n_coordinates == 13
        with pytest.raises(ValidationError, match=re.escape(
                f"expected rows of 13 coordinates, got shape {shape}")):
            natural_values(tree, np.zeros(shape))

    def test_log_jacobian_against_finite_differences(self):
        tree = survey_tree()
        rng = np.random.default_rng(2)

        def natural(theta):
            p = from_unconstrained(tree, theta)
            coords = [p.total]
            for s in tree.splits:
                props = p.proportions[s.name]
                if s.is_binary:
                    coords.append(props[s.omega_index])
                else:
                    coords.extend(props[:-1])
            return np.array(coords)

        for _ in range(5):
            theta = rng.normal(scale=1.0, size=tree.n_coordinates)
            d = theta.size
            J = np.empty((d, d))
            h = 1e-6
            for j in range(d):
                e = np.zeros(d)
                e[j] = h
                J[:, j] = (natural(theta + e) - natural(theta - e)) / (2 * h)
            _, fd_logdet = np.linalg.slogdet(J)
            rel = abs(log_jacobian(tree, theta) - fd_logdet) / max(abs(fd_logdet), 1.0)
            assert rel < 1e-5


class TestBijectionProperty:
    """The maps between unconstrained coordinates, (V, omega) and leaf
    variances on random trees, where every proportion is above the floor."""

    @hyp_settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(model=trees_and_priors(), data=st.data())
    def test_the_maps_round_trip(self, model, data):
        tree, _ = model
        d = tree.n_coordinates
        # |coordinate| <= 12 keeps every proportion above 6e-12 > PROPORTION_FLOOR
        coords = st.lists(st.floats(-12.0, 12.0), min_size=d, max_size=d)
        theta = np.array(data.draw(st.lists(coords, min_size=1, max_size=4)))
        rows = natural_values(tree, theta)
        for th, row in zip(theta, rows):
            p = from_unconstrained(tree, th)
            np.testing.assert_allclose(to_unconstrained(tree, p), th, rtol=0.0, atol=1e-9)
            # each natural column is the proportion of its prior-check key
            want = [p.total]
            for _, key in natural_columns(tree)[1:]:
                split, _, child = key.partition(":")
                want.append(p.proportions[split][tree.split(split).child_names.index(child)])
            np.testing.assert_array_equal(row, want)
            back = from_variances(tree, to_variances(tree, p))
            assert back.total == pytest.approx(p.total, rel=1e-12)
            for s in tree.splits:
                np.testing.assert_allclose(back.proportions[s.name], p.proportions[s.name],
                                           rtol=1e-12)


class TestTreeValidation:
    def test_single_child_internal_rejected(self):
        with pytest.raises(ValidationError):
            DecompTree(TreeNode("root", children=(TreeNode("a"),)))

    def test_duplicate_leaves_rejected(self):
        with pytest.raises(ValidationError):
            DecompTree(TreeNode("root", children=(TreeNode("a"), TreeNode("a"))))
