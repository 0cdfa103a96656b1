"""Distances, success classification, DSR aggregation, and PCA."""

import numpy as np
import pytest

from disruptkit.dataset import generate_dataset
from disruptkit.errors import ConfigError, DegenerateEmbeddingError, ShapeError
from disruptkit.metrics import (
    DsrSummary,
    MetricThresholds,
    SurrogateEmbedder,
    aggregate_dsr,
    classify_success,
    id_distance,
    l2_image,
    pca_project_latents,
    perceptual_distance,
    separation_statistic,
)


class FlatEmbedder:
    """Test stub: the embedding is the flattened image itself."""

    def embed(self, image):
        return np.asarray(image, dtype=np.float64).reshape(-1)

    def features(self, image):
        return [self.embed(image)]


def image(seed, shape=(8, 8, 1)):
    return generate_dataset(seed=seed, count=1, shape=shape)[0].data


class TestL2Image:
    def test_identical_is_zero(self):
        y = image(0)
        assert l2_image(y, y) == 0.0

    def test_zeros_vs_ones_is_one(self):
        assert l2_image(np.zeros((4, 4, 1)), np.ones((4, 4, 1))) == 1.0

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(1)
        a = rng.uniform(size=(3, 4, 1))
        b = rng.uniform(size=(3, 4, 1))
        # independent oracle: plain python accumulation
        acc = 0.0
        for i in range(3):
            for j in range(4):
                acc += (a[i, j, 0] - b[i, j, 0]) ** 2
        assert abs(l2_image(a, b) - acc / 12.0) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            l2_image(np.zeros((2, 2, 1)), np.zeros((3, 2, 1)))


class TestIdDistance:
    def test_identical_images_zero(self):
        y = image(2)
        assert id_distance(y, y, SurrogateEmbedder([0], y.size)) == 0.0

    def test_orthogonal_embeddings_give_one(self):
        d = id_distance(np.array([1.0, 0.0]), np.array([0.0, 1.0]), FlatEmbedder())
        assert d == 1.0

    def test_antipodal_embeddings_give_two(self):
        d = id_distance(np.array([1.0, 0.0]), np.array([-1.0, 0.0]), FlatEmbedder())
        assert d == 2.0

    def test_range_bounds(self):
        emb = SurrogateEmbedder([3], 64)
        rng = np.random.default_rng(4)
        for _ in range(10):
            d = id_distance(rng.uniform(size=(8, 8, 1)), rng.uniform(size=(8, 8, 1)), emb)
            assert 0.0 <= d <= 2.0

    def test_zero_norm_embedding_rejected(self):
        with pytest.raises(DegenerateEmbeddingError):
            id_distance(np.zeros(3), np.ones(3), FlatEmbedder())


class TestPerceptualDistance:
    def test_identical_images_zero(self):
        y = image(5)
        assert perceptual_distance(y, y, SurrogateEmbedder([6], y.size)) == 0.0

    def test_symmetric_bitwise(self):
        emb = SurrogateEmbedder([7], 64)
        a, b = image(8), image(9)
        assert perceptual_distance(a, b, emb) == perceptual_distance(b, a, emb)

    def test_monotone_along_perturbation_ray(self):
        emb = SurrogateEmbedder([9, 1], 64)
        y = image(2)
        rng = np.random.default_rng(3)
        delta = rng.normal(size=(8, 8, 1))
        delta /= np.abs(delta).max()
        values = [perceptual_distance(y, y + t * delta, emb)
                  for t in np.linspace(0.0, 0.1, 11)]
        assert all(b - a >= -1e-12 for a, b in zip(values, values[1:]))
        assert values[-1] > values[0]

    def test_nonnegative(self):
        emb = SurrogateEmbedder([11], 64)
        assert perceptual_distance(image(1), image(2), emb) >= 0.0

    def test_zero_feature_handled_without_error(self):
        # all-zero image gives a zero first tap under zero bias; defined result
        emb = SurrogateEmbedder([12], 4)
        d = perceptual_distance(np.zeros(4), np.ones(4), emb)
        assert d >= 0.0


def stack(seed, shape=(2, 3, 8, 8, 1)):
    return np.random.default_rng(seed).uniform(size=shape)


DISTANCES = {
    "l2": l2_image,
    "id": lambda a, b: id_distance(a, b, SurrogateEmbedder([20], 64)),
    "lpips": lambda a, b: perceptual_distance(a, b, SurrogateEmbedder([21], 64)),
}


@pytest.mark.parametrize("name", list(DISTANCES))
class TestStackedDistances:
    """A [..., H, W, C] stack gives one value per image, as one-image calls do."""

    def test_rows_match_one_image_calls(self, name):
        distance = DISTANCES[name]
        a, b = stack(1), stack(2)
        batched = distance(a, b)
        assert batched.shape == (2, 3)
        for index in np.ndindex(2, 3):
            single = distance(a[index], b[index])
            assert type(single) is float
            if name == "l2":
                assert batched[index] == single
            else:
                assert abs(batched[index] - single) <= 1e-15

    def test_identical_rows_give_exact_zero(self, name):
        a, b = stack(3), stack(4)
        b[0, 1] = a[0, 1]
        d = DISTANCES[name](a, b)
        assert d[0, 1] == 0.0
        assert np.count_nonzero(d) == d.size - 1

    def test_mismatched_stacks_rejected(self, name):
        with pytest.raises(ShapeError):
            DISTANCES[name](stack(5), stack(6, shape=(3, 2, 8, 8, 1)))


def test_zero_norm_row_in_stack_rejected():
    a, b = stack(7), stack(8)
    a[1, 2] = 0.0  # a zero image embeds to zero: the embedder has no bias
    with pytest.raises(DegenerateEmbeddingError):
        id_distance(a, b, SurrogateEmbedder([22], 64))


class TestSurrogateEmbedder:
    def test_deterministic_from_seed(self):
        a = SurrogateEmbedder([42], 64)
        b = SurrogateEmbedder([42], 64)
        y = image(3)
        assert np.array_equal(a.embed(y), b.embed(y))

    def test_different_seeds_differ(self):
        y = image(3)
        assert not np.array_equal(
            SurrogateEmbedder([1], 64).embed(y), SurrogateEmbedder([2], 64).embed(y))

    def test_tap_count_and_shapes(self):
        emb = SurrogateEmbedder([5], 64)
        taps = emb.features(image(4))
        assert [t.size for t in taps] == [32, 24, 16]

    def test_input_size_validated(self):
        with pytest.raises(ShapeError):
            SurrogateEmbedder([5], 64).embed(np.zeros(10))


class TestClassifySuccess:
    TH = MetricThresholds()

    def test_l2_alone_triggers(self):
        assert classify_success(0.06, 0.0, 0.0, self.TH) is True

    def test_id_alone_triggers(self):
        assert classify_success(0.01, 0.7, 0.0, self.TH) is True

    def test_lpips_alone_triggers(self):
        assert classify_success(0.01, 0.1, 0.41, self.TH) is True

    def test_all_below_fails(self):
        assert classify_success(0.01, 0.1, 0.1, self.TH) is False

    def test_thresholds_are_strict(self):
        assert classify_success(0.05, 0.6, 0.4, self.TH) is False

    def test_monotone_in_each_metric(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            l2, idv, lp = rng.uniform(0, 0.1), rng.uniform(0, 1.2), rng.uniform(0, 0.8)
            base = classify_success(l2, idv, lp, self.TH)
            bumped = classify_success(l2 + 0.01, idv + 0.01, lp + 0.01, self.TH)
            assert not (base and not bumped)

    def test_negative_metric_rejected(self):
        with pytest.raises(ValueError):
            classify_success(-0.01, 0.0, 0.0, self.TH)

    def test_threshold_validation(self):
        with pytest.raises(ConfigError):
            MetricThresholds(l2=0.0)


class TestAggregateDsr:
    def test_all_true(self):
        out = aggregate_dsr({"a": [True, True], "b": [True, True]})
        assert out == DsrSummary(per_model={"a": 1.0, "b": 1.0}, avg_dsr=1.0, e_dsr=1.0)

    def test_one_model_all_false(self):
        out = aggregate_dsr({"a": [True, True], "b": [False, False]})
        assert out.avg_dsr == 0.5
        assert out.e_dsr == 0.0

    def test_hand_enumerated_mixed_case(self):
        # images: 1st succeeds on both, 2nd on A only
        out = aggregate_dsr({"a": [True, True], "b": [True, False]})
        assert out.per_model == {"a": 1.0, "b": 0.5}
        assert out.avg_dsr == 0.75
        assert out.e_dsr == 0.5

    def test_e_dsr_bounded_by_min_dsr(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            flags = {f"m{i}": list(rng.uniform(size=8) > 0.5) for i in range(3)}
            out = aggregate_dsr(flags)
            assert out.e_dsr <= min(out.per_model.values()) + 1e-12

    def test_inconsistent_image_counts_rejected(self):
        with pytest.raises(ConfigError):
            aggregate_dsr({"a": [True], "b": [True, False]})

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            aggregate_dsr({})


class TestPcaProjection:
    def test_identical_latents_project_to_origin(self):
        z = np.ones(6)
        points = pca_project_latents(np.stack([z, z.copy(), z.copy()]))
        assert np.array_equal(points, np.zeros((3, 2)))

    def test_axis_aligned_data_recovered(self):
        data = [np.array([2.0, 0.0]), np.array([-2.0, 0.0]),
                np.array([1.0, 0.0]), np.array([-1.0, 0.0]),
                np.array([0.0, 0.5]), np.array([0.0, -0.5])]
        points = pca_project_latents(np.stack(data))
        # mean is zero; the sign convention makes both axes positive
        assert np.max(np.abs(points - np.stack(data))) < 1e-12

    def test_sign_convention_deterministic(self):
        rng = np.random.default_rng(8)
        latents = [rng.normal(size=5) for _ in range(12)]
        p1 = pca_project_latents(np.stack(latents))
        p2 = pca_project_latents(np.stack([z.copy() for z in latents]))
        assert np.array_equal(p1, p2)

    def test_variance_ordering_against_direction_grid(self):
        rng = np.random.default_rng(9)
        latents = [rng.normal(size=5) * np.array([3.0, 2.0, 1.0, 0.5, 0.1])
                   for _ in range(40)]
        points = pca_project_latents(np.stack(latents))
        var1 = points[:, 0].var()
        var2 = points[:, 1].var()
        assert var1 >= var2 - 1e-12

        data = np.stack([z.reshape(-1) for z in latents])
        centered = data - data.mean(axis=0)
        # oracle: no random direction beats PC1; none orthogonal to PC1 beats PC2
        _, _, vt = np.linalg.svd(centered, full_matrices=False)
        pc1 = vt[0]
        for _ in range(300):
            d = rng.normal(size=5)
            d /= np.linalg.norm(d)
            assert centered @ d @ (centered @ d) / len(latents) <= var1 * (1 + 1e-9) + 1e-12
            d_perp = d - (d @ pc1) * pc1
            norm = np.linalg.norm(d_perp)
            if norm > 1e-9:
                d_perp /= norm
                proj = centered @ d_perp
                assert proj @ proj / len(latents) <= var2 * (1 + 1e-9) + 1e-12

    def test_accepts_tensors_and_rank3_latents(self):
        from disruptkit.autodiff import Tensor

        rng = np.random.default_rng(10)
        latents = rng.normal(size=(6, 3, 2, 2))
        points = pca_project_latents(Tensor(latents))
        assert points.shape == (6, 2)
        # each [3, 2, 2] latent is flattened, so the points are those of the [6, 12] array
        assert np.array_equal(points, pca_project_latents(latents.reshape(6, 12)))

    def test_too_few_latents_rejected(self):
        with pytest.raises(ConfigError):
            pca_project_latents(np.ones((1, 3)))


class TestSeparationStatistic:
    def test_hand_computed_value(self):
        a = np.array([[0.0, 1.0], [0.0, -1.0]])   # centroid (0,0), spread 1
        b = np.array([[10.0, 1.0], [10.0, -1.0]])  # centroid (10,0), spread 1
        assert abs(separation_statistic(a, b) - 10.0) < 1e-12

    def test_coincident_groups_zero(self):
        a = np.array([[1.0, 0.0], [-1.0, 0.0]])
        assert separation_statistic(a, a.copy()) == 0.0

    def test_point_clusters_apart_is_inf(self):
        a = np.zeros((3, 2))
        b = np.full((3, 2), 5.0)
        assert separation_statistic(a, b) == float("inf")

    def test_identical_point_clusters_zero(self):
        a = np.zeros((3, 2))
        assert separation_statistic(a, a.copy()) == 0.0

    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            separation_statistic(np.zeros((2, 2)), np.zeros((2, 3)))
