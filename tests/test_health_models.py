import json

import numpy as np
import pytest

from sparsevib import (
    FeatureMatrix,
    SomConfig,
    SomModel,
    cluster_purity,
    kmeans,
    pca_fit_transform,
    som_mqe,
    som_train,
    vat_order,
)


def blobs(rng, centers, n_each, sigma):
    points, labels = [], []
    for i, c in enumerate(centers):
        points.append(c + sigma * rng.standard_normal((n_each, len(c))))
        labels += [i] * n_each
    return np.vstack(points), np.array(labels)


class TestSomTrain:
    @pytest.mark.parametrize("field, value", [
        ("grid_rows", 1), ("grid_rows", 2.5), ("grid_cols", 3.0), ("grid_cols", float("nan")),
        ("epochs", 0), ("epochs", float("inf")),
    ])
    def test_config_rejects_a_grid_or_epochs_that_is_not_a_count(self, field, value):
        with pytest.raises(ValueError, match="grid|epochs"):
            SomConfig(**{field: value})

    @pytest.mark.parametrize("seed", [-1, 1.5, float("nan")])
    def test_config_rejects_a_seed_that_is_not_a_non_negative_whole_number(self, seed):
        with pytest.raises(ValueError, match="seed"):
            SomConfig(seed=seed)

    def test_schedule_starts_at_half_the_longer_side(self, monkeypatch):
        from sparsevib import health_models

        decay, calls = health_models._decay, []

        def recording(initial, final, epoch, epochs):
            calls.append((initial, final, epoch, epochs))
            return decay(initial, final, epoch, epochs)

        monkeypatch.setattr(health_models, "_decay", recording)
        data = np.random.default_rng(0).standard_normal((10, 3))
        for rows, cols, radius in [(2, 4, 2.0), (3, 3, 1.5)]:
            calls.clear()
            som_train(data, SomConfig(grid_rows=rows, grid_cols=cols, epochs=3))
            assert calls == [args for epoch in range(3)
                             for args in [(0.5, 0.01, epoch, 3), (radius, 0.5, epoch, 3)]]

    @pytest.mark.filterwarnings("error")  # the dropped columns are in the model, not a warning
    def test_identical_rows_collapse_to_row(self):
        row = np.array([1.5, -2.0, 0.25, 7.0, 3.0])
        data = np.tile(row, (20, 1))
        model = som_train(data, SomConfig(grid_rows=4, grid_cols=4, epochs=100, seed=0))
        assert np.allclose(model.mean, row, rtol=0, atol=1e-12)
        assert model.kept_columns.size == 0
        assert som_mqe(model, row) < 1e-3

    def test_deterministic(self):
        rng = np.random.default_rng(0)
        data = rng.standard_normal((25, 5))
        a = som_train(data, SomConfig(grid_rows=3, grid_cols=3, epochs=50, seed=7))
        b = som_train(data, SomConfig(grid_rows=3, grid_cols=3, epochs=50, seed=7))
        assert np.array_equal(a.codebook, b.codebook)

    @pytest.mark.filterwarnings("error")  # the dropped columns are in the model, not a warning
    def test_zero_variance_column_dropped(self):
        rng = np.random.default_rng(1)
        data = rng.standard_normal((30, 4))
        data[:, 2] = 5.0
        model = som_train(data, SomConfig(grid_rows=3, grid_cols=3, epochs=20, seed=0))
        assert model.dropped_columns == (2,)
        assert list(model.kept_columns) == [0, 1, 3]

    def test_mqe_bounded_by_training_spread(self):
        rng = np.random.default_rng(2)
        data = rng.standard_normal((40, 5))
        model = som_train(data, SomConfig(grid_rows=4, grid_cols=4, epochs=60, seed=0))
        kept = model.kept_columns
        z = (data[:, kept] - model.mean[kept]) / model.std[kept]
        max_pairwise = max(
            np.linalg.norm(a - b) for i, a in enumerate(z) for b in z[i + 1 :]
        )
        for row in data:
            assert som_mqe(model, row) <= max_pairwise

    def test_outlier_scores_above_training(self):
        rng = np.random.default_rng(3)
        data = rng.standard_normal((30, 5))
        model = som_train(data, SomConfig(grid_rows=4, grid_cols=4, epochs=80, seed=1))
        train_mqe = [som_mqe(model, row) for row in data]
        far = data.mean(axis=0) + 10.0 * data.std(axis=0)
        assert som_mqe(model, far) > max(train_mqe)

    def test_mqe_nonnegative_and_dimension_checked(self):
        rng = np.random.default_rng(4)
        data = rng.standard_normal((10, 3))
        model = som_train(data, SomConfig(grid_rows=2, grid_cols=2, epochs=10, seed=0))
        assert som_mqe(model, data[0]) >= 0
        with pytest.raises(ValueError):
            som_mqe(model, np.zeros(4))

    def test_feature_matrix_input(self):
        rng = np.random.default_rng(5)
        fm = FeatureMatrix(rng.standard_normal((12, 3)), ("a", "b", "c"))
        model = som_train(fm, SomConfig(grid_rows=2, grid_cols=2, epochs=10, seed=0))
        assert model.feature_names == ("a", "b", "c")


class TestSomSerialization:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        data = rng.standard_normal((20, 5))
        model = som_train(data, SomConfig(grid_rows=3, grid_cols=3, epochs=30, seed=2))
        path = tmp_path / "som.json"
        model.save(path)
        loaded = SomModel.load(path)
        assert np.array_equal(loaded.codebook, model.codebook)
        assert np.array_equal(loaded.mean, model.mean)
        assert loaded.config == model.config
        sample = data[3]
        assert som_mqe(loaded, sample) == som_mqe(model, sample)

    def test_non_default_config_round_trips_exactly(self, tmp_path):
        config = SomConfig(grid_rows=2, grid_cols=4, epochs=7, seed=41)
        data = np.random.default_rng(9).standard_normal((12, 3))
        model = som_train(data, config)
        path = tmp_path / "som.json"
        model.save(path)
        loaded = SomModel.load(path)
        assert loaded.config == config
        assert json.loads(path.read_text())["config"] == {
            "grid_rows": 2, "grid_cols": 4, "epochs": 7, "seed": 41,
        }
        assert np.array_equal(loaded.codebook, model.codebook)
        assert np.array_equal(loaded.std, model.std)
        assert np.array_equal(loaded.kept_columns, model.kept_columns)

    def test_validates_against_schema(self, tmp_path):
        jsonschema = pytest.importorskip("jsonschema")
        from importlib import resources

        rng = np.random.default_rng(7)
        model = som_train(rng.standard_normal((15, 4)),
                          SomConfig(grid_rows=2, grid_cols=3, epochs=10, seed=0))
        schema = json.loads(
            resources.files("sparsevib").joinpath("schemas/som_model.schema.json").read_text()
        )
        path = tmp_path / "som.json"
        model.save(path)
        jsonschema.validate(json.loads(path.read_text()), schema)


class TestPca:
    def test_line_through_origin(self):
        rng = np.random.default_rng(8)
        direction = np.array([1.0, 2.0, -1.0, 0.5])
        data = np.outer(rng.standard_normal(50), direction)
        result = pca_fit_transform(data, 2)
        assert result.explained_variance_fractions[0] >= 0.999

    def test_score_orthogonality(self):
        rng = np.random.default_rng(9)
        data = rng.standard_normal((60, 5))
        result = pca_fit_transform(data, 5)
        cov = result.scores.T @ result.scores
        off = cov - np.diag(np.diag(cov))
        assert np.max(np.abs(off)) <= 1e-9 * np.max(np.diag(cov))

    def test_full_reconstruction(self):
        rng = np.random.default_rng(10)
        data = rng.standard_normal((40, 5))
        result = pca_fit_transform(data, 5)
        z = (data - result.mean) / result.scale
        recon = result.scores @ result.components
        assert np.max(np.abs(recon - z)) <= 1e-9

    def test_explained_fractions_shape(self):
        rng = np.random.default_rng(11)
        result = pca_fit_transform(rng.standard_normal((30, 5)), 2)
        fr = result.explained_variance_fractions
        assert fr.shape == (2,)
        assert fr[0] >= fr[1] >= 0
        assert fr.sum() <= 1.0 + 1e-12

    def test_sign_convention(self):
        rng = np.random.default_rng(12)
        result = pca_fit_transform(rng.standard_normal((30, 4)), 4)
        for comp in result.components:
            assert comp[np.argmax(np.abs(comp))] > 0

    def test_n_components_validated(self):
        rng = np.random.default_rng(13)
        with pytest.raises(ValueError):
            pca_fit_transform(rng.standard_normal((10, 3)), 4)


class TestKmeans:
    def test_separated_blobs_pure(self):
        rng = np.random.default_rng(14)
        centers = [np.array([np.cos(a), np.sin(a)]) * 10 for a in np.linspace(0, 5.5, 8)]
        points, truth = blobs(rng, centers, 10, sigma=0.1)
        result = kmeans(points, 8, n_restarts=10, seed=0)
        assert cluster_purity(result.labels, truth) == 1.0

    def test_k_one_inertia(self):
        rng = np.random.default_rng(15)
        points = rng.standard_normal((50, 3))
        result = kmeans(points, 1, n_restarts=1, seed=0)
        centered = points - points.mean(axis=0)
        assert result.inertia == pytest.approx(np.sum(centered**2), rel=1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(16)
        points = rng.standard_normal((40, 2))
        a = kmeans(points, 4, n_restarts=5, seed=3)
        b = kmeans(points, 4, n_restarts=5, seed=3)
        assert np.array_equal(a.labels, b.labels)
        assert a.inertia == b.inertia

    def test_k_validated(self):
        rng = np.random.default_rng(17)
        with pytest.raises(ValueError):
            kmeans(rng.standard_normal((5, 2)), 6)

    def test_restarts_validated(self):
        rng = np.random.default_rng(18)
        with pytest.raises(ValueError, match="n_restarts"):
            kmeans(rng.standard_normal((5, 2)), 2, n_restarts=0)

    def test_lloyd_descends_from_seeding(self):
        from sparsevib.health_models import _kmeanspp_init

        rng_data = np.random.default_rng(20)
        points = rng_data.standard_normal((60, 3))
        # restart 0 of seed 21 reproduces this exact seeding
        rng = np.random.default_rng(np.random.SeedSequence([21, 0]))
        centers = _kmeanspp_init(points, 5, rng)
        dists = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        seed_inertia = float(dists.min(axis=1).sum())
        single = kmeans(points, 5, n_restarts=1, seed=21)
        assert single.inertia <= seed_inertia + 1e-12
        best_of_many = kmeans(points, 5, n_restarts=6, seed=21)
        assert best_of_many.inertia <= single.inertia + 1e-12

    def test_coincident_points(self):
        # Past the first center every k-means++ distance is zero, so the
        # remaining centers are uniform draws, and Lloyd's first assignment
        # leaves clusters empty, to be reseeded from the farthest point.
        point = np.array([1.5, -2.0])
        points = np.tile(point, (6, 1))
        result = kmeans(points, 3, n_restarts=2, seed=0)
        assert result.inertia == 0.0
        assert np.array_equal(result.centers, np.tile(point, (3, 1)))
        assert np.array_equal(result.labels, np.zeros(6, dtype=int))


class TestVat:
    def test_two_block_matrix_contiguous(self):
        # 6 points in two tight clusters; brute-force confirms block
        # contiguity is achievable, VAT must achieve it.
        d = np.full((6, 6), 10.0)
        for block in ([0, 1, 2], [3, 4, 5]):
            for i in block:
                for j in block:
                    d[i, j] = 0.0 if i == j else 0.1
        result = vat_order(d)
        first_half = set(result.order[:3].tolist())
        assert first_half in ({0, 1, 2}, {3, 4, 5})

    def test_single_point(self):
        result = vat_order(np.zeros((1, 1)))
        assert result.order.tolist() == [0]

    def test_output_is_permutation_of_input(self):
        rng = np.random.default_rng(18)
        points = rng.standard_normal((12, 2))
        d = np.sqrt(((points[:, None] - points[None, :]) ** 2).sum(axis=2))
        result = vat_order(d)
        assert sorted(result.order.tolist()) == list(range(12))
        assert np.allclose(np.sort(result.reordered_dissimilarity.ravel()),
                           np.sort(d.ravel()))
        assert np.allclose(result.reordered_dissimilarity,
                           result.reordered_dissimilarity.T)

    def test_input_permutation_equivariance(self):
        rng = np.random.default_rng(19)
        points = rng.standard_normal((10, 3))
        d = np.sqrt(((points[:, None] - points[None, :]) ** 2).sum(axis=2))
        base = vat_order(d)
        perm = rng.permutation(10)
        shuffled = d[np.ix_(perm, perm)]
        again = vat_order(shuffled)
        # distinct distances: the reordered matrices must be identical
        assert np.allclose(base.reordered_dissimilarity, again.reordered_dissimilarity)

    def test_validation(self):
        with pytest.raises(ValueError):
            vat_order(np.array([[0.0, 1.0], [2.0, 0.0]]))  # asymmetric
        with pytest.raises(ValueError):
            vat_order(np.array([[0.0, -1.0], [-1.0, 0.0]]))  # negative
        with pytest.raises(ValueError):
            vat_order(np.array([[1.0, 2.0], [2.0, 0.0]]))  # nonzero diagonal


class TestClusterPurity:
    def test_perfect(self):
        assert cluster_purity([0, 0, 1, 1], ["a", "a", "b", "b"]) == 1.0

    def test_mixed(self):
        assert cluster_purity([0, 0, 0, 0], ["a", "a", "b", "b"]) == 0.5
