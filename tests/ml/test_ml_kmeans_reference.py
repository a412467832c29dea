"""``KMeans.fit`` equals the version that sent every distance through ``repro.ml.distances``.

``fit`` computes the row norms once and reuses them in k-means++ and in every
Lloyd assignment, and accumulates cluster sums over a contiguous ``X.T``.  The
reference below is the implementation before that change, kept verbatim:
k-means++ through ``pairwise_squared_euclidean``, assignment through
``pairwise_topk`` and per-feature ``bincount`` over strided columns.  Centres,
labels, inertia, iteration count and the generator state must match bit for
bit, including when ``n > block_size`` and when an empty cluster is reseeded.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ml import KMeans
from repro.ml.distances import pairwise_squared_euclidean, pairwise_topk


def _reference_fit(model: KMeans, X: np.ndarray, rng: np.random.Generator) -> dict:
    k = model.n_clusters
    reseeds = 0

    def init_centers():
        n_samples = X.shape[0]
        centers = np.empty((k, X.shape[1]), dtype=np.float64)
        centers[0] = X[int(rng.integers(n_samples))]
        closest_sq = pairwise_squared_euclidean(X, centers[:1]).ravel()
        for c in range(1, k):
            total = closest_sq.sum()
            if total <= 0.0:
                idx = int(rng.integers(n_samples))
            else:
                idx = int(rng.choice(n_samples, p=closest_sq / total))
            centers[c] = X[idx]
            new_sq = pairwise_squared_euclidean(X, centers[c : c + 1]).ravel()
            np.minimum(closest_sq, new_sq, out=closest_sq)
        return centers

    def assign(centers):
        idx, dist = pairwise_topk(X, centers, 1, block_size=model.block_size, squared=True)
        return idx[:, 0], dist[:, 0]

    def update_centers(labels, nearest_sq, centers):
        nonlocal reseeds
        counts = np.bincount(labels, minlength=k)
        sums = np.empty((k, X.shape[1]), dtype=np.float64)
        for j in range(X.shape[1]):
            sums[:, j] = np.bincount(labels, weights=X[:, j], minlength=k)
        new_centers = centers.copy()
        nonempty = counts > 0
        new_centers[nonempty] = sums[nonempty] / counts[nonempty, None]
        if not nonempty.all():
            reseeds += 1
            new_centers[~nonempty] = X[nearest_sq.argmax()]
        return new_centers

    best_inertia, best = np.inf, None
    for _ in range(model.n_init):
        centers = init_centers()
        n_iter = 0
        for n_iter in range(1, model.max_iter + 1):
            labels, nearest_sq = assign(centers)
            new_centers = update_centers(labels, nearest_sq, centers)
            shift = np.sqrt(np.sum((new_centers - centers) ** 2, axis=1)).max()
            centers = new_centers
            if shift <= model.tol:
                break
        labels, nearest_sq = assign(centers)
        inertia = float(nearest_sq.sum())
        if inertia < best_inertia:
            best_inertia, best = inertia, (centers, labels, n_iter)
    centers, labels, n_iter = best
    return {
        "centers": centers,
        "labels": labels,
        "inertia": best_inertia,
        "n_iter": n_iter,
        "reseeds": reseeds,
    }


def _assert_fit_matches(X: np.ndarray, seed: int, **params) -> dict:
    model_rng = np.random.default_rng(seed)
    reference_rng = np.random.default_rng(seed)
    model = KMeans(random_state=model_rng, **params).fit(X)
    reference = _reference_fit(KMeans(**params), X, reference_rng)
    np.testing.assert_array_equal(model.cluster_centers_, reference["centers"])
    np.testing.assert_array_equal(model.labels_, reference["labels"])
    assert model.labels_.dtype == reference["labels"].dtype
    assert model.inertia_ == reference["inertia"]
    assert model.n_iter_ == reference["n_iter"]
    assert model_rng.bit_generator.state == reference_rng.bit_generator.state
    return reference


class TestKMeansMatchesReference:
    def test_single_block(self):
        X = np.random.default_rng(0).normal(size=(300, 7))
        _assert_fit_matches(X, seed=1, n_clusters=4)

    @pytest.mark.parametrize("n_rows", [129, 300, 513])
    @pytest.mark.parametrize("n_features", [5, 41])
    def test_more_rows_than_block_size(self, n_rows, n_features):
        # 64-row blocks leave a tail of 1, 44 and 1 rows.
        rng = np.random.default_rng(n_rows)
        half = n_rows // 2
        X = np.vstack(
            [rng.normal(size=(half, n_features)), rng.normal(4.0, 1.0, (n_rows - half, n_features))]
        ) * rng.uniform(0.1, 10.0, size=n_features)
        _assert_fit_matches(X, seed=2, n_clusters=5, n_init=2, block_size=64)

    @pytest.mark.parametrize("n_rows", [700, 1025])
    def test_assignment_matches_pairwise_topk_bit_for_bit(self, n_rows):
        rng = np.random.default_rng(n_rows)
        X = rng.normal(size=(n_rows, 41)) * rng.uniform(0.1, 10.0, size=41)
        centers = rng.normal(size=(9, 41))
        labels, nearest_sq = KMeans(n_clusters=9, block_size=256)._assign(X, centers)
        idx, dist = pairwise_topk(X, centers, 1, block_size=256, squared=True)
        np.testing.assert_array_equal(labels, idx[:, 0])
        np.testing.assert_array_equal(nearest_sq, dist[:, 0])

    def test_empty_cluster_reseed(self):
        # Five distinct points, each repeated: k-means++ runs out of distinct
        # points and picks a duplicate centre, which wins no point (the first
        # nearest centre takes every tie), so its cluster is reseeded.
        points = np.random.default_rng(3).normal(size=(5, 3))
        X = np.repeat(points, 20, axis=0)
        reference = _assert_fit_matches(X, seed=4, n_clusters=7, n_init=3, block_size=32)
        assert reference["reseeds"] > 0

    def test_predict_matches_pairwise_topk(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(400, 6))
        model = KMeans(n_clusters=6, block_size=50, random_state=0).fit(X)
        query = rng.normal(size=(230, 6))
        idx, _ = pairwise_topk(query, model.cluster_centers_, 1, block_size=50, squared=True)
        np.testing.assert_array_equal(model.predict(query), idx[:, 0])

    def test_fits_sharing_one_generator_draw_the_same_stream(self):
        # The elbow method passes one generator through a fit per candidate k.
        X = np.random.default_rng(6).normal(size=(150, 4))
        model_rng = np.random.default_rng(7)
        reference_rng = np.random.default_rng(7)
        for k in range(2, 6):
            params = {"n_clusters": k, "n_init": 2, "max_iter": 50}
            model = KMeans(random_state=model_rng, **params).fit(X)
            reference = _reference_fit(KMeans(**params), X, reference_rng)
            assert model.inertia_ == reference["inertia"]
        assert model_rng.bit_generator.state == reference_rng.bit_generator.state
