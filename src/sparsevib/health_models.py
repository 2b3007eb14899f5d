"""Health assessment and classification models on feature matrices.

A self-organizing map trained on healthy snapshots scores new snapshots
by their minimum quantization error (distance to the best-matching
codebook unit).  PCA and k-means handle the multi-class separation view,
and VAT reorders a dissimilarity matrix so cluster structure shows up as
diagonal blocks.
"""

import json
from dataclasses import asdict, dataclass

import numpy as np

from .errors import _require_whole

__all__ = [
    "FeatureMatrix",
    "SomConfig",
    "SomModel",
    "PcaResult",
    "KmeansResult",
    "VatResult",
    "som_train",
    "som_mqe",
    "pca_fit_transform",
    "kmeans",
    "vat_order",
    "cluster_purity",
]


@dataclass
class FeatureMatrix:
    """Feature rows (one per snapshot) with column names."""

    values: np.ndarray
    feature_names: tuple

    def __post_init__(self):
        self.values = np.atleast_2d(np.asarray(self.values, dtype=np.float64))
        self.feature_names = tuple(self.feature_names)
        if self.values.shape[1] != len(self.feature_names):
            raise ValueError("column count does not match feature_names")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("feature matrix contains non-finite entries")


@dataclass(frozen=True)
class SomConfig:
    """SOM grid, training epochs and seed; ``som_train`` fixes the decay schedule.

    A 20-sample healthy baseline cannot support a map with more units than
    samples: the in-sample MQE spread collapses and the mean + 6 sigma alarm
    line drops onto the noise floor.  The default is therefore a compact
    3x3 map.
    """

    grid_rows: int = 3
    grid_cols: int = 3
    epochs: int = 200
    seed: int = 0

    def __post_init__(self):
        _require_whole(**vars(self))  # every field is a count or the seed
        if self.grid_rows < 2 or self.grid_cols < 2:
            raise ValueError("SOM grid must be at least 2x2")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")


@dataclass
class SomModel:
    """Trained map: codebook in z-space plus the normalization that built it.

    Zero-variance feature columns are excluded from the distance space;
    their indices are kept in ``dropped_columns``, while ``mean`` and
    ``std`` cover every column.
    """

    config: SomConfig
    codebook: np.ndarray  # (units, n_kept) in z-space
    mean: np.ndarray
    std: np.ndarray
    kept_columns: np.ndarray
    dropped_columns: tuple = ()
    feature_names: tuple = ()

    def save(self, path):
        """Write the model as JSON: ``config`` is ``asdict(self.config)``, arrays are lists."""
        with open(path, "w") as fh:
            json.dump(asdict(self), fh, indent=2, default=lambda a: a.tolist())

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            payload = json.load(fh)
        return cls(
            config=SomConfig(**payload["config"]),
            codebook=np.asarray(payload["codebook"], dtype=np.float64),
            mean=np.asarray(payload["mean"], dtype=np.float64),
            std=np.asarray(payload["std"], dtype=np.float64),
            kept_columns=np.asarray(payload["kept_columns"], dtype=np.int64),
            dropped_columns=tuple(payload["dropped_columns"]),
            feature_names=tuple(payload["feature_names"]),
        )


def _as_matrix(features):
    if isinstance(features, FeatureMatrix):
        return features.values, features.feature_names
    values = np.atleast_2d(np.asarray(features, dtype=np.float64))
    return values, tuple(f"f{i}" for i in range(values.shape[1]))


def _decay(initial, final, epoch, epochs):
    if epochs == 1:
        return final
    return initial * (final / initial) ** (epoch / (epochs - 1))


def som_train(train, config=None):
    """Fit a SOM to training rows (online updates, Gaussian neighborhood).

    Over ``config.epochs`` the learning rate decays geometrically from 0.5
    to 0.01 and the neighborhood radius from half the longer grid side to
    0.5 units.  Rows are z-normalized with the training statistics; the
    model stores those statistics so scoring uses the same transform.
    Zero-variance columns are dropped from the distance space and listed
    in the model's ``dropped_columns``.
    """
    config = config or SomConfig()
    values, names = _as_matrix(train)
    n, dim = values.shape
    if n < 2:
        raise ValueError("SOM training needs at least 2 rows")

    mean = values.mean(axis=0)
    std = values.std(axis=0)
    kept = np.flatnonzero(std > 0)
    dropped = tuple(int(i) for i in np.flatnonzero(std == 0))

    rows, cols = config.grid_rows, config.grid_cols
    units = rows * cols
    positions = np.array([(r, c) for r in range(rows) for c in range(cols)], dtype=float)
    grid_sq = ((positions[:, None, :] - positions[None, :, :]) ** 2).sum(axis=2)

    rng = np.random.default_rng(config.seed)
    if kept.size == 0:
        codebook = np.zeros((units, 0))
        return SomModel(config, codebook, mean, std, kept, dropped, names)

    z = (values[:, kept] - mean[kept]) / std[kept]
    # Initialize units on jittered training rows so the map starts inside the data.
    codebook = z[rng.integers(0, n, size=units)] + 0.05 * rng.standard_normal((units, kept.size))

    for epoch in range(config.epochs):
        lr = _decay(0.5, 0.01, epoch, config.epochs)
        sigma = _decay(max(rows, cols) / 2.0, 0.5, epoch, config.epochs)
        gain = np.exp(-grid_sq / (2.0 * sigma * sigma))
        for idx in rng.permutation(n):
            x = z[idx]
            bmu = int(np.argmin(((codebook - x) ** 2).sum(axis=1)))
            codebook += (lr * gain[bmu])[:, None] * (x - codebook)

    return SomModel(config, codebook, mean, std, kept, dropped, names)


def som_mqe(model, sample):
    """Minimum quantization error: distance from a sample to its best unit."""
    sample = np.asarray(sample, dtype=np.float64)
    if sample.shape != model.mean.shape:
        raise ValueError(
            f"sample dimension {sample.shape} does not match model {model.mean.shape}"
        )
    if model.kept_columns.size == 0:
        return 0.0
    kept = model.kept_columns
    z = (sample[kept] - model.mean[kept]) / model.std[kept]
    return float(np.sqrt(((model.codebook - z) ** 2).sum(axis=1).min()))


@dataclass
class PcaResult:
    scores: np.ndarray
    explained_variance_fractions: np.ndarray
    components: np.ndarray  # (n_components, n_features), rows are directions
    mean: np.ndarray
    scale: np.ndarray


def pca_fit_transform(features, n_components):
    """Project z-scored features onto their top principal directions.

    The sign of each component is fixed by making its largest-magnitude
    loading positive, so results do not depend on SVD sign conventions.
    """
    values, _ = _as_matrix(features)
    n, dim = values.shape
    if n < 2:
        raise ValueError("PCA needs at least 2 rows")
    if not (1 <= n_components <= dim):
        raise ValueError(f"n_components must lie in [1, {dim}]")

    mean = values.mean(axis=0)
    scale = values.std(axis=0)
    scale = np.where(scale > 0, scale, 1.0)
    z = (values - mean) / scale

    u, s, vt = np.linalg.svd(z, full_matrices=False)
    for k in range(vt.shape[0]):
        j = int(np.argmax(np.abs(vt[k])))
        if vt[k, j] < 0:
            vt[k] = -vt[k]
            u[:, k] = -u[:, k]

    total = float((s * s).sum())
    fractions = (s[:n_components] ** 2) / total if total > 0 else np.zeros(n_components)
    scores = u[:, :n_components] * s[:n_components]
    return PcaResult(
        scores=scores,
        explained_variance_fractions=fractions,
        components=vt[:n_components],
        mean=mean,
        scale=scale,
    )


@dataclass
class KmeansResult:
    labels: np.ndarray
    inertia: float
    centers: np.ndarray


def _kmeanspp_init(points, k, rng):
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    dist_sq = ((points - centers[0]) ** 2).sum(axis=1)
    for i in range(1, k):
        total = dist_sq.sum()
        if total == 0:
            centers[i] = points[rng.integers(n)]
            continue
        centers[i] = points[rng.choice(n, p=dist_sq / total)]
        dist_sq = np.minimum(dist_sq, ((points - centers[i]) ** 2).sum(axis=1))
    return centers


def _lloyd(points, centers, max_iter=300):
    k = centers.shape[0]
    labels = None
    for _ in range(max_iter):
        dists = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = dists.argmin(axis=1)
        for c in range(k):
            members = points[new_labels == c]
            if members.shape[0] == 0:
                # Re-seed an empty cluster from the point farthest from its center.
                worst = int(dists[np.arange(points.shape[0]), new_labels].argmax())
                centers[c] = points[worst]
                new_labels[worst] = c
            else:
                centers[c] = members.mean(axis=0)
        if labels is not None and np.array_equal(labels, new_labels):
            break
        labels = new_labels
    dists = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    labels = dists.argmin(axis=1)
    inertia = float(dists[np.arange(points.shape[0]), labels].sum())
    return labels, inertia, centers


def kmeans(scores, k, n_restarts=10, seed=0):
    """Lloyd's algorithm with k-means++ seeding, best of ``n_restarts`` by inertia."""
    points = np.atleast_2d(np.asarray(scores, dtype=np.float64))
    if k < 1 or k > points.shape[0]:
        raise ValueError("k must lie in [1, number of rows]")
    if n_restarts < 1:
        raise ValueError(f"n_restarts must be at least 1, got {n_restarts}")
    best = None
    for restart in range(n_restarts):
        rng = np.random.default_rng(np.random.SeedSequence([seed, restart]))
        centers = _kmeanspp_init(points, k, rng)
        labels, inertia, centers = _lloyd(points, centers.copy())
        if best is None or inertia < best.inertia:
            best = KmeansResult(labels=labels, inertia=inertia, centers=centers)
    return best


@dataclass
class VatResult:
    """Prim-style reordering of a dissimilarity matrix for cluster-tendency display."""

    order: np.ndarray
    reordered_dissimilarity: np.ndarray


def vat_order(dissimilarity):
    """Reorder a dissimilarity matrix so clusters form dark diagonal blocks.

    Starts from an endpoint of the largest pairwise distance (the one
    with the larger total distance to all points, so the choice does not
    depend on input ordering), then repeatedly appends the unvisited
    point closest to the visited set.  Ties resolve to the lowest index.
    """
    d = np.asarray(dissimilarity, dtype=np.float64)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValueError("dissimilarity must be a square matrix")
    if np.any(d < 0):
        raise ValueError("dissimilarity entries must be nonnegative")
    if not np.allclose(d, d.T, rtol=0, atol=1e-12):
        raise ValueError("dissimilarity must be symmetric")
    if np.any(np.diag(d) != 0):
        raise ValueError("dissimilarity diagonal must be zero")

    n = d.shape[0]
    if n == 1:
        return VatResult(order=np.array([0]), reordered_dissimilarity=d.copy())

    i, j = (int(k) for k in np.unravel_index(np.argmax(d), d.shape))
    row_sums = d.sum(axis=1)
    if row_sums[i] != row_sums[j]:
        start = i if row_sums[i] > row_sums[j] else j
    else:
        start = min(i, j)
    order = [start]
    visited = np.zeros(n, dtype=bool)
    visited[start] = True
    min_to_visited = d[start].copy()
    for _ in range(n - 1):
        candidates = np.where(visited, np.inf, min_to_visited)
        nxt = int(np.argmin(candidates))
        order.append(nxt)
        visited[nxt] = True
        min_to_visited = np.minimum(min_to_visited, d[nxt])

    order = np.asarray(order)
    return VatResult(order=order, reordered_dissimilarity=d[np.ix_(order, order)])


def cluster_purity(predicted, truth):
    """Fraction of samples whose cluster's majority true label matches their own."""
    predicted = np.asarray(predicted)
    truth = np.asarray(truth)
    if predicted.shape != truth.shape:
        raise ValueError("label arrays must have equal length")
    correct = 0
    for cluster in np.unique(predicted):
        members = truth[predicted == cluster]
        _, counts = np.unique(members, return_counts=True)
        correct += int(counts.max())
    return correct / predicted.size
