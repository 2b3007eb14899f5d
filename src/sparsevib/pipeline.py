"""End-to-end processing on two branches: filter, extract features, model.

Every result in the source studies is a with/without comparison, so the
assessment and classification pipelines always process a raw branch
(features straight from the input signals) and a filtered branch
(features from the sparse-filter output) side by side.
"""

import multiprocessing
import os
from dataclasses import dataclass

import numpy as np

from .core_signal import Signal, convolve_valid
from .features import FEATURE_NAMES, DEFAULT_BAND_FRACTION, extract_feature_vector
from .health_models import (
    FeatureMatrix,
    SomConfig,
    VatResult,
    cluster_purity,
    kmeans,
    pca_fit_transform,
    som_mqe,
    som_train,
    vat_order,
)
from .sparse_filter import csf_cost, csf_gradient, fit_med, fit_simplified_csf

__all__ = [
    "filter_signal",
    "two_branch_features",
    "BranchAssessment",
    "AssessmentReport",
    "assess_sequence",
    "BranchClassification",
    "ClassificationReport",
    "classify_dataset",
    "gradient_check",
    "DEFAULT_ASSESS_SOM",
]

# A 20-sample healthy baseline cannot support a map with more units than
# samples: the in-sample MQE spread collapses and the mean + 6 sigma alarm
# line drops onto the noise floor.  Assessment therefore defaults to a
# compact map instead of the general-purpose 8x8.
DEFAULT_ASSESS_SOM = SomConfig(grid_rows=3, grid_cols=3)

ALARM_SIGMA = 6.0


def filter_signal(signal, config=None, method="csf"):
    """Run the chosen adaptive filter; ``method`` is ``csf`` or ``med``."""
    if method == "csf":
        return fit_simplified_csf(signal, config)
    if method == "med":
        return fit_med(signal, config)
    raise ValueError(f"unknown filter method {method!r}")


def _snapshot(signal, faults, config, band_fraction):
    """One snapshot's work: raw features, sparse-filter fit, filtered features."""
    raw = extract_feature_vector(signal, faults, band_fraction).as_array()
    fit = fit_simplified_csf(signal, config)
    enhanced = Signal(fit.filtered, signal.sample_rate_hz)
    return raw, fit, extract_feature_vector(enhanced, faults, band_fraction).as_array()


def _claim(bounds, from_tail):
    """Index of the next unclaimed item at one end of ``bounds``, or None when none is left."""
    with bounds.get_lock():
        head, tail = bounds
        if head >= tail:
            return None
        if from_tail:
            bounds[1] = tail - 1
            return tail - 1
        bounds[0] = head + 1
        return head


def _run_claimed(work, bounds, from_tail):
    """``work(i)`` for items claimed one at a time from one end: ``{i: result or its error}``.

    An item that fails lowers the tail bound to its index: only the
    lowest-numbered error is raised, so no item above it is worth claiming.
    """
    outcomes = {}
    while (i := _claim(bounds, from_tail)) is not None:
        try:
            outcomes[i] = work(i)
        except Exception as exc:  # raised in index order by two_branch_features
            outcomes[i] = exc
            with bounds.get_lock():
                bounds[1] = min(bounds[1], i)
    return outcomes


def _helper(sender, work, bounds):
    sender.send(_run_claimed(work, bounds, from_tail=False))
    sender.close()


def _fan_out(work, n):
    """``work(i)`` for ``i`` in ``range(n)``: each result, or the error it raised, in index order.

    Every item below the lowest-numbered failure runs; an item above it may
    not, and is then None.  The items run on the CPUs in this process's
    affinity mask: ``count - 1`` forked helpers claim items one at a time
    from the head while this process claims them from the tail, so items
    of different lengths stay balanced.  A helper claims its next item
    itself, through a pair of shared bounds, and sends its results back once
    none is left, so it never waits on this process.  With one CPU, or
    without ``fork``, this process claims every item itself, from the head,
    so that it meets the lowest-numbered failure first.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    can_fork = "fork" in multiprocessing.get_all_start_methods()
    helpers = min(cpus, n) - 1 if can_fork else 0
    # fork, not spawn: a spawned helper would import scipy again on every call,
    # and a forked one has the inputs without their being sent.
    context = multiprocessing.get_context("fork" if can_fork else None)
    bounds = context.Array("l", [0, n])  # unclaimed: bounds[0] <= i < bounds[1]
    processes, receivers = [], []
    try:
        for _ in range(helpers):
            receiver, sender = context.Pipe(duplex=False)
            process = context.Process(target=_helper, args=(sender, work, bounds), daemon=True)
            process.start()
            sender.close()
            processes.append(process)
            receivers.append(receiver)
        outcomes = _run_claimed(work, bounds, from_tail=helpers > 0)
        for receiver in receivers:
            try:
                outcomes.update(receiver.recv())
            except EOFError:
                raise RuntimeError("a helper exited before sending its results") from None
    except BaseException:
        for process in processes:
            process.terminate()
        raise
    finally:
        for receiver in receivers:
            receiver.close()
        for process in processes:
            process.join()
    return [outcomes.get(i) for i in range(n)]


def two_branch_features(signals, faults, csf_config=None, band_fraction=DEFAULT_BAND_FRACTION):
    """Raw-branch and filtered-branch feature matrices, and the fits behind the filtered one.

    Each snapshot's features and fit run together on one CPU (see
    ``_fan_out``); none depends on the process that runs it, so neither do
    the results.  When snapshots fail, the error of the lowest-numbered one
    is raised, whatever the CPU count or the stage that failed, and its
    message names the snapshot.
    """
    outcomes = _fan_out(
        lambda i: _snapshot(signals[i], faults, csf_config, band_fraction), len(signals)
    )
    for i, outcome in enumerate(outcomes, start=1):
        if isinstance(outcome, Exception):
            outcome.args = (f"snapshot {i}: {outcome}",)
            raise outcome
    raw, fits, filtered = zip(*outcomes)
    return (FeatureMatrix(values=np.vstack(raw), feature_names=FEATURE_NAMES),
            FeatureMatrix(values=np.vstack(filtered), feature_names=FEATURE_NAMES),
            list(fits))


@dataclass
class BranchAssessment:
    mqe: np.ndarray
    threshold: float
    alarm_index: int  # 1-based file number of the first exceedance, or None
    model: object


@dataclass
class AssessmentReport:
    raw: BranchAssessment
    filtered: BranchAssessment
    n_train: int
    fits: list  # the CsfResult of each snapshot


def _assess_branch(matrix, n_train, som_config):
    model = som_train(
        FeatureMatrix(matrix.values[:n_train], matrix.feature_names), som_config
    )
    mqe = np.array([som_mqe(model, row) for row in matrix.values])
    train_mqe = mqe[:n_train]
    threshold = float(train_mqe.mean() + ALARM_SIGMA * train_mqe.std())
    above = np.flatnonzero(mqe > threshold)
    alarm_index = int(above[0]) + 1 if above.size else None
    return BranchAssessment(mqe=mqe, threshold=threshold, alarm_index=alarm_index, model=model)


def assess_sequence(
    signals,
    faults,
    csf_config=None,
    som_config=None,
    n_train=20,
    band_fraction=DEFAULT_BAND_FRACTION,
):
    """SOM-MQE health assessment over an ordered snapshot sequence.

    Trains one map per branch on the first ``n_train`` snapshots and scores
    every snapshot against it.  The alarm threshold is mean + 6 std of the
    training MQEs.
    """
    if len(signals) < n_train + 1:
        raise ValueError(f"need at least {n_train + 1} snapshots, got {len(signals)}")
    som_config = som_config or DEFAULT_ASSESS_SOM
    raw_matrix, filtered_matrix, fits = two_branch_features(
        signals, faults, csf_config, band_fraction
    )
    return AssessmentReport(
        raw=_assess_branch(raw_matrix, n_train, som_config),
        filtered=_assess_branch(filtered_matrix, n_train, som_config),
        n_train=n_train,
        fits=fits,
    )


@dataclass
class BranchClassification:
    scores: np.ndarray
    explained_variance_fractions: np.ndarray
    kmeans_labels: np.ndarray
    purity: float
    vat: VatResult


@dataclass
class ClassificationReport:
    raw: BranchClassification
    filtered: BranchClassification
    labels: list
    fits: list  # the CsfResult of each signal


def _classify_branch(matrix, labels, k, n_restarts, seed):
    pca = pca_fit_transform(matrix, 2)  # scores are pc1 and pc2
    km = kmeans(pca.scores, k, n_restarts=n_restarts, seed=seed)
    purity = cluster_purity(km.labels, np.asarray(labels))
    distances = np.sqrt(
        ((pca.scores[:, None, :] - pca.scores[None, :, :]) ** 2).sum(axis=2)
    )
    np.fill_diagonal(distances, 0.0)
    return BranchClassification(
        scores=pca.scores,
        explained_variance_fractions=pca.explained_variance_fractions,
        kmeans_labels=km.labels,
        purity=purity,
        vat=vat_order(distances),
    )


def classify_dataset(
    dataset,
    faults,
    csf_config=None,
    band_fraction=DEFAULT_BAND_FRACTION,
    n_restarts=10,
    seed=0,
):
    """PCA + k-means + VAT on a labeled dataset, raw and filtered branches.

    ``k`` is the number of distinct labels; purity compares k-means
    clusters against the ground-truth labels.
    """
    labels = list(dataset.labels)
    classes = sorted(set(labels))
    if len(classes) < 2:
        raise ValueError("classification needs at least 2 classes")
    if n_restarts < 1:
        raise ValueError(f"n_restarts must be at least 1, got {n_restarts}")
    raw_matrix, filtered_matrix, fits = two_branch_features(
        dataset.signals, faults, csf_config, band_fraction
    )
    k = len(classes)
    return ClassificationReport(
        raw=_classify_branch(raw_matrix, labels, k, n_restarts, seed),
        filtered=_classify_branch(filtered_matrix, labels, k, n_restarts, seed),
        labels=labels,
        fits=fits,
    )


def gradient_check(n_trials=20, n_samples=256, filter_length=32, step=1e-6, seed=1234):
    """Compare the analytic cost gradient against central finite differences.

    Returns the per-trial normwise relative errors
    ``max|g_analytic - g_fd| / max|g_fd|`` for seeded Gaussian signals and
    unit-norm random filters.
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be at least 1, got {n_trials}")
    errors = []
    for trial in range(n_trials):
        rng = np.random.default_rng(np.random.SeedSequence([seed, trial]))
        y = rng.standard_normal(n_samples)
        w = rng.standard_normal(filter_length)
        w /= np.linalg.norm(w)
        signal = Signal(y, 1.0)

        analytic = csf_gradient(signal, w)
        fd = np.empty_like(w)
        for j in range(w.size):
            w_plus = w.copy()
            w_minus = w.copy()
            w_plus[j] += step
            w_minus[j] -= step
            cost_plus = csf_cost(convolve_valid(signal, w_plus))
            cost_minus = csf_cost(convolve_valid(signal, w_minus))
            fd[j] = (cost_plus - cost_minus) / (2 * step)
        errors.append(float(np.max(np.abs(analytic - fd)) / np.max(np.abs(fd))))
    return np.asarray(errors)
