"""Tests for the merge/split criteria and the merged-component fit."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from benchmarks.bench_ablation_merge_fit import PAIR_SPECS
from repro.core.gaussian import Gaussian
from repro.core.merging import (
    _cholesky_from_theta,
    _MergeLoss,
    _unpack_parameters,
    accuracy_loss,
    fit_merged_component,
    j_merge,
    m_merge,
    m_remerge,
    m_split,
    normalize_scores,
    pairwise_m_merge,
    rank_merge_pairs,
)
from repro.core.mixture import GaussianMixture
from repro.numerics.linalg import ensure_spd, regularize_covariance


def four_component_mixture() -> GaussianMixture:
    """Two close pairs: (0,1) nearly overlap, (2,3) nearly overlap."""
    components = (
        Gaussian.spherical(np.array([0.0, 0.0]), 1.0),
        Gaussian.spherical(np.array([0.5, 0.0]), 1.0),
        Gaussian.spherical(np.array([10.0, 10.0]), 1.0),
        Gaussian.spherical(np.array([10.5, 10.0]), 1.0),
    )
    return GaussianMixture(np.full(4, 0.25), components)


class TestMergeCriteria:
    def test_m_merge_larger_for_closer_components(self):
        mixture = four_component_mixture()
        close = m_merge(mixture.components[0], mixture.components[1])
        far = m_merge(mixture.components[0], mixture.components[2])
        assert close > far

    def test_m_merge_symmetric(self):
        mixture = four_component_mixture()
        a, b = mixture.components[0], mixture.components[2]
        assert m_merge(a, b) == pytest.approx(m_merge(b, a))

    def test_m_merge_caps_identical_means(self):
        a = Gaussian.spherical(np.zeros(2), 1.0)
        b = Gaussian.spherical(np.zeros(2), 2.0)
        assert np.isfinite(m_merge(a, b))

    def test_rank_merge_pairs_has_k_choose_2_entries(self):
        pairs = rank_merge_pairs(four_component_mixture())
        assert len(pairs) == 6  # C(4, 2)
        scores = [score for _, _, score in pairs]
        assert scores == sorted(scores, reverse=True)

    def test_top_ranked_pair_is_an_overlapping_one(self):
        pairs = rank_merge_pairs(four_component_mixture())
        top = {pairs[0][:2], pairs[1][:2]}
        assert top == {(0, 1), (2, 3)}

    def test_pairwise_matrix_upper_triangular(self):
        scores = pairwise_m_merge(four_component_mixture())
        assert np.allclose(np.tril(scores), 0.0)


class TestJMergeComparison:
    def test_j_merge_ranks_like_m_merge_on_clusterable_data(self, rng):
        """The Figure 1 claim: M_merge is a good surrogate for J_merge."""
        mixture = four_component_mixture()
        data, _ = mixture.sample(4000, rng)
        pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        j_scores = [j_merge(mixture, i, j, data) for i, j in pairs]
        m_scores = [
            m_merge(mixture.components[i], mixture.components[j])
            for i, j in pairs
        ]
        # Rank correlation: both criteria order the six pairs the same
        # way at the top (the two overlapping pairs first).
        top_by_j = {pairs[k] for k in np.argsort(j_scores)[-2:]}
        top_by_m = {pairs[k] for k in np.argsort(m_scores)[-2:]}
        assert top_by_j == top_by_m

    def test_j_merge_requires_distinct_components(self, rng):
        mixture = four_component_mixture()
        data, _ = mixture.sample(100, rng)
        with pytest.raises(ValueError, match="distinct"):
            j_merge(mixture, 1, 1, data)


class TestSplitCriteria:
    def test_m_split_reciprocal_of_m_remerge(self):
        mixture = four_component_mixture()
        outlier = Gaussian.spherical(np.array([30.0, 0.0]), 1.0)
        split = m_split(outlier, mixture)
        remerge = m_remerge(outlier, mixture)
        assert split * remerge == pytest.approx(1.0)

    def test_far_component_has_large_m_split(self):
        mixture = four_component_mixture()
        near = Gaussian.spherical(np.array([5.0, 5.0]), 1.0)
        far = Gaussian.spherical(np.array([100.0, 100.0]), 1.0)
        assert m_split(far, mixture) > m_split(near, mixture)


class TestNormalization:
    def test_normalized_scores_span_unit_interval(self):
        result = normalize_scores([3.0, 7.0, 5.0])
        assert result.min() == pytest.approx(0.0)
        assert result.max() == pytest.approx(1.0)

    def test_constant_scores_map_to_zero(self):
        assert np.allclose(normalize_scores([2.0, 2.0, 2.0]), 0.0)

    def test_empty_scores_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            normalize_scores([])


class TestAccuracyLoss:
    def test_zero_when_merging_identical_components(self):
        component = Gaussian.spherical(np.zeros(2), 1.0)
        loss = accuracy_loss(
            0.5, component, 0.5, component, component, n_samples=500
        )
        assert loss == pytest.approx(0.0, abs=1e-10)

    def test_positive_for_distinct_components(self, rng):
        a = Gaussian.spherical(np.array([-3.0]), 1.0)
        b = Gaussian.spherical(np.array([3.0]), 1.0)
        merged = a.merge_moments(b, 0.5, 0.5)
        loss = accuracy_loss(0.5, a, 0.5, b, merged, n_samples=4000, rng=rng)
        assert loss > 0.1

    def test_rejects_non_positive_weights(self):
        component = Gaussian.spherical(np.zeros(1), 1.0)
        with pytest.raises(ValueError, match="positive"):
            accuracy_loss(0.0, component, 0.5, component, component)


class TestMergedComponentFit:
    def test_simplex_never_worse_than_moment_matching(self, rng):
        a = Gaussian.spherical(np.array([-2.0, 0.0]), 1.0)
        b = Gaussian.spherical(np.array([2.0, 0.0]), 1.5)
        fit = fit_merged_component(0.6, a, 0.4, b, rng=rng)
        assert fit.loss <= fit.moment_loss + 1e-12
        assert fit.weight == pytest.approx(1.0)

    def test_overlapping_components_merge_with_small_loss(self, rng):
        a = Gaussian.spherical(np.array([0.0, 0.0]), 1.0)
        b = Gaussian.spherical(np.array([0.2, 0.0]), 1.0)
        fit = fit_merged_component(0.5, a, 0.5, b, rng=rng)
        assert fit.loss < 0.05

    def test_moment_method_skips_the_search(self, rng):
        a = Gaussian.spherical(np.array([-1.0]), 1.0)
        b = Gaussian.spherical(np.array([1.0]), 1.0)
        fit = fit_merged_component(0.5, a, 0.5, b, method="moment", rng=rng)
        assert fit.iterations == 0
        assert fit.loss == pytest.approx(fit.moment_loss)
        expected = a.merge_moments(b, 0.5, 0.5)
        assert np.allclose(fit.component.mean, expected.mean)

    def test_unknown_method_rejected(self):
        a = Gaussian.spherical(np.zeros(1), 1.0)
        with pytest.raises(ValueError, match="method"):
            fit_merged_component(0.5, a, 0.5, a, method="magic")

    def test_fitted_component_is_valid_gaussian(self, rng):
        a = Gaussian(np.array([0.0, 1.0]), np.array([[2.0, 0.5], [0.5, 1.0]]))
        b = Gaussian(np.array([3.0, 1.0]), np.array([[1.0, -0.2], [-0.2, 2.0]]))
        fit = fit_merged_component(1.0, a, 2.0, b, rng=rng)
        eigenvalues = np.linalg.eigvalsh(fit.component.covariance)
        assert np.all(eigenvalues > 0.0)
        assert fit.weight == pytest.approx(3.0)


# ----------------------------------------------------------------------
# The candidate kernel is exact
# ----------------------------------------------------------------------
def _merge_loss(dim: int, seed: int = 0) -> _MergeLoss:
    """A merge-fit objective for a fixed, correlated pair of components."""
    gen = np.random.default_rng(seed)
    raw_a = gen.normal(size=(dim, dim))
    raw_b = gen.normal(size=(dim, dim))
    a = Gaussian(gen.normal(size=dim), raw_a @ raw_a.T + 0.5 * np.eye(dim))
    b = Gaussian(gen.normal(size=dim) + 1.5, raw_b @ raw_b.T + np.eye(dim))
    return _MergeLoss(0.35, a, 0.65, b, 256, np.random.default_rng(seed + 1))


def _gaussian_loss(objective: _MergeLoss, candidate: Gaussian) -> float:
    """The loss as the fit scored it before the kernel: via ``Gaussian.pdf``."""
    samples = np.ascontiguousarray(objective.samples)
    merged_values = objective.total * candidate.pdf(samples)
    return float(
        np.mean(
            np.abs(objective.pair_values - merged_values)
            / objective.proposal_values
        )
    )


def _reference_value(objective: _MergeLoss, theta: np.ndarray) -> float:
    """What the simplex saw before the kernel: the loss of a full Gaussian.

    Decodes ``θ`` into a :class:`Gaussian` and scores it with
    :func:`_gaussian_loss`.  A ``θ`` that cannot be decoded or scored
    (``Gaussian.pdf`` rejects a non-finite mean) gives ``inf``, and so
    does a non-finite loss, as ``nelder_mead`` treats it.
    """
    try:
        loss = _gaussian_loss(objective, _unpack_parameters(theta, objective.dim))
    except (ValueError, np.linalg.LinAlgError):
        return np.inf
    return loss if np.isfinite(loss) else np.inf


@st.composite
def thetas(draw):
    """``(dim, θ)`` pairs: ordinary, clipped, near-singular or non-finite."""
    dim = draw(st.integers(min_value=1, max_value=4))
    n_lower = dim * (dim - 1) // 2
    kind = draw(st.sampled_from(["ordinary", "clipped", "singular", "nonfinite"]))
    mean = draw(arrays(float, dim, elements=st.floats(-6.0, 6.0)))
    log_diag = draw(arrays(float, dim, elements=st.floats(-3.0, 3.0)))
    lower = draw(arrays(float, n_lower, elements=st.floats(-4.0, 4.0)))
    if kind == "clipped":
        # Log-diagonals beyond the ±30 clip.
        log_diag = draw(arrays(float, dim, elements=st.floats(-60.0, 60.0)))
    elif kind == "singular":
        # One pivot of L at the e^-30 floor: L Lᵀ is numerically singular
        # and only passes the pivot test after a ridge.
        log_diag[draw(st.integers(0, dim - 1))] = draw(st.floats(-45.0, -25.0))
    theta = np.concatenate([mean, log_diag, lower])
    if kind == "nonfinite":
        position = draw(st.integers(0, theta.size - 1))
        theta[position] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return dim, theta


_OBJECTIVES = {dim: _merge_loss(dim) for dim in range(1, 5)}


class TestMergeLossKernel:
    @given(thetas())
    @settings(max_examples=300, deadline=None)
    def test_candidate_loss_is_bitwise_the_gaussian_loss(self, case):
        dim, theta = case
        objective = _OBJECTIVES[dim]
        # ``inf * 0`` inside ``L @ Lᵀ`` may raise the FP invalid flag.
        with np.errstate(invalid="ignore", over="ignore"):
            new = objective(theta)
            reference = _reference_value(objective, theta)
        assert float(new).hex() == float(reference).hex()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_theta_scores_inf_on_both_sides(self, bad):
        objective = _OBJECTIVES[2]
        log_diagonal = (2, 3)
        for position in range(5):
            theta = np.array([0.5, -0.5, 0.1, 0.2, 0.3])
            theta[position] = bad
            with np.errstate(invalid="ignore", over="ignore"):
                value = objective(theta)
                assert value == _reference_value(objective, theta)
            if position in log_diagonal and not np.isnan(bad):
                # ±inf log-variances are clipped to ±30, not rejected.
                assert np.isfinite(value)
            else:
                assert value == np.inf

    def test_near_singular_candidate_needs_a_ridge_and_matches(self):
        objective = _OBJECTIVES[2]
        theta = np.array([0.3, -0.2, 0.0, -40.0, 1.5])
        chol = _cholesky_from_theta(theta, 2)
        covariance = chol @ chol.T
        # The matrix only passes after at least one ridge escalation.
        assert not np.array_equal(
            regularize_covariance(covariance), ensure_spd(covariance)
        )
        assert objective(theta) == _reference_value(objective, theta)
        assert np.isfinite(objective(theta))

    def test_constructed_gaussians_score_through_the_same_kernel(self):
        objective = _OBJECTIVES[3]
        candidate = Gaussian(
            np.array([0.1, 0.2, -0.3]),
            np.array([[1.0, 0.3, 0.0], [0.3, 2.0, -0.4], [0.0, -0.4, 0.5]]),
        )
        assert objective.loss_of(candidate) == _gaussian_loss(objective, candidate)


# ----------------------------------------------------------------------
# The moment fit scores its loss on first read
# ----------------------------------------------------------------------
@st.composite
def merge_pairs(draw):
    """``(w_i, comp_i, w_j, comp_j, seed)`` with d = 1..5 and full covariances."""
    dim = draw(st.integers(1, 5))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    components = []
    for _ in range(2):
        raw = gen.normal(size=(dim, dim))
        components.append(
            Gaussian(
                gen.normal(scale=3.0, size=dim),
                raw @ raw.T + gen.uniform(0.1, 2.0) * np.eye(dim),
            )
        )
    weight_i = draw(st.floats(0.05, 50.0))
    weight_j = draw(st.floats(0.05, 50.0))
    seed = draw(st.integers(0, 2**32 - 1))
    return weight_i, components[0], weight_j, components[1], seed


class TestDeferredMomentLoss:
    @given(merge_pairs(), st.sampled_from([64, 257, 2048]))
    @settings(max_examples=60, deadline=None)
    def test_losses_and_generator_match_the_eager_route(self, pair, n_samples):
        weight_i, comp_i, weight_j, comp_j, seed = pair
        eager_rng = np.random.default_rng(seed)
        objective = _MergeLoss(
            weight_i, comp_i, weight_j, comp_j, n_samples, eager_rng
        )
        eager = objective.loss_of(comp_i.merge_moments(comp_j, weight_i, weight_j))

        rng = np.random.default_rng(seed)
        fit = fit_merged_component(
            weight_i, comp_i, weight_j, comp_j,
            n_samples=n_samples, rng=rng, method="moment",
        )
        # The sample set was drawn at fit time, before any read.
        assert rng.bit_generator.state == eager_rng.bit_generator.state
        assert float(fit.loss).hex() == float(eager).hex()
        assert float(fit.moment_loss).hex() == float(eager).hex()
        assert float(fit.loss).hex() == float(eager).hex()
        assert rng.bit_generator.state == eager_rng.bit_generator.state

    def test_no_density_is_evaluated_until_the_loss_is_read(self, monkeypatch):
        a = Gaussian.spherical(np.array([-1.0, 0.5]), 1.0)
        b = Gaussian.spherical(np.array([1.0, 0.0]), 2.0)
        calls = []
        pdf = Gaussian.pdf
        monkeypatch.setattr(
            Gaussian, "pdf", lambda self, x: calls.append(x) or pdf(self, x)
        )
        fit = fit_merged_component(
            0.3, a, 0.7, b, rng=np.random.default_rng(4), method="moment"
        )
        assert calls == []
        loss = fit.moment_loss
        assert calls and np.isfinite(loss)
        evaluated = len(calls)
        assert fit.loss == loss
        assert len(calls) == evaluated


#: ``fit_merged_component`` on the merge-fit ablation's pairs with
#: ``rng=default_rng(1)``, recorded before the candidate kernel replaced
#: per-candidate ``Gaussian`` construction: mean, covariance (row-major),
#: loss, moment loss and iterations, as ``float.hex``.  The values pin
#: the fit's arithmetic; a BLAS whose triangular kernels round
#: differently will move them.
GOLDEN_FITS = {
    "overlapping": (
        ("0x1.0003e8082a930p-2", "-0x1.decb8cbf749bep-18"),
        ("0x1.106b9e67e4f42p+0", "0x1.457296ec8540fp-15",
         "0x1.457296ec8540fp-15", "0x1.0000f417bd5b6p+0"),
        "0x1.22af066444311p-11", "0x1.bb0eeb41e7198p-11", 80,
    ),
    "moderate": (
        ("0x1.02792200572eep+0", "0x1.1cd103093ef14p-8"),
        ("0x1.25378db63e40ep+1", "-0x1.211e9d014a0b8p-8",
         "-0x1.211e9d014a0b8p-8", "0x1.019294a22617fp+0"),
        "0x1.8de94d26bbf9ep-4", "0x1.c4bd286223299p-4", 120,
    ),
    "asymmetric-width": (
        ("0x1.276ee4106cb78p+0", "-0x1.47a2038f90092p-11"),
        ("0x1.dde738f0d6903p+1", "-0x1.478ec4e868ef4p-11",
         "-0x1.478ec4e868ef4p-11", "0x1.3ffba2ca72c5ap+1"),
        "0x1.86530c7097d1ap-1", "0x1.8b0e9ea87baa9p-1", 120,
    ),
    "asymmetric-weight": (
        ("0x1.513dee86f9518p-3", "-0x1.502f64990d23cp-9"),
        ("0x1.4ca5d6129773cp+0", "-0x1.ad5e9822e8b7cp-7",
         "-0x1.ad5e9822e8b7cp-7", "0x1.ff7ff6ef457a4p-1"),
        "0x1.76e98b06c3fd8p-4", "0x1.ffc64a41b7080p-4", 120,
    ),
    "far-apart": (
        ("0x1.6a2aa1aa0b00fp+1", "0x1.100be33afce84p-4"),
        ("0x1.5e312f6fad72bp+3", "0x1.9bf9ab1464630p-4",
         "0x1.9bf9ab1464630p-4", "0x1.0d8dc42fb9c91p+0"),
        "0x1.42941fc8e5ebep-1", "0x1.4e78c07312335p-1", 120,
    ),
}


class TestGoldenMergeFits:
    @pytest.mark.parametrize("spec", PAIR_SPECS, ids=lambda spec: spec[0])
    def test_fit_matches_recorded_values(self, spec):
        label, gap, sigma_i, sigma_j, weight_i, weight_j = spec
        a = Gaussian.spherical(np.array([0.0, 0.0]), sigma_i**2)
        b = Gaussian.spherical(np.array([gap, 0.0]), sigma_j**2)
        fit = fit_merged_component(
            weight_i, a, weight_j, b, rng=np.random.default_rng(1)
        )
        mean, covariance, loss, moment_loss, iterations = GOLDEN_FITS[label]
        assert tuple(float(x).hex() for x in fit.component.mean) == mean
        assert (
            tuple(float(x).hex() for x in fit.component.covariance.ravel())
            == covariance
        )
        assert float(fit.loss).hex() == loss
        assert float(fit.moment_loss).hex() == moment_loss
        assert fit.iterations == iterations
        assert fit.converged == (iterations < 120)
