"""Component merge/split criteria and the merged-component fit (§5.2).

The coordinator cannot see raw data, so it replaces SMEM's data-driven
merge criterion::

    J_merge(i, j) = Σ_x Pr(i|x) · Pr(j|x)

with the synopsis-only Mahalanobis criterion (eq. 5)::

    M_merge(i, j) = 1 / ((μ_i - μ_j)ᵀ (Σ_i⁻¹ + Σ_j⁻¹) (μ_i - μ_j))

Figure 1 of the paper argues the two rank component pairs almost
identically; :func:`j_merge` and :func:`m_merge` are both implemented so
the benchmark can reproduce that comparison.

After choosing the pair with the largest ``M_merge``, the merged
component ``i'`` is fitted by minimising the L1 accuracy loss::

    l(x) = ∫ | w_i p(x|i) + w_j p(x|j) - (w_i + w_j) p(x|i') | dx

with the downhill-simplex method (the paper's choice, since ``l`` has no
usable derivatives).  The simplex search runs over the mean and a
log-Cholesky parameterisation of the covariance -- log-diagonal entries
keep every candidate positive definite -- and starts from the exact
moment-matched Gaussian, which is also exposed as the cheap ablation
baseline.

The split-side criteria of Algorithm 2 (eq. 6) live here too:
``M_split(i, Mix)`` compares a component against its father mixture's
pooled Gaussian, and ``M_remerge = 1 / M_split`` scores candidate new
homes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from typing import Callable, Sequence

import numpy as np

from repro.core.gaussian import Gaussian
from repro.core.mixture import GaussianMixture
from repro.numerics.integrate import monte_carlo_l1
from repro.numerics.linalg import LOG_2PI, SPDFactors, spd_factorize
from repro.numerics.simplex import nelder_mead
from repro.obs.observer import Observer, ensure_observer

__all__ = [
    "MergeFit",
    "accuracy_loss",
    "fit_merged_component",
    "j_merge",
    "m_merge",
    "m_remerge",
    "m_split",
    "normalize_scores",
    "pairwise_m_merge",
    "rank_merge_pairs",
]

#: ``M_merge`` of components with (numerically) identical means.  The
#: reciprocal distance diverges; we cap it so ranking stays total.
MERGE_SCORE_CAP = 1e12


# ----------------------------------------------------------------------
# Pairwise merge criteria
# ----------------------------------------------------------------------
def j_merge(
    mixture: GaussianMixture, i: int, j: int, data: np.ndarray
) -> float:
    """SMEM's data-driven criterion ``Σ_x Pr(i|x) Pr(j|x)``.

    Needs raw records, so the coordinator never uses it in production;
    it exists as the reference for the Figure 1 comparison.
    """
    if i == j:
        raise ValueError("j_merge is defined for distinct components")
    posterior = mixture.posterior(data)
    return float(np.sum(posterior[:, i] * posterior[:, j]))


def m_merge(component_i: Gaussian, component_j: Gaussian) -> float:
    """Synopsis-only merge criterion of eq. 5 (larger = merge sooner)."""
    distance = component_i.symmetric_mahalanobis_sq(component_j)
    if distance <= 1.0 / MERGE_SCORE_CAP:
        return MERGE_SCORE_CAP
    return 1.0 / distance


def m_split(component: Gaussian, mixture: GaussianMixture) -> float:
    """Split criterion of eq. 6 against the mixture's pooled Gaussian.

    A large value means the component sits far (in symmetrised
    Mahalanobis terms) from its father mixture and should be split out.
    """
    return component.symmetric_mahalanobis_sq(mixture.pooled_gaussian())


def m_remerge(component: Gaussian, mixture: GaussianMixture) -> float:
    """Re-merge criterion: reciprocal of :func:`m_split`.

    Algorithm 2 merges a split component into the sibling mixture with
    the largest ``M_remerge`` (equivalently the smallest Mahalanobis
    distance).
    """
    distance = m_split(component, mixture)
    if distance <= 1.0 / MERGE_SCORE_CAP:
        return MERGE_SCORE_CAP
    return 1.0 / distance


def pairwise_m_merge(mixture: GaussianMixture) -> np.ndarray:
    """Upper-triangular matrix of ``M_merge`` scores for all pairs.

    Entry ``[i, j]`` with ``i < j`` holds the score; the lower triangle
    and diagonal are zero.
    """
    k = mixture.n_components
    scores = np.zeros((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            scores[i, j] = m_merge(mixture.components[i], mixture.components[j])
    return scores


def rank_merge_pairs(mixture: GaussianMixture) -> list[tuple[int, int, float]]:
    """All component pairs sorted by descending ``M_merge``.

    Returns ``(i, j, score)`` triples with ``i < j`` -- the paper's "28
    combinations" for ``K = 8``.
    """
    scores = pairwise_m_merge(mixture)
    pairs = [
        (i, j, float(scores[i, j]))
        for i in range(mixture.n_components)
        for j in range(i + 1, mixture.n_components)
    ]
    pairs.sort(key=lambda item: item[2], reverse=True)
    return pairs


def normalize_scores(scores: Sequence[float]) -> np.ndarray:
    """Min-max normalisation used in the Figure 1 comparison.

    ``(s - min) / (max - min)``; a constant score list maps to zeros.
    """
    arr = np.asarray(scores, dtype=float)
    if arr.size == 0:
        raise ValueError("cannot normalise an empty score list")
    span = float(arr.max() - arr.min())
    if span <= 0.0:
        return np.zeros_like(arr)
    return (arr - arr.min()) / span


# ----------------------------------------------------------------------
# Accuracy loss and the merged-component fit
# ----------------------------------------------------------------------
def _two_component_density(
    weight_i: float, comp_i: Gaussian, weight_j: float, comp_j: Gaussian
):
    """Unnormalised density ``w_i p(x|i) + w_j p(x|j)`` as a callable."""

    def density(points: np.ndarray) -> np.ndarray:
        return weight_i * comp_i.pdf(points) + weight_j * comp_j.pdf(points)

    return density


def accuracy_loss(
    weight_i: float,
    comp_i: Gaussian,
    weight_j: float,
    comp_j: Gaussian,
    merged: Gaussian,
    n_samples: int = 2048,
    rng: np.random.Generator | None = None,
) -> float:
    """Monte-Carlo estimate of the paper's ``l(x)`` accuracy loss.

    The proposal is the normalised two-component sub-mixture, which by
    construction covers the support of both sides of the integrand.
    """
    if weight_i <= 0.0 or weight_j <= 0.0:
        raise ValueError("component weights must be positive")
    rng = rng if rng is not None else np.random.default_rng(0)
    total = weight_i + weight_j
    proposal = GaussianMixture(
        np.array([weight_i / total, weight_j / total]), (comp_i, comp_j)
    )

    pair_density = _two_component_density(weight_i, comp_i, weight_j, comp_j)

    def merged_density(points: np.ndarray) -> np.ndarray:
        return total * merged.pdf(points)

    return monte_carlo_l1(
        pair_density,
        merged_density,
        sampler=lambda n, gen: proposal.sample(n, gen)[0],
        proposal_density=proposal.pdf,
        n_samples=n_samples,
        rng=rng,
    )


def _pack_parameters(gaussian: Gaussian) -> np.ndarray:
    """Mean + log-Cholesky vectorisation of a Gaussian.

    The diagonal of the Cholesky factor is stored in log space so every
    parameter vector decodes to a valid (positive definite) covariance.
    """
    d = gaussian.dim
    chol = np.linalg.cholesky(gaussian.covariance)
    log_diag = np.log(np.diag(chol))
    lower = chol[_lower_indices(d)]
    return np.concatenate([gaussian.mean, log_diag, lower])


@lru_cache(maxsize=None)
def _lower_indices(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.tril_indices(dim, k=-1)``, built once per dimension.

    Building them costs more than the rest of decoding a candidate; the
    cached arrays are read-only because every caller shares them.
    """
    rows, cols = np.tril_indices(dim, k=-1)
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


def _cholesky_from_theta(theta: np.ndarray, dim: int) -> np.ndarray:
    """The lower-triangular ``L`` that a parameter vector encodes."""
    chol = np.zeros((dim, dim))
    chol[np.diag_indices(dim)] = np.exp(np.clip(theta[dim : 2 * dim], -30.0, 30.0))
    chol[_lower_indices(dim)] = theta[2 * dim :]
    return chol


def _unpack_parameters(theta: np.ndarray, dim: int) -> Gaussian:
    """Inverse of :func:`_pack_parameters`."""
    chol = _cholesky_from_theta(theta, dim)
    return Gaussian(theta[:dim], chol @ chol.T)


class _MergeLoss:
    """The L1 accuracy loss on one fixed common-random-number sample set.

    The sample set is drawn from the generator when the instance is
    built; the proposal and pair densities on it are evaluated on the
    first score, so an objective nobody scores costs only the draw.

    Calling the instance scores a simplex candidate ``θ`` without
    building a :class:`Gaussian`: ``L Lᵀ`` goes through the same
    :func:`~repro.numerics.linalg.spd_factorize` the ``Gaussian``
    constructor uses, and the samples are whitened by the LAPACK
    triangular solve that ``Gaussian.pdf`` reaches through
    ``scipy.linalg.solve_triangular`` -- called directly, without the
    wrapper's input validation (the factor and samples are finite by
    construction).  The loss is then formed with the same float
    operations as ``Gaussian.pdf``, so its value is bit-identical to
    scoring ``_unpack_parameters(θ)``.
    """

    def __init__(
        self,
        weight_i: float,
        comp_i: Gaussian,
        weight_j: float,
        comp_j: Gaussian,
        n_samples: int,
        rng: np.random.Generator,
    ) -> None:
        # scipy.linalg is imported lazily: loading it with the package
        # doubles ``import repro``'s start-up time.
        from scipy.linalg.lapack import dtrtrs

        self._dtrtrs = dtrtrs
        self.dim = comp_i.dim
        self.total = weight_i + weight_j
        self._pair = (weight_i, comp_i, weight_j, comp_j)
        self._proposal = GaussianMixture(
            np.array([weight_i / self.total, weight_j / self.total]),
            (comp_i, comp_j),
        )
        self._drawn, _ = self._proposal.sample(n_samples, rng)

    @cached_property
    def proposal_values(self) -> np.ndarray:
        return self._proposal.pdf(self._drawn)

    @cached_property
    def pair_values(self) -> np.ndarray:
        return _two_component_density(*self._pair)(self._drawn)

    @cached_property
    def samples(self) -> np.ndarray:
        # Column-major storage only speeds up the per-candidate
        # ``samples - mean`` (each column shifts by one scalar); the
        # values, and so every bit downstream, are the same.
        return np.asfortranarray(self._drawn)

    def loss_of(self, candidate: Gaussian) -> float:
        """Loss of a constructed candidate component."""
        return self._score(candidate.mean, candidate.factors)

    def __call__(self, theta: np.ndarray) -> float:
        """Loss of the candidate encoded by ``θ``; ``inf`` if invalid."""
        mean = theta[: self.dim]
        if not np.isfinite(mean).all():
            return np.inf
        chol = _cholesky_from_theta(theta, self.dim)
        try:
            factors = spd_factorize(chol @ chol.T)
        except (ValueError, np.linalg.LinAlgError):
            return np.inf
        return self._score(mean, factors)

    def _score(self, mean: np.ndarray, factors: SPDFactors) -> float:
        # The LAPACK call ``solve_triangular(L, b, lower=True)`` makes:
        # ``L`` itself when it is Fortran-ordered (d = 1), otherwise the
        # transposed system on the Fortran-ordered ``Lᵀ``.  Making the
        # same call keeps every bit of the density.
        chol = factors.cholesky
        centered = (self.samples - mean).T
        if chol.flags.f_contiguous:
            whitened, _ = self._dtrtrs(chol, centered, lower=1, overwrite_b=1)
        else:
            whitened, _ = self._dtrtrs(
                chol.T, centered, lower=0, trans=1, overwrite_b=1
            )
        dist_sq = np.sum(whitened * whitened, axis=0)
        density = np.exp(-0.5 * (self.dim * LOG_2PI + factors.log_det + dist_sq))
        merged_values = self.total * density
        return float(
            np.mean(np.abs(self.pair_values - merged_values) / self.proposal_values)
        )


@dataclass(frozen=True)
class MergeFit:
    """Result of fitting a merged component ``i'``.

    Attributes
    ----------
    component:
        The fitted father component.
    weight:
        Its weight ``w_i + w_j``.
    iterations:
        Simplex iterations spent.
    converged:
        Whether the simplex met its spread tolerances before its
        iteration budget ran out (always ``True`` for the moment fit).
    loss:
        Final L1 accuracy-loss estimate.
    moment_loss:
        Loss of the moment-matched initial guess (the ablation
        baseline); ``loss <= moment_loss`` up to Monte-Carlo noise.

    The simplex fit scores both losses while it searches.  The moment
    fit scores its one loss on the first read of ``loss`` or
    ``moment_loss``, on the sample set drawn at fit time, so the value
    is the same float an eager fit would have produced and a fit whose
    loss nobody reads costs no density evaluation.
    """

    component: Gaussian
    weight: float
    iterations: int
    converged: bool
    #: ``() -> (loss, moment_loss)``, called on the first read of either.
    _score: Callable[[], tuple[float, float]] = field(repr=False, compare=False)

    @cached_property
    def _losses(self) -> tuple[float, float]:
        losses = self._score()
        # Drop the objective (and its sample set) once it has been read.
        object.__setattr__(self, "_score", None)
        return losses

    @property
    def loss(self) -> float:
        return self._losses[0]

    @property
    def moment_loss(self) -> float:
        return self._losses[1]


def _moment_losses(
    objective: _MergeLoss, moment: Gaussian
) -> tuple[float, float]:
    loss = objective.loss_of(moment)
    return loss, loss


def fit_merged_component(
    weight_i: float,
    comp_i: Gaussian,
    weight_j: float,
    comp_j: Gaussian,
    n_samples: int = 2048,
    max_iter: int = 120,
    rng: np.random.Generator | None = None,
    method: str = "simplex",
    observer: Observer | None = None,
) -> MergeFit:
    """Fit the father component of a merge by minimising ``l(x)``.

    Parameters
    ----------
    weight_i / comp_i / weight_j / comp_j:
        The two components being merged, with their mixture weights.
    n_samples:
        Monte-Carlo budget per loss evaluation.  A common random-number
        sample set is drawn once and reused across simplex evaluations
        so the objective is deterministic (otherwise the simplex chases
        noise).
    max_iter:
        Simplex iteration budget.
    rng:
        Randomness for the loss sample set.
    method:
        ``"simplex"`` (the paper's downhill simplex fit) or
        ``"moment"`` (the exact moment-matching ablation, no search).
    observer:
        Optional :class:`~repro.obs.observer.Observer`: the simplex
        search is timed into the ``profile.simplex`` histogram and its
        iteration count lands in the ``merge.simplex_iterations``
        counter.

    Returns
    -------
    MergeFit
        With ``method="moment"`` the sample set is still drawn here, so
        ``rng`` advances exactly as for an eager fit, but the loss is
        evaluated only when ``loss`` or ``moment_loss`` is first read.
    """
    if method not in ("simplex", "moment"):
        raise ValueError(f"unknown merge fit method {method!r}")
    obs = ensure_observer(observer)
    rng = rng if rng is not None else np.random.default_rng(0)
    total = weight_i + weight_j
    moment = comp_i.merge_moments(comp_j, weight_i, weight_j)
    # Common random numbers: the proposal sample is fixed once.
    objective = _MergeLoss(weight_i, comp_i, weight_j, comp_j, n_samples, rng)
    if method == "moment":
        return MergeFit(
            component=moment,
            weight=total,
            iterations=0,
            converged=True,
            _score=partial(_moment_losses, objective, moment),
        )

    moment_loss = objective.loss_of(moment)
    with obs.timer("profile.simplex"):
        result = nelder_mead(
            objective,
            _pack_parameters(moment),
            max_iter=max_iter,
            xtol=1e-5,
            ftol=1e-7,
        )
    if obs.enabled:
        obs.inc("merge.simplex_iterations", result.iterations)
    fitted = _unpack_parameters(result.x, objective.dim)
    fitted_loss = objective.loss_of(fitted)
    if fitted_loss > moment_loss:
        # The search never accepts a candidate worse than its seed.
        fitted, fitted_loss = moment, moment_loss
    return MergeFit(
        component=fitted,
        weight=total,
        iterations=result.iterations,
        converged=result.converged,
        _score=lambda: (fitted_loss, moment_loss),
    )
