"""Tests for the robust covariance linear algebra."""

from __future__ import annotations

import numpy as np
import pytest

from repro.numerics.linalg import (
    ensure_spd,
    log_det_spd,
    mahalanobis_sq,
    regularize_covariance,
    safe_inverse,
    spd_factorize,
)


class TestEnsureSpd:
    def test_symmetrises_input(self):
        raw = np.array([[2.0, 0.5], [0.1, 1.0]])
        result = ensure_spd(raw)
        assert np.allclose(result, result.T)
        assert result[0, 1] == pytest.approx(0.3)

    def test_floors_zero_variance_diagonal(self):
        raw = np.diag([1.0, 0.0])
        result = ensure_spd(raw)
        assert result[1, 1] > 0.0

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            ensure_spd(np.ones((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            ensure_spd(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestRegularize:
    def test_pd_matrix_unchanged_up_to_symmetry(self):
        cov = np.array([[2.0, 0.3], [0.3, 1.0]])
        assert np.allclose(regularize_covariance(cov), cov)

    def test_indefinite_matrix_becomes_pd(self):
        cov = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
        fixed = regularize_covariance(cov)
        eigenvalues = np.linalg.eigvalsh(fixed)
        assert np.all(eigenvalues > 0.0)

    def test_singular_matrix_becomes_pd(self):
        cov = np.ones((3, 3))  # rank one
        fixed = regularize_covariance(cov)
        np.linalg.cholesky(fixed)  # must not raise


class TestFactorization:
    def test_log_det_matches_numpy(self):
        cov = np.array([[2.0, 0.5], [0.5, 1.5]])
        expected = np.log(np.linalg.det(cov))
        assert log_det_spd(cov) == pytest.approx(expected, rel=1e-9)

    def test_inverse_matches_numpy(self):
        cov = np.array([[2.0, 0.5], [0.5, 1.5]])
        assert np.allclose(safe_inverse(cov), np.linalg.inv(cov))

    def test_inverse_is_cached(self):
        factors = spd_factorize(np.eye(3))
        assert factors.inverse() is factors.inverse()

    def test_solve_agrees_with_inverse(self):
        cov = np.array([[3.0, 1.0], [1.0, 2.0]])
        factors = spd_factorize(cov)
        rhs = np.array([1.0, -1.0])
        assert np.allclose(factors.solve(rhs), np.linalg.inv(cov) @ rhs)


class TestSingleFactorization:
    """``spd_factorize`` keeps the factor its regularisation accepted."""

    @staticmethod
    def matrices() -> list[np.ndarray]:
        gen = np.random.default_rng(7)
        raw = gen.normal(size=(4, 4))
        out = [
            np.array([[2.0, 0.3], [0.3, 1.0]]),
            np.ones((3, 3)),
            np.array([[1.0, 2.0], [2.0, 1.0]]),
            np.diag([1.0, 0.0, 4.0]),
        ]
        # A spectrum shifted ever further below zero needs ever larger
        # ridges, so ever more attempts.
        for shift in (0.0, 1e-3, 0.1, 1.0, 5.0, 50.0):
            out.append(raw @ raw.T - shift * np.eye(4))
        return out

    def test_factor_is_bitwise_the_cholesky_of_the_regularised_matrix(
        self, monkeypatch
    ):
        real = np.linalg.cholesky
        calls = []

        def counting(matrix):
            calls.append(1)
            return real(matrix)

        attempts = set()
        for matrix in self.matrices():
            expected = real(regularize_covariance(matrix))
            calls.clear()
            monkeypatch.setattr(np.linalg, "cholesky", counting)
            factors = spd_factorize(matrix)
            monkeypatch.setattr(np.linalg, "cholesky", real)
            attempts.add(len(calls))
            assert factors.cholesky.tobytes() == expected.tobytes()
            assert factors.covariance.tobytes() == (
                regularize_covariance(matrix).tobytes()
            )
        # Cover the plain case, one ridge and long escalations; each
        # attempt is one factorisation, with none repeated afterwards.
        assert 1 in attempts and 2 in attempts
        assert max(attempts) >= 4


class TestMahalanobis:
    def test_identity_covariance_is_euclidean(self):
        points = np.array([[3.0, 4.0]])
        result = mahalanobis_sq(points, np.zeros(2), np.eye(2))
        assert result[0] == pytest.approx(25.0)

    def test_zero_at_the_mean(self):
        mean = np.array([1.0, 2.0, 3.0])
        cov = np.diag([1.0, 4.0, 9.0])
        assert mahalanobis_sq(mean, mean, cov)[0] == pytest.approx(0.0)

    def test_scales_with_inverse_variance(self):
        point = np.array([[2.0]])
        tight = mahalanobis_sq(point, np.zeros(1), np.array([[0.25]]))
        loose = mahalanobis_sq(point, np.zeros(1), np.array([[4.0]]))
        assert tight[0] == pytest.approx(16.0)
        assert loose[0] == pytest.approx(1.0)

    def test_batch_shape(self):
        points = np.random.default_rng(0).normal(size=(10, 3))
        result = mahalanobis_sq(points, np.zeros(3), np.eye(3))
        assert result.shape == (10,)
        assert np.all(result >= 0.0)

    def test_accepts_precomputed_factors(self):
        cov = np.array([[2.0, 0.0], [0.0, 1.0]])
        factors = spd_factorize(cov)
        direct = mahalanobis_sq(np.ones((1, 2)), np.zeros(2), cov)
        cached = mahalanobis_sq(np.ones((1, 2)), np.zeros(2), factors)
        assert direct[0] == pytest.approx(cached[0])
