import numpy as np
import pytest

from gdlkit import mesh_core
from gdlkit.numkit import complex_linear_solve
from gdlkit.rng import substream
from gdlkit.spectral import (
    apply_cayley_filter,
    apply_poly_filter,
    apply_transfer_direct,
    cayley_gain,
    fit_cayley_to_transfer,
    fit_poly_to_transfer,
    fmap_from_pointmap,
    fourier_coefficients,
    highpass_bump,
    perturbation_stability_experiment,
    spectral_basis,
)


@pytest.fixture(scope="module")
def sphere2():
    mesh = mesh_core.icosphere(2)
    pair = mesh_core.cotan_laplacian(mesh)
    return mesh, pair


@pytest.fixture(scope="module")
def sphere2_full_basis(sphere2):
    mesh, pair = sphere2
    return spectral_basis(pair, k=mesh.n_vertices)


class TestFourierCoefficients:
    def test_eigenvector_gives_unit_vector(self, sphere2_full_basis):
        basis = sphere2_full_basis
        for j in (0, 3, 17):
            coeffs = fourier_coefficients(basis, basis.vectors[:, j])
            expected = np.zeros(basis.k)
            expected[j] = 1.0
            assert np.max(np.abs(coeffs - expected)) <= 1e-8

    def test_constant_hits_only_the_kernel_mode(self, sphere2_full_basis):
        basis = sphere2_full_basis
        coeffs = fourier_coefficients(basis, np.full(basis.mass.shape[0], 2.5))
        assert np.max(np.abs(coeffs[1:])) <= 1e-8

    def test_parseval(self, sphere2_full_basis):
        basis = sphere2_full_basis
        x = np.random.default_rng(0).standard_normal(basis.mass.shape[0])
        coeffs = fourier_coefficients(basis, x)
        assert abs(np.linalg.norm(coeffs) - np.sqrt(x @ (basis.mass @ x))) <= 1e-8


class TestDirichletEnergy:
    """The stiffness quadratic form ``x^T L x``."""

    def test_constant_is_zero(self, sphere2):
        _, pair = sphere2
        ones = np.ones(pair.n)
        assert ones @ (pair.stiffness @ ones) == 0.0

    def test_rayleigh_quotient(self, sphere2_full_basis):
        basis = sphere2_full_basis
        for j in (1, 5, 20):
            phi = basis.vectors[:, j]
            energy = phi @ (basis.stiffness @ phi)
            assert abs(energy - basis.eigenvalues[j]) <= 1e-8

    def test_relabelling_invariance(self, sphere2):
        _, pair = sphere2
        rng = np.random.default_rng(3)
        x = rng.standard_normal(pair.n)
        p = rng.permutation(pair.n)
        pm = np.zeros((pair.n, pair.n))
        pm[p, np.arange(pair.n)] = 1.0
        conjugated = pm @ pair.stiffness.toarray() @ pm.T
        assert abs(x @ (pair.stiffness @ x) - (pm @ x) @ (conjugated @ (pm @ x))) <= 1e-9


class TestTransferAndFilters:
    def test_identity_transfer(self, sphere2_full_basis):
        basis = sphere2_full_basis
        x = np.random.default_rng(4).standard_normal(basis.mass.shape[0])
        out = apply_transfer_direct(basis, lambda lam: np.ones_like(lam), x)
        assert np.max(np.abs(out - x)) <= 1e-8

    def test_lambda_transfer_is_operator(self, sphere2, sphere2_full_basis):
        _, pair = sphere2
        basis = sphere2_full_basis
        x = np.random.default_rng(5).standard_normal(pair.n)
        out = apply_transfer_direct(basis, lambda lam: lam, x)
        assert np.max(np.abs(out - pair.operator_apply(x))) <= 1e-7

    def test_kernel_indicator_projects_to_mean(self, sphere2, sphere2_full_basis):
        _, pair = sphere2
        basis = sphere2_full_basis
        x = np.random.default_rng(6).standard_normal(pair.n)
        out = apply_transfer_direct(basis, lambda lam: (lam < 1e-8).astype(float), x)
        mean = float(x @ (pair.mass @ np.ones(pair.n))) / pair.mass.diagonal().sum()
        assert np.max(np.abs(out - mean)) <= 1e-8

    def test_poly_identity_and_operator(self, sphere2):
        _, pair = sphere2
        x = np.random.default_rng(7).standard_normal(pair.n)
        assert np.array_equal(apply_poly_filter(pair, [1.0], x), x)
        assert np.allclose(apply_poly_filter(pair, [0.0, 1.0], x),
                           pair.operator_apply(x), atol=1e-12)

    def test_poly_matches_spectral_evaluation(self, sphere2, sphere2_full_basis):
        _, pair = sphere2
        basis = sphere2_full_basis
        rng = np.random.default_rng(8)
        coeff = rng.standard_normal(5) / np.power(basis.eigenvalues[-1], np.arange(5))
        x = rng.standard_normal(pair.n)
        path = apply_poly_filter(pair, coeff, x)
        spectralv = apply_transfer_direct(
            basis, lambda lam: sum(c * lam**i for i, c in enumerate(coeff)), x)
        assert np.max(np.abs(path - spectralv)) <= 1e-7

    def test_cayley_constant_term(self, sphere2):
        _, pair = sphere2
        x = np.random.default_rng(9).standard_normal(pair.n)
        out = apply_cayley_filter(pair, [0.7 + 0.0j], x)
        assert np.max(np.abs(out - 0.7 * x)) <= 1e-12

    def test_cayley_first_order_at_kernel(self):
        # at lambda = 0 the Cayley ratio is (0 - i)/(0 + i) = -1
        assert abs(cayley_gain([0.0, 1.0], np.array([0.0]))[0] + 1.0) <= 1e-15

    def test_cayley_matches_spectral_oracle(self):
        mesh = mesh_core.icosphere(1)
        pair = mesh_core.cotan_laplacian(mesh)
        basis = spectral_basis(pair, k=mesh.n_vertices)
        rng = np.random.default_rng(10)
        coeff = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        x = rng.standard_normal(pair.n)
        path = apply_cayley_filter(pair, coeff, x)
        spectralv = apply_transfer_direct(basis, lambda lam: cayley_gain(coeff, lam), x)
        assert np.max(np.abs(path - spectralv)) <= 1e-6


def test_cayley_matches_dense_solve_oracle():
    # degree 6 on n = 642: every step against the dense complex solve of
    # (Delta + iI) z_l = (Delta - iI) z_{l-1}, Delta = M^{-1} L
    mesh = mesh_core.jitter_mesh(mesh_core.icosphere(3), 0.05, seed=4)
    pair = mesh_core.cotan_laplacian(mesh)
    rng = np.random.default_rng(14)
    coeff = (rng.standard_normal(7) + 1j * rng.standard_normal(7)) / np.arange(1, 8)
    x = rng.standard_normal(pair.n)
    delta = pair.stiffness.toarray() / pair.mass.diagonal()[:, None]
    eye = np.eye(pair.n)
    z = x.astype(complex)
    expected = coeff[0] * z
    for alpha in coeff[1:]:
        z = np.linalg.solve(delta + 1j * eye, (delta - 1j * eye) @ z)
        expected = expected + alpha * z
    out = apply_cayley_filter(pair, coeff, x)
    assert np.max(np.abs(out - expected.real)) <= 1e-8 * max(1.0, np.max(np.abs(expected.real)))


@pytest.fixture(scope="module")
def jittered_sphere3():
    return mesh_core.cotan_laplacian(mesh_core.jitter_mesh(mesh_core.icosphere(3), 0.01, seed=5))


@pytest.mark.parametrize("degree", [0, 1, 6])
def test_filters_equal_their_own_power_loops(jittered_sphere3, degree):
    # oracles: each filter's power loop as it was written before the two
    # shared one series loop; the shared loop must give the same bits
    pair = jittered_sphere3
    rng = np.random.default_rng(15 + degree)
    x = rng.standard_normal((pair.n, 2))
    coeff = rng.standard_normal(degree + 1)
    expected = coeff[0] * x
    power = x
    for alpha in coeff[1:]:
        power = pair.operator_apply(power)
        expected = expected + alpha * power
    assert np.array_equal(apply_poly_filter(pair, coeff, x), expected)

    ccoeff = coeff + 1j * rng.standard_normal(degree + 1)
    z = x.astype(complex)
    expected = ccoeff[0] * z
    solve = complex_linear_solve(pair.stiffness + 1j * pair.mass)
    minus = pair.stiffness - 1j * pair.mass
    for alpha in ccoeff[1:]:
        z = solve(minus @ z)
        expected = expected + alpha * z
    assert np.array_equal(apply_cayley_filter(pair, ccoeff, x), expected.real)


@pytest.mark.parametrize("degree", [0, 1, 6])
def test_cayley_gain_and_fit_equal_their_own_ratio_powers(sphere2_full_basis, degree):
    lam = sphere2_full_basis.eigenvalues
    coeff = np.random.default_rng(degree).standard_normal(degree + 1) + 0.5j
    ratio = (lam - 1j) / (lam + 1j)
    expected = np.zeros(lam.shape, dtype=complex)
    for ell, alpha in enumerate(coeff):
        expected = expected + alpha * ratio**ell
    assert np.array_equal(cayley_gain(coeff, lam), expected.real)

    transfer = highpass_bump(lam)
    basis = np.stack([ratio**ell for ell in range(degree + 1)], axis=1)
    sol, *_ = np.linalg.lstsq(np.concatenate([basis.real, -basis.imag], axis=1), transfer(lam),
                              rcond=None)
    assert np.array_equal(fit_cayley_to_transfer(transfer, lam, degree),
                          sol[: degree + 1] + 1j * sol[degree + 1:])


class TestStabilityExperiment:
    def test_zero_jitter_zero_discrepancy(self):
        mesh = mesh_core.icosphere(2)
        for kind, degree in (("direct-highpass", None), ("poly", 4), ("cayley", 2)):
            result = perturbation_stability_experiment(mesh, 0.0, kind, seed=5, degree=degree)
            assert result["discrepancy"] <= 1e-9
            assert result["direct_discrepancy"] <= 1e-9

    def test_direct_unstable_poly_stable(self):
        mesh = mesh_core.icosphere(3)
        direct = perturbation_stability_experiment(mesh, 0.005, "direct-highpass", seed=42)
        poly = perturbation_stability_experiment(mesh, 0.005, "poly", seed=42, degree=6)
        assert direct["discrepancy"] >= 0.5
        assert poly["discrepancy"] <= 0.1 * direct["discrepancy"]
        assert poly["direct_discrepancy"] == direct["discrepancy"]

    def test_poly_discrepancy_scales_linearly(self):
        mesh = mesh_core.icosphere(3)
        values = [perturbation_stability_experiment(mesh, eps, "poly", seed=42,
                                                    degree=6)["discrepancy"]
                  for eps in (0.002, 0.005, 0.01)]
        # fitted slope: discrepancy / eps roughly constant
        slopes = [v / e for v, e in zip(values, (0.002, 0.005, 0.01))]
        assert max(slopes) <= 3.0 * min(slopes)
        direct = perturbation_stability_experiment(mesh, 0.005, "direct-highpass", seed=42)
        assert direct["discrepancy"] >= 0.5

    def test_epsilon_cap(self):
        with pytest.raises(ValueError):
            perturbation_stability_experiment(mesh_core.icosphere(1), 0.05,
                                              "direct-highpass", seed=0)


def icosphere_antipodal_map(mesh):
    """The central symmetry of the icosphere as a vertex permutation."""
    target = -mesh.vertices
    pointmap = np.empty(mesh.n_vertices, dtype=int)
    for u in range(mesh.n_vertices):
        dists = np.linalg.norm(mesh.vertices - target[u], axis=1)
        w = int(np.argmin(dists))
        assert dists[w] <= 1e-12
        pointmap[u] = w
    return pointmap


class TestFunctionalMaps:
    def test_identity_map_is_identity_matrix(self, sphere2):
        _, pair = sphere2
        basis = spectral_basis(pair, k=16)
        c = fmap_from_pointmap(basis, basis, np.arange(pair.n))
        assert np.max(np.abs(c - np.eye(16))) <= 1e-8

    def test_self_isometry_gives_orthogonal_map(self, sphere2):
        mesh, pair = sphere2
        basis = spectral_basis(pair, k=16)  # cut at the l=3 cluster boundary
        pointmap = icosphere_antipodal_map(mesh)
        c = fmap_from_pointmap(basis, basis, pointmap)
        assert np.max(np.abs(c.T @ c - np.eye(16))) <= 1e-6

    def test_full_basis_transfer_reconstructs(self, sphere2, sphere2_full_basis):
        _, pair = sphere2
        basis = sphere2_full_basis
        rng = np.random.default_rng(11)
        x = rng.standard_normal(pair.n)
        pointmap = rng.permutation(pair.n)
        c = fmap_from_pointmap(basis, basis, pointmap)
        transported = basis.vectors @ (c @ fourier_coefficients(basis, x))
        expected = np.empty_like(x)
        expected[pointmap] = x
        assert np.max(np.abs(transported - expected)) <= 1e-7

    def test_non_bijective_pointmap_rejected(self, sphere2):
        _, pair = sphere2
        basis = spectral_basis(pair, k=8)
        with pytest.raises(ValueError, match=r"not a permutation of range\(162\)"):
            fmap_from_pointmap(basis, basis, np.zeros(pair.n, dtype=int))

    def test_non_integral_pointmap_rejected(self, sphere2):
        # truncation would read arange(n) + 0.5 as the identity map
        _, pair = sphere2
        basis = spectral_basis(pair, k=8)
        with pytest.raises(ValueError, match="not a permutation"):
            fmap_from_pointmap(basis, basis, np.arange(pair.n) + 0.5)
        c = fmap_from_pointmap(basis, basis, np.arange(pair.n, dtype=float))
        assert np.max(np.abs(c - np.eye(8))) <= 1e-8


def test_highpass_bump_peaks_at_ninetieth_percentile(sphere2_full_basis):
    basis = sphere2_full_basis
    bump = highpass_bump(basis.eigenvalues)
    lam_hi = np.percentile(basis.eigenvalues, 90.0)
    assert bump(np.array([lam_hi]))[0] == 1.0


def test_fit_helpers_reproduce_polynomials(sphere2_full_basis):
    basis = sphere2_full_basis
    lam = basis.eigenvalues
    target = 0.3 - 0.2 * lam + 0.01 * lam**2
    coeff = fit_poly_to_transfer(lambda l: 0.3 - 0.2 * l + 0.01 * l**2, lam, 4)
    recon = sum(c * lam**i for i, c in enumerate(coeff))
    assert np.max(np.abs(recon - target)) <= 1e-6
    ccoeff = fit_cayley_to_transfer(lambda l: cayley_gain([0.2, 0.5 - 0.1j], l), lam, 2)
    recon = cayley_gain(ccoeff, lam)
    assert np.max(np.abs(recon - cayley_gain([0.2, 0.5 - 0.1j], lam))) <= 1e-8
