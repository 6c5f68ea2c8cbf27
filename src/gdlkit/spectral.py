"""Fourier analysis and filtering in Laplacian eigenbases: coefficients,
direct spectral transfer, polynomial and Cayley filters computed without
eigendecomposition and their fits to a transfer function, the
jitter-stability experiment, and the functional map of a vertex
correspondence.

The operator behind every filter is the geometric Laplacian ``M^{-1} L``;
transfer functions are always evaluated against the generalized spectrum
of the pair ``(L, M)``.  That operator is never densified: eigenbases come
from a sparse shift-invert solve and Cayley filters from one sparse LU.
"""

from dataclasses import dataclass

import numpy as np

from . import mesh_core
from .graph_nn import check_permutation
from .numkit import complex_linear_solve, generalized_sym_eig
from .rng import substream

DEFAULT_BASIS_SIZE = 64


@dataclass(frozen=True)
class SpectralBasis:
    """Generalized eigenpairs of a :class:`mesh_core.LaplacianPair`
    ``(L, M)``: ascending ``eigenvalues`` and one column of ``vectors`` each,
    scaled by :func:`generalized_sym_eig` to ``Phi^T M Phi = I``."""

    eigenvalues: np.ndarray
    vectors: np.ndarray
    pair: mesh_core.LaplacianPair

    @property
    def k(self):
        return self.eigenvalues.shape[0]

    @property
    def stiffness(self):
        return self.pair.stiffness

    @property
    def mass(self):
        return self.pair.mass


def spectral_basis(pair, k=None):
    """Smallest-``k`` eigenbasis of a stiffness/mass pair."""
    k = min(pair.n, DEFAULT_BASIS_SIZE) if k is None else k
    eigen = generalized_sym_eig(pair.stiffness, pair.mass, k)
    return SpectralBasis(eigenvalues=eigen.eigenvalues, vectors=eigen.eigenvectors, pair=pair)


def fourier_coefficients(basis, x):
    """Mass-weighted inner products ``x^_k = phi_k^T M x``."""
    x = np.asarray(x, dtype=float)
    if x.shape != (basis.mass.shape[0],):
        raise ValueError("signal dimension does not match the basis")
    return basis.vectors.T @ (basis.mass @ x)


def apply_transfer_direct(basis, transfer, x):
    """Direct spectral filter ``Phi diag(p(lambda)) Phi^T M x``.

    ``transfer`` maps an eigenvalue array to filter gains.
    """
    coeffs = fourier_coefficients(basis, x)
    gains = np.asarray(transfer(basis.eigenvalues), dtype=float)
    if gains.shape != (basis.k,):
        raise ValueError("transfer must return one gain per eigenvalue")
    return basis.vectors @ (gains * coeffs)


def _operator_series(coefficients, z, step):
    """``sum_l alpha_l z_l`` with ``z_0 = z`` and ``z_l = step(z_{l-1})``:
    ``out = alpha_0 z``, then ``z <- step(z)`` and ``out = out + alpha_l z``."""
    out = coefficients[0] * z
    for alpha in coefficients[1:]:
        z = step(z)
        out = out + alpha * z
    return out


def apply_poly_filter(pair, coefficients, x):
    """Polynomial filter ``sum_l alpha_l (M^{-1} L)^l x`` via repeated sparse
    products; no eigendecomposition."""
    coefficients = np.asarray(coefficients, dtype=float)
    x = np.asarray(x, dtype=float)
    if x.shape[0] != pair.n:
        raise ValueError("dimension mismatch")
    if coefficients.ndim != 1 or coefficients.shape[0] < 1:
        raise ValueError("at least the constant coefficient is required")
    return _operator_series(coefficients, x, pair.operator_apply)


def _cayley_powers(lam, count):
    """``((lambda - i)/(lambda + i))^l`` for ``l < count``, one array per ``l``."""
    ratio = (lam - 1j) / (lam + 1j)
    return [ratio**ell for ell in range(count)]


def cayley_gain(coefficients, lam):
    """Scalar transfer of the Cayley filter,
    ``Re(sum_l alpha_l ((lambda - i)/(lambda + i))^l)``."""
    coefficients = np.asarray(coefficients, dtype=complex)
    lam = np.asarray(lam, dtype=float)
    out = np.zeros(lam.shape, dtype=complex)
    for alpha, power in zip(coefficients, _cayley_powers(lam, coefficients.shape[0])):
        out = out + alpha * power
    return out.real


def apply_cayley_filter(pair, coefficients, x):
    """Cayley filter ``Re(sum_l alpha_l z_l)`` with ``z_0 = x`` and
    ``z_l = (Delta + iI)^{-1} (Delta - iI) z_{l-1}``, ``Delta = M^{-1}L``.

    The Cayley transform equals ``(L + iM)^{-1} (L - iM)``, so one sparse
    LU of ``L + iM``, factored before the series, serves every degree and
    the operator is never densified."""
    coefficients = np.asarray(coefficients, dtype=complex)
    x = np.asarray(x, dtype=float)
    if x.shape[0] != pair.n:
        raise ValueError("dimension mismatch")
    solve = complex_linear_solve(pair.stiffness + 1j * pair.mass)
    minus = pair.stiffness - 1j * pair.mass
    return _operator_series(coefficients, x.astype(complex), lambda z: solve(minus @ z)).real


def highpass_bump(eigenvalues):
    """Default unstable transfer: Gaussian bump centred at the
    90th-percentile eigenvalue with width = spectral range / 20."""
    lam_hi = np.percentile(eigenvalues, 90.0)
    width = (eigenvalues[-1] - eigenvalues[0]) / 20.0
    return lambda lam: np.exp(-((lam - lam_hi) ** 2) / (2.0 * width**2))


def fit_poly_to_transfer(transfer, eigenvalues, degree):
    """Least-squares polynomial coefficients matching a transfer function at
    the sampled eigenvalues (power basis, scaled for conditioning)."""
    lam = np.asarray(eigenvalues, dtype=float)
    scale = max(lam[-1], 1e-12)
    vander = np.vander(lam / scale, degree + 1, increasing=True)
    scaled, *_ = np.linalg.lstsq(vander, transfer(lam), rcond=None)
    return scaled / scale ** np.arange(degree + 1)


def fit_cayley_to_transfer(transfer, eigenvalues, degree):
    """Least-squares complex Cayley coefficients matching a transfer function
    at the sampled eigenvalues."""
    lam = np.asarray(eigenvalues, dtype=float)
    basis = np.stack(_cayley_powers(lam, degree + 1), axis=1)
    design = np.concatenate([basis.real, -basis.imag], axis=1)
    target = transfer(lam)
    sol, *_ = np.linalg.lstsq(design, target, rcond=None)
    return sol[: degree + 1] + 1j * sol[degree + 1:]


def perturbation_stability_experiment(mesh, epsilon, kind, seed, degree=None):
    """Filter the same random signal on a mesh and its jittered copy and
    return the relative output discrepancy.

    ``kind`` is ``direct-highpass``: filter the signal in the reference
    eigenbasis, then synthesise the same per-index Fourier representation
    with the perturbed mesh's eigenvectors, matched by index after
    ascending sort and sign-fixed -- the naive cross-domain transfer (a
    trivial functional map) whose breakdown this experiment measures.
    High-frequency eigenvectors scramble inside near-degenerate groups, so
    index matching pairs unrelated vectors.  ``poly`` and ``cayley``
    instead realise the same bump as a transfer function of the operator
    itself, computed by sparse products / solves on each mesh, which is
    exactly why they survive the perturbation.

    The result holds the requested filter's ``discrepancy`` and, from the
    same jitter and eigenbases, the direct-highpass ``direct_discrepancy``
    it is judged against; the two are equal for ``direct-highpass``.
    """
    if kind not in ("direct-highpass", "poly", "cayley"):
        raise ValueError(f"unknown filter kind {kind!r}")
    if kind != "direct-highpass" and (degree is None or degree < 1):
        raise ValueError(f"polynomial kinds need a degree of at least 1, got {degree}")
    if epsilon > 0.02:
        raise ValueError("jitter amplitude capped at 0.02 for this experiment")
    perturbed = mesh_core.jitter_mesh(mesh, epsilon, seed)
    pair = mesh_core.cotan_laplacian(mesh)
    pair_j = mesh_core.cotan_laplacian(perturbed)
    basis = spectral_basis(pair)
    basis_j = spectral_basis(pair_j)
    rng = substream(seed, "stability-signal")
    x = rng.standard_normal(mesh.n_vertices)
    transfer = highpass_bump(basis.eigenvalues)
    filtered = np.asarray(transfer(basis.eigenvalues)) * fourier_coefficients(basis, x)
    # index-matched synthesis on the jittered mesh
    direct = _relative_change(basis.vectors @ filtered, basis_j.vectors @ filtered)
    if kind == "poly":
        coeff = fit_poly_to_transfer(transfer, basis.eigenvalues, degree)
        discrepancy = _relative_change(apply_poly_filter(pair, coeff, x),
                                       apply_poly_filter(pair_j, coeff, x))
    elif kind == "cayley":
        coeff = fit_cayley_to_transfer(transfer, basis.eigenvalues, degree)
        discrepancy = _relative_change(apply_cayley_filter(pair, coeff, x),
                                       apply_cayley_filter(pair_j, coeff, x))
    else:
        discrepancy = direct
    return {"discrepancy": discrepancy, "direct_discrepancy": direct}


def _relative_change(y, y_j):
    return float(np.linalg.norm(y - y_j) / np.linalg.norm(y))


# ---------------------------------------------------------------------------
# functional maps


def fmap_from_pointmap(basis_a, basis_b, pointmap):
    """Spectral functional map ``C = Phi_B^T M_B Pi Phi_A`` of a vertex
    correspondence ``pointmap[u] = matching vertex of B``."""
    n_a = basis_a.mass.shape[0]
    n_b = basis_b.mass.shape[0]
    if n_a != n_b:
        raise ValueError("pointmap must pair equal-sized vertex sets")
    pointmap = check_permutation(pointmap, n_b)
    permuted = np.zeros((n_b, basis_a.k))
    permuted[pointmap] = basis_a.vectors  # Pi Phi_A
    return basis_b.vectors.T @ (basis_b.mass @ permuted)
