"""Dense and sparse linear-algebra kernels shared by the rest of the package.

Sparse operators stay sparse: the generalized eigensolve with a lumped
(diagonal) mass matrix is reduced once to the standard problem for
``D^{-1/2} L D^{-1/2}`` and runs shift-invert Lanczos on a sparse LU of it,
and complex solves reuse one sparse LU for every right-hand side.  Dense
factorisations serve small matrices (``sym_eig``, ``nullspace_basis``), the
full-spectrum case ``k == n`` of ``generalized_sym_eig``, and test oracles.
``scipy.sparse`` and ``scipy.sparse.linalg`` are imported inside the
functions that use them, as ``scipy.special`` is in ``seq_models``: importing
the package loads numpy and no scipy module, so commands that never build a
sparse matrix (groups, grids, sequences) do not pay for scipy at start-up.

Conventions used throughout:

* eigenvalues are returned in ascending order;
* every eigenvector is normalised (in the inner product relevant to the
  problem) and sign-fixed so that its entry of largest magnitude is
  positive, ties broken by lowest index -- this makes eigenvectors
  reproducible across runs, which the perturbation experiments rely on.
"""

from dataclasses import dataclass

import numpy as np

DEFAULT_TOL = 1e-12
"""Default relative tolerance for symmetry checks and rank decisions."""

NULLSPACE_TOL = 1e-7
"""Singular-value cutoff of :func:`nullspace_basis`, relative to ``|a|`` or
to 1 if that is larger (the unit floor of the symmetry checks).  The basis
is read from ``a^T a``, which squares the spectrum, so the cutoff must stay
above sqrt(machine epsilon) ~ 1.5e-8; this leaves a comfortable margin."""


@dataclass(frozen=True)
class EigenSystem:
    """Eigenvalues (ascending) and one unit eigenvector per column."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        if self.eigenvalues.ndim != 1 or self.eigenvectors.ndim != 2:
            raise ValueError("eigenvalues must be 1-D, eigenvectors 2-D")
        if self.eigenvectors.shape[1] != self.eigenvalues.shape[0]:
            raise ValueError("one eigenvector column per eigenvalue required")
        if not (np.all(np.isfinite(self.eigenvalues)) and np.all(np.isfinite(self.eigenvectors))):
            raise ValueError("non-finite eigendecomposition")


def fix_signs(vectors):
    """Flip eigenvector columns so the largest-magnitude entry is positive.

    Ties broken by lowest row index (argmax returns the first maximum).
    Returns a new array; input is not modified.
    """
    vectors = np.array(vectors, dtype=float)
    if vectors.size == 0:
        return vectors
    idx = np.argmax(np.abs(vectors), axis=0)
    signs = np.sign(vectors[idx, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    return vectors * signs


def _check_symmetric(a, tol):
    """Raise ValueError when dense or sparse ``a`` has an asymmetry above
    ``tol`` times its largest entry (or times 1, if that is larger)."""
    scale = abs(a).max() if a.size else 0.0
    asym = abs(a - a.T).max() if a.size else 0.0
    if asym > tol * max(scale, 1.0):
        raise ValueError(f"matrix not symmetric: max asymmetry {asym:.3e}")


def sym_eig(a, tol=DEFAULT_TOL):
    """Eigendecomposition of a symmetric matrix.

    Raises ValueError if ``a`` is not symmetric to within ``tol`` (relative
    to the largest entry) and wraps solver non-convergence in a RuntimeError.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("square matrix required")
    if not np.all(np.isfinite(a)):
        raise ValueError("non-finite entries")
    _check_symmetric(a, tol)
    try:
        w, v = np.linalg.eigh((a + a.T) / 2.0)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise RuntimeError(f"eigensolver did not converge: {exc}") from exc
    return EigenSystem(w, fix_signs(v))


def generalized_sym_eig(l, m, k):
    """Smallest ``k`` solutions of ``L phi = lambda M phi`` for symmetric
    positive semidefinite L and diagonal, strictly positive M.

    The mass matrices in this package are lumped (diagonal), so the problem
    is exactly the standard one ``A y = lambda y`` with
    ``A = D^{-1/2} L D^{-1/2}`` and ``phi = D^{-1/2} y`` (Vallet & Levy,
    2008).  ``A`` is built once and checked for symmetry with the rule of
    :func:`sym_eig`.  For ``k < n`` the eigenpairs of ``A`` closest to the
    shift ``sigma = -1e-3`` are found by shift-invert Lanczos (ARPACK
    ``eigsh`` on a sparse LU of ``A - sigma I``: one solve per step and no
    mass products), started from the pinned vector ``1/sqrt(n)`` so that
    reruns are identical.  The shift lies below the spectrum of a positive
    semidefinite A, so ``A - sigma I`` is positive definite and the
    eigenvalues nearest it are the smallest.  ARPACK cannot return all
    ``n`` pairs, so ``k == n`` solves ``A`` densely with :func:`sym_eig`.
    Either way the eigenvectors satisfy ``Phi^T M Phi = I``.  Raises
    ValueError on a non-finite entry and when ARPACK does not converge.
    """
    import scipy.sparse as sp
    l = sp.csr_matrix(l)
    m = sp.csr_matrix(m)
    n = l.shape[0]
    if l.shape != (n, n) or m.shape != (n, n):
        raise ValueError("operator and mass matrix must be square and same size")
    if not (0 < k <= n):
        raise ValueError(f"k={k} out of range for dimension {n}")
    if not (np.all(np.isfinite(l.data)) and np.all(np.isfinite(m.data))):
        raise ValueError("non-finite entries")
    diag = m.diagonal()
    if np.any((m - sp.diags(diag)).data):  # all finite: only off-diagonal entries survive
        raise ValueError("mass matrix must be diagonal")
    if np.any(diag <= 0):
        raise ValueError("mass matrix entries must be strictly positive")
    scale = 1.0 / np.sqrt(diag)
    reduced = l.multiply(scale[:, None]).multiply(scale[None, :]).tocsr()
    _check_symmetric(reduced, DEFAULT_TOL)
    if k == n:
        system = sym_eig(reduced.toarray())
        return EigenSystem(system.eigenvalues, fix_signs(system.eigenvectors * scale[:, None]))
    from scipy.sparse.linalg import ArpackError, eigsh
    try:
        w, y = eigsh(reduced, k=k, sigma=-1e-3, which="LM", v0=np.full(n, 1.0 / np.sqrt(n)))
    except ArpackError as exc:  # ArpackNoConvergence included
        raise ValueError(f"eigensolver did not converge for k={k}, n={n}: {exc}") from None
    order = np.argsort(w, kind="stable")
    return EigenSystem(w[order], fix_signs(y[:, order] * scale[:, None]))


def complex_linear_solve(a):
    """Sparse LU factorisation of complex square ``a``, returned as a
    function ``solve(b)`` that solves ``a z = b`` for any number of
    right-hand sides, each solve residual-checked.

    Raises ValueError when ``a`` is singular, and ``solve`` raises it when
    the residual exceeds 1e-10 relative to ``b``.
    """
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu
    a = sp.csc_matrix(a, dtype=complex)
    if a.shape[0] != a.shape[1]:
        raise ValueError("square matrix required for linear solve")
    try:
        lu = splu(a)
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise ValueError(f"singular matrix: {exc}") from None

    def solve(b):
        b = np.asarray(b, dtype=complex)
        if b.shape[0] != a.shape[0]:
            raise ValueError("incompatible shapes for linear solve")
        z = lu.solve(b)
        bnorm = np.linalg.norm(b)
        residual = np.linalg.norm(a @ z - b)
        if not np.all(np.isfinite(z)) or residual > 1e-10 * max(bnorm, 1e-300):
            raise ValueError(
                f"solve failed: relative residual {residual / max(bnorm, 1e-300):.3e}")
        return z

    return solve


def nullspace_basis(a):
    """Orthonormal basis of the (numerical) nullspace of ``a``.

    The dimension is the number of eigenvalues of ``a^T a`` below
    ``NULLSPACE_TOL^2 * max(|a|^2, 1)`` (spectral norm).  The unit floor makes
    a matrix at round-off scale, such as ``P - I`` for an averaging projector
    ``P`` that is the identity up to rounding, the zero map, whose nullspace
    is the whole domain; a purely relative cutoff would rank its noise.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError("2-D matrix required")
    if not np.all(np.isfinite(a)):
        raise ValueError("non-finite entries")
    n = a.shape[1]
    gram = a.T @ a
    system = sym_eig(gram, tol=1e-10)
    top = system.eigenvalues[-1] if n else 0.0  # top eigenvalue of a^T a equals |a|^2
    cutoff = NULLSPACE_TOL * NULLSPACE_TOL * max(top, 1.0)
    dim = int(np.searchsorted(system.eigenvalues, cutoff))
    return system.eigenvectors[:, :dim]
