import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from gdlkit import mesh_core
from gdlkit.numkit import (
    complex_linear_solve,
    generalized_sym_eig,
    nullspace_basis,
    sym_eig,
)


def test_sym_eig_identity():
    system = sym_eig(np.eye(3))
    assert np.allclose(system.eigenvalues, [1.0, 1.0, 1.0])


def test_sym_eig_diagonal_sorted_ascending():
    system = sym_eig(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(system.eigenvalues, [1.0, 2.0, 3.0])


def test_sym_eig_reconstruction_residual():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((20, 20))
    a = (a + a.T) / 2
    system = sym_eig(a)
    recon = system.eigenvectors @ np.diag(system.eigenvalues) @ system.eigenvectors.T
    assert np.max(np.abs(a - recon)) <= 1e-9


def test_sym_eig_sign_convention():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((12, 12))
    a = (a + a.T) / 2
    system = sym_eig(a)
    for col in system.eigenvectors.T:
        assert col[np.argmax(np.abs(col))] > 0


def test_sym_eig_rejects_asymmetric():
    a = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="not symmetric"):
        sym_eig(a)


def test_sym_eig_reconstruction_property_many_sizes():
    rng = np.random.default_rng(11)
    for n in (2, 5, 17, 33, 64):
        a = rng.standard_normal((n, n))
        a = (a + a.T) / 2
        system = sym_eig(a)
        recon = system.eigenvectors @ np.diag(system.eigenvalues) @ system.eigenvectors.T
        assert np.max(np.abs(a - recon)) <= 1e-9 * max(np.max(np.abs(a)), 1.0)


def test_generalized_reduces_to_standard_with_identity_mass():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((9, 9))
    a = (a + a.T) / 2
    dense = sym_eig(a)
    general = generalized_sym_eig(sp.csr_matrix(a), sp.identity(9, format="csr"), 9)
    assert np.allclose(general.eigenvalues, dense.eigenvalues, atol=1e-8)
    assert np.allclose(general.eigenvectors, dense.eigenvectors, atol=1e-8)


def test_generalized_zero_operator():
    m = sp.diags(np.array([0.5, 2.0, 3.0, 1.0])).tocsr()
    system = generalized_sym_eig(sp.csr_matrix((4, 4)), m, 4)
    assert np.allclose(system.eigenvalues, 0.0, atol=1e-12)
    gram = system.eigenvectors.T @ (m @ system.eigenvectors)
    assert np.max(np.abs(gram - np.eye(4))) <= 1e-8


def test_generalized_path_graph_closed_form():
    # path graph Laplacian, n = 4: eigenvalues 2 - 2 cos(k pi / 4)
    l = np.array([
        [1.0, -1.0, 0.0, 0.0],
        [-1.0, 2.0, -1.0, 0.0],
        [0.0, -1.0, 2.0, -1.0],
        [0.0, 0.0, -1.0, 1.0],
    ])
    system = generalized_sym_eig(sp.csr_matrix(l), sp.identity(4, format="csr"), 4)
    expected = 2.0 - 2.0 * np.cos(np.arange(4) * np.pi / 4)
    assert np.allclose(system.eigenvalues, np.sort(expected), atol=1e-10)


def test_generalized_orthonormality_random_mass():
    rng = np.random.default_rng(17)
    for _ in range(5):
        n = 12
        a = rng.standard_normal((n, n))
        a = (a + a.T) / 2
        m = sp.diags(rng.uniform(0.1, 10.0, size=n)).tocsr()
        system = generalized_sym_eig(sp.csr_matrix(a), m, n)
        gram = system.eigenvectors.T @ (m @ system.eigenvectors)
        assert np.max(np.abs(gram - np.eye(n))) <= 1e-8


def test_generalized_rejects_bad_inputs():
    l = sp.identity(3, format="csr")
    with pytest.raises(ValueError, match="strictly positive"):
        generalized_sym_eig(l, sp.diags([1.0, 0.0, 1.0]).tocsr(), 2)
    with pytest.raises(ValueError, match="out of range"):
        generalized_sym_eig(l, sp.identity(3, format="csr"), 5)
    off = sp.csr_matrix(np.array([[1.0, 0.5, 0], [0.5, 1, 0], [0, 0, 1]]))
    with pytest.raises(ValueError, match="diagonal"):
        generalized_sym_eig(l, off, 2)
    asym = np.diag(np.arange(1.0, 7.0))
    asym[0, 5] = 3.0
    with pytest.raises(ValueError, match="matrix not symmetric"):
        generalized_sym_eig(sp.csr_matrix(asym), sp.identity(6, format="csr"), 2)


@pytest.mark.parametrize("k", [3, 12])
@pytest.mark.parametrize("part, value", [
    ("stiffness", np.nan),
    ("mass", np.nan),
    ("mass", np.inf),
])
def test_generalized_refuses_non_finite_entries(part, value, k):
    # NaN passes the symmetry and positivity checks (every comparison is
    # False), and an infinite mass scales its row and column to zero
    pair = mesh_core.cotan_laplacian(mesh_core.icosahedron())
    l, m = pair.stiffness.copy(), pair.mass.copy()
    (l if part == "stiffness" else m).data[0] = value
    with pytest.raises(ValueError, match="^non-finite entries$"):
        generalized_sym_eig(l, m, k)


def assert_matches_dense_oracle(pair, system, k):
    """Compare with the dense generalized solve eigenvalue by eigenvalue and,
    since degenerate eigenvectors are fixed only up to a rotation, each
    cluster of equal oracle eigenvalues lying wholly below ``k`` by its
    M-projector ``Phi_c Phi_c^T M``."""
    mass = pair.mass.toarray()
    lam, phi = sla.eigh(pair.stiffness.toarray(), mass)
    scale = max(1.0, lam[-1])
    assert np.max(np.abs(system.eigenvalues - lam[:k])) <= 1e-9 * scale
    starts = np.flatnonzero(np.diff(lam) > 1e-8 * scale) + 1
    bounds = np.concatenate([[0], starts, [lam.size]])
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if hi > k:
            break
        ours = system.eigenvectors[:, lo:hi]
        ref = phi[:, lo:hi]
        assert np.max(np.abs(ours @ ours.T @ mass - ref @ ref.T @ mass)) <= 1e-7


def flattened_icosphere3():
    """icosphere:3 with z scaled by 0.05: its lumped masses span a ratio of
    18.8."""
    sphere = mesh_core.icosphere(3)
    return mesh_core.TriMesh(vertices=sphere.vertices * [1.0, 1.0, 0.05], faces=sphere.faces)


def open_cap():
    """The upper half of a jittered icosphere:3: an open mesh with one
    boundary loop."""
    sphere = mesh_core.jitter_mesh(mesh_core.icosphere(3), 0.05, seed=5)
    keep = np.all(sphere.vertices[sphere.faces, 2] > -0.1, axis=1)
    used, faces = np.unique(sphere.faces[keep], return_inverse=True)
    return mesh_core.TriMesh(vertices=sphere.vertices[used], faces=faces.reshape(-1, 3))


@pytest.mark.parametrize("mesh, k", [
    (mesh_core.jitter_mesh(mesh_core.icosphere(3), 0.05, seed=3), 64),
    (mesh_core.icosphere(2), 64),
    (mesh_core.icosphere(1), 41),
    (mesh_core.icosphere(1), 42),
    (flattened_icosphere3(), 64),
    (open_cap(), 32),
], ids=["jittered-icosphere3", "icosphere2-degenerate", "icosphere1-k-n-minus-1",
        "icosphere1-k-n-dense", "anisotropic-icosphere3", "open-cap"])
def test_generalized_matches_dense_oracle_on_meshes(mesh, k):
    # k = n - 1 is the largest input ARPACK accepts; k = n takes the dense path
    pair = mesh_core.cotan_laplacian(mesh)
    system = generalized_sym_eig(pair.stiffness, pair.mass, k)
    assert system.eigenvalues.shape == (k,) and np.all(np.diff(system.eigenvalues) >= 0)
    assert_matches_dense_oracle(pair, system, k)
    gram = system.eigenvectors.T @ (pair.mass @ system.eigenvectors)
    assert np.max(np.abs(gram - np.eye(k))) <= 1e-8
    peak = system.eigenvectors[np.argmax(np.abs(system.eigenvectors), axis=0), np.arange(k)]
    assert np.all(peak > 0)


def test_complex_solve_identity():
    b = np.array([1 + 2j, 3 - 1j])
    assert np.allclose(complex_linear_solve(sp.identity(2))(b), b)


def test_complex_solve_scalar():
    z = complex_linear_solve(np.array([[2 + 1j]]))(np.array([1.0]))
    assert np.allclose(z, [(2 - 1j) / 5])


def test_complex_solve_residual_diagonally_dominant():
    rng = np.random.default_rng(23)
    n = 30
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    a += np.diag(np.full(n, 40.0 + 7.0j))
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    z = complex_linear_solve(a)(b)
    assert np.linalg.norm(a @ z - b) <= 1e-10 * np.linalg.norm(b)


def test_complex_solve_singular_raises():
    a = np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
    with pytest.raises(ValueError):
        complex_linear_solve(a)(np.array([1.0, 0.0]))


def test_nullspace_full_rank_empty():
    assert nullspace_basis(np.eye(4)).shape == (4, 0)


def test_nullspace_zero_map_full_basis():
    basis = nullspace_basis(np.zeros((2, 3)))
    assert basis.shape == (3, 3)
    assert np.allclose(basis.T @ basis, np.eye(3))


def test_nullspace_rank_one_2x2():
    basis = nullspace_basis(np.array([[1.0, 1.0], [1.0, 1.0]]))
    assert basis.shape == (2, 1)
    expected = np.array([1.0, -1.0]) / np.sqrt(2.0)
    assert np.allclose(basis[:, 0], expected)


def test_nullspace_of_a_round_off_matrix_is_the_whole_domain():
    # P - I for an averaging projector P that is the identity up to rounding
    a = 1e-17 * np.random.default_rng(5).standard_normal((6, 6))
    basis = nullspace_basis(a)
    assert basis.shape == (6, 6)
    assert np.allclose(basis.T @ basis, np.eye(6), atol=1e-12)


def test_nullspace_rank_count_is_scale_invariant_above_the_unit_floor():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((8, 3)) @ rng.standard_normal((3, 8))
    for scale in (1.0, 1e3):
        basis = nullspace_basis(scale * a)
        assert basis.shape == (8, 5)
        assert np.max(np.abs(a @ basis)) <= 1e-10 * np.linalg.norm(a, 2)


def test_nullspace_matches_constructed_rank():
    # soundness and completeness against matrices of known rank
    rng = np.random.default_rng(31)
    for n, rank in ((6, 2), (10, 7), (20, 11), (15, 0)):
        if rank:
            a = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, n))
        else:
            a = np.zeros((n, n))
        basis = nullspace_basis(a)
        assert basis.shape[1] == n - rank
        if basis.shape[1]:
            norm = np.linalg.norm(a, 2) if rank else 1.0
            assert np.max(np.abs(a @ basis)) <= 1e-7 * norm
            assert np.allclose(basis.T @ basis, np.eye(basis.shape[1]), atol=1e-10)
