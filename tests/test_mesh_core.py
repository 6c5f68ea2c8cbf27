import hashlib

import numpy as np
import pytest

from gdlkit.mesh_core import (
    TriMesh,
    cotan_laplacian,
    half_edge_index,
    icosahedron,
    icosphere,
    jitter_mesh,
    load_mesh,
)


def tetrahedron():
    verts = np.array([
        [1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]])
    faces = np.array([[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3]])
    return TriMesh(vertices=verts, faces=faces)


def flat_grid(rows, cols, spacing=1.0):
    """Right-isoceles triangulation of a planar grid."""
    verts = np.array([[i * spacing, j * spacing, 0.0]
                      for j in range(rows) for i in range(cols)])
    faces = []
    for j in range(rows - 1):
        for i in range(cols - 1):
            a = j * cols + i
            b = a + 1
            c = a + cols
            d = c + 1
            faces.append([a, b, d])
            faces.append([a, d, c])
    return TriMesh(vertices=verts, faces=np.array(faces))


def spoke_fan(spokes):
    """Open fan of ``spokes - 1`` triangles round vertex 0 on a cone."""
    angles = np.linspace(0.0, 1.8 * np.pi, spokes)
    rim = np.stack([np.cos(angles), np.sin(angles), 0.3 * np.cos(3 * angles)], axis=1)
    faces = np.array([[0, i, i + 1] for i in range(1, spokes)])
    return TriMesh(vertices=np.vstack([[0.0, 0.0, 0.4], rim]), faces=faces)


def flipped_icosphere():
    """Icosphere 2 with face 0 reversed: three orientation conflicts."""
    mesh = icosphere(2)
    faces = mesh.faces.copy()
    faces[0] = faces[0, ::-1]
    return TriMesh(vertices=mesh.vertices, faces=faces)


def random_rigid_motion(rng):
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q, rng.standard_normal(3)


class TestValidateManifold:
    """Building the half-edge index is the one manifold check."""

    def test_tetrahedron_clean_closed(self):
        mesh = tetrahedron()
        assert not half_edge_index(mesh).boundary.any()
        v, e, f = mesh.n_vertices, mesh.edges().shape[0], mesh.n_faces
        assert v - e + f == 2

    def test_three_faces_on_one_edge_flagged(self):
        verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]], dtype=float)
        faces = np.array([[0, 1, 2], [1, 0, 3], [0, 1, 4]])
        with pytest.raises(ValueError, match=r"orientation conflict on directed edge \(0, 1\)"):
            half_edge_index(TriMesh(vertices=verts, faces=faces))

    def test_bowtie_vertex_flagged(self):
        verts = np.array([
            [0, 0, 0], [1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0]], dtype=float)
        faces = np.array([[0, 1, 2], [0, 3, 4]])  # two triangles meeting at vertex 0 only
        with pytest.raises(ValueError, match="vertex 0 has a non-manifold star"):
            half_edge_index(TriMesh(vertices=verts, faces=faces))

    def test_boundary_edges_reported(self):
        verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float)
        index = half_edge_index(TriMesh(vertices=verts, faces=np.array([[0, 1, 2]])))
        assert index.boundary.all()

    def test_orientation_conflict(self):
        verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
        faces = np.array([[0, 1, 2], [0, 1, 3]])  # edge (0,1) traversed twice forward
        with pytest.raises(ValueError, match=r"orientation conflict on directed edge \(0, 1\)"):
            half_edge_index(TriMesh(vertices=verts, faces=faces))
        # face 0 reversed repeats its three directed edges; the lowest is named
        with pytest.raises(ValueError, match=r"orientation conflict on directed edge \(0, 44\)"):
            half_edge_index(flipped_icosphere())


class TestCotanLaplacian:
    def test_shared_edge_weight_two_equilaterals(self):
        # two unit equilateral triangles glued along (0, 1)
        h = np.sqrt(3) / 2
        verts = np.array([[0, 0, 0], [1, 0, 0], [0.5, h, 0], [0.5, -h, 0]])
        mesh = TriMesh(vertices=verts, faces=np.array([[0, 1, 2], [1, 0, 3]]))
        pair = cotan_laplacian(mesh)
        weight = -pair.stiffness[0, 1]
        assert abs(weight - 1.0 / np.sqrt(3.0)) <= 1e-12

    def test_constants_in_kernel_exactly(self):
        # the hub row of the 12-spoke fan sums 12 off-diagonals: a pairwise sum would
        # not cancel against the diagonal exactly
        for mesh in (tetrahedron(), icosphere(2), flat_grid(5, 5), spoke_fan(12)):
            pair = cotan_laplacian(mesh)
            residual = pair.stiffness @ np.ones(mesh.n_vertices)
            assert not residual.any()

    def test_flat_grid_matches_five_point_stencil(self):
        mesh = flat_grid(5, 5)
        pair = cotan_laplacian(mesh)
        centre = 2 * 5 + 2
        row = pair.stiffness[centre].toarray().ravel()
        assert abs(row[centre] - 4.0) <= 1e-12
        for nbr in (centre - 1, centre + 1, centre - 5, centre + 5):
            assert abs(row[nbr] + 1.0) <= 1e-12
        # diagonal neighbours carry zero weight (cot 90 = 0)
        assert abs(row[centre + 6]) <= 1e-12
        assert abs(pair.mass.diagonal()[centre] - 1.0) <= 1e-12

    def test_rigid_motion_leaves_laplacian(self):
        rng = np.random.default_rng(2)
        mesh = icosphere(1)
        pair = cotan_laplacian(mesh)
        q, t = random_rigid_motion(rng)
        moved = cotan_laplacian(TriMesh(vertices=mesh.vertices @ q.T + t, faces=mesh.faces))
        diff = np.max(np.abs((pair.stiffness - moved.stiffness).toarray()))
        assert diff <= 1e-10

    def test_assembly_bytes_are_pinned(self):
        # pure numpy with no BLAS call, so the bytes do not depend on the thread count
        pair = cotan_laplacian(jitter_mesh(icosphere(3), 0.05, seed=3))
        digest = hashlib.sha256()
        for part in (pair.stiffness.data, pair.stiffness.indices, pair.stiffness.indptr,
                     pair.mass.diagonal()):
            digest.update(np.ascontiguousarray(part).tobytes())
        assert digest.hexdigest() == (
            "0ea28f1b3d47aa5f77e26f447cd9151b5ca24aaa33bb9f8d5d5b2c01c0d65228")

    @pytest.mark.parametrize("k", range(4))
    def test_mass_holds_thirds_of_the_face_areas(self, k):
        mesh = jitter_mesh(icosphere(k), 0.05, seed=3)
        thirds = np.bincount(mesh.faces.ravel(), weights=np.repeat(mesh.face_areas() / 3.0, 3))
        assert np.array_equal(cotan_laplacian(mesh).mass.diagonal(), thirds)

    def test_degenerate_face_rejected(self):
        verts = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0]], dtype=float)
        mesh = TriMesh(vertices=verts, faces=np.array([[0, 1, 2]]))
        with pytest.raises(ValueError, match="degenerate"):
            cotan_laplacian(mesh)


def edge_length_laplacian(mesh):
    """Dense stiffness and mass diagonal from edge lengths alone: per-corner
    weights ``(-l_opp^2 + l_1^2 + l_2^2) / (8 a)`` with Heron areas."""
    n = mesh.n_vertices
    stiffness = np.zeros((n, n))
    mass = np.zeros(n)
    for face in mesh.faces:
        # corner i faces the edge (u, v) of length lengths[i]
        opposite = [(face[(i + 1) % 3], face[(i + 2) % 3]) for i in range(3)]
        lengths = [np.linalg.norm(mesh.vertices[u] - mesh.vertices[v]) for u, v in opposite]
        s = sum(lengths) / 2.0
        area = np.sqrt(s * (s - lengths[0]) * (s - lengths[1]) * (s - lengths[2]))
        for i, (u, v) in enumerate(opposite):
            w = (sum(length**2 for length in lengths) - 2.0 * lengths[i] ** 2) / (8.0 * area)
            stiffness[u, v] -= w
            stiffness[v, u] -= w
            stiffness[u, u] += w
            stiffness[v, v] += w
        mass[face] += area / 3.0
    return stiffness, mass


class TestIntrinsicForm:
    """The angle-form operator depends on the mesh only through its edge
    lengths."""

    def test_agrees_with_angle_form_on_icosphere(self):
        mesh = icosphere(2)
        pair = cotan_laplacian(mesh)
        stiffness, mass = edge_length_laplacian(mesh)
        assert np.max(np.abs(pair.stiffness.toarray() - stiffness)) <= 1e-9
        assert np.max(np.abs(pair.mass.diagonal() - mass)) <= 1e-9

    def test_metric_scaling_law(self):
        mesh = icosphere(1)
        base = cotan_laplacian(mesh)
        big = cotan_laplacian(TriMesh(vertices=3.0 * mesh.vertices, faces=mesh.faces))
        assert np.max(np.abs((base.stiffness - big.stiffness).toarray())) <= 1e-10
        assert np.max(np.abs(9.0 * base.mass.diagonal() - big.mass.diagonal())) <= 1e-10

    def test_same_metric_from_two_embeddings(self):
        # a strip folded about its shared edge (the x-axis) keeps every edge
        # length, so the operator cannot change
        flat = np.array([[0, 0, 0], [1, 0, 0], [0.5, 1, 0], [0.5, -1, 0.0]])
        angle = 0.8
        folded = flat.copy()
        folded[3] = [0.5, -np.cos(angle), np.sin(angle)]
        faces = np.array([[0, 1, 2], [1, 0, 3]])
        p1 = cotan_laplacian(TriMesh(vertices=flat, faces=faces))
        p2 = cotan_laplacian(TriMesh(vertices=folded, faces=faces))
        assert np.max(np.abs((p1.stiffness - p2.stiffness).toarray())) <= 1e-12


class TestIcosphere:
    def test_base_counts(self):
        mesh = icosphere(0)
        assert (mesh.n_vertices, mesh.edges().shape[0], mesh.n_faces) == (12, 30, 20)

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_face_count_and_manifold(self, k):
        mesh = icosphere(k)
        assert mesh.n_faces == 20 * 4**k
        assert not half_edge_index(mesh).boundary.any()

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
    def test_icosphere_matches_midpoint_loop(self, k):
        # jitter draws and report bytes follow the vertex order, so the
        # vectorised subdivision must reproduce this loop bit for bit
        mesh = icosahedron()
        for _ in range(k):
            verts = list(mesh.vertices)
            cache = {}

            def midpoint(a, b):
                key = (min(a, b), max(a, b))
                if key not in cache:
                    m = (mesh.vertices[a] + mesh.vertices[b]) / 2.0
                    cache[key] = len(verts)
                    verts.append(m / np.linalg.norm(m))
                return cache[key]

            faces = []
            for a, b, c in mesh.faces:
                ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
                faces.extend([[a, ab, ca], [b, bc, ab], [c, ca, bc], [ab, bc, ca]])
            mesh = TriMesh(vertices=np.array(verts), faces=np.array(faces))
        fast = icosphere(k)
        assert np.array_equal(fast.faces, mesh.faces)
        assert np.array_equal(fast.vertices, mesh.vertices)

    def test_unit_radius(self):
        mesh = icosphere(2)
        assert np.max(np.abs(np.linalg.norm(mesh.vertices, axis=1) - 1.0)) <= 1e-12

    def test_subdivision_cap(self):
        with pytest.raises(ValueError):
            icosphere(7)


class TestJitter:
    def test_zero_amplitude_identity(self):
        mesh = icosphere(1)
        out = jitter_mesh(mesh, 0.0, seed=1)
        assert np.array_equal(out.vertices, mesh.vertices)

    def test_metric_distortion_bound(self):
        mesh = icosphere(2)
        eps = 0.05
        out = jitter_mesh(mesh, eps, seed=2)
        bound = 2.0 * eps * mesh.mean_edge_length()
        e = mesh.edges()
        before = np.linalg.norm(mesh.vertices[e[:, 0]] - mesh.vertices[e[:, 1]], axis=1)
        after = np.linalg.norm(out.vertices[e[:, 0]] - out.vertices[e[:, 1]], axis=1)
        assert np.max(np.abs(before - after)) <= bound + 1e-12

    def test_seed_determinism(self):
        mesh = icosphere(1)
        a = jitter_mesh(mesh, 0.03, seed=9)
        b = jitter_mesh(mesh, 0.03, seed=9)
        assert np.array_equal(a.vertices, b.vertices)

    def test_amplitude_cap(self):
        with pytest.raises(ValueError):
            jitter_mesh(icosphere(0), 0.5, seed=0)


class TestMeshIO:
    @pytest.mark.parametrize("fmt", ["off", "obj"])
    def test_round_trip_bit_exact(self, tmp_path, fmt):
        mesh = tetrahedron()
        path = tmp_path / f"mesh.{fmt}"
        verts = [" ".join(repr(c) for c in v) for v in mesh.vertices.tolist()]
        if fmt == "off":
            path.write_text(f"OFF\n{mesh.n_vertices} {mesh.n_faces} 0\n"
                            + "".join(f"{v}\n" for v in verts)
                            + "".join(f"3 {a} {b} {c}\n" for a, b, c in mesh.faces.tolist()))
        else:
            path.write_text("".join(f"v {v}\n" for v in verts)
                            + "".join(f"f {a + 1} {b + 1} {c + 1}\n"
                                      for a, b, c in mesh.faces.tolist()))
        back = load_mesh(path)
        assert np.array_equal(back.vertices, mesh.vertices)
        assert np.array_equal(back.faces, mesh.faces)

    def test_off_quad_face_rejected(self, tmp_path):
        path = tmp_path / "quad.off"
        path.write_text("OFF\n4 1 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2 3\n")
        with pytest.raises(ValueError, match="non-triangle"):
            load_mesh(path)

    def test_obj_zero_based_index_rejected(self, tmp_path):
        path = tmp_path / "bad.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 0 1 2\n")
        with pytest.raises(ValueError, match="out of range"):
            load_mesh(path)

    def test_malformed_off_header(self, tmp_path):
        path = tmp_path / "bad.off"
        path.write_text("OFX\n3 1 0\n")
        with pytest.raises(ValueError, match="header"):
            load_mesh(path)
