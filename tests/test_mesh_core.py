import numpy as np
import pytest

from gdlkit.mesh_core import (
    TriMesh,
    cotan_laplacian,
    cotan_laplacian_intrinsic,
    discrete_metric,
    half_edge_index,
    icosahedron,
    icosphere,
    jitter_mesh,
    load_mesh,
    save_mesh,
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


def metric_edge(metric, u, v):
    """Mask of the entries of ``metric.lengths`` that hold edge (u, v)."""
    f = metric.faces
    ends = np.sort(np.stack([np.roll(f, -1, axis=1), np.roll(f, -2, axis=1)], axis=-1), axis=-1)
    return np.all(ends == sorted((u, v)), axis=-1)


class TestDiscreteMetric:
    def test_unit_equilateral(self):
        verts = np.array([[0, 0, 0], [1, 0, 0], [0.5, np.sqrt(3) / 2, 0]])
        metric = discrete_metric(TriMesh(vertices=verts, faces=np.array([[0, 1, 2]])))
        assert np.max(np.abs(metric.lengths - 1.0)) <= 1e-12

    def test_right_triangle(self):
        verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float)
        metric = discrete_metric(TriMesh(vertices=verts, faces=np.array([[0, 1, 2]])))
        # the lengths opposite corners 0, 1 and 2: edges (1, 2), (0, 2) and (0, 1)
        assert np.max(np.abs(metric.lengths - [[np.sqrt(2.0), 1.0, 1.0]])) <= 1e-15

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(1)
        mesh = icosphere(1)
        q, t = random_rigid_motion(rng)
        moved = TriMesh(vertices=mesh.vertices @ q.T + t, faces=mesh.faces)
        m1 = discrete_metric(mesh)
        m2 = discrete_metric(moved)
        assert np.max(np.abs(m1.lengths - m2.lengths)) <= 1e-12

    def test_shared_edge_lengths_must_agree(self):
        metric = discrete_metric(tetrahedron())
        lengths = metric.lengths.copy()
        face, corner = np.argwhere(metric_edge(metric, 0, 1))[0]
        lengths[face, corner] *= 1.01
        with pytest.raises(ValueError, match=r"faces disagree on the length of edge \(0, 1\)"):
            type(metric)(lengths=lengths, faces=metric.faces)


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

    def test_degenerate_face_rejected(self):
        verts = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0]], dtype=float)
        mesh = TriMesh(vertices=verts, faces=np.array([[0, 1, 2]]))
        with pytest.raises(ValueError, match="degenerate"):
            cotan_laplacian(mesh)


class TestIntrinsicForm:
    def test_agrees_with_angle_form_on_icosphere(self):
        mesh = icosphere(2)
        pa = cotan_laplacian(mesh)
        pi = cotan_laplacian_intrinsic(discrete_metric(mesh))
        assert np.max(np.abs((pa.stiffness - pi.stiffness).toarray())) <= 1e-9
        assert np.max(np.abs(pa.mass.diagonal() - pi.mass.diagonal())) <= 1e-9

    def test_equilateral_weight_from_heron(self):
        h = np.sqrt(3) / 2
        verts = np.array([[0, 0, 0], [1, 0, 0], [0.5, h, 0], [0.5, -h, 0]])
        mesh = TriMesh(vertices=verts, faces=np.array([[0, 1, 2], [1, 0, 3]]))
        pair = cotan_laplacian_intrinsic(discrete_metric(mesh))
        assert abs(-pair.stiffness[0, 1] - 1.0 / np.sqrt(3.0)) <= 1e-12

    def test_metric_scaling_law(self):
        mesh = icosphere(1)
        metric = discrete_metric(mesh)
        scaled = type(metric)(lengths=3.0 * metric.lengths, faces=metric.faces)
        base = cotan_laplacian_intrinsic(metric)
        big = cotan_laplacian_intrinsic(scaled)
        assert np.max(np.abs((base.stiffness - big.stiffness).toarray())) <= 1e-10
        assert np.max(np.abs(9.0 * base.mass.diagonal() - big.mass.diagonal())) <= 1e-10

    def test_same_metric_from_two_embeddings(self):
        # a strip folded about its shared edge (the x-axis) keeps every edge
        # length, so the intrinsic operator cannot change
        flat = np.array([[0, 0, 0], [1, 0, 0], [0.5, 1, 0], [0.5, -1, 0.0]])
        angle = 0.8
        folded = flat.copy()
        folded[3] = [0.5, -np.cos(angle), np.sin(angle)]
        faces = np.array([[0, 1, 2], [1, 0, 3]])
        m1 = discrete_metric(TriMesh(vertices=flat, faces=faces))
        m2 = discrete_metric(TriMesh(vertices=folded, faces=faces))
        assert np.max(np.abs(m1.lengths - m2.lengths)) <= 1e-12
        p1 = cotan_laplacian_intrinsic(m1)
        p2 = cotan_laplacian_intrinsic(m2)
        assert np.max(np.abs((p1.stiffness - p2.stiffness).toarray())) <= 1e-12

    def test_triangle_inequality_violation_rejected(self):
        metric = discrete_metric(tetrahedron())
        bad = metric.lengths.copy()
        bad[metric_edge(metric, 0, 1)] = 10.0
        with pytest.raises(ValueError, match="triangle inequality"):
            cotan_laplacian_intrinsic(type(metric)(lengths=bad, faces=metric.faces))


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
        m1 = discrete_metric(mesh)
        m2 = discrete_metric(out)
        assert np.max(np.abs(m1.lengths - m2.lengths)) <= bound + 1e-12

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
        save_mesh(path, mesh)
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
