import numpy as np
import pytest
import scipy.sparse as sp

from gdlkit import equivariant_geo as geo
from gdlkit import mesh_core
from gdlkit.graph_nn import edge_index, tree_sum
from gdlkit.rng import substream

TWO_PI = 2.0 * np.pi


def angle_close(a, b, tol):
    d = (a - b) % TWO_PI
    return min(d, TWO_PI - d) <= tol


def random_geometric_graph(n, d, rng, p=0.4, irregular=False):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.uniform() < p]
    if irregular:
        # an isolated last node and a duplicate edge stored reversed
        edges = [e for e in edges if n - 1 not in e]
        edges += [edges[0][::-1]]
    return geo.GeometricGraph(positions=rng.standard_normal((n, 3)),
                              features=rng.standard_normal((n, d)), edges=edges)


def random_rotation(rng, reflect=False):
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    if (np.linalg.det(q) < 0) != reflect:
        q[:, 0] = -q[:, 0]
    return q


class TestEgnn:
    def test_single_node(self):
        g = geo.GeometricGraph(positions=np.zeros((1, 3)),
                               features=np.array([[0.5, -0.25]]), edges=[])
        params = geo.egnn_params(2, 3, seed=0)
        f, x = geo.egnn_layer(g, params)
        assert np.array_equal(x, g.positions)
        expected = params.phi.apply(np.concatenate([g.features[0], np.zeros(3)]))
        assert np.array_equal(f[0], expected)

    def test_two_equal_nodes_move_oppositely(self):
        g = geo.GeometricGraph(positions=np.array([[0.0, 0, 0], [1.0, 0, 0]]),
                               features=np.array([[0.3, 0.7], [0.3, 0.7]]),
                               edges=[(0, 1)])
        params = geo.egnn_params(2, 3, seed=1)
        _, x = geo.egnn_layer(g, params)
        d0 = x[0] - g.positions[0]
        d1 = x[1] - g.positions[1]
        assert np.max(np.abs(d0 + d1)) <= 1e-12

    def test_e3_equivariance_with_reflections(self):
        rng = np.random.default_rng(2)
        worst = 0.0
        for trial in range(40):
            g = random_geometric_graph(10, 4, rng, irregular=trial >= 20)
            params = geo.egnn_params(4, 5, seed=trial)
            f0, x0 = geo.egnn_layer(g, params)
            rot = random_rotation(rng, reflect=trial % 2 == 1)
            t = rng.standard_normal(3)
            f1, x1 = geo.egnn_layer(geo.e3_transform(g, rot, t), params)
            worst = max(worst,
                        float(np.max(np.abs(f1 - f0))),
                        float(np.max(np.abs(x1 - (x0 @ rot.T + t)))))
        assert worst <= 1e-10

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        worst = 0.0
        for trial in range(40):
            g = random_geometric_graph(10, 4, rng, irregular=trial >= 20)
            params = geo.egnn_params(4, 5, seed=100 + trial)
            f0, x0 = geo.egnn_layer(g, params)
            p = rng.permutation(10)
            permuted = geo.GeometricGraph(
                positions=_scatter(g.positions, p),
                features=_scatter(g.features, p),
                edges=[(int(p[a]), int(p[b])) for a, b in g.edges])
            f1, x1 = geo.egnn_layer(permuted, params)
            worst = max(worst,
                        float(np.max(np.abs(f1 - _scatter(f0, p)))),
                        float(np.max(np.abs(x1 - _scatter(x0, p)))))
        assert worst <= 1e-11

    def test_non_orthogonal_transform_rejected(self):
        g = random_geometric_graph(4, 2, np.random.default_rng(4))
        with pytest.raises(ValueError, match="orthogonal"):
            geo.e3_transform(g, np.diag([2.0, 1.0, 1.0]), np.zeros(3))

    @pytest.mark.parametrize("edges, reason", [
        ([(0, 2.7)], r"^edge endpoints must be integers in range\(3\)$"),
        ([(0, -1)], r"^edge endpoints must be integers in range\(3\)$"),
        ([(0, 3)], r"^edge endpoints must be integers in range\(3\)$"),
        ([(0, 1, 2)], r"^edges must be node pairs of shape \(E, 2\), got shape \(1, 3\)$"),
        ([(0, 1), (1, 1)], r"^self-loops present but not flagged$"),
    ])
    def test_bad_edges_are_refused(self, edges, reason):
        with pytest.raises(ValueError, match=reason):
            geo.GeometricGraph(positions=np.zeros((3, 3)), features=np.zeros((3, 1)), edges=edges)

    def test_edges_are_kept_as_checked_pairs(self):
        g = geo.GeometricGraph(positions=np.zeros((3, 3)), features=np.zeros((3, 1)),
                               edges=[(2.0, 0.0), (0.0, 2.0)])
        assert g.edges.dtype.kind == "i" and np.array_equal(g.edges, [[2, 0], [0, 2]])
        moved = geo.e3_transform(g, np.eye(3), np.ones(3))
        assert np.array_equal(moved.edges, g.edges)
        for ours, reference in zip(moved.edge_index, g.edge_index):
            assert np.array_equal(ours, reference)
        assert [(int(a), int(b)) for a, b in g.edges] == [(2, 0), (0, 2)]

    def test_translation_preserves_distances(self):
        rng = np.random.default_rng(5)
        g = random_geometric_graph(6, 2, rng)
        moved = geo.e3_transform(g, np.eye(3), rng.standard_normal(3))
        d0 = np.linalg.norm(g.positions[:, None] - g.positions[None], axis=-1)
        d1 = np.linalg.norm(moved.positions[:, None] - moved.positions[None], axis=-1)
        assert np.max(np.abs(d0 - d1)) <= 1e-12


def _scatter(x, p):
    out = np.empty_like(x)
    out[p] = x
    return out


def flat_hexagon_patch():
    """Interior vertex 0 surrounded by a regular hexagon of equilateral
    triangles in the z = 0 plane."""
    angles = TWO_PI * np.arange(6) / 6.0
    verts = np.vstack([[0.0, 0.0, 0.0],
                       np.stack([np.cos(angles), np.sin(angles), np.zeros(6)], axis=1)])
    faces = np.array([[0, 1 + i, 1 + (i + 1) % 6] for i in range(6)])
    return mesh_core.TriMesh(vertices=verts, faces=faces)


def loop_rings(mesh):
    """Reference one-rings from per-vertex successor dicts: face corners
    (u, v, w) give the link edge v -> w; an open fan starts at its lowest
    predecessor-less neighbour, a cycle at its lowest neighbour."""
    succ = [dict() for _ in range(mesh.n_vertices)]
    for a, b, c in mesh.faces:
        succ[a][int(b)] = int(c)
        succ[b][int(c)] = int(a)
        succ[c][int(a)] = int(b)
    rings, boundary = [], []
    for nxt in succ:
        starts = set(nxt) - set(nxt.values())
        ring = [min(starts) if starts else min(nxt)]
        while ring[-1] in nxt and nxt[ring[-1]] != ring[0]:
            ring.append(nxt[ring[-1]])
        rings.append(ring)
        boundary.append(bool(starts))
    return rings, boundary


def open_cap(mesh, height):
    """The faces of ``mesh`` whose centroid lies above ``z = height``, with
    the unused vertices dropped: an open disc with a boundary loop."""
    f = mesh.faces
    keep = f[mesh.vertices[f].mean(axis=1)[:, 2] > height]
    used, faces = np.unique(keep, return_inverse=True)
    return mesh_core.TriMesh(vertices=mesh.vertices[used], faces=faces.reshape(-1, 3))


def loop_angle(v, u, a, b):
    """Interior angle at ``u`` of the corner between neighbours ``a`` and ``b``."""
    e1, e2 = v[a] - v[u], v[b] - v[u]
    return np.arccos(np.clip(e1 @ e2 / (np.linalg.norm(e1) * np.linalg.norm(e2)), -1.0, 1.0))


def loop_curvatures(mesh, conn):
    """Reference angle defects, enclosed curvatures and ring holonomies, one
    vertex at a time from its ring walk: a ring vertex ``w`` adds its
    log-map rescale share (none at an open fan) over its corners in faces
    shared with the centre."""
    rings, boundary = loop_rings(mesh)
    stars = []
    for u, ring in enumerate(rings):
        pairs = zip(ring, ring[1:] + ([] if boundary[u] else ring[:1]))
        stars.append([(a, b, loop_angle(mesh.vertices, u, a, b)) for a, b in pairs])
    total = [sum(angle for _, _, angle in star) for star in stars]
    defect = TWO_PI - np.array(total)
    enclosed = defect.copy()
    holonomy = np.full(mesh.n_vertices, np.nan)
    for u, ring in enumerate(rings):
        for w in ring:
            share = 0.0 if boundary[w] else TWO_PI / total[w] - 1.0
            enclosed[u] += share * sum(angle for a, b, angle in stars[w] if u in (a, b))
        if not boundary[u]:
            holonomy[u] = sum(conn.transport[(a, b)] for a, b, _ in stars[u]) % TWO_PI
    return defect, enclosed % TWO_PI, holonomy


def connection_of(mesh):
    frames = geo.tangent_frames(mesh)
    return geo.transport_angles(mesh, frames, geo.one_ring_log_map(mesh, frames))


def max_angle_gap(a, b):
    d = (a - b) % TWO_PI
    return float(np.max(np.minimum(d, TWO_PI - d), initial=0.0))


def loop_frames_and_log_map(mesh):
    """Reference frames (normals accumulated face by face, e1 toward the
    lowest neighbour) and polar angles (each star unrolled vertex by vertex)."""
    v = mesh.vertices
    rings, boundary = loop_rings(mesh)
    normals = np.zeros((mesh.n_vertices, 3))
    for a, b, c in mesh.faces:
        for u in (a, b, c):
            normals[u] += np.cross(v[b] - v[a], v[c] - v[a])
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    e1 = np.empty_like(normals)
    theta, radius = {}, {}
    for u, ring in enumerate(rings):
        edge = v[min(ring)] - v[u]
        proj = edge - (edge @ normals[u]) * normals[u]
        e1[u] = proj / np.linalg.norm(proj)
        m = len(ring)
        corners = [loop_angle(v, u, ring[i], ring[(i + 1) % m])
                   for i in range(m - 1 if boundary[u] else m)]
        scale = 1.0 if boundary[u] else TWO_PI / sum(corners)
        cumulative = [0.0]
        for corner in corners[:m - 1]:
            cumulative.append(cumulative[-1] + corner * scale)
        offset = cumulative[ring.index(min(ring))]
        for nbr, angle in zip(ring, cumulative):
            theta[(u, nbr)] = (angle - offset) % TWO_PI
            radius[(u, nbr)] = np.linalg.norm(v[nbr] - v[u])
    return e1, normals, theta, radius, [u for u, b in enumerate(boundary) if b]


class TestFramesAndLogMap:
    @pytest.mark.parametrize("mesh", [
        mesh_core.jitter_mesh(mesh_core.icosphere(2), 0.05, seed=12), flat_hexagon_patch()],
        ids=["jittered-icosphere2", "hexagon-fan"])
    def test_matches_per_vertex_loops(self, mesh):
        frames = geo.tangent_frames(mesh)
        conn = geo.one_ring_log_map(mesh, frames)
        e1, normals, theta, radius, boundary = loop_frames_and_log_map(mesh)
        assert np.max(np.abs(frames.e1 - e1)) <= 1e-12
        assert np.max(np.abs(frames.normal - normals)) <= 1e-12
        # the mappings list the edges in edge-index order: by centre, then neighbour
        assert list(conn.theta) == sorted(theta) and list(conn.radius) == sorted(radius)
        assert all(angle_close(conn.theta[k], theta[k], 1e-12) for k in theta)
        assert max(abs(conn.radius[k] - radius[k]) for k in radius) <= 1e-12
        assert np.flatnonzero(mesh_core.half_edge_index(mesh).boundary).tolist() == boundary
        for u, ring in enumerate(loop_rings(mesh)[0]):
            assert conn.theta[(u, min(ring))] == 0.0

    def test_flat_patch_normals_up(self):
        frames = geo.tangent_frames(flat_hexagon_patch())
        assert np.max(np.abs(frames.normal - np.array([0.0, 0.0, 1.0]))) <= 1e-12

    def test_frames_orthonormal_everywhere(self):
        frames = geo.tangent_frames(mesh_core.icosphere(2))
        # the dataclass validates orthonormality and n = e1 x e2 on build
        assert frames.e1.shape == frames.e2.shape == frames.normal.shape

    def test_icosphere_normals_near_radial(self):
        # area weighting puts the worst vertex at ~0.012 from radial on this
        # mesh; the construction is the pinned one, so test the qualitative
        # claim with that bit of slack
        mesh = mesh_core.icosphere(3)
        frames = geo.tangent_frames(mesh)
        deviation = np.linalg.norm(frames.normal - mesh.vertices, axis=1)
        assert np.max(deviation) <= 2e-2
        assert np.median(deviation) <= 1e-2

    def test_hexagon_log_map_angles(self):
        mesh = flat_hexagon_patch()
        frames = geo.tangent_frames(mesh)
        conn = geo.one_ring_log_map(mesh, frames)
        angles = sorted(conn.theta[(0, nbr)] for nbr in range(1, 7))
        assert np.max(np.abs(np.array(angles) - np.arange(6) * np.pi / 3.0)) <= 1e-10
        for nbr in range(1, 7):
            assert abs(conn.radius[(0, nbr)] - 1.0) <= 1e-12

    def test_cone_angles_rescaled_to_full_turn(self):
        # lift the centre out of plane: corner angles shrink, but the log
        # map spreads them back over the full circle
        mesh = flat_hexagon_patch()
        verts = mesh.vertices.copy()
        verts[0, 2] = 0.4
        cone = mesh_core.TriMesh(vertices=verts, faces=mesh.faces)
        frames = geo.tangent_frames(cone)
        conn = geo.one_ring_log_map(cone, frames)
        angles = sorted(conn.theta[(0, nbr)] for nbr in range(1, 7))
        assert np.max(np.abs(np.array(angles) - np.arange(6) * np.pi / 3.0)) <= 1e-10

    def test_flat_patch_matches_planar_polar_angle(self):
        rng = np.random.default_rng(6)
        mesh = flat_hexagon_patch()
        verts = mesh.vertices.copy()
        verts[1:, :2] += 0.08 * rng.standard_normal((6, 2))
        patch = mesh_core.TriMesh(vertices=verts, faces=mesh.faces)
        frames = geo.tangent_frames(patch)
        conn = geo.one_ring_log_map(patch, frames)
        for nbr in range(1, 7):
            edge = patch.vertices[nbr] - patch.vertices[0]
            expected = np.arctan2(edge @ frames.e2[0], edge @ frames.e1[0]) % TWO_PI
            assert angle_close(conn.theta[(0, nbr)], expected, 1e-10)

    def test_open_fans_keep_planar_angles(self):
        # each boundary vertex of the flat patch has an open fan of two
        # 60-degree corners; unrolled unscaled, every spoke lands on its
        # planar polar angle, so the fan's two ends stay apart
        mesh = flat_hexagon_patch()
        frames = geo.tangent_frames(mesh)
        conn = geo.one_ring_log_map(mesh, frames)
        assert len({round(conn.theta[(1, nbr)], 9) for nbr in (0, 2, 6)}) == 3
        for (u, nbr), angle in conn.theta.items():
            edge = mesh.vertices[nbr] - mesh.vertices[u]
            expected = np.arctan2(edge @ frames.e2[u], edge @ frames.e1[u]) % TWO_PI
            assert angle_close(angle, expected, 1e-10)

    def test_boundary_vertices_flagged(self):
        index = mesh_core.half_edge_index(flat_hexagon_patch())
        assert np.flatnonzero(index.boundary).tolist() == [1, 2, 3, 4, 5, 6]

    def test_bowtie_refused_by_gauge_pipeline(self):
        # frames read no half-edge index, so the log map's manifold check
        # is the one that must refuse a bowtie
        verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0]], dtype=float)
        bowtie = mesh_core.TriMesh(vertices=verts, faces=np.array([[0, 1, 2], [0, 3, 4]]))
        with pytest.raises(ValueError, match="vertex 0 has a non-manifold star"):
            frames = geo.tangent_frames(bowtie)
            geo.transport_angles(bowtie, frames, geo.one_ring_log_map(bowtie, frames))


def adjacency_from_edges(n, edges):
    """Oracle: the binary scipy CSR matrix of an undirected edge list, each
    edge stored both ways and duplicates collapsed."""
    both = np.concatenate([edges, edges[:, ::-1]])
    adjacency = sp.csr_matrix((np.ones(both.shape[0]), (both[:, 0], both[:, 1])), shape=(n, n))
    adjacency.data[:] = 1.0
    return adjacency


class TestConnectionLayout:
    MESHES = [mesh_core.icosphere(2), mesh_core.jitter_mesh(mesh_core.icosphere(3), 0.05, seed=3),
              flat_hexagon_patch(), open_cap(mesh_core.icosphere(3), 0.3)]
    IDS = ["icosphere2", "jittered-icosphere3", "hexagon-fan", "open-cap"]

    @pytest.mark.parametrize("mesh", MESHES, ids=IDS)
    def test_edge_order_is_the_mesh_edge_index(self, mesh):
        f = mesh.faces
        sides = np.concatenate([f[:, :2], f[:, 1:], f[:, ::2]])
        adjacency = adjacency_from_edges(mesh.n_vertices, sides)
        conn = connection_of(mesh)
        for ours, reference in zip(conn.edge_index, edge_index(adjacency)):
            assert np.array_equal(ours, reference)
        assert conn.edge_theta.shape == conn.edge_radius.shape == conn.edge_transport.shape

    @pytest.mark.parametrize("mesh", MESHES, ids=IDS)
    def test_reverse_is_an_involution_pairing_each_edge_with_its_partner(self, mesh):
        conn = connection_of(mesh)
        receivers, senders, _ = conn.edge_index
        rev = conn.reverse
        assert np.array_equal(rev[rev], np.arange(rev.size))
        assert np.array_equal(receivers[rev], senders)
        assert np.array_equal(senders[rev], receivers)

    def test_mappings_read_the_arrays(self):
        conn = connection_of(flat_hexagon_patch())
        receivers, senders, _ = conn.edge_index
        for e, (u, v) in enumerate(zip(receivers, senders)):
            assert conn.theta[(u, v)] == conn.edge_theta[e]
            assert conn.radius[(int(u), int(v))] == conn.edge_radius[e]
            assert conn.transport[(v, u)] == conn.edge_transport[e]
        assert len(conn.theta) == len(conn.transport) == receivers.size
        assert set(conn.transport) == set(conn.theta)
        # rim vertices 1 and 4 face each other across the centre: no edge
        for view, key in ((conn.theta, (1, 4)), (conn.radius, (4, 1)), (conn.transport, (0, 0))):
            assert key not in view
            with pytest.raises(KeyError):
                view[key]
        with pytest.raises(TypeError):
            conn.theta[(0, 1)] = 0.0


def own_edges(mesh):
    """The mesh edges as ``np.unique`` of the undirected edge keys gave them."""
    n = mesh.n_vertices
    centre, first, _ = mesh_core._corners(mesh.faces)
    key = np.unique(np.minimum(centre, first) * n + np.maximum(centre, first))
    return np.stack([key // n, key % n], axis=1)


def own_key_sorts(mesh):
    """The half-edge index and connection index as each once sorted its own
    keys: an ``argsort`` with a ``searchsorted`` indptr, and a
    ``searchsorted`` reverse lookup.  Steps, fans and spokes come from
    :func:`loop_rings`."""
    n = mesh.n_vertices
    rings, boundary = loop_rings(mesh)
    centre, first, second = mesh_core._corners(mesh.faces)
    order = np.argsort(centre * n + first)
    centre, first, second = centre[order], first[order], second[order]
    half = mesh_core.HalfEdgeIndex(
        centre=centre, first=first, second=second,
        indptr=np.searchsorted(centre, np.arange(n + 1)),
        step=np.array([rings[u].index(b) for u, b in zip(centre, first)]),
        boundary=np.array(boundary))
    us = np.repeat(np.arange(n), [len(ring) for ring in rings])
    nbrs = np.concatenate(rings)
    order = np.argsort(us * n + nbrs)
    us, nbrs = us[order], nbrs[order]
    spokes = (us, nbrs, np.searchsorted(us, np.arange(n + 1)))
    return half, spokes, np.searchsorted(us * n + nbrs, nbrs * n + us)


def assert_bitwise_equal(ours, reference):
    assert ours.dtype == reference.dtype and ours.shape == reference.shape
    assert ours.tobytes() == reference.tobytes()


class TestOneCanonicaliser:
    """Mesh edges, half-edge rows and gauge spokes come from
    ``graph_nn._canonical_index`` and equal, bit for bit, what each site's
    own sort of its keys gave."""

    MESHES = [mesh_core.icosphere(3), mesh_core.jitter_mesh(mesh_core.icosphere(3), 0.05, seed=5),
              open_cap(mesh_core.icosphere(3), -0.2), flat_hexagon_patch()]
    IDS = ["icosphere3", "jittered-icosphere3", "open-cap", "hexagon-fan"]

    NO_FACES = mesh_core.TriMesh(vertices=np.zeros((3, 3)), faces=np.zeros((0, 3)))

    @pytest.mark.parametrize("mesh", MESHES + [NO_FACES], ids=IDS + ["no-faces"])
    def test_edges_equal_the_unique_keys(self, mesh):
        assert_bitwise_equal(mesh.edges(), own_edges(mesh))

    @pytest.mark.parametrize("mesh", MESHES, ids=IDS)
    def test_indices_equal_the_own_key_sorts(self, mesh):
        half, spokes, reverse = own_key_sorts(mesh)
        index = mesh_core.half_edge_index(mesh)
        for field in ("centre", "first", "second", "indptr", "step", "boundary"):
            assert_bitwise_equal(getattr(index, field), getattr(half, field))
        conn = connection_of(mesh)
        for ours, reference in zip(conn.edge_index, spokes):
            assert_bitwise_equal(ours, reference)
        assert_bitwise_equal(conn.reverse, reverse)


class TestTransport:
    def test_flat_mesh_aligned_frames_zero_transport(self):
        # all frames on a flat patch share the plane; transports reduce to
        # frame misalignment, which vanishes when we align e1 globally
        mesh = flat_hexagon_patch()
        n = mesh.n_vertices
        e1 = np.tile(np.array([1.0, 0.0, 0.0]), (n, 1))
        e2 = np.tile(np.array([0.0, 1.0, 0.0]), (n, 1))
        nrm = np.tile(np.array([0.0, 0.0, 1.0]), (n, 1))
        frames = geo.GaugeFrameField(e1=e1, e2=e2, normal=nrm)
        conn = geo.one_ring_log_map(mesh, frames)
        # overwrite reference offsets: recompute theta against global e1
        receivers, senders, _ = conn.edge_index
        edge = mesh.vertices[senders] - mesh.vertices[receivers]
        conn = geo.Connection(conn.edge_index, conn.reverse,
                              np.arctan2(edge[:, 1], edge[:, 0]) % TWO_PI, conn.edge_radius)
        conn = geo.transport_angles(mesh, frames, conn)
        for key, g in conn.transport.items():
            assert angle_close(g, 0.0, 1e-10)

    def test_gauge_rotation_shifts_incident_transports(self):
        mesh = mesh_core.icosphere(1)
        frames = geo.tangent_frames(mesh)
        conn = geo.transport_angles(mesh, frames, geo.one_ring_log_map(mesh, frames))
        delta = 0.73
        angles = np.zeros(mesh.n_vertices)
        angles[5] = delta
        _, conn2, _ = geo.gauge_transform(frames, conn, np.zeros((mesh.n_vertices, 1)),
                                          angles, (0,))
        for (v, u), g in conn.transport.items():
            expected = g + (delta if v == 5 else 0.0) - (delta if u == 5 else 0.0)
            assert angle_close(conn2.transport[(v, u)], expected, 1e-10)

    def test_antisymmetry(self):
        mesh = mesh_core.icosphere(1)
        frames = geo.tangent_frames(mesh)
        conn = geo.transport_angles(mesh, frames, geo.one_ring_log_map(mesh, frames))
        for (v, u), g in conn.transport.items():
            assert angle_close(g, -conn.transport[(u, v)], 1e-12)

    @pytest.mark.parametrize("mesh", [
        mesh_core.icosphere(2), mesh_core.jitter_mesh(mesh_core.icosphere(3), 0.05, seed=3),
        flat_hexagon_patch(), open_cap(mesh_core.icosphere(3), 0.3)],
        ids=["icosphere2", "jittered-icosphere3", "hexagon-fan", "open-cap"])
    def test_curvatures_match_per_vertex_loops(self, mesh):
        conn = connection_of(mesh)
        defect, enclosed, holonomy = loop_curvatures(mesh, conn)
        assert np.max(np.abs(geo.angle_defect(mesh) - defect)) <= 1e-12
        assert max_angle_gap(geo.enclosed_curvature(mesh), enclosed) <= 1e-12
        ring = geo.ring_holonomy(mesh, conn)
        assert np.array_equal(np.isnan(ring), np.isnan(holonomy))
        interior = ~np.isnan(holonomy)
        assert max_angle_gap(ring[interior], holonomy[interior]) <= 1e-12

    def test_ring_holonomy_equals_enclosed_curvature(self):
        # discrete Gauss-Bonnet at every interior vertex; an open fan at a
        # boundary vertex has no closed ring, so its holonomy is NaN
        for mesh in (mesh_core.icosphere(2), flat_hexagon_patch(),
                     open_cap(mesh_core.icosphere(3), 0.3)):
            holonomy = geo.ring_holonomy(mesh, connection_of(mesh))
            boundary = mesh_core.half_edge_index(mesh).boundary
            assert np.all(np.isnan(holonomy[boundary]))
            assert max_angle_gap(holonomy[~boundary],
                                 geo.enclosed_curvature(mesh)[~boundary]) <= 1e-12

    @pytest.mark.parametrize("k", range(5))
    def test_angle_defects_sum_to_four_pi(self, k):
        # discrete Gauss-Bonnet on a closed genus-0 surface
        assert abs(np.sum(geo.angle_defect(mesh_core.icosphere(k))) - 2 * TWO_PI) <= 1e-10


def constraint_matrix(orders_in, orders_out, n_bins):
    """Brute-force oracle: the gauge constraints on the unknowns
    (theta_self, theta_neigh bins), stacked densely.

    For every grid angle ``a`` the kernel must satisfy
    ``Theta_self rho_in(a) = rho_out(a) Theta_self`` and
    ``Theta_neigh(b + a) rho_in(a) = rho_out(a) Theta_neigh(b)`` for every
    bin ``b``.
    """
    d_in = geo.rep_dimension(orders_in)
    d_out = geo.rep_dimension(orders_out)
    block = d_out * d_in
    n_unknowns = block * (1 + n_bins)
    rows = []
    for step in range(n_bins):
        alpha = TWO_PI * step / n_bins
        # row-major vec: vec(X A) = (I kron A^T) vec(X); vec(B X) = (B kron I) vec(X)
        right = np.kron(np.eye(d_out), geo.rep_matrix(orders_in, alpha).T)
        left = np.kron(geo.rep_matrix(orders_out, alpha), np.eye(d_in))
        block_rows = np.zeros((block, n_unknowns))
        block_rows[:, :block] = right - left
        rows.append(block_rows)
        for b in range(n_bins):
            shifted = (b + step) % n_bins
            block_rows = np.zeros((block, n_unknowns))
            block_rows[:, block * (1 + shifted):block * (2 + shifted)] += right
            block_rows[:, block * (1 + b):block * (2 + b)] -= left
            rows.append(block_rows)
    return np.concatenate(rows, axis=0)


def oracle_nullspace(orders_in, orders_out, n_bins):
    """Orthonormal columns spanning the nullspace of :func:`constraint_matrix`,
    with the rank counted by SVD at an absolute cutoff."""
    constraints = constraint_matrix(orders_in, orders_out, n_bins)
    _, sing, vt = np.linalg.svd(constraints, full_matrices=False)
    rank = int(np.sum(sing > 1e-10 * max(constraints.shape)))
    return vt[rank:].T


def stacked(basis):
    """Basis kernels as columns (theta_self, then theta_neigh), row-major."""
    return np.stack([np.concatenate([k.theta_self.reshape(-1), k.theta_neigh.reshape(-1)])
                     for k in basis], axis=1)


class TestKernelConstraints:
    def test_trivial_type_forces_constant_kernel(self):
        basis = geo.kernel_constraint_basis((0,), (0,), 6)
        assert len(basis) == 2
        for kernel in basis:
            spread = np.max(kernel.theta_neigh) - np.min(kernel.theta_neigh)
            if np.max(np.abs(kernel.theta_neigh)) > 1e-12:
                assert spread <= 1e-10  # constant over angle bins

    def test_vector_self_kernel_is_rotation_commutant(self):
        basis = geo.kernel_constraint_basis((1,), (1,), 8)
        selfs = np.stack([k.theta_self.reshape(-1) for k in basis])
        # the self blocks span exactly {aI + bJ}: rank 2
        rank = np.linalg.matrix_rank(selfs, tol=1e-10)
        assert rank == 2
        eye = np.eye(2).reshape(-1)
        rot90 = np.array([[0.0, -1.0], [1.0, 0.0]]).reshape(-1)
        # both generators are reachable within the span
        coeffs, res, *_ = np.linalg.lstsq(selfs.T, eye, rcond=None)
        assert np.linalg.norm(selfs.T @ coeffs - eye) <= 1e-10
        coeffs, *_ = np.linalg.lstsq(selfs.T, rot90, rcond=None)
        assert np.linalg.norm(selfs.T @ coeffs - rot90) <= 1e-10

    def test_single_bin_unconstrained(self):
        for orders_in, orders_out in (((0,), (0,)), ((1,), (0, 1))):
            d_in = geo.rep_dimension(orders_in)
            d_out = geo.rep_dimension(orders_out)
            basis = geo.kernel_constraint_basis(orders_in, orders_out, 1)
            assert len(basis) == d_out * d_in * 2

    @pytest.mark.parametrize("orders_in,orders_out,bins", [
        ((0,), (0,), 4), ((1,), (1,), 4), ((1,), (1,), 8),
        ((0, 1), (0, 1), 8), ((0, 1), (1,), 6), ((0, 0), (0, 2), 8),
        ((2,), (1,), 8), ((0, 1), (0, 1), 16),
        # aliased: order m at N bins rotates by m * 2 pi / N, so order 2 at
        # 2 bins (and order 3 at 3) sees only the identity, and order 2 at 4
        # bins only its sign
        ((0,), (2,), 2), ((1,), (1,), 2), ((0,), (3,), 3), ((2,), (2,), 4),
    ])
    def test_soundness_and_completeness(self, orders_in, orders_out, bins):
        basis = geo.kernel_constraint_basis(orders_in, orders_out, bins)
        for kernel in basis:
            assert geo.kernel_constraint_residual(kernel) <= 1e-12
        # completeness: the basis has the brute-force nullspace's dimension
        # and spans it; the kernels are orthonormal as stacked vectors
        oracle = oracle_nullspace(orders_in, orders_out, bins)
        flat = stacked(basis)
        assert flat.shape == oracle.shape
        assert np.max(np.abs(oracle @ (oracle.T @ flat) - flat)) <= 1e-10
        assert np.max(np.abs(flat.T @ flat - np.eye(len(basis)))) <= 1e-10


@pytest.fixture(scope="module")
def sphere_connection():
    mesh = mesh_core.icosphere(2)
    frames = geo.tangent_frames(mesh)
    conn = geo.transport_angles(mesh, frames, geo.one_ring_log_map(mesh, frames))
    return mesh, frames, conn


class TestGaugeConv:
    def test_zero_neighbour_kernel_is_pointwise(self, sphere_connection):
        mesh, _, conn = sphere_connection
        basis = geo.kernel_constraint_basis((0, 1), (0, 1), 8)
        kernel = geo.kernel_from_coefficients(basis, np.zeros(len(basis)))
        picked = None
        for b in basis:
            if np.max(np.abs(b.theta_neigh)) <= 1e-12:
                picked = b
                break
        assert picked is not None
        x = np.random.default_rng(7).standard_normal((mesh.n_vertices, 3))
        out = geo.gauge_conv(mesh, conn, picked, x)
        expected = x @ picked.theta_self.T
        assert np.max(np.abs(out - expected)) <= 1e-12

    def test_trivial_type_reduces_to_unit_graph_conv(self, sphere_connection):
        mesh, _, conn = sphere_connection
        basis = geo.kernel_constraint_basis((0,), (0,), 4)
        neigh_kernel = None
        for b in basis:
            if np.max(np.abs(b.theta_self)) <= 1e-12:
                neigh_kernel = b
                break
        assert neigh_kernel is not None
        weight = neigh_kernel.theta_neigh[0, 0, 0]
        x = np.random.default_rng(8).standard_normal((mesh.n_vertices, 1))
        out = geo.gauge_conv(mesh, conn, neigh_kernel, x)
        for u in (0, 33, 100):
            nbrs = [v for (uu, v) in conn.theta if uu == u]
            assert abs(out[u, 0] - weight * sum(x[v, 0] for v in nbrs)) <= 1e-10

    @pytest.mark.parametrize("bins", [4, 8, 16])
    def test_gauge_equivariance_on_grid_rotations(self, sphere_connection, bins):
        mesh, frames, conn = sphere_connection
        rng = substream(bins, "gauge-test")
        orders = (0, 1)
        basis = geo.kernel_constraint_basis(orders, orders, bins)
        kernel = geo.kernel_from_coefficients(basis, rng.standard_normal(len(basis)))
        x = rng.standard_normal((mesh.n_vertices, 3))
        base = geo.gauge_conv(mesh, conn, kernel, x)
        step = TWO_PI / bins
        angles = step * rng.integers(0, bins, size=mesh.n_vertices)
        _, conn2, x2 = geo.gauge_transform(frames, conn, x, angles, orders)
        out = geo.gauge_conv(mesh, conn2, kernel, x2)
        expected = np.stack([geo.rep_matrix(orders, -angles[u]) @ base[u]
                             for u in range(mesh.n_vertices)])
        assert np.max(np.abs(out - expected)) <= 1e-8

    def test_invalid_kernel_rejected(self, sphere_connection):
        mesh, _, conn = sphere_connection
        bad = geo.GaugeKernel(orders_in=(1,), orders_out=(1,),
                              theta_self=np.array([[1.0, 1.0], [0.0, 1.0]]),
                              theta_neigh=np.zeros((4, 2, 2)))
        with pytest.raises(ValueError, match="constraint"):
            geo.gauge_conv(mesh, conn, bad, np.zeros((mesh.n_vertices, 2)))

    def test_empty_kernel_basis_is_refused(self):
        with pytest.raises(ValueError, match="^an empty kernel basis has no combination$"):
            geo.kernel_from_coefficients([], [])

    @pytest.mark.parametrize("coefficients", [1.0, np.ones((1, 2)), np.ones((2, 1)), np.ones(3)])
    def test_one_coefficient_per_basis_kernel(self, coefficients):
        basis = geo.kernel_constraint_basis((0,), (0,), 4)  # one self and one neighbour kernel
        assert len(basis) == 2
        with pytest.raises(ValueError, match="^one coefficient per basis kernel required$"):
            geo.kernel_from_coefficients(basis, coefficients)

    def test_connection_of_another_mesh_rejected(self, sphere_connection):
        _, _, conn = sphere_connection
        other = mesh_core.icosphere(1)
        kernel = geo.kernel_constraint_basis((0,), (0,), 4)[0]
        with pytest.raises(ValueError, match="another vertex count"):
            geo.gauge_conv(other, conn, kernel, np.zeros((other.n_vertices, 1)))


    # at 6 and 12 bins some 2 pi k / N round differently from k (2 pi / N)
    @pytest.mark.parametrize("bins", [4, 6, 8, 12])
    def test_rho_equals_per_edge_rep_matrix_at_snapped_angles(self, sphere_connection, bins):
        # oracle: rho evaluated per edge at the transport snapped onto the grid
        # angle 2 pi k / N, as gauge_conv did before it gathered rho from the N
        # grid matrices
        mesh, _, conn = sphere_connection
        rng = substream(bins, "gauge-gather-test")
        step = TWO_PI / bins
        transport = conn.edge_transport.copy()
        transport[0::3] = (np.arange(transport[0::3].size) % bins + 0.5) * step  # half-bin
        transport[1::3] = np.nextafter(TWO_PI, 0.0)  # snaps to bin 0
        conn = geo.Connection(conn.edge_index, conn.reverse, conn.edge_theta, conn.edge_radius,
                              transport)
        orders_in, orders_out = (0, 1, 2), (1, 0)
        basis = geo.kernel_constraint_basis(orders_in, orders_out, bins)
        kernel = geo.kernel_from_coefficients(basis, rng.standard_normal(len(basis)))
        x = rng.standard_normal((mesh.n_vertices, 5))
        _, senders, indptr = conn.edge_index
        snapped = TWO_PI * (np.round(transport / step) % bins) / bins
        moved = np.einsum("eij,ej->ei", geo.rep_matrix(orders_in, snapped), x[senders])
        bin_index = np.round(conn.edge_theta / step).astype(int) % bins
        msgs = np.einsum("eij,ej->ei", kernel.theta_neigh[bin_index], moved)
        expected = x @ kernel.theta_self.T + tree_sum(msgs, indptr)
        assert np.array_equal(geo.gauge_conv(mesh, conn, kernel, x), expected)


class TestTypeSizeCap:
    def test_the_reference_case_is_at_the_cap(self):
        # the constraint residual at the bins cap for orders (0, 1, 2) sets the cap
        assert len(geo.kernel_constraint_basis((0, 1, 2), (0, 1, 2), geo.BINS_CAP)) > 0
        assert len(geo.kernel_constraint_basis((0, 1, 2), (0, 1, 2), 8)) > 0

    @pytest.mark.parametrize("orders_in, orders_out, bins, floats", [
        ((0,) * 32, (0,) * 32, 8, 8 * 32**4),  # neighbour basis N d_out^2 d_in^2
        ((0, 1, 2, 0), (0, 1, 2, 0), 360, 360**2 * 6**2),  # residual N^2 d_out d_in
        ((0,) * 36, (0,) * 36, 2, 2 * 36**4),
    ])
    def test_larger_type_pairs_are_refused_before_any_array(self, monkeypatch, orders_in,
                                                             orders_out, bins, floats):
        def unreachable(*args):
            raise AssertionError("an array was built for a refused type pair")

        monkeypatch.setattr(geo, "rep_matrix", unreachable)
        dims = f"{geo.rep_dimension(orders_in)} -> {geo.rep_dimension(orders_out)}"
        reason = (f"types of dimension {dims} at {bins} angle bins need {floats} floats, "
                  "above the cap of 3240000")
        with pytest.raises(ValueError, match=f"^{reason}$"):
            geo.kernel_constraint_basis(orders_in, orders_out, bins)


class TestGaugeTransform:
    def test_zero_angles_identity(self, sphere_connection):
        mesh, frames, conn = sphere_connection
        x = np.random.default_rng(9).standard_normal((mesh.n_vertices, 3))
        f2, c2, x2 = geo.gauge_transform(frames, conn, x, np.zeros(mesh.n_vertices), (0, 1))
        assert np.array_equal(x2, x)
        assert np.array_equal(f2.e1, frames.e1)
        assert all(angle_close(c2.theta[k], conn.theta[k], 1e-15) for k in conn.theta)

    def test_transform_then_inverse_restores(self, sphere_connection):
        mesh, frames, conn = sphere_connection
        rng = np.random.default_rng(10)
        x = rng.standard_normal((mesh.n_vertices, 3))
        angles = rng.uniform(0, TWO_PI, size=mesh.n_vertices)
        f2, c2, x2 = geo.gauge_transform(frames, conn, x, angles, (0, 1))
        f3, c3, x3 = geo.gauge_transform(f2, c2, x2, -angles, (0, 1))
        assert np.max(np.abs(x3 - x)) <= 1e-12
        assert np.max(np.abs(f3.e1 - frames.e1)) <= 1e-12
        for k in conn.theta:
            assert angle_close(c3.theta[k], conn.theta[k], 1e-12)

    def test_antisymmetry_preserved(self, sphere_connection):
        mesh, frames, conn = sphere_connection
        rng = np.random.default_rng(11)
        angles = rng.uniform(0, TWO_PI, size=mesh.n_vertices)
        _, c2, _ = geo.gauge_transform(frames, conn, np.zeros((mesh.n_vertices, 1)),
                                       angles, (0,))
        for (v, u), g in c2.transport.items():
            assert angle_close(g, -c2.transport[(u, v)], 1e-10)
