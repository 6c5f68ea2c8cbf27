"""Oriented triangle meshes as discrete manifolds: the half-edge index,
validation, the discrete metric, the cotangent stiffness/lumped-mass pair
(from angles and, equivalently, from edge lengths alone), icosphere test
geometry, controlled vertex jitter, and OFF/OBJ-subset file IO.

This module owns the mesh connectivity format, the half-edge index of
:func:`half_edge_index`: one row ``(centre u, first b, second c)`` per face
corner, sorted by the key ``u * n + b`` (the receiver-major order of
:func:`gdlkit.graph_nn.edge_index`), the corners at ``u`` at
``indptr[u]:indptr[u + 1]``, each with its step along the counter-clockwise
walk round ``u``.

The Laplacian is stored as the pair ``(L, M)``: a symmetric positive
semidefinite stiffness matrix with constants in its kernel plus a diagonal
matrix of barycentric vertex areas.  The geometric operator is ``M^{-1} L``
and all spectral analysis runs on the generalized problem ``L phi = lambda
M phi``.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .rng import substream

AREA_FLOOR = 1e-12  # triangles below AREA_FLOOR * (mean edge length)^2 are degenerate


@dataclass(frozen=True)
class TriMesh:
    """Vertex positions (n, 3) and oriented faces (m, 3)."""

    vertices: np.ndarray
    faces: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        f = np.asarray(self.faces, dtype=int)
        if v.ndim != 2 or v.shape[1] != 3:
            raise ValueError("vertices must be (n, 3)")
        if f.ndim != 2 or f.shape[1] != 3:
            raise ValueError("faces must be (m, 3)")
        if f.size and (f.min() < 0 or f.max() >= v.shape[0]):
            raise ValueError("face index out of range")
        if np.any(f[:, 0] == f[:, 1]) or np.any(f[:, 1] == f[:, 2]) or np.any(f[:, 0] == f[:, 2]):
            raise ValueError("degenerate face with repeated vertex")
        if not np.all(np.isfinite(v)):
            raise ValueError("non-finite vertex positions")
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "faces", f)

    @property
    def n_vertices(self):
        return self.vertices.shape[0]

    @property
    def n_faces(self):
        return self.faces.shape[0]

    def edges(self):
        """Sorted unique undirected edges as an (e, 2) array."""
        n = self.n_vertices
        centre, first, _ = _corners(self.faces)
        key = np.unique(np.minimum(centre, first) * n + np.maximum(centre, first))
        return np.stack([key // n, key % n], axis=1)

    def face_areas(self):
        v = self.vertices
        f = self.faces
        cross = np.cross(v[f[:, 1]] - v[f[:, 0]], v[f[:, 2]] - v[f[:, 0]])
        return 0.5 * np.linalg.norm(cross, axis=1)

    def mean_edge_length(self):
        e = self.edges()
        return float(np.mean(np.linalg.norm(self.vertices[e[:, 0]] - self.vertices[e[:, 1]], axis=1)))


def _corners(faces):
    """Face corners ``(centre, first, second)`` in face order: face
    ``(a, b, c)`` gives ``(a, b, c)``, ``(b, c, a)`` and ``(c, a, b)``, so the
    half-edge ``centre -> first`` runs along the face's orientation."""
    return faces.ravel(), np.roll(faces, -1, axis=1).ravel(), np.roll(faces, -2, axis=1).ravel()


@dataclass(frozen=True)
class HalfEdgeIndex:
    """Face corners sorted by ``centre * n + first``; the corners at ``u``
    are rows ``indptr[u]:indptr[u + 1]``.  ``step`` numbers each corner along
    the counter-clockwise walk round its centre, and ``boundary`` flags the
    vertices whose star is an open fan."""

    centre: np.ndarray
    first: np.ndarray
    second: np.ndarray
    indptr: np.ndarray
    step: np.ndarray
    boundary: np.ndarray

    def walk(self, u):
        """Rows of the corners at ``u`` in walk order."""
        return self.indptr[u] + np.argsort(self.step[self.indptr[u]:self.indptr[u + 1]])

    def ring(self, u):
        """One-ring of ``u`` in walk order; an open fan ends with the second
        vertex of its last corner."""
        rows = self.walk(u)
        ring = self.first[rows]
        return np.append(ring, self.second[rows[-1]]) if self.boundary[u] else ring


def half_edge_index(mesh):
    """Build the :class:`HalfEdgeIndex` of ``mesh``.

    The corner after ``(u, b, c)`` round ``u`` is the one keyed ``(u, c)``.
    Each walk starts at the lowest neighbour ``b`` with no corner before it
    (an open fan) or else at the lowest neighbour (a cycle).  Raises
    ``ValueError`` naming the vertex when a directed edge repeats (a flipped
    face or a non-manifold edge) or when one walk does not cover the star.
    """
    n = mesh.n_vertices
    centre, first, second = _corners(mesh.faces)
    key = centre * n + first
    order = np.argsort(key)
    centre, first, second, key = centre[order], first[order], second[order], key[order]
    repeated = np.flatnonzero(key[1:] == key[:-1])
    if repeated.size:
        raise ValueError(f"vertex {centre[repeated[0]]} has a non-manifold star")
    indptr = np.searchsorted(centre, np.arange(n + 1))
    target = centre * n + second
    succ = np.minimum(np.searchsorted(key, target), key.size - 1)
    succ[key[succ] != target] = -1
    has_pred = np.zeros(key.size, dtype=bool)
    has_pred[succ[succ >= 0]] = True
    # rows are sorted by neighbour within a star, so the first row without a
    # predecessor holds the lowest such neighbour
    open_rows = np.flatnonzero(~has_pred)
    fans, first_open = np.unique(centre[open_rows], return_index=True)
    boundary = np.zeros(n, dtype=bool)
    boundary[fans] = True
    start = indptr[:-1].copy()
    start[fans] = open_rows[first_open]
    cur = start[indptr[:-1] < indptr[1:]]
    step = np.full(key.size, -1)
    for k in range(int(np.diff(indptr).max(initial=0))):
        step[cur] = k
        cur = succ[cur]
        cur = cur[cur >= 0]
        cur = cur[step[cur] < 0]  # a cycle stops on returning to its start
    if np.any(step < 0):
        raise ValueError(f"vertex {centre[np.argmax(step < 0)]} has a non-manifold star")
    return HalfEdgeIndex(centre=centre, first=first, second=second, indptr=indptr,
                         step=step, boundary=boundary)


@dataclass
class ManifoldReport:
    """Findings of :func:`validate_manifold`; empty lists mean clean."""

    nonmanifold_edges: list
    boundary_edges: list
    nonmanifold_vertices: list
    orientation_conflicts: list

    def is_clean_closed(self):
        return not (self.nonmanifold_edges or self.boundary_edges
                    or self.nonmanifold_vertices or self.orientation_conflicts)


def _pairs(keys, n):
    return list(zip((keys // n).tolist(), (keys % n).tolist()))


def validate_manifold(mesh):
    """Flag non-manifold edges (more than two incident faces), boundary
    edges (exactly one), vertices whose link is not a single path or loop,
    and each repeat of a directed edge (traversed twice in one direction)."""
    n = mesh.n_vertices
    centre, first, second = _corners(mesh.faces)
    directed, count = np.unique(centre * n + first, return_counts=True)
    orientation_conflicts = _pairs(np.repeat(directed, count - 1), n)
    undirected, count = np.unique(np.minimum(centre, first) * n + np.maximum(centre, first),
                                  return_counts=True)
    # the link of u ignores orientation: an edge (first, second) per corner at
    # u; it is one path or cycle when no link vertex has more than two link
    # edges and the link is connected.  csgraph is imported here because it
    # loads scipy.sparse.linalg, which importing the package does not need
    from scipy.sparse.csgraph import connected_components
    m = centre.size
    link, ends, degree = np.unique(np.concatenate([centre * n + first, centre * n + second]),
                                   return_inverse=True, return_counts=True)
    graph = sp.coo_matrix((np.ones(m), (ends[:m], ends[m:])), shape=(link.size, link.size))
    _, label = connected_components(graph, directed=False)
    _, one_per_component = np.unique(label, return_index=True)
    owner = link // n
    bad = (np.bincount(owner[one_per_component], minlength=n) > 1) \
        | (np.bincount(owner[degree > 2], minlength=n) > 0)
    return ManifoldReport(
        nonmanifold_edges=_pairs(undirected[count > 2], n),
        boundary_edges=_pairs(undirected[count == 1], n),
        nonmanifold_vertices=np.flatnonzero(bad).tolist(),
        orientation_conflicts=orientation_conflicts,
    )


@dataclass(frozen=True)
class DiscreteMetric:
    """Edge lengths keyed by sorted vertex pair, plus the face list."""

    lengths: dict
    faces: np.ndarray

    def length(self, u, v):
        return self.lengths[(min(u, v), max(u, v))]


def discrete_metric(mesh):
    """Euclidean edge lengths; raises when a face violates the strict
    triangle inequality (degenerate face)."""
    lengths = {}
    e = mesh.edges()
    d = np.linalg.norm(mesh.vertices[e[:, 0]] - mesh.vertices[e[:, 1]], axis=1)
    for (u, v), length in zip(e, d):
        lengths[(int(u), int(v))] = float(length)
    metric = DiscreteMetric(lengths=lengths, faces=mesh.faces.copy())
    _check_triangle_inequality(metric)
    return metric


def _check_triangle_inequality(metric):
    for (a, b, c) in metric.faces:
        la = metric.length(b, c)
        lb = metric.length(a, c)
        lc = metric.length(a, b)
        if la + lb <= lc or la + lc <= lb or lb + lc <= la:
            raise ValueError(f"triangle inequality violated on face ({a}, {b}, {c})")


@dataclass(frozen=True)
class LaplacianPair:
    """Symmetric stiffness ``L`` (constants in kernel) and diagonal mass ``M``."""

    stiffness: sp.csr_matrix
    mass: sp.csr_matrix

    @property
    def n(self):
        return self.stiffness.shape[0]

    def operator_apply(self, x):
        """The geometric Laplacian ``M^{-1} L x``."""
        return (self.stiffness @ x) / self.mass.diagonal().reshape(
            (-1,) + (1,) * (np.ndim(x) - 1))


def _check_areas(face_areas, mean_edge):
    """Refuse any triangle below ``AREA_FLOOR * mean_edge**2``; assembly runs
    this before a cotangent is divided by an area."""
    if np.any(face_areas < AREA_FLOOR * mean_edge**2):
        bad = int(np.argmin(face_areas))
        raise ValueError(f"degenerate triangle {bad}: area {face_areas[bad]:.3e}")


def _assemble_pair(n, faces, cot_weights, face_areas):
    """Shared assembly: per-face per-edge half-cotangents into L, barycentric
    thirds of face areas into M.  ``cot_weights[f, i]`` is half the cotangent
    of the angle at corner ``i`` of face ``f``, written against the edge
    opposite it: the edge (first, second) of that corner."""
    _, first, second = _corners(faces)
    w = -np.tile(cot_weights.ravel(), 2)
    off = sp.coo_matrix((w, (np.concatenate([first, second]), np.concatenate([second, first]))),
                        shape=(n, n)).tocsr()
    # The diagonal is the negated storage-order sum of the row's off-diagonal
    # entries and is stored after them, so the sparse matvec (which folds
    # entries in storage order) cancels each row against it bit-exactly:
    # constants lie in the kernel not just approximately but as floats.
    row_ends = off.indptr[1:]
    stiffness = sp.csr_matrix((np.insert(off.data, row_ends, -(off @ np.ones(n))),
                               np.insert(off.indices, row_ends, np.arange(n)),
                               off.indptr + np.arange(n + 1)), shape=(n, n))
    mass_diag = np.bincount(faces.ravel(), weights=np.repeat(face_areas / 3.0, 3), minlength=n)
    if np.any(mass_diag <= 0):
        raise ValueError("mesh has a vertex with no incident face")
    return LaplacianPair(stiffness=stiffness, mass=sp.diags(mass_diag).tocsr())


def cotan_laplacian(mesh):
    """Cotangent stiffness from corner angles of the embedded mesh.

    Off-diagonal ``L_uv = -(cot alpha + cot beta) / 2`` over the angles
    opposite edge (u, v); boundary edges take the single available
    cotangent; diagonal entries make rows sum to zero.  Obtuse angles keep
    their negative cotangents (no clamping).
    """
    v = mesh.vertices
    f = mesh.faces
    areas = mesh.face_areas()
    _check_areas(areas, mesh.mean_edge_length())
    cots = np.empty((mesh.n_faces, 3))
    for corner, (i, j, k) in enumerate(((0, 1, 2), (1, 2, 0), (2, 0, 1))):
        e1 = v[f[:, j]] - v[f[:, i]]
        e2 = v[f[:, k]] - v[f[:, i]]
        cross = np.linalg.norm(np.cross(e1, e2), axis=1)
        cots[:, corner] = 0.5 * np.einsum("ij,ij->i", e1, e2) / cross
    return _assemble_pair(mesh.n_vertices, f, cots, areas)


def cotan_laplacian_intrinsic(metric):
    """Same operator pair computed from the discrete metric alone: per-face
    weights ``(-l_uv^2 + l_vq^2 + l_uq^2) / (8 a)`` with Heron areas."""
    _check_triangle_inequality(metric)
    faces = metric.faces
    # per face, the lengths of the edges opposite corners a, b and c
    lengths = np.array([[metric.length(b, c), metric.length(a, c), metric.length(a, b)]
                        for a, b, c in faces])
    la, lb, lc = lengths.T
    s = 0.5 * (la + lb + lc)
    areas = np.sqrt(s * (s - la) * (s - lb) * (s - lc))
    _check_areas(areas, float(np.mean(lengths)))
    cots = np.stack([-la**2 + lb**2 + lc**2, -lb**2 + la**2 + lc**2, -lc**2 + la**2 + lb**2],
                    axis=1) / (8.0 * areas[:, None])
    return _assemble_pair(int(faces.max()) + 1, faces, cots, areas)


# ---------------------------------------------------------------------------
# test geometry


def icosahedron():
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array([
        [-1, phi, 0], [1, phi, 0], [-1, -phi, 0], [1, -phi, 0],
        [0, -1, phi], [0, 1, phi], [0, -1, -phi], [0, 1, -phi],
        [phi, 0, -1], [phi, 0, 1], [-phi, 0, -1], [-phi, 0, 1],
    ], dtype=float)
    verts /= np.linalg.norm(verts[0])
    faces = np.array([
        [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
        [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
        [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
        [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
    ], dtype=int)
    return TriMesh(vertices=verts, faces=faces)


def icosphere(subdivisions):
    """Unit sphere by 4-way subdivision of the icosahedron with midpoint
    reprojection; closed manifold with ``20 * 4^k`` faces."""
    if not (0 <= subdivisions <= 6):
        raise ValueError("subdivision count must be in 0..6")
    mesh = icosahedron()
    for _ in range(subdivisions):
        verts = [row for row in mesh.vertices]
        cache = {}

        def midpoint(a, b):
            key = (min(a, b), max(a, b))
            if key not in cache:
                m = (mesh.vertices[a] + mesh.vertices[b]) / 2.0
                m = m / np.linalg.norm(m)
                cache[key] = len(verts)
                verts.append(m)
            return cache[key]

        faces = []
        for a, b, c in mesh.faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            faces.extend([[a, ab, ca], [b, bc, ab], [c, ca, bc], [ab, bc, ca]])
        mesh = TriMesh(vertices=np.array(verts), faces=np.array(faces, dtype=int))
    return mesh


def jitter_mesh(mesh, epsilon, seed):
    """Displace each vertex by an independent uniform vector of norm at most
    ``epsilon * mean edge length``; connectivity unchanged, determinism from
    the seed.  Raises if the perturbation degenerates a face."""
    if not epsilon >= 0:
        raise ValueError(f"jitter amplitude must be non-negative, got {epsilon}")
    if epsilon >= 0.1:
        raise ValueError("jitter amplitude must be below 0.1")
    rng = substream(seed, "mesh-jitter")
    n = mesh.n_vertices
    direction = rng.normal(size=(n, 3))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    radius = mesh.mean_edge_length() * epsilon * rng.uniform(size=n) ** (1.0 / 3.0)
    jittered = TriMesh(vertices=mesh.vertices + radius[:, None] * direction,
                       faces=mesh.faces.copy())
    _check_areas(jittered.face_areas(), jittered.mean_edge_length())
    return jittered


# ---------------------------------------------------------------------------
# file formats


def save_mesh(path, mesh, fmt=None):
    fmt = fmt or _format_from_path(path)
    with open(path, "w", encoding="utf-8") as fh:
        if fmt == "off":
            fh.write("OFF\n")
            fh.write(f"{mesh.n_vertices} {mesh.n_faces} 0\n")
            for v in mesh.vertices:
                fh.write(" ".join(repr(float(c)) for c in v) + "\n")
            for f in mesh.faces:
                fh.write("3 " + " ".join(str(int(i)) for i in f) + "\n")
        elif fmt == "obj":
            for v in mesh.vertices:
                fh.write("v " + " ".join(repr(float(c)) for c in v) + "\n")
            for f in mesh.faces:
                fh.write("f " + " ".join(str(int(i) + 1) for i in f) + "\n")
        else:
            raise ValueError(f"unknown mesh format {fmt!r}")


def load_mesh(path, fmt=None):
    fmt = fmt or _format_from_path(path)
    if fmt == "off":
        return _load_off(path)
    if fmt == "obj":
        return _load_obj(path)
    raise ValueError(f"unknown mesh format {fmt!r}")


def _format_from_path(path):
    lower = str(path).lower()
    if lower.endswith(".off"):
        return "off"
    if lower.endswith(".obj"):
        return "obj"
    raise ValueError(f"cannot infer mesh format from {path!r}")


def _load_off(path):
    with open(path, encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    if not lines or lines[0] != "OFF":
        raise ValueError("malformed OFF header")
    counts = lines[1].split()
    nv, nf = int(counts[0]), int(counts[1])
    if len(lines) < 2 + nv + nf:
        raise ValueError("truncated OFF file")
    verts = np.array([[float(t) for t in lines[2 + i].split()] for i in range(nv)])
    faces = []
    for i in range(nf):
        tokens = lines[2 + nv + i].split()
        if int(tokens[0]) != 3:
            raise ValueError("non-triangle face")
        faces.append([int(t) for t in tokens[1:4]])
    faces = np.array(faces, dtype=int)
    if faces.size and (faces.min() < 0 or faces.max() >= nv):
        raise ValueError("index out of range")
    return TriMesh(vertices=verts, faces=faces)


def _load_obj(path):
    verts, faces = [], []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            tokens = line.split()
            if not tokens or tokens[0].startswith("#"):
                continue
            if tokens[0] == "v":
                verts.append([float(t) for t in tokens[1:4]])
            elif tokens[0] == "f":
                if len(tokens) != 4:
                    raise ValueError("non-triangle face")
                idx = [int(t.split("/")[0]) for t in tokens[1:4]]
                if any(i < 1 for i in idx):
                    raise ValueError("index out of range")
                faces.append([i - 1 for i in idx])
            # other OBJ statements are outside the supported subset
    verts = np.array(verts)
    faces = np.array(faces, dtype=int)
    if faces.size and faces.max() >= len(verts):
        raise ValueError("index out of range")
    return TriMesh(vertices=verts, faces=faces)
