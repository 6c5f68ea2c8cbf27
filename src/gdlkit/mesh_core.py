"""Oriented triangle meshes as discrete manifolds: the half-edge index, the
cotangent stiffness/lumped-mass pair, icosphere test geometry, controlled
vertex jitter, and OFF/OBJ-subset file IO.

This module owns the mesh connectivity format, the half-edge index of
:func:`half_edge_index`: one row ``(centre u, first b, second c)`` per face
corner, sorted by the key ``u * n + b`` (the receiver-major order of
:func:`gdlkit.graph_nn.edge_index`), the corners at ``u`` at
``indptr[u]:indptr[u + 1]``, each with its step along the counter-clockwise
walk round ``u``.  Building the index is the manifold check; there is no
separate validation step.

The Laplacian is stored as the pair ``(L, M)``: a symmetric positive
semidefinite stiffness matrix with constants in its kernel plus a diagonal
matrix of barycentric vertex areas.  The geometric operator is ``M^{-1} L``
and all spectral analysis runs on the generalized problem ``L phi = lambda
M phi``.
"""

from dataclasses import dataclass

import numpy as np

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
    vertices whose star is an open fan.  Corner ``(u, b, c)`` holds the ring
    edge ``b -> c`` of ``u``, so a quantity summed round every vertex's ring
    is one per-row array reduced by ``np.bincount(centre, ...)``."""

    centre: np.ndarray
    first: np.ndarray
    second: np.ndarray
    indptr: np.ndarray
    step: np.ndarray
    boundary: np.ndarray


def half_edge_index(mesh):
    """Build the :class:`HalfEdgeIndex` of ``mesh``.

    The corner after ``(u, b, c)`` round ``u`` is the one keyed ``(u, c)``.
    Each walk starts at the lowest neighbour ``b`` with no corner before it
    (an open fan) or else at the lowest neighbour (a cycle).  This is the
    manifold check: it raises ``ValueError`` naming the lowest directed edge
    that repeats (a flipped face or an edge with more than two faces), and
    naming the vertex when one walk does not cover its star (a bowtie).
    """
    n = mesh.n_vertices
    centre, first, second = _corners(mesh.faces)
    key = centre * n + first
    order = np.argsort(key)
    centre, first, second, key = centre[order], first[order], second[order], key[order]
    repeated = np.flatnonzero(key[1:] == key[:-1])
    if repeated.size:
        u, b = centre[repeated[0]], first[repeated[0]]
        raise ValueError(f"orientation conflict on directed edge ({u}, {b}): "
                         "a flipped face or an edge with more than two faces")
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


@dataclass(frozen=True)
class LaplacianPair:
    """Symmetric stiffness ``L`` (constants in kernel) and diagonal mass ``M``."""

    stiffness: "scipy.sparse.csr_matrix"
    mass: "scipy.sparse.csr_matrix"

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


def cotan_laplacian(mesh):
    """Cotangent stiffness from corner angles of the embedded mesh.

    Off-diagonal ``L_uv = -(cot alpha + cot beta) / 2`` over the angles
    opposite edge (u, v); boundary edges take the single available
    cotangent; diagonal entries make rows sum to zero.  Obtuse angles keep
    their negative cotangents (no clamping).  The mass holds barycentric
    thirds of the face areas.
    """
    import scipy.sparse as sp
    v = mesh.vertices
    n = mesh.n_vertices
    centre, first, second = _corners(mesh.faces)
    e1, e2 = v[first] - v[centre], v[second] - v[centre]
    cross = np.linalg.norm(np.cross(e1, e2), axis=1)
    areas = 0.5 * cross[::3]  # corner 0 spans b - a and c - a, as in face_areas
    _check_areas(areas, mesh.mean_edge_length())
    # half-cotangent of the angle at each corner, written against the edge
    # opposite it: the edge (first, second) of that corner
    w = -np.tile(0.5 * np.einsum("ij,ij->i", e1, e2) / cross, 2)
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
    mass_diag = np.bincount(centre, weights=np.repeat(areas / 3.0, 3), minlength=n)
    if np.any(mass_diag <= 0):
        raise ValueError("mesh has a vertex with no incident face")
    return LaplacianPair(stiffness=stiffness, mass=sp.diags(mass_diag).tocsr())


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
    reprojection; closed manifold with ``20 * 4^k`` faces.  New midpoints are
    numbered in the order the edges ab, bc, ca of the faces first reach them."""
    if not (0 <= subdivisions <= 6):
        raise ValueError("subdivision count must be in 0..6")
    mesh = icosahedron()
    for _ in range(subdivisions):
        v, f, n = mesh.vertices, mesh.faces, mesh.n_vertices
        a, b, _ = _corners(f)
        edge, first, inverse = np.unique(np.minimum(a, b) * n + np.maximum(a, b),
                                         return_index=True, return_inverse=True)
        order = np.argsort(first)
        ab, bc, ca = (n + np.argsort(order)[inverse]).reshape(-1, 3).T
        m = (v[edge[order] // n] + v[edge[order] % n]) / 2.0
        # one dot product per midpoint, summed as np.linalg.norm sums a single
        # vector; a row-wise norm sums in another order and moves last bits
        m /= np.sqrt(np.vecdot(m, m))[:, None]
        faces = np.stack([f[:, 0], ab, ca, f[:, 1], bc, ab, f[:, 2], ca, bc, ab, bc, ca], axis=1)
        mesh = TriMesh(vertices=np.concatenate([v, m]), faces=faces.reshape(-1, 3))
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


def load_mesh(path):
    """Read a mesh, in the format its ``.off`` or ``.obj`` suffix names."""
    lower = str(path).lower()
    if lower.endswith(".off"):
        return _load_off(path)
    if lower.endswith(".obj"):
        return _load_obj(path)
    raise ValueError(f"cannot infer mesh format from {path!r}")


def _numbers(tokens, convert, where):
    """``convert`` each token; a bad one is named with its file line."""
    values = []
    for token in tokens:
        try:
            values.append(convert(token))
        except ValueError:
            kind = "an integer" if convert is int else "a number"
            raise ValueError(f"{where}: {token!r} is not {kind}") from None
    return values


def _load_off(path):
    with open(path, encoding="utf-8") as fh:
        lines = [(n, ln.split()) for n, ln in enumerate(fh, 1)
                 if ln.strip() and not ln.startswith("#")]
    if not lines or lines[0][1] != ["OFF"]:
        raise ValueError("malformed OFF header")
    if len(lines) < 2 or len(lines[1][1]) < 2:
        raise ValueError("truncated OFF file")
    nv, nf = _numbers(lines[1][1][:2], int, f"OFF line {lines[1][0]}")
    if min(nv, nf) < 0:
        raise ValueError(f"OFF line {lines[1][0]}: negative vertex or face count")
    if len(lines) < 2 + nv + nf:
        raise ValueError("truncated OFF file")
    verts = []
    for n, tokens in lines[2:2 + nv]:
        if len(tokens) != 3:
            raise ValueError(f"OFF line {n}: a vertex needs 3 coordinates, got {len(tokens)}")
        verts.append(_numbers(tokens, float, f"OFF line {n}"))
    faces = []
    for n, tokens in lines[2 + nv:2 + nv + nf]:
        where = f"OFF line {n}"
        if _numbers(tokens[:1], int, where) != [3]:
            raise ValueError(f"{where}: non-triangle face")
        if len(tokens) < 4:
            raise ValueError(f"{where}: a face needs 3 vertex indices, got {len(tokens) - 1}")
        faces.append(_numbers(tokens[1:4], int, where))
    return TriMesh(vertices=np.array(verts), faces=np.array(faces, dtype=int))


def _load_obj(path):
    verts, faces = [], []
    with open(path, encoding="utf-8") as fh:
        for n, line in enumerate(fh, 1):
            tokens = line.split()
            if not tokens or tokens[0].startswith("#"):
                continue
            where = f"OBJ line {n}"
            if tokens[0] == "v":
                if len(tokens) < 4:
                    raise ValueError(
                        f"{where}: a vertex needs 3 coordinates, got {len(tokens) - 1}")
                verts.append(_numbers(tokens[1:4], float, where))
            elif tokens[0] == "f":
                if len(tokens) != 4:
                    raise ValueError(f"{where}: non-triangle face")
                idx = _numbers([t.split("/")[0] for t in tokens[1:4]], int, where)
                if any(i < 1 for i in idx):
                    raise ValueError(f"{where}: index out of range")
                faces.append([i - 1 for i in idx])
            # other OBJ statements are outside the supported subset
    return TriMesh(vertices=np.array(verts), faces=np.array(faces, dtype=int))
