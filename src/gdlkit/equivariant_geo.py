"""Geometric equivariance beyond permutations.

Two constructions live here:

* E(3)-equivariant message passing on geometric graphs: scalar features
  stay invariant while coordinates transform with rotations, reflections
  and translations of the input.

* Gauge-equivariant convolution on triangle meshes: per-vertex tangent
  frames are an arbitrary choice (a gauge), neighbour directions are
  expressed in geodesic polar coordinates from a one-ring log map,
  features are moved between frames by parallel transport, and the filter
  matrices are constrained to a linear subspace so the output transforms
  predictably under any per-vertex frame rotation.  The subspace has a
  closed form: neighbour kernels ``rho_out(a) E rho_in(a)^T`` for any ``E``,
  and self kernels that commute with the grid rotations.  One-rings and corner
  angles are read from the half-edge index of
  :func:`gdlkit.mesh_core.half_edge_index`, which the log map builds and
  which checks that the mesh is manifold; the frames' reference neighbours
  are read straight from the face corners.  The connection keeps one array
  per edge quantity, so transport, convolution and gauge change are edge
  gathers.

The rotation group is discretised to the cyclic grid ``C_N``: all angles
entering the convolution are snapped to the grid, which makes the kernel
constraint set finite and the equivariance property exact rather than
approximate.  The constraint and the convolution share one set of grid
matrices, ``rho`` at the angles ``2 pi k / N``.
"""

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .graph_nn import MlpParams, adjacency_from_edges, edge_index, mlp_init, tree_sum
from .mesh_core import _corners, half_edge_index
from .numkit import nullspace_basis
from .rng import substream

TWO_PI = 2.0 * np.pi

# largest angle grid C_N accepted: kernel_constraint_residual gathers an
# (N, N, d_out, d_in) array, 25.9 MB at N = 360 for orders (0, 1, 2) (d = 5),
# with a peak of three such arrays (78 MB)
BINS_CAP = 360

# largest neighbour basis (N d_out^2 d_in^2 floats) or constraint residual
# (N^2 d_out d_in floats) accepted for a pair of feature types: that residual
# at N = BINS_CAP for orders (0, 1, 2), 25.9 MB.  ``gauge equivariance`` on
# icosphere:2 peaks at 116 MB RSS there and at 134 MB on the edge case of
# 2 bins and 35 scalar channels (2-core Xeon, 1 BLAS thread)
FLOATS_CAP = BINS_CAP**2 * 5 * 5


# ---------------------------------------------------------------------------
# E(3)-equivariant message passing


@dataclass(frozen=True)
class GeometricGraph:
    """3-D node positions, node features and undirected edges; the attribute
    ``edge_index`` is their :mod:`gdlkit.graph_nn` edge index."""

    positions: np.ndarray
    features: np.ndarray
    edges: list

    def __post_init__(self):
        p = np.asarray(self.positions, dtype=float)
        f = np.asarray(self.features, dtype=float)
        if p.ndim != 2 or p.shape[1] != 3 or f.shape[0] != p.shape[0]:
            raise ValueError("positions must be (n, 3) with matching feature rows")
        if not (np.all(np.isfinite(p)) and np.all(np.isfinite(f))):
            raise ValueError("non-finite inputs")
        object.__setattr__(self, "positions", p)
        object.__setattr__(self, "features", f)
        object.__setattr__(self, "edge_index",
                           edge_index(adjacency_from_edges(p.shape[0], self.edges)))

    @property
    def n(self):
        return self.positions.shape[0]


@dataclass(frozen=True)
class EgnnParams:
    """``psi_f`` builds messages from (f_u, f_v, squared distance), ``psi_c``
    maps the same inputs to one scalar coordinate weight, ``phi`` updates
    node features from (f_u, aggregate)."""

    psi_f: MlpParams
    psi_c: MlpParams
    phi: MlpParams

    def __post_init__(self):
        if self.psi_c.out_width != 1:
            raise ValueError("coordinate network must output one scalar")


def egnn_params(d, hidden, seed):
    rng = substream(seed, "egnn-params")
    return EgnnParams(
        psi_f=mlp_init([2 * d + 1, hidden], rng),
        psi_c=mlp_init([2 * d + 1, 1], rng),
        phi=mlp_init([d + hidden, d], rng),
    )


def egnn_layer(g, params):
    """One equivariant message-passing step.

    Features update through distances only; coordinates move along the
    difference vectors weighted by a learned scalar, so rigid motions of
    the input rigidly move the output and features stay invariant.  Both
    sums run over the declared neighbourhoods as fixed-order segment sums;
    isolated nodes keep their position and see a zero aggregate.
    """
    receivers, senders, indptr = g.edge_index
    f, x = g.features, g.positions
    diff = x[receivers] - x[senders]
    pair = np.concatenate([f[receivers], f[senders], np.sum(diff ** 2, axis=1, keepdims=True)],
                          axis=1)
    aggregate = tree_sum(params.psi_f.apply(pair), indptr)
    new_x = x + tree_sum(params.psi_c.apply(pair) * diff, indptr)
    return params.phi.apply(np.concatenate([f, aggregate], axis=1)), new_x


def e3_transform(g, rotation, translation):
    """Apply a rigid motion (orthogonal matrix, reflections allowed, plus a
    translation) to the positions; features and edges untouched."""
    rotation = np.asarray(rotation, dtype=float)
    translation = np.asarray(translation, dtype=float)
    if np.max(np.abs(rotation.T @ rotation - np.eye(3))) > 1e-10:
        raise ValueError("rotation matrix is not orthogonal")
    return GeometricGraph(positions=g.positions @ rotation.T + translation,
                          features=g.features.copy(), edges=list(g.edges))


# ---------------------------------------------------------------------------
# tangent frames, one-ring log maps, parallel transport


@dataclass(frozen=True)
class GaugeFrameField:
    """Orthonormal tangent pair plus normal per vertex, ``n = e1 x e2``."""

    e1: np.ndarray
    e2: np.ndarray
    normal: np.ndarray

    def __post_init__(self):
        for name in ("e1", "e2", "normal"):
            v = getattr(self, name)
            if np.max(np.abs(np.linalg.norm(v, axis=1) - 1.0)) > 1e-10:
                raise ValueError(f"{name} is not unit length everywhere")
        if np.max(np.abs(np.einsum("ij,ij->i", self.e1, self.e2))) > 1e-10:
            raise ValueError("tangent pair is not orthogonal")
        if np.max(np.abs(np.cross(self.e1, self.e2) - self.normal)) > 1e-8:
            raise ValueError("normal must equal e1 x e2")


def _reference_neighbours(mesh):
    """Lowest one-ring neighbour per vertex (``n`` where there is none), read
    from the face corners: the frame's reference direction."""
    centre, first, second = _corners(mesh.faces)
    ref = np.full(mesh.n_vertices, mesh.n_vertices)
    np.minimum.at(ref, centre, np.minimum(first, second))  # 1-D indices: ufunc.at's fast path
    return ref


def tangent_frames(mesh):
    """Area-weighted vertex normals with the reference direction taken from
    the lowest-index one-ring neighbour (an arbitrary but fixed gauge)."""
    v = mesh.vertices
    f = mesh.faces
    face_normal = np.cross(v[f[:, 1]] - v[f[:, 0]], v[f[:, 2]] - v[f[:, 0]])
    normals = np.zeros((mesh.n_vertices, 3))
    np.add.at(normals, f.ravel(), np.repeat(face_normal, 3, axis=0))  # |cross| = 2 * area
    norms = np.linalg.norm(normals, axis=1)
    if np.any(norms < 1e-14):
        raise ValueError("degenerate vertex star: zero normal")
    normals /= norms[:, None]
    edge = v[_reference_neighbours(mesh)] - v
    proj = edge - np.einsum("ij,ij->i", edge, normals)[:, None] * normals
    norm = np.linalg.norm(proj, axis=1)
    if np.any(norm < 1e-14):
        u = int(np.argmax(norm < 1e-14))
        raise ValueError(f"reference edge at vertex {u} is parallel to the normal")
    e1 = proj / norm[:, None]
    e2 = np.cross(normals, e1)
    return GaugeFrameField(e1=e1, e2=e2, normal=normals)


class _EdgeMap(Mapping):
    """Read-only view of one per-edge array keyed ``(u, v)``, or ``(v, u)``
    if ``flip``; it lists the edge index on its first read."""

    def __init__(self, edge_index, values, flip=False):
        self._index, self._values, self._flip, self._lists = edge_index, values, flip, None

    def __getitem__(self, key):
        u, v = key[::-1] if self._flip else key
        if self._lists is None:
            self._lists = self._index[1].tolist(), self._index[2].tolist()
        senders, indptr = self._lists
        ring = senders[indptr[u]:indptr[u + 1]] if 0 <= u < len(indptr) - 1 else []
        if v not in ring:
            raise KeyError(key)
        return self._values[indptr[u] + ring.index(v)].item()

    def __iter__(self):
        pairs = self._index[1::-1] if self._flip else self._index[:2]
        return zip(pairs[0].tolist(), pairs[1].tolist())

    def __len__(self):
        return self._index[0].size


class Connection:
    """Geodesic polar coordinates and parallel transport per directed edge
    ``e = (u, v)``, as arrays in :func:`gdlkit.graph_nn.edge_index` order:
    ``reverse[e]`` is the edge ``(v, u)``, ``edge_theta[e]`` the angle of
    ``v`` around ``u`` from the frame's reference direction, ``edge_radius[e]``
    the edge length and ``edge_transport[e]`` (None until :func:`transport_angles`)
    the rotation a vector picks up when carried from the frame at ``v`` to
    that at ``u``.  ``theta[(u, v)]``, ``radius[(u, v)]`` and
    ``transport[(v, u)]`` read the same values."""

    def __init__(self, edge_index, reverse, theta, radius, transport=None):
        self.edge_index, self.reverse = edge_index, reverse
        self.edge_theta, self.edge_radius, self.edge_transport = theta, radius, transport
        self.theta, self.radius = _EdgeMap(edge_index, theta), _EdgeMap(edge_index, radius)
        self.transport = _EdgeMap(edge_index, transport, flip=True)


def one_ring_log_map(mesh, frames):
    """Fill polar coordinates by unrolling each vertex star into the plane.

    Corner angles are accumulated in ring order, each times the flattening
    factor whose one home is :func:`_star_corners`: ``2 pi / total angle`` in
    an interior star, so the flattened star closes up, and 1 on an open fan
    at a boundary vertex (de Haan et al. 2021), since stretching it to a
    full turn would put its first and last spokes on one direction.  Angle
    zero is the lowest-index neighbour, which :func:`tangent_frames` also
    picks, so ``frames`` is not read; it stays because ``bench/workloads.py``
    passes it positionally, and can go with ROADMAP item 9.
    """
    n = mesh.n_vertices
    index, angle, _, scale = _star_corners(mesh)
    centre, step = index.centre, index.step
    # column k + 1 of a vertex's row holds its k-th corner in walk order, so
    # a cumulative sum along the row puts ring vertex k at column k
    walk = np.zeros((n, int(step.max(initial=0)) + 2))
    walk[centre, step + 1] = angle * scale
    polar = np.cumsum(walk, axis=1)
    # an open fan's ring ends with the second vertex of its last corner
    fan_end = index.boundary[centre] & (step == np.diff(index.indptr)[centre] - 1)
    us = np.concatenate([centre, centre[fan_end]])
    nbrs = np.concatenate([index.first, index.second[fan_end]])
    steps = np.concatenate([step, step[fan_end] + 1])
    order = np.argsort(us * n + nbrs)
    us, nbrs, steps = us[order], nbrs[order], steps[order]
    indptr = np.searchsorted(us, np.arange(n + 1))
    # the first edge of each vertex's segment goes to its lowest neighbour
    ref = indptr[:-1][indptr[:-1] < indptr[1:]]
    offset = np.zeros(n)
    offset[us[ref]] = polar[us[ref], steps[ref]]
    return Connection((us, nbrs, indptr),
                      np.searchsorted(us * n + nbrs, nbrs * n + us),
                      (polar[us, steps] - offset[us]) % TWO_PI,
                      np.linalg.norm(mesh.vertices[nbrs] - mesh.vertices[us], axis=1))


def transport_angles(mesh, frames, conn):
    """Fill parallel-transport angles from the log maps.

    Unfolding the two faces sharing edge (u, v) into a plane, the direction
    u -> v seen at u, reversed, must coincide with v -> u seen at v:
    ``g_{v->u} = (theta_uv + pi) - theta_vu``.  Antisymmetry holds by
    construction.  Only ``conn`` is read; ``mesh`` and ``frames`` stay
    because ``bench/workloads.py`` passes them positionally, and can go with
    ROADMAP item 9.
    """
    theta = conn.edge_theta
    return Connection(conn.edge_index, conn.reverse, theta, conn.edge_radius,
                      (theta + np.pi - theta[conn.reverse]) % TWO_PI)


def _star_corners(mesh):
    """The half-edge index of ``mesh``, each corner's interior angle, each
    vertex's angle sum, and each corner's flattening factor: ``2 pi`` over its
    vertex's sum in an interior star, 1 on an open fan."""
    index = half_edge_index(mesh)
    v = mesh.vertices
    e1, e2 = v[index.first] - v[index.centre], v[index.second] - v[index.centre]
    cosang = np.einsum("ij,ij->i", e1, e2) / (
        np.linalg.norm(e1, axis=1) * np.linalg.norm(e2, axis=1))
    angle = np.arccos(np.clip(cosang, -1.0, 1.0))
    total = np.bincount(index.centre, weights=angle, minlength=mesh.n_vertices)
    scale = np.where(index.boundary[index.centre], 1.0, TWO_PI / total[index.centre])
    return index, angle, total, scale


def angle_defect(mesh):
    """Discrete Gaussian curvature per vertex: ``2 pi`` minus the interior
    angles at it.  On a closed mesh the defects sum to ``2 pi`` times the
    Euler characteristic (discrete Gauss-Bonnet)."""
    return TWO_PI - _star_corners(mesh)[2]


def enclosed_curvature(mesh):
    """Curvature enclosed by the one-ring edge loop of each vertex, mod ``2 pi``.

    The flattening rescale of :func:`one_ring_log_map` spreads an interior
    vertex's defect over its corners, each corner taking ``(2 pi / A_w - 1)``
    times its angle (``A_w`` the total angle at its vertex ``w``; the sum and
    factor are read from :func:`_star_corners`, their one home); an open fan
    is not rescaled, so its corners take no share.  The loop round ``u``
    encloses ``u``'s whole defect plus the share of every other corner of
    the faces at ``u``: a corner ``(w, b, c)`` lies inside the stars of
    ``b`` and ``c``.
    """
    index, angle, total, scale = _star_corners(mesh)
    share = (scale - 1.0) * angle
    inside = (np.bincount(index.first, weights=share, minlength=total.size)
              + np.bincount(index.second, weights=share, minlength=total.size))
    return (TWO_PI - total + inside) % TWO_PI


def ring_holonomy(mesh, conn):
    """Net rotation, mod ``2 pi``, from composing edge transports once round
    the one-ring of each vertex; NaN at a boundary vertex, whose open fan has
    no closed ring.

    The ring edge of corner ``(u, b, c)`` runs ``b -> c``, so the loop round
    ``u`` sums ``transport[(b, c)]`` over the corners at ``u``.  It encloses
    the curvature of :func:`enclosed_curvature` (discrete Gauss-Bonnet).
    """
    index = half_edge_index(mesh)
    receivers, senders, _ = conn.edge_index
    n = mesh.n_vertices
    edge = np.searchsorted(receivers * n + senders, index.second * n + index.first)
    holonomy = np.bincount(index.centre, weights=conn.edge_transport[edge], minlength=n) % TWO_PI
    holonomy[index.boundary] = np.nan
    return holonomy


# ---------------------------------------------------------------------------
# gauge-equivariant convolution


def rep_dimension(orders):
    return sum(1 if m == 0 else 2 for m in orders)


def rep_matrix(orders, angle):
    """Block-diagonal action: order 0 blocks are scalars, order m blocks
    rotate by ``m * angle``; an array of angles stacks one matrix per angle."""
    angle = np.asarray(angle, dtype=float)
    dim = rep_dimension(orders)
    out = np.zeros(angle.shape + (dim, dim))
    pos = 0
    for m in orders:
        if m == 0:
            out[..., pos, pos] = 1.0
            pos += 1
        else:
            c, s = np.cos(m * angle), np.sin(m * angle)
            out[..., pos, pos], out[..., pos, pos + 1] = c, -s
            out[..., pos + 1, pos], out[..., pos + 1, pos + 1] = s, c
            pos += 2
    return out


def _grid_matrices(orders, n_bins):
    """``rep_matrix(orders, 2 pi k / N)`` for ``k = 0..N-1``: the ``C_N`` grid
    matrices that the kernel constraint and the convolution both read."""
    return rep_matrix(orders, TWO_PI * np.arange(n_bins) / n_bins)


@dataclass(frozen=True)
class GaugeKernel:
    """Self and per-angle-bin neighbour filter matrices for fixed feature
    types; valid kernels satisfy the equivariance constraints."""

    orders_in: tuple
    orders_out: tuple
    theta_self: np.ndarray
    theta_neigh: np.ndarray  # (n_bins, d_out, d_in)

    @property
    def n_bins(self):
        return self.theta_neigh.shape[0]


def kernel_constraint_basis(orders_in, orders_out, n_bins):
    """Orthonormal basis of the kernels with, for every grid angle ``a`` and
    bin ``b``, ``Theta_self rho_in(a) = rho_out(a) Theta_self`` and
    ``Theta_neigh(b + a) rho_in(a) = rho_out(a) Theta_neigh(b)``: the conditions
    that make the output transform by ``rho_out`` of the (inverse) gauge rotation.

    Solved in closed form (de Haan et al. 2021; Weiler & Cesa 2019).  Bin 0
    fixes ``Theta_neigh(a) = rho_out(a) E rho_in(a)^T``, valid for any ``E``;
    the unit matrices ``E``, scaled by ``1 / sqrt(n_bins)``, give ``d_out d_in``
    orthonormal neighbour kernels.  The self kernels are the fixed points of
    ``X -> rho_out(a)^T X rho_in(a)``: the nullspace of ``P - I``, with ``P``
    those maps averaged over the grid.  Self kernels (zero neighbour part)
    come first, then neighbour kernels (zero self part).
    """
    if n_bins < 1:
        raise ValueError("at least one angle bin required")
    if n_bins > BINS_CAP:
        raise ValueError(f"{n_bins} angle bins exceed the cap of {BINS_CAP}")
    orders_in, orders_out = tuple(orders_in), tuple(orders_out)
    d_out, d_in = rep_dimension(orders_out), rep_dimension(orders_in)
    block = d_out * d_in
    floats = max(n_bins * block**2, n_bins**2 * block)
    if floats > FLOATS_CAP:
        raise ValueError(f"types of dimension {d_in} -> {d_out} at {n_bins} angle bins need "
                         f"{floats} floats, above the cap of {FLOATS_CAP}")
    rin, rout = _grid_matrices(orders_in, n_bins), _grid_matrices(orders_out, n_bins)
    # row-major vec: vec(B^T X A) = (B^T kron A^T) vec(X)
    average = np.einsum("aji,akl->iljk", rout, rin).reshape(block, block) / n_bins
    fixed = nullspace_basis(average - np.eye(block))
    selfs = fixed.T.reshape(fixed.shape[1], d_out, d_in)
    # kernel (i, j) at bin a: rho_out(a) E_ij rho_in(a)^T = rho_out(a)[:, i] rho_in(a)[:, j]^T
    neighs = np.einsum("api,aqj->ijapq", rout, rin).reshape(block, n_bins, d_out, d_in)
    neighs /= np.sqrt(n_bins)
    zero_self, zero_neigh = np.zeros((d_out, d_in)), np.zeros((n_bins, d_out, d_in))
    return ([GaugeKernel(orders_in, orders_out, s, zero_neigh.copy()) for s in selfs]
            + [GaugeKernel(orders_in, orders_out, zero_self.copy(), t) for t in neighs])


def kernel_from_coefficients(basis_kernels, coefficients):
    """Linear combination of constraint-basis kernels."""
    coefficients = np.asarray(coefficients, dtype=float)
    if len(basis_kernels) == 0:
        raise ValueError("an empty kernel basis has no combination")
    if coefficients.shape != (len(basis_kernels),):
        raise ValueError("one coefficient per basis kernel required")
    first = basis_kernels[0]
    theta_self = sum(c * k.theta_self for c, k in zip(coefficients, basis_kernels))
    theta_neigh = sum(c * k.theta_neigh for c, k in zip(coefficients, basis_kernels))
    return GaugeKernel(orders_in=first.orders_in, orders_out=first.orders_out,
                       theta_self=theta_self, theta_neigh=theta_neigh)


def kernel_constraint_residual(kernel):
    """Largest violation of the two constraint families; valid kernels are
    at numerical zero."""
    n_bins = kernel.n_bins
    steps = np.arange(n_bins)
    rin = _grid_matrices(kernel.orders_in, n_bins)[:, None]
    rout = _grid_matrices(kernel.orders_out, n_bins)[:, None]
    shifted = kernel.theta_neigh[(steps[:, None] + steps) % n_bins]  # [step, b]: bin b + step
    return float(max(np.max(np.abs(kernel.theta_self @ rin - rout @ kernel.theta_self)),
                     np.max(np.abs(shifted @ rin - rout @ kernel.theta_neigh))))


def _grid_index(angle, n_bins):
    """Index ``k`` of the nearest ``C_N`` grid angle ``k 2 pi / N``."""
    return np.round(angle / (TWO_PI / n_bins)).astype(int) % n_bins


def gauge_conv(mesh, conn, kernel, x):
    """Gauge-equivariant message passing
    ``h_u = Theta_self x_u + sum_v Theta_neigh(theta_uv) rho(g_{v->u}) x_v``
    with all angles snapped to the kernel's ``C_N`` grid; ``rho`` is gathered
    from its ``N`` grid matrices."""
    x = np.asarray(x, dtype=float)
    d_in = rep_dimension(kernel.orders_in)
    if x.shape != (mesh.n_vertices, d_in):
        raise ValueError("feature width must match the input type")
    if kernel_constraint_residual(kernel) > 1e-8:
        raise ValueError("kernel violates the gauge constraints")
    _, senders, indptr = conn.edge_index
    if indptr.size != mesh.n_vertices + 1:
        raise ValueError("connection was built on a mesh with another vertex count")
    n_bins = kernel.n_bins
    bins = _grid_index(conn.edge_theta, n_bins)
    grid = _grid_matrices(kernel.orders_in, n_bins)
    moved = np.einsum("eij,ej->ei", grid[_grid_index(conn.edge_transport, n_bins)], x[senders])
    msgs = np.einsum("eij,ej->ei", kernel.theta_neigh[bins], moved)
    return x @ kernel.theta_self.T + tree_sum(msgs, indptr)


def gauge_transform(frames, conn, x, angles, orders):
    """Rotate the frame at each vertex by its angle and update everything
    that was expressed in the old gauges: polar angles shift by ``-angle_u``,
    transports by ``angle_v - angle_u``, features by ``rho(-angle_u)``."""
    angles = np.asarray(angles, dtype=float)
    x = np.asarray(x, dtype=float)
    n = angles.shape[0]
    if frames.e1.shape[0] != n or x.shape[0] != n:
        raise ValueError("one angle per vertex required")
    cos = np.cos(angles)[:, None]
    sin = np.sin(angles)[:, None]
    new_frames = GaugeFrameField(
        e1=cos * frames.e1 + sin * frames.e2,
        e2=-sin * frames.e1 + cos * frames.e2,
        normal=frames.normal.copy(),
    )
    receivers, senders, _ = conn.edge_index
    new_conn = Connection(
        conn.edge_index, conn.reverse, (conn.edge_theta - angles[receivers]) % TWO_PI,
        conn.edge_radius, (conn.edge_transport - angles[receivers] + angles[senders]) % TWO_PI)
    new_x = np.einsum("nij,nj->ni", rep_matrix(orders, -angles), x)
    return new_frames, new_conn, new_x
