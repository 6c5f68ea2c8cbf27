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
  predictably under any per-vertex frame rotation.  One-rings and corner
  angles are read from the half-edge index of
  :func:`gdlkit.mesh_core.half_edge_index`, which the log map builds and
  which checks that the mesh is manifold; reference neighbours are read
  straight from the face corners.

The rotation group is discretised to the cyclic grid ``C_N``: all angles
entering the convolution are snapped to the grid, which makes the kernel
constraint set finite and the equivariance property exact rather than
approximate.
"""

from dataclasses import dataclass

import numpy as np

from .graph_nn import MlpParams, adjacency_from_edges, edge_index, tree_sum
from .mesh_core import half_edge_index
from .numkit import nullspace_basis

TWO_PI = 2.0 * np.pi


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


def _corner_angles(v, centre, a, b):
    """Interior angle at ``centre`` between the edges to ``a`` and ``b``."""
    e1, e2 = v[a] - v[centre], v[b] - v[centre]
    cosang = np.einsum("ij,ij->i", e1, e2) / (
        np.linalg.norm(e1, axis=1) * np.linalg.norm(e2, axis=1))
    return np.arccos(np.clip(cosang, -1.0, 1.0))


def _reference_neighbours(mesh):
    """Lowest one-ring neighbour per vertex (``n`` where there is none), read
    from the face corners: the frame's reference direction and the log map's
    angle zero."""
    f = mesh.faces
    ref = np.full(mesh.n_vertices, mesh.n_vertices)
    others = np.minimum(np.roll(f, -1, axis=1), np.roll(f, -2, axis=1))
    np.minimum.at(ref, f.ravel(), others.ravel())  # 1-D indices take ufunc.at's fast path
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


@dataclass
class Connection:
    """Geodesic polar coordinates and parallel transport per directed edge.

    ``theta[(u, v)]`` is the angle of neighbour ``v`` around ``u`` measured
    from the frame's reference direction; ``radius[(u, v)]`` the edge
    length; ``transport[(v, u)]`` the rotation a coordinate vector picks up
    when carried from the frame at ``v`` to the frame at ``u``.
    """

    theta: dict
    radius: dict
    transport: dict


def one_ring_log_map(mesh, frames):
    """Fill polar coordinates by unrolling each vertex star into the plane.

    Corner angles are accumulated in ring order.  An interior star is
    rescaled by ``2 pi / total angle`` so the flattened star closes up; an
    open fan at a boundary vertex keeps its angles unscaled (de Haan et al.
    2021), since stretching it to a full turn would put its first and last
    spokes on one direction.  The offset puts the frame's reference edge
    (lowest neighbour index) at angle zero.
    """
    v = mesh.vertices
    index = half_edge_index(mesh)
    centre, step = index.centre, index.step
    angle = _corner_angles(v, centre, index.first, index.second)
    # column k + 1 of a vertex's row holds its k-th corner in walk order, so
    # a cumulative sum along the row puts ring vertex k at column k
    walk = np.zeros((mesh.n_vertices, int(step.max(initial=0)) + 2))
    walk[centre, step + 1] = angle
    total = np.cumsum(walk, axis=1)[centre, -1]
    walk[centre, step + 1] = angle * np.where(index.boundary[centre], 1.0, TWO_PI / total)
    polar = np.cumsum(walk, axis=1)
    # an open fan's ring ends with the second vertex of its last corner
    fan_end = index.boundary[centre] & (step == np.diff(index.indptr)[centre] - 1)
    us = np.concatenate([centre, centre[fan_end]])
    nbrs = np.concatenate([index.first, index.second[fan_end]])
    steps = np.concatenate([step, step[fan_end] + 1])
    order = np.lexsort((steps, us))
    us, nbrs, steps = us[order], nbrs[order], steps[order]
    is_ref = nbrs == _reference_neighbours(mesh)[us]
    offset = np.zeros(mesh.n_vertices)
    offset[us[is_ref]] = polar[us[is_ref], steps[is_ref]]
    theta = (polar[us, steps] - offset[us]) % TWO_PI
    radius = np.linalg.norm(v[nbrs] - v[us], axis=1)
    keys = list(zip(us.tolist(), nbrs.tolist()))
    return Connection(theta=dict(zip(keys, theta.tolist())),
                      radius=dict(zip(keys, radius.tolist())), transport={})


def transport_angles(mesh, frames, conn):
    """Fill parallel-transport angles from the log maps.

    Unfolding the two faces sharing edge (u, v) into a plane, the direction
    u -> v seen at u, reversed, must coincide with v -> u seen at v:
    ``g_{v->u} = (theta_uv + pi) - theta_vu``.  Antisymmetry holds by
    construction.
    """
    transport = {}
    for (u, nbr) in conn.theta:
        transport[(nbr, u)] = (conn.theta[(u, nbr)] + np.pi - conn.theta[(nbr, u)]) % TWO_PI
    return Connection(theta=dict(conn.theta), radius=dict(conn.radius), transport=transport)


def _star_angles(mesh, u):
    """The corner angles at ``u`` in walk order."""
    index = half_edge_index(mesh)
    rows = index.walk(u)
    return _corner_angles(mesh.vertices, index.centre[rows], index.first[rows], index.second[rows])


def angle_defect(mesh, u):
    """``2 pi`` minus the interior angles at ``u`` (discrete curvature)."""
    return TWO_PI - float(np.sum(_star_angles(mesh, u)))


def ring_holonomy(mesh, conn, u):
    """Net rotation from composing edge transports around the one-ring of ``u``.

    The loop runs along the ring edges, so it encloses the centre's angle
    defect plus each ring vertex's curvature share inside the star (the
    flattening rescale distributes a vertex's defect over its corners);
    :func:`enclosed_curvature` computes that reference value.  An open fan
    (a boundary vertex) has no closed ring and is refused.
    """
    index = half_edge_index(mesh)
    if index.boundary[u]:
        raise ValueError(f"ring of vertex {u} is not a closed loop")
    ring = index.ring(u).tolist()
    return sum(conn.transport[(a, b)] for a, b in zip(ring, ring[1:] + ring[:1])) % TWO_PI


def enclosed_curvature(mesh, u):
    """Curvature enclosed by the one-ring edge loop of ``u``: the centre's
    defect plus, for each ring vertex, its defect share over the corners
    lying inside the star (sum of corner-angle defects)."""
    index = half_edge_index(mesh)
    angle = _corner_angles(mesh.vertices, index.centre, index.first, index.second)
    total_angle = np.bincount(index.centre, weights=angle, minlength=mesh.n_vertices)
    total = TWO_PI - total_angle[u]
    for w in index.ring(u):
        rows = slice(index.indptr[w], index.indptr[w + 1])
        # the two corners at w in the faces it shares with u
        inside = angle[rows][(index.first[rows] == u) | (index.second[rows] == u)].sum()
        total += (TWO_PI / total_angle[w] - 1.0) * inside
    return total % TWO_PI


def star_unfolding_holonomy(mesh, u):
    """Net rotation of a vector carried once around ``u`` through its star,
    unfolding face after face across the shared spokes.

    Transport inside each flat face is trivial and the transition at each
    spoke is the in-plane rotation by that face's corner angle at ``u``, so
    the composition around the loop returns the vector rotated by the angle
    defect (discrete Gauss-Bonnet for a loop enclosing only ``u``).
    """
    rotation = np.eye(2)
    for ang in _star_angles(mesh, u):
        c, s = np.cos(ang), np.sin(ang)
        rotation = np.array([[c, -s], [s, c]]) @ rotation
    return (-np.arctan2(rotation[1, 0], rotation[0, 0])) % TWO_PI


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


def _constraint_matrix(orders_in, orders_out, n_bins):
    """Stacked linear constraints on (theta_self, theta_neigh bins).

    For every grid angle ``a`` the kernel must satisfy
    ``Theta_self rho_in(a) = rho_out(a) Theta_self`` and
    ``Theta_neigh(b + a) rho_in(a) = rho_out(a) Theta_neigh(b)`` for every
    bin ``b`` -- precisely the conditions that make the convolution output
    transform by ``rho_out`` of the (inverse) gauge rotation.
    """
    d_in = rep_dimension(orders_in)
    d_out = rep_dimension(orders_out)
    block = d_out * d_in
    n_unknowns = block * (1 + n_bins)
    rows = []
    eye_in = np.eye(d_in)
    eye_out = np.eye(d_out)
    for step in range(n_bins):
        alpha = TWO_PI * step / n_bins
        rin = rep_matrix(orders_in, alpha)
        rout = rep_matrix(orders_out, alpha)
        # row-major vec: vec(X A) = (I kron A^T) vec(X); vec(B X) = (B kron I) vec(X)
        right = np.kron(eye_out, rin.T)
        left = np.kron(rout, eye_in)
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


def kernel_constraint_basis(orders_in, orders_out, n_bins, tol=1e-7):
    """Orthonormal basis of kernels satisfying the gauge constraints."""
    if n_bins < 1:
        raise ValueError("at least one angle bin required")
    orders_in = tuple(orders_in)
    orders_out = tuple(orders_out)
    d_in = rep_dimension(orders_in)
    d_out = rep_dimension(orders_out)
    block = d_out * d_in
    constraints = _constraint_matrix(orders_in, orders_out, n_bins)
    basis = nullspace_basis(constraints, tol=tol)
    kernels = []
    for col in basis.T:
        theta_self = col[:block].reshape(d_out, d_in)
        theta_neigh = col[block:].reshape(n_bins, d_out, d_in)
        kernels.append(GaugeKernel(orders_in=orders_in, orders_out=orders_out,
                                   theta_self=theta_self, theta_neigh=theta_neigh))
    return kernels


def kernel_from_coefficients(basis_kernels, coefficients):
    """Linear combination of constraint-basis kernels."""
    coefficients = np.asarray(coefficients, dtype=float)
    if len(basis_kernels) != coefficients.shape[0]:
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
    worst = 0.0
    for step in range(n_bins):
        alpha = TWO_PI * step / n_bins
        rin = rep_matrix(kernel.orders_in, alpha)
        rout = rep_matrix(kernel.orders_out, alpha)
        worst = max(worst, np.max(np.abs(kernel.theta_self @ rin - rout @ kernel.theta_self)))
        for b in range(n_bins):
            lhs = kernel.theta_neigh[(b + step) % n_bins] @ rin
            rhs = rout @ kernel.theta_neigh[b]
            worst = max(worst, np.max(np.abs(lhs - rhs)))
    return float(worst)


def snap_angle(angle, n_bins):
    """Nearest grid angle in ``C_N``."""
    step = TWO_PI / n_bins
    return (np.round(angle / step) % n_bins) * step


def _edge_arrays(table):
    """Keys (m, 2) and values (m,) of an edge-keyed dict, in dict order."""
    keys = np.array(list(table), dtype=int).reshape(-1, 2)
    return keys, np.fromiter(table.values(), dtype=float, count=keys.shape[0])


def gauge_conv(mesh, conn, kernel, x):
    """Gauge-equivariant message passing
    ``h_u = Theta_self x_u + sum_v Theta_neigh(theta_uv) rho(g_{v->u}) x_v``
    with all angles snapped to the kernel's ``C_N`` grid."""
    x = np.asarray(x, dtype=float)
    d_in = rep_dimension(kernel.orders_in)
    if x.shape != (mesh.n_vertices, d_in):
        raise ValueError("feature width must match the input type")
    if kernel_constraint_residual(kernel) > 1e-8:
        raise ValueError("kernel violates the gauge constraints")
    pairs, theta = _edge_arrays(conn.theta)
    back, transport = _edge_arrays(conn.transport)  # keyed (v, u)
    receivers, senders, indptr = edge_index(
        adjacency_from_edges(mesh.n_vertices, pairs, undirected=False))
    # the index orders the (unique) edges by receiver, then sender
    order, back_order = np.lexsort((pairs[:, 1], pairs[:, 0])), np.lexsort(back.T)
    if not np.array_equal(back[back_order], np.stack([senders, receivers], axis=1)):
        raise ValueError("polar angles and transports must cover the same directed edges")
    n_bins = kernel.n_bins
    bins = np.round(theta[order] / (TWO_PI / n_bins)).astype(int) % n_bins
    rho = rep_matrix(kernel.orders_in, snap_angle(transport[back_order], n_bins))
    moved = np.einsum("eij,ej->ei", rho, x[senders])
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
    pairs, theta = _edge_arrays(conn.theta)
    back, transport = _edge_arrays(conn.transport)  # keyed (v, u)
    new_conn = Connection(
        theta=dict(zip(conn.theta, (theta - angles[pairs[:, 0]]) % TWO_PI)),
        radius=dict(conn.radius),
        transport=dict(zip(conn.transport,
                           (transport - angles[back[:, 1]] + angles[back[:, 0]]) % TWO_PI)))
    new_x = np.einsum("nij,nj->ni", rep_matrix(orders, -angles), x)
    return new_frames, new_conn, new_x
