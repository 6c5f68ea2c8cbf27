"""Correctness checks for benchmark results.

Every check uses an oracle that shares no code with the function it
checks: a vectorised numpy/scipy re-derivation, a different solver, or a
property (equivariance, recurrence consistency) of the result.  A check
raises :class:`Wrong` with a one-line reason; tolerances follow the
repository's own tests.  Checks call no wrapped ``gdlkit`` function, so a
traced run records no spans for them.
"""

import json

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

TWO_PI = 2.0 * np.pi


class Wrong(Exception):
    """A result failed its correctness check."""


def expect(condition, message):
    if not condition:
        raise Wrong(message)


def close(actual, expected, rtol, what):
    """Max-abs deviation within ``rtol`` times the expected magnitude."""
    actual = np.asarray(actual)
    expected = np.asarray(expected)
    expect(actual.shape == expected.shape,
           f"{what}: shape {actual.shape} != {expected.shape}")
    scale = max(1.0, float(np.max(np.abs(expected)))) if expected.size else 1.0
    dev = float(np.max(np.abs(actual - expected))) if expected.size else 0.0
    expect(np.isfinite(dev) and dev <= rtol * scale,
           f"{what}: deviation {dev:.3e} > {rtol:.0e} x {scale:.3e}")


# ---------------------------------------------------------------------------
# command-line experiments


def cli_report(result, command, seed):
    """Exit code 0 and a well-formed report for ``command``; returns it."""
    code, path = result
    expect(code == 0, f"exit code {code}")
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    expect(report.get("command") == command, f"report command {report.get('command')!r}")
    expect(report.get("seed") == seed, f"report seed {report.get('seed')!r}")
    verdicts = report.get("verdicts", {})
    expect(verdicts and all(verdicts.values()), f"verdicts {verdicts}")
    expect(all(np.isfinite(v) for v in report.get("metrics", {}).values()),
           "non-finite report metric")
    return report


def cli_spectrum(report, k):
    lam = np.asarray(report["eigenvalues"])
    expect(lam.shape == (k,), f"{lam.shape[0]} eigenvalues, expected {k}")
    expect(np.all(np.diff(lam) >= 0), "eigenvalues not ascending")
    expect(abs(lam[0]) <= 1e-8, f"lowest eigenvalue {lam[0]:.3e} is not zero")


def cli_group_table(report, order, cyclic):
    table = np.asarray(report["table"])
    expect(table.shape == (order, order), f"table shape {table.shape}, order {order}")
    idx = np.arange(order)
    expect(np.array_equal(table[0], idx) and np.array_equal(table[:, 0], idx),
           "element 0 is not the identity")
    expect(np.all(np.sort(table, axis=1) == idx) and np.all(np.sort(table, axis=0) == idx[:, None]),
           "table is not a Latin square")
    if cyclic:
        expect(np.array_equal(table, (idx[:, None] + idx[None, :]) % order),
               "cyclic table is not addition mod n")


# ---------------------------------------------------------------------------
# meshes and spectra


def cotan_oracle(vertices, faces):
    """Cotangent stiffness and lumped mass by vectorised scatter-add."""
    v, f = vertices, faces
    n = v.shape[0]
    rows, cols, vals = [], [], []
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        e1 = v[f[:, j]] - v[f[:, i]]
        e2 = v[f[:, k]] - v[f[:, i]]
        half_cot = 0.5 * np.einsum("ij,ij->i", e1, e2) / np.linalg.norm(np.cross(e1, e2), axis=1)
        rows += [f[:, j], f[:, k]]
        cols += [f[:, k], f[:, j]]
        vals += [-half_cot, -half_cot]
    off = sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                        shape=(n, n)).tocsr()
    stiffness = off - sp.diags(np.asarray(off.sum(axis=1)).ravel())
    areas = 0.5 * np.linalg.norm(np.cross(v[f[:, 1]] - v[f[:, 0]], v[f[:, 2]] - v[f[:, 0]]), axis=1)
    mass = np.bincount(f.ravel(), weights=np.repeat(areas / 3.0, 3), minlength=n)
    return stiffness, mass


def _sparse_max_abs(a):
    a = sp.csr_matrix(a)
    return float(np.max(np.abs(a.data))) if a.nnz else 0.0


def laplacian_pair(mesh, pair):
    n = mesh.n_vertices
    expect(pair.stiffness.shape == (n, n) and pair.mass.shape == (n, n), "operator shape")
    stiffness, mass = cotan_oracle(mesh.vertices, mesh.faces)
    scale = _sparse_max_abs(stiffness)
    dev = _sparse_max_abs(pair.stiffness - stiffness)
    expect(dev <= 1e-10 * scale, f"stiffness deviates by {dev:.3e} from the oracle")
    expect(float(np.max(np.abs(pair.stiffness @ np.ones(n)))) <= 1e-12 * scale,
           "constants are not in the kernel")
    diag = pair.mass.diagonal()
    expect(_sparse_max_abs(pair.mass - sp.diags(diag)) == 0.0, "mass matrix is not diagonal")
    close(diag, mass, 1e-12, "lumped mass")


def _same_operator(a, b, what):
    expect(a.shape == b.shape and _sparse_max_abs(a - b) == 0.0, f"{what} differs from the input")


def spectral_basis(pair, basis, k):
    """Generalized eigenpairs: residual, M-orthonormality, sign convention,
    and eigenvalues against shift-invert ARPACK."""
    lam, phi = basis.eigenvalues, basis.vectors
    n = pair.n
    expect(basis.k == k and lam.shape == (k,) and phi.shape == (n, k), "basis shape")
    _same_operator(basis.stiffness, pair.stiffness, "basis stiffness")
    _same_operator(basis.mass, pair.mass, "basis mass")
    expect(np.all(np.diff(lam) >= 0), "eigenvalues not ascending")
    l_phi = pair.stiffness @ phi
    m_phi = pair.mass @ phi
    close(l_phi, m_phi * lam, 1e-8, "eigen residual L phi - M phi lambda")
    close(phi.T @ m_phi, np.eye(k), 1e-8, "M-orthonormality")
    peak = phi[np.argmax(np.abs(phi), axis=0), np.arange(k)]
    expect(np.all(peak > 0), "largest-magnitude entry of an eigenvector is negative")
    v0 = np.ones(n) / np.sqrt(n)
    ref = spla.eigsh(sp.csc_matrix(pair.stiffness), k=k, M=sp.csc_matrix(pair.mass),
                     sigma=-1e-2, which="LM", v0=v0, return_eigenvectors=False)
    close(lam, np.sort(ref), 1e-8, "eigenvalues vs shift-invert ARPACK")


def _horner(pair, coefficients, x):
    dinv = 1.0 / pair.mass.diagonal()
    dinv = dinv.reshape((-1,) + (1,) * (x.ndim - 1))
    y = coefficients[-1] * x
    for alpha in coefficients[-2::-1]:
        y = alpha * x + dinv * (pair.stiffness @ y)
    return y


def poly_filter(pair, coefficients, x, y):
    close(y, _horner(pair, coefficients, x), 1e-9, "polynomial filter vs Horner")


def _cayley_gain(coefficients, lam):
    ratio = (lam - 1j) / (lam + 1j)
    return np.real(sum(a * ratio**ell for ell, a in enumerate(coefficients)))


def cayley_filter_lu(pair, coefficients, x, y):
    """Oracle: one sparse complex LU of (L + iM), since
    (M^-1 L + iI)^-1 (M^-1 L - iI) = (L + iM)^-1 (L - iM)."""
    lu = spla.splu(sp.csc_matrix(pair.stiffness + 1j * pair.mass))
    minus = sp.csr_matrix(pair.stiffness - 1j * pair.mass)
    z = x.astype(complex)
    out = coefficients[0] * z
    for alpha in coefficients[1:]:
        z = lu.solve(minus @ z)
        out = out + alpha * z
    close(y, out.real, 1e-8, "Cayley filter vs sparse LU")


def cayley_filter_eigen(pair, coefficients, xs, ys):
    """Oracle: the Cayley transfer evaluated in the full dense eigenbasis."""
    mass = pair.mass.diagonal()
    lam, phi = sla.eigh(pair.stiffness.toarray(), np.diag(mass))
    gain = _cayley_gain(np.asarray(coefficients), lam)
    expect(len(xs) == len(ys), "one output per signal")
    for x, y in zip(xs, ys):
        close(y, phi @ (gain * (phi.T @ (mass * x))), 1e-8, "Cayley filter vs eigenbasis")


def fourier_and_transfer(basis, coefficients, transfer, result):
    """Signals synthesised as ``x = Phi c`` have Fourier coefficients ``c``
    and filter to ``Phi (g(lambda) c)``."""
    coeffs, filtered = result
    close(coeffs, coefficients, 1e-9, "Fourier coefficients of a synthesised signal")
    expected = basis.vectors @ (transfer(basis.eigenvalues) * coefficients)
    close(filtered, expected, 1e-9, "direct transfer of a synthesised signal")


# ---------------------------------------------------------------------------
# graphs


_ACT = {"tanh": np.tanh, "relu": lambda x: np.maximum(x, 0.0), "identity": lambda x: x}


def mlp(params, x):
    act = _ACT[params.activation]
    for w, b in zip(params.weights, params.biases):
        x = act(x @ w.T + b)
    return x


def _segment_sum(rows, values, n):
    out = np.zeros((n,) + values.shape[1:])
    np.add.at(out, rows, values)
    return out


def gnn_oracle(graph, flavour, params):
    """The three GNN flavours as gather, per-edge compute, scatter-add."""
    adj = sp.csr_matrix(graph.adjacency)
    rows, cols = adj.nonzero()
    x = graph.features
    n = x.shape[0]
    if flavour == "conv":
        deg = np.diff(adj.indptr) + 1.0
        msgs = mlp(params.psi, x[cols]) / np.sqrt(deg[rows] * deg[cols])[:, None]
    elif flavour == "attn":
        logits = np.tanh(x[rows] @ params.att_w.T + x[cols] @ params.att_u.T) @ params.att_q
        top = np.full(n, -np.inf)
        np.maximum.at(top, rows, logits)
        weights = np.exp(logits - top[rows])
        weights = weights / np.bincount(rows, weights=weights, minlength=n)[rows]
        msgs = mlp(params.psi, x[cols]) * weights[:, None]
    else:
        msgs = mlp(params.psi, np.concatenate([x[rows], x[cols]], axis=1))
    return mlp(params.phi, np.concatenate([x, _segment_sum(rows, msgs, n)], axis=1))


def permuted_graph_arrays(adjacency, features, p):
    """Adjacency ``P A P^T`` and features ``P X`` for ``p[u]`` = new label of ``u``."""
    coo = sp.coo_matrix(adjacency)
    n = features.shape[0]
    adj = sp.csr_matrix((coo.data, (p[coo.row], p[coo.col])), shape=(n, n))
    feats = np.empty_like(features)
    feats[p] = features
    return adj, feats


def gnn_layer(graph, flavour, params, out):
    close(out, gnn_oracle(graph, flavour, params), 1e-10, f"gnn {flavour} vs edge-wise oracle")


def gnn_permutation(out, permuted_out, p):
    expected = np.empty_like(out)
    expected[p] = out
    dev = float(np.max(np.abs(permuted_out - expected)))
    expect(dev <= 1e-11, f"permutation equivariance deviation {dev:.3e}")


def permuted_graph(graph, p, result):
    adj, feats = permuted_graph_arrays(graph.adjacency, graph.features, p)
    expect(result.adjacency.shape == adj.shape and _sparse_max_abs(result.adjacency - adj) == 0.0,
           "adjacency is not P A P^T")
    expect(np.array_equal(result.features, feats), "features are not P X")
    expect(result.undirected == graph.undirected
           and result.allow_self_loops == graph.allow_self_loops, "graph flags changed")


def wl_histograms(graph, rounds, histograms):
    """Colour refinement re-derived with per-round interning."""
    adj = sp.csr_matrix(graph.adjacency)
    n = adj.shape[0]
    colours = np.zeros(n, dtype=int)
    expected = [(n,)]
    for _ in range(rounds):
        sigs = [(colours[u], tuple(sorted(colours[adj.indices[adj.indptr[u]:adj.indptr[u + 1]]])))
                for u in range(n)]
        ids = {s: i for i, s in enumerate(sorted(set(sigs)))}
        colours = np.array([ids[s] for s in sigs])
        expected.append(tuple(sorted(np.bincount(colours).tolist())))
    expect([tuple(h) for h in histograms] == expected, "colour histograms differ from the oracle")


def egnn_oracle(geo_graph, params):
    """E(3)-equivariant layer as gather, per-edge compute, scatter-add."""
    edges = np.asarray(geo_graph.edges, dtype=int).reshape(-1, 2)
    both = np.unique(np.concatenate([edges, edges[:, ::-1]]), axis=0)
    rows, cols = both[:, 0], both[:, 1]
    f, x = geo_graph.features, geo_graph.positions
    n = x.shape[0]
    diff = x[rows] - x[cols]
    pair = np.concatenate([f[rows], f[cols], np.sum(diff**2, axis=1, keepdims=True)], axis=1)
    aggregate = _segment_sum(rows, mlp(params.psi_f, pair), n)
    new_x = x + _segment_sum(rows, mlp(params.psi_c, pair) * diff, n)
    return mlp(params.phi, np.concatenate([f, aggregate], axis=1)), new_x


def egnn_layer(geo_graph, params, result):
    new_f, new_x = result
    ref_f, ref_x = egnn_oracle(geo_graph, params)
    close(new_f, ref_f, 1e-10, "egnn features vs edge-wise oracle")
    close(new_x, ref_x, 1e-10, "egnn positions vs edge-wise oracle")


def egnn_permutation(result, permuted_result, p):
    for a, b, what in zip(result, permuted_result, ("features", "positions")):
        expected = np.empty_like(a)
        expected[p] = a
        dev = float(np.max(np.abs(b - expected)))
        expect(dev <= 1e-11, f"egnn {what} permutation deviation {dev:.3e}")


# ---------------------------------------------------------------------------
# gauge pipeline


def rep_stack(orders, angles):
    """Block-diagonal rotation representations, one per angle: (m, d, d)."""
    angles = np.asarray(angles, dtype=float)
    dim = sum(1 if m == 0 else 2 for m in orders)
    out = np.zeros(angles.shape + (dim, dim))
    pos = 0
    for m in orders:
        if m == 0:
            out[..., pos, pos] = 1.0
            pos += 1
        else:
            c, s = np.cos(m * angles), np.sin(m * angles)
            out[..., pos, pos], out[..., pos, pos + 1] = c, -s
            out[..., pos + 1, pos], out[..., pos + 1, pos + 1] = s, c
            pos += 2
    return out


def _directed_edges(mesh):
    f = mesh.faces
    pairs = np.concatenate([f[:, [0, 1]], f[:, [1, 2]], f[:, [2, 0]]])
    return np.unique(np.concatenate([pairs, pairs[:, ::-1]]), axis=0)


def gauge_conv_oracle(mesh, conn, kernel, x):
    edges = _directed_edges(mesh)
    n_bins = kernel.theta_neigh.shape[0]
    step = TWO_PI / n_bins
    theta = np.array([conn.theta[(u, v)] for u, v in edges])
    transport = np.array([conn.transport[(v, u)] for u, v in edges])
    bins = np.round(theta / step).astype(int) % n_bins
    snapped = (np.round(transport / step) % n_bins) * step
    moved = np.einsum("eij,ej->ei", rep_stack(kernel.orders_in, snapped), x[edges[:, 1]])
    msgs = np.einsum("eij,ej->ei", kernel.theta_neigh[bins], moved)
    return x @ kernel.theta_self.T + _segment_sum(edges[:, 0], msgs, mesh.n_vertices)


def _constraint_residual(kernel):
    n_bins = kernel.theta_neigh.shape[0]
    alphas = TWO_PI * np.arange(n_bins) / n_bins
    rin = rep_stack(kernel.orders_in, alphas)
    rout = rep_stack(kernel.orders_out, alphas)
    worst = np.max(np.abs(kernel.theta_self @ rin - rout @ kernel.theta_self))
    for s in range(n_bins):
        shifted = np.roll(kernel.theta_neigh, -s, axis=0)  # bin (b + s) at index b
        worst = max(worst, np.max(np.abs(shifted @ rin[s] - rout[s] @ kernel.theta_neigh)))
    return float(worst)


def gauge_pipeline(mesh, inputs, result):
    frames, conn, basis, kernel, out, (frames2, conn2, x2) = result
    x, angles, coefficients = inputs["x"], inputs["angles"], inputs["coefficients"]
    v, f = mesh.vertices, mesh.faces
    n = mesh.n_vertices
    # frames: area-weighted normals, reference direction toward the lowest neighbour
    normals = _segment_sum(f.ravel(), np.repeat(
        np.cross(v[f[:, 1]] - v[f[:, 0]], v[f[:, 2]] - v[f[:, 0]]), 3, axis=0), n)
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    close(frames.normal, normals, 1e-10, "vertex normals")
    close(np.cross(frames.e1, frames.e2), frames.normal, 1e-10, "e1 x e2 = normal")
    close(np.linalg.norm(frames.e1, axis=1), np.ones(n), 1e-10, "unit e1")
    edges = _directed_edges(mesh)
    lowest = np.full(n, n)
    np.minimum.at(lowest, edges[:, 0], edges[:, 1])
    ref = v[lowest] - v
    ref -= np.einsum("ij,ij->i", ref, normals)[:, None] * normals
    close(frames.e1, ref / np.linalg.norm(ref, axis=1, keepdims=True), 1e-10, "reference direction")
    # log map and transport
    keys = {tuple(e) for e in edges.tolist()}
    expect(set(conn.theta) == keys and set(conn.transport) == keys, "connection edge set")
    theta = np.array([conn.theta[(u, w)] for u, w in edges])
    expect(np.all((theta >= 0) & (theta < TWO_PI)), "polar angle outside [0, 2 pi)")
    expect(all(conn.theta[(u, int(lowest[u]))] == 0.0 for u in range(n)),
           "reference neighbour not at angle zero")
    close(np.array([conn.radius[(u, w)] for u, w in edges]),
          np.linalg.norm(v[edges[:, 1]] - v[edges[:, 0]], axis=1), 1e-12, "edge radii")
    back = np.array([conn.theta[(w, u)] for u, w in edges])
    g = np.array([conn.transport[(w, u)] for u, w in edges])
    close(np.mod(g - (theta + np.pi - back) + np.pi, TWO_PI) - np.pi, np.zeros(len(g)), 1e-12,
          "transport angle")
    # kernel basis and combination
    expect(len(basis) > 0, "empty kernel basis")
    flat = np.stack([np.concatenate([k.theta_self.ravel(), k.theta_neigh.ravel()]) for k in basis])
    close(flat @ flat.T, np.eye(len(basis)), 1e-10, "kernel basis orthonormality")
    for k in basis:
        expect(_constraint_residual(k) <= 1e-8, "basis kernel violates the gauge constraints")
    close(kernel.theta_self, sum(c * k.theta_self for c, k in zip(coefficients, basis)), 1e-12,
          "combined self kernel")
    close(kernel.theta_neigh, sum(c * k.theta_neigh for c, k in zip(coefficients, basis)), 1e-12,
          "combined neighbour kernel")
    # convolution, gauge transform and equivariance
    close(out, gauge_conv_oracle(mesh, conn, kernel, x), 1e-10, "gauge conv vs edge-wise oracle")
    cos, sin = np.cos(angles)[:, None], np.sin(angles)[:, None]
    close(frames2.e1, cos * frames.e1 + sin * frames.e2, 1e-12, "rotated e1")
    close(frames2.e2, -sin * frames.e1 + cos * frames.e2, 1e-12, "rotated e2")
    close(frames2.normal, frames.normal, 0.0, "normals kept")
    back_rot = rep_stack(kernel.orders_in, -angles)
    close(x2, np.einsum("nij,nj->ni", back_rot, x), 1e-12, "features in the new gauge")
    transformed = gauge_conv_oracle(mesh, conn2, kernel, x2)
    expected = np.einsum("nij,nj->ni", rep_stack(kernel.orders_out, -angles), out)
    close(transformed, expected, 1e-8, "gauge equivariance")


# ---------------------------------------------------------------------------
# groups and grids


def group_closure(domain_size, generators, order, result):
    group, action = result
    table, perms = group.table, action.perms
    expect(table.shape == (order, order) and perms.shape == (order, domain_size),
           f"order {table.shape[0]}, expected {order}")
    expect(action.group is group, "action belongs to another group")
    idx = np.arange(domain_size)
    expect(np.array_equal(perms[0], idx) and group.identity == 0, "element 0 is not the identity")
    expect(np.all(np.sort(perms, axis=1) == idx), "element is not a permutation")
    expect(np.unique(perms, axis=0).shape[0] == order, "repeated group element")
    for gen in generators:
        expect(np.any(np.all(perms == gen, axis=1)), "generator missing from the group")
    for i in range(order):
        expect(np.array_equal(perms[table[i]], perms[i][perms]),
               f"table row {i} disagrees with composing the permutations")
    inv = group.inverses
    expect(np.all(table[np.arange(order), inv] == 0) and np.all(table[inv, np.arange(order)] == 0),
           "wrong inverse")


def regular_representation(group, rep):
    n = group.order
    expected = np.zeros((n, n, n))
    g, h = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    expected[g, group.table, h] = 1.0
    expect(rep.group is group, "representation of another group")
    expect(np.array_equal(rep.matrices, expected), "matrix is not left translation by the table")


def transform_convolve(x, theta, h_perms, out):
    n, c = x.shape
    rows = []
    fx = np.fft.fft(x, axis=0)
    for perm in h_perms:
        inv = np.empty_like(perm)
        inv[perm] = np.arange(perm.shape[0])
        theta_h = theta.reshape(-1)[inv].reshape(n, c)
        rows.append(np.fft.ifft(fx * np.conj(np.fft.fft(theta_h, axis=0)), axis=0).real.sum(axis=1))
    close(out, np.stack(rows), 1e-10, "transform+convolve vs FFT correlation")


def circulant(theta, x, y):
    columns = x.reshape(x.shape[0], -1)
    expected = np.fft.ifft(np.fft.fft(theta)[:, None] * np.fft.fft(columns, axis=0), axis=0).real
    close(y, expected.reshape(y.shape), 1e-10, "circulant apply vs FFT convolution")


def dft(x, y):
    close(y, np.fft.fft(x) / np.sqrt(x.shape[0]), 1e-9, "dft vs numpy FFT")


def rnn_steps(z, h0, params, out):
    prev = np.vstack([h0, out[:-1]])
    close(out, np.tanh(z @ params.w.T + prev @ params.u.T + params.b), 1e-12,
          "simple RNN step recurrence")


def lstm_steps(z, h0, c0, params, result):
    h, c = result
    h_prev = np.vstack([h0, h[:-1]])
    c_prev = np.vstack([c0, c[:-1]])

    def gate(w, u, b):
        return 1.0 / (1.0 + np.exp(-(z @ w.T + h_prev @ u.T + b)))

    candidate = np.tanh(z @ params.w_c.T + h_prev @ params.u_c.T + params.b_c)
    c_new = (gate(params.w_i, params.u_i, params.b_i) * candidate
             + gate(params.w_f, params.u_f, params.b_f) * c_prev)
    close(c, c_new, 1e-12, "LSTM cell recurrence")
    close(h, gate(params.w_o, params.u_o, params.b_o) * np.tanh(c_new), 1e-12,
          "LSTM summary recurrence")
