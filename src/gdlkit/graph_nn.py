"""Permutation-symmetric layers on sets and graphs: Deep Sets, the two
linear set generators, the three spatial GNN flavours (convolutional,
attentional, message-passing), self-attention on the complete graph with
optional positional encodings, and Weisfeiler-Lehman colour refinement.

This module owns the adjacency format.  A :class:`Graph` holds the
canonical CSR index ``(receivers, senders, indptr)`` (edges sorted by
receiver then sender, the edges into ``u`` at ``indptr[u]:indptr[u + 1]``)
and its weights in edge order; its ``adjacency`` is a scipy matrix
assembled on read for callers.  :func:`_canonical_index` is the only place
entries become that index: one numpy sort of the keys ``receiver * n +
sender``, duplicates collapsed.  Edge lists, the geometric graphs of
:mod:`gdlkit.equivariant_geo`, the transformer's complete graph, the
relabelling of :func:`permute_graph`, the symmetry check of a caller's
matrix, the mesh edges and half-edge index of :mod:`gdlkit.mesh_core` and
the gauge spokes all go through it; only a caller's matrix is read by
scipy.  A transform that reads one endpoint only (the convolutional and
attentional sender transform ``psi``, the two attention projections) runs
once per node and is gathered per edge; one that reads both endpoints (the
message-passing ``psi`` on ``x_u || x_v``, the attention score) runs per
edge.  Messages are summed with :func:`tree_sum` in that fixed order, so
permuted inputs agree to near machine precision.
"""

from dataclasses import dataclass

import numpy as np

from .rng import substream


@dataclass(frozen=True)
class MlpParams:
    """Dense layers ``x -> tanh(W x + b)``; an empty layer list is the identity."""

    weights: list
    biases: list
    activation = "tanh"  # a class constant, not a field

    def __post_init__(self):
        if len(self.weights) != len(self.biases):
            raise ValueError("one bias per weight matrix required")
        for w, b in zip(self.weights, self.biases):
            if w.shape[0] != b.shape[0]:
                raise ValueError("weight/bias shapes incompatible")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValueError("non-finite parameters")

    @property
    def out_width(self):
        return self.weights[-1].shape[0] if self.weights else None

    def apply(self, x):
        """Apply to a vector or row-wise to a matrix."""
        out = np.asarray(x, dtype=float)
        single = out.ndim == 1
        if single:
            out = out[None, :]
        for w, b in zip(self.weights, self.biases):
            out = np.tanh(out @ w.T + b)
        return out[0] if single else out


def mlp_init(widths, rng):
    """Seeded uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) initialisation."""
    weights, biases = [], []
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(rng.uniform(-bound, bound, size=fan_out))
    return MlpParams(weights=weights, biases=biases)


def _canonical_index(n, rows, cols, data=None):
    """The one place entries become the edge index: ``(receivers, senders,
    indptr)`` of the entries ``(rows[i], cols[i])`` on ``n`` nodes, from one
    sort of the keys ``rows * n + cols``, and their data in that order.

    Without ``data`` the entries are binary and duplicates collapse to one
    edge of data 1.  With ``data`` (``np.arange`` for the sort order) the
    entries are only sorted: repeated entries stay, on adjacent rows.
    """
    key = np.asarray(rows, dtype=np.int64) * n + cols
    if data is None:
        key = np.sort(key)
        keep = np.ones(key.shape, dtype=bool)
        np.not_equal(key[1:], key[:-1], out=keep[1:])
        key = key[keep]
        data = np.ones(key.shape[0])
    else:
        order = np.argsort(key)
        key, data = key[order], data[order]
    receivers = key // n
    indptr = np.zeros(n + 1, dtype=int)
    np.cumsum(np.bincount(receivers, minlength=n), out=indptr[1:])
    return (receivers, key - receivers * n, indptr), data


def _undirected_index(n, edges):
    """``edges`` checked as an ``(E, 2)`` int array of node pairs in
    ``range(n)``, and the canonical index, with data, of both orientations
    of every pair."""
    pairs = np.asarray(edges)
    if pairs.size == 0:
        pairs = pairs.reshape(0, 2)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError(f"edges must be node pairs of shape (E, 2), got shape {pairs.shape}")
    pairs = check_indices(pairs, n, f"edge endpoints must be integers in range({n})")
    both = np.concatenate([pairs, pairs[:, ::-1]])
    return pairs, _canonical_index(n, both[:, 0], both[:, 1])


def edge_index(adjacency):
    """``(receivers, senders, indptr)`` of a canonical CSR adjacency, as ints."""
    indptr = adjacency.indptr.astype(int)
    receivers = np.repeat(np.arange(adjacency.shape[0]), np.diff(indptr))
    return receivers, adjacency.indices.astype(int), indptr


@dataclass(frozen=True, init=False, eq=False)
class Graph:
    """Node features, the canonical ``edge_index`` (the one way layers read
    edges) and ``weights``, one finite positive weight per edge in its order
    (ones for edge lists), read by no layer.  The constructor takes a scipy
    or dense matrix; ``adjacency`` is a CSR matrix assembled on each read."""

    features: np.ndarray
    weights: np.ndarray
    undirected: bool = True
    allow_self_loops: bool = False

    def __init__(self, adjacency, features, undirected=True, allow_self_loops=False):
        import scipy.sparse as sp
        adj = sp.csr_matrix(adjacency, dtype=float, copy=True)
        adj.sum_duplicates()
        adj.eliminate_zeros()
        n = features.shape[0]
        if adj.shape != (n, n):
            raise ValueError("adjacency must be square and match the feature rows")
        receivers, senders, _ = index = edge_index(adj)
        bad = adj.data[~(np.isfinite(adj.data) & (adj.data > 0))]
        if bad.size:
            raise ValueError(f"adjacency entries must be finite and positive, got {bad[0]}")
        if undirected:
            # the transposed entries, sorted, must be the entries themselves
            (rt, st, _), data = _canonical_index(n, senders, receivers, adj.data)
            if not all(map(np.array_equal, (rt, st, data), (receivers, senders, adj.data))):
                raise ValueError("undirected graph requires symmetric adjacency")
        _fill(self, index, adj.data, features, undirected, allow_self_loops)

    @property
    def n(self):
        return self.features.shape[0]

    @property
    def adjacency(self):
        import scipy.sparse as sp
        _, senders, indptr = self.edge_index
        return sp.csr_matrix((self.weights, senders, indptr), shape=(self.n, self.n), copy=True)


def _fill(g, index, weights, features, undirected=True, allow_self_loops=False):
    """``g`` holding a canonical index, its weights and the features, once checked."""
    receivers, senders, indptr = index
    if indptr.shape[0] != features.shape[0] + 1:
        raise ValueError("adjacency must be square and match the feature rows")
    if not allow_self_loops and np.any(receivers == senders):
        raise ValueError("self-loops present but not flagged")
    if not np.all(np.isfinite(features)):
        raise ValueError("non-finite node features")
    g.__dict__.update(features=features, weights=weights, edge_index=index,
                      undirected=undirected, allow_self_loops=allow_self_loops)
    return g


def graph_from_edges(n, edges, features):
    """Undirected graph without self-loops from an edge list."""
    _, (index, weights) = _undirected_index(n, edges)
    return _fill(object.__new__(Graph), index, weights, np.asarray(features, dtype=float))


def check_indices(p, n, reason):
    """``p`` as ints if every entry is an integer in ``range(n)``, else
    ``ValueError(reason)``; float entries must be integral."""
    p = np.asarray(p)
    if p.dtype.kind == "f" and not np.all(np.isfinite(p) & (p == np.round(p))):
        raise ValueError(reason)
    p = p.astype(int)
    if p.size and (p.min() < 0 or p.max() >= n):
        raise ValueError(reason)
    return p


def check_permutation(p, n):
    """``p`` as ints if it permutes ``range(n)``; float entries must be integral."""
    reason = f"not a permutation of range({n})"
    p = check_indices(p, n, reason)
    if p.shape != (n,) or not np.array_equal(np.sort(p), np.arange(n)):
        raise ValueError(reason)
    return p


def permute_graph(g, p):
    """Relabel nodes: features ``P X``, adjacency ``P A P^T``; pure index moves.

    ``p[u]`` is the new label of old node ``u``.
    """
    p = check_permutation(p, g.n)
    receivers, senders, _ = g.edge_index
    # a bijection keeps a canonical index duplicate-free, and symmetric if it was
    index, weights = _canonical_index(g.n, p[receivers], p[senders], g.weights)
    feats = np.empty_like(g.features)
    feats[p] = g.features
    return _fill(object.__new__(Graph), index, weights, feats, g.undirected, g.allow_self_loops)


def tree_sum(values, indptr):
    """Segment sums of an (m, ...) stack: row ``u`` of the result sums
    ``values[indptr[u]:indptr[u + 1]]`` in storage order; empty segments
    give zero.

    Used for every neighbourhood aggregation so results are reproducible
    to ~1e-12 under permutations of the inputs.
    """
    values = np.asarray(values, dtype=float)
    indptr = np.asarray(indptr)
    out = np.zeros((indptr.shape[0] - 1,) + values.shape[1:])
    filled = indptr[:-1] < indptr[1:]
    out[filled] = np.add.reduceat(values, indptr[:-1][filled], axis=0)
    return out


def deepsets_forward(x, psi, phi):
    """Permutation-invariant set readout ``phi(sum_u psi(x_u))``.

    The empty set contributes the zero vector of psi's output width.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError("expected an (n, d) feature matrix")
    return phi.apply(tree_sum(psi.apply(x), [0, x.shape[0]])[0])


def set_linear_equivariant(x, alpha, beta):
    """The two linear permutation-equivariant generators on sets:
    ``alpha * X + beta * mean-over-rows`` (identity and average)."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError("expected a non-empty (n, d) feature matrix")
    return alpha * x + beta * np.mean(x, axis=0, keepdims=True)


@dataclass(frozen=True)
class GnnParams:
    """Parameters for one spatial GNN layer.

    ``psi`` transforms sender features (input width 2d for the
    message-passing flavour, which sees the concatenated pair).  The update
    is ``phi([x_u || aggregate])``.  ``att_*`` parameterise the attention
    score ``q^T tanh(W x_u + U x_v)``, softmax-normalised over the
    neighbourhood.
    """

    psi: MlpParams
    phi: MlpParams
    att_w: np.ndarray = None
    att_u: np.ndarray = None
    att_q: np.ndarray = None


def gnn_params(d, hidden, out, flavour, seed):
    rng = substream(seed, f"gnn-params-{flavour}")
    psi_in = 2 * d if flavour == "mpnn" else d
    psi = mlp_init([psi_in, hidden], rng)
    phi = mlp_init([d + hidden, out], rng)
    att_w = att_u = att_q = None
    if flavour == "attn":
        bound = 1.0 / np.sqrt(d)
        att_w = rng.uniform(-bound, bound, size=(hidden, d))
        att_u = rng.uniform(-bound, bound, size=(hidden, d))
        att_q = rng.uniform(-1.0 / np.sqrt(hidden), 1.0 / np.sqrt(hidden), size=hidden)
    return GnnParams(psi=psi, phi=phi, att_w=att_w, att_u=att_u, att_q=att_q)


def conv_coefficient(g, u, v):
    """``1 / sqrt(d_u d_v)``, ``d_u = deg_u + 1``; ``u``, ``v`` may be index arrays."""
    degree = np.diff(g.edge_index[2]) + 1.0
    return 1.0 / np.sqrt(degree[u] * degree[v])


def gnn_forward(g, flavour, params, attention_fn=None, message_fn=None):
    """One GNN layer ``h_u = phi(x_u, aggregate of messages from N_u)``.

    flavour 'conv': messages ``c_uv psi(x_v)`` with the symmetric degree
    normalisation; 'attn': ``a(x_u, x_v) psi(x_v)`` with softmax-normalised
    scores; 'mpnn': ``psi(x_u || x_v)``.  ``attention_fn(g, receivers,
    senders)`` and ``message_fn(x_receivers, x_senders)`` override the
    respective mechanisms on the whole edge index at once (used by the
    flavour-containment checks).  ``psi`` of 'conv' and 'attn' and the
    projections ``W x``, ``U x`` are computed once per node and gathered per
    edge, as GCN forms ``X W`` before it aggregates.  Empty neighbourhoods
    aggregate to the zero vector.
    """
    if flavour not in ("conv", "attn", "mpnn"):
        raise ValueError(f"unknown flavour {flavour!r}")
    receivers, senders, indptr = g.edge_index
    x = g.features
    if flavour == "conv":
        msgs = conv_coefficient(g, receivers, senders)[:, None] * params.psi.apply(x)[senders]
    elif flavour == "attn":
        if attention_fn is not None:
            scores = np.asarray(attention_fn(g, receivers, senders), dtype=float)
        else:
            logits = np.tanh((x @ params.att_w.T)[receivers]
                             + (x @ params.att_u.T)[senders]) @ params.att_q
            counts = np.diff(indptr)
            filled = counts > 0
            top = np.maximum.reduceat(logits, indptr[:-1][filled])
            weights = np.exp(logits - np.repeat(top, counts[filled]))
            scores = weights / tree_sum(weights, indptr)[receivers]
        degenerate = ~np.isfinite(scores)
        if degenerate.any():
            raise ValueError(f"degenerate attention at node {receivers[np.argmax(degenerate)]}")
        msgs = scores[:, None] * params.psi.apply(x)[senders]
    elif message_fn is not None:
        msgs = message_fn(x[receivers], x[senders])
    else:
        msgs = params.psi.apply(np.concatenate([x[receivers], x[senders]], axis=1))
    return params.phi.apply(np.concatenate([x, tree_sum(msgs, indptr)], axis=1))


def positional_encoding(n, d):
    """Sinusoidal position features: ``(sin(u w_i), cos(u w_i))`` pairs with
    ``w_i = 10000^{-2i/d}``."""
    if d % 2 != 0:
        raise ValueError("encoding width must be even")
    u = np.arange(n)[:, None]
    i = np.arange(d // 2)[None, :]
    rate = u / np.power(10000.0, 2.0 * i / d)
    enc = np.empty((n, d))
    enc[:, 0::2] = np.sin(rate)
    enc[:, 1::2] = np.cos(rate)
    return enc


def transformer_forward(x, params, use_positional=False):
    """Self-attention over the complete graph (self-edges included).

    With positional encodings concatenated the permutation symmetry is
    deliberately broken; without them the layer is a permutation-
    equivariant attentional GNN.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    if use_positional:
        x = np.concatenate([x, positional_encoding(n, 2 * ((x.shape[1] + 1) // 2))], axis=1)
    _, (index, weights) = _undirected_index(n, np.stack(np.triu_indices(n), axis=1))  # u <= v
    return gnn_forward(_fill(object.__new__(Graph), index, weights, x, True, True), "attn", params)


# ---------------------------------------------------------------------------
# Weisfeiler-Lehman colour refinement


_SIGN_BIT = np.uint64(1 << 63)


def _refine_once(graphs_colours, graphs, table):
    """One shared-interning refinement round across a list of graphs.

    A node's signature is its colour followed by its neighbours' colours in
    ascending order, written as one big-endian 8-byte word per colour with
    the sign bit flipped, so comparing signature bytes compares the colour
    sequences as signed integers, a shorter prefix first: the same order as
    the tuples ``(c, (n_1, ..., n_k))``.  New signatures get ids in that
    order, so ids are canonical, never hash-based.
    """
    signatures = []
    for colours, g in zip(graphs_colours, graphs):
        receivers, senders, indptr = g.edge_index
        # one sort orders the sender colours within each receiver's segment;
        # sorting colour ranks, not colours, keeps the key inside int64
        palette, rank = np.unique(colours, return_inverse=True)
        key = np.sort(receivers * palette.shape[0] + rank[senders])
        starts = indptr + np.arange(indptr.shape[0])
        words = np.empty(starts[-1], dtype=">u8")
        words[starts[:-1]] = colours.view(np.uint64) ^ _SIGN_BIT
        words[np.arange(key.shape[0]) + receivers + 1] = (
            palette[key % palette.shape[0]].view(np.uint64) ^ _SIGN_BIT)
        buf = words.tobytes()
        bounds = (8 * starts).tolist()
        signatures.append([buf[a:b] for a, b in zip(bounds, bounds[1:])])
    for s in sorted(set().union(*signatures).difference(table)):
        table[s] = len(table)
    return [np.array([table[s] for s in sigs], dtype=int) for sigs in signatures]


def _initial_colours(g, colours):
    if colours is None:
        return np.zeros(g.n, dtype=int)
    colours = np.asarray(colours)
    if colours.shape != (g.n,):
        raise ValueError("one initial colour per node required")
    with np.errstate(invalid="ignore"):  # nan and inf fail the round trip below
        ints = colours.astype(int) if colours.dtype.kind in "biuf" else None
    if ints is None or not np.array_equal(ints, colours):
        raise ValueError("initial colours must be integers within int64")
    return ints


def _check_rounds(rounds):
    if not isinstance(rounds, (int, np.integer)) or rounds < 0:
        raise ValueError(f"rounds must be a non-negative integer, got {rounds!r}")


def _histogram(colours):
    _, counts = np.unique(colours, return_counts=True)
    return tuple(sorted(int(c) for c in counts))


def _wl_rounds(graphs, colours, rounds):
    """The colours of every graph after each of ``rounds`` refinement rounds,
    starting from ``colours`` (one array per graph) and interned in one
    table, so that colour ids compare across the graphs."""
    table = {}
    for _ in range(rounds):
        colours = _refine_once(colours, graphs, table)
        yield colours


def wl_refine(g, rounds, colours=None):
    """Colour histograms (sorted counts) for rounds ``0..rounds``.

    Round t+1 colours encode (own colour, sorted multiset of neighbour
    colours).  Each signature is interned as one ``bytes`` key whose byte
    order equals the order of the signature tuples (see
    :func:`_refine_once`), so colour ids do not depend on hashing.
    Refinement is monotone and stabilises after at most ``n`` rounds.
    ``colours`` must be integers within int64 (integral floats are
    accepted); anything else, like a negative ``rounds``, raises
    ``ValueError``.
    """
    _check_rounds(rounds)
    colours = _initial_colours(g, colours)
    return [_histogram(colours)] + [_histogram(c) for (c,) in _wl_rounds([g], [colours], rounds)]


def wl_distinguish(g1, g2, rounds):
    """True iff refinement separates the two graphs within ``rounds`` rounds.

    Colours are interned jointly, and a round separates the graphs when
    their multisets of colours differ, not only their histograms; a False
    answer means WL-indistinguishable (necessary but not sufficient for
    isomorphism).  A negative or non-integer ``rounds`` raises
    ``ValueError``.
    """
    _check_rounds(rounds)
    if g1.n != g2.n:
        return True
    start = [_initial_colours(g1, None), _initial_colours(g2, None)]
    # equal sizes, so equal sorted colours are equal multisets
    return any(not np.array_equal(np.sort(c1), np.sort(c2))
               for c1, c2 in _wl_rounds([g1, g2], start, rounds))
