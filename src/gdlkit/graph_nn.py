"""Permutation-symmetric layers on sets and graphs: Deep Sets, the two
linear set generators, the three spatial GNN flavours (convolutional,
attentional, message-passing), self-attention on the complete graph with
optional positional encodings, and Weisfeiler-Lehman colour refinement.

This module owns the adjacency format: the canonical CSR index
``(receivers, senders, indptr)``, edges sorted by receiver then sender, the
edges into ``u`` at ``indptr[u]:indptr[u + 1]``.  Layers gather per edge,
compute messages, and sum them with :func:`tree_sum` in that fixed order,
so permuted inputs agree to near machine precision.
"""

from dataclasses import dataclass

import numpy as np

from .rng import substream

_ACTIVATIONS = {
    "tanh": np.tanh,
    "relu": lambda x: np.maximum(x, 0.0),
    "identity": lambda x: x,
}


@dataclass(frozen=True)
class MlpParams:
    """Dense layers ``x -> act(W x + b)``; an empty layer list is the identity."""

    weights: list
    biases: list
    activation: str = "tanh"

    def __post_init__(self):
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
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
        act = _ACTIVATIONS[self.activation]
        out = np.asarray(x, dtype=float)
        single = out.ndim == 1
        if single:
            out = out[None, :]
        for w, b in zip(self.weights, self.biases):
            out = act(out @ w.T + b)
        return out[0] if single else out


def mlp_init(widths, rng, activation="tanh"):
    """Seeded uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) initialisation."""
    weights, biases = [], []
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(rng.uniform(-bound, bound, size=fan_out))
    return MlpParams(weights=weights, biases=biases, activation=activation)


def adjacency_from_edges(n, edges):
    """Binary CSR adjacency of an undirected edge list in canonical form:
    indices sorted, duplicate edges collapsed, each edge stored both ways."""
    import scipy.sparse as sp
    pairs = np.asarray(edges, dtype=int).reshape(-1, 2)
    pairs = np.concatenate([pairs, pairs[:, ::-1]])
    adj = sp.csr_matrix((np.ones(pairs.shape[0]), (pairs[:, 0], pairs[:, 1])), shape=(n, n))
    adj.data[:] = 1.0  # collapse duplicate edges
    return adj


def edge_index(adjacency):
    """``(receivers, senders, indptr)`` of a canonical CSR adjacency."""
    indptr = adjacency.indptr
    receivers = np.repeat(np.arange(adjacency.shape[0]), np.diff(indptr))
    return receivers, adjacency.indices, indptr


@dataclass(frozen=True)
class Graph:
    """Node features plus sparse binary adjacency, kept synchronised.
    ``adjacency`` is a canonical copy of the caller's matrix and the
    attribute ``edge_index`` its view, the one way layers read edges."""

    adjacency: "scipy.sparse.csr_matrix"
    features: np.ndarray
    undirected: bool = True
    allow_self_loops: bool = False

    def __post_init__(self):
        import scipy.sparse as sp
        adj = sp.csr_matrix(self.adjacency, dtype=float, copy=True)
        adj.sum_duplicates()
        adj.eliminate_zeros()
        object.__setattr__(self, "adjacency", adj)
        object.__setattr__(self, "edge_index", edge_index(adj))
        n = self.features.shape[0]
        if adj.shape != (n, n):
            raise ValueError("adjacency must be square and match the feature rows")
        if self.undirected and (adj != adj.T).nnz != 0:
            raise ValueError("undirected graph requires symmetric adjacency")
        if not self.allow_self_loops and adj.diagonal().any():
            raise ValueError("self-loops present but not flagged")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("non-finite node features")

    @property
    def n(self):
        return self.features.shape[0]


def graph_from_edges(n, edges, features):
    """Undirected graph without self-loops from an edge list."""
    return Graph(adjacency=adjacency_from_edges(n, edges),
                 features=np.asarray(features, dtype=float))


def check_permutation(p, n):
    """``p`` as ints if it permutes ``range(n)``; float entries must be integral."""
    p = np.asarray(p)
    if p.dtype.kind == "f" and not np.all(np.isfinite(p) & (p == np.round(p))):
        raise ValueError(f"not a permutation of range({n})")
    p = p.astype(int)
    if p.shape != (n,) or not np.array_equal(np.sort(p), np.arange(n)):
        raise ValueError(f"not a permutation of range({n})")
    return p


def permute_graph(g, p):
    """Relabel nodes: features ``P X``, adjacency ``P A P^T``; pure index moves.

    ``p[u]`` is the new label of old node ``u``.
    """
    import scipy.sparse as sp
    p = check_permutation(p, g.n)
    receivers, senders, _ = g.edge_index
    adj = sp.csr_matrix((g.adjacency.data, (p[receivers], p[senders])), shape=(g.n, g.n))
    feats = np.empty_like(g.features)
    feats[p] = g.features
    h = Graph(adjacency=adj, features=feats, undirected=False, allow_self_loops=g.allow_self_loops)
    object.__setattr__(h, "undirected", g.undirected)  # relabelling keeps adj == adj.T
    return h


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
    flavour-containment checks).  Empty neighbourhoods aggregate to the
    zero vector.
    """
    if flavour not in ("conv", "attn", "mpnn"):
        raise ValueError(f"unknown flavour {flavour!r}")
    receivers, senders, indptr = g.edge_index
    x = g.features
    if flavour == "conv":
        msgs = conv_coefficient(g, receivers, senders)[:, None] * params.psi.apply(x[senders])
    elif flavour == "attn":
        if attention_fn is not None:
            scores = np.asarray(attention_fn(g, receivers, senders), dtype=float)
        else:
            logits = np.tanh(x[receivers] @ params.att_w.T
                             + x[senders] @ params.att_u.T) @ params.att_q
            counts = np.diff(indptr)
            filled = counts > 0
            top = np.maximum.reduceat(logits, indptr[:-1][filled])
            weights = np.exp(logits - np.repeat(top, counts[filled]))
            scores = weights / tree_sum(weights, indptr)[receivers]
        degenerate = ~np.isfinite(scores)
        if degenerate.any():
            raise ValueError(f"degenerate attention at node {receivers[np.argmax(degenerate)]}")
        msgs = scores[:, None] * params.psi.apply(x[senders])
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
    import scipy.sparse as sp
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    if use_positional:
        x = np.concatenate([x, positional_encoding(n, 2 * ((x.shape[1] + 1) // 2))], axis=1)
    adj = sp.csr_matrix(np.ones((n, n)))
    g = Graph(adjacency=adj, features=x, undirected=True, allow_self_loops=True)
    return gnn_forward(g, "attn", params)


# ---------------------------------------------------------------------------
# Weisfeiler-Lehman colour refinement


def _refine_once(graphs_colours, graphs, table):
    """One shared-interning refinement round across a list of graphs: gather
    the sender colours per edge and sort them within each receiver's segment."""
    signatures = []
    for colours, g in zip(graphs_colours, graphs):
        receivers, senders, indptr = g.edge_index
        nbrs = colours[senders[np.lexsort((colours[senders], receivers))]]
        signatures.append([(c, tuple(seg.tolist())) for c, seg in
                           zip(colours.tolist(), np.split(nbrs, indptr[1:-1]))])
    # lexicographic interning keeps colour ids canonical, never hash-based
    fresh = sorted({s for sigs in signatures for s in sigs if s not in table})
    for s in fresh:
        table[s] = len(table)
    return [np.array([table[s] for s in sigs], dtype=int) for sigs in signatures]


def _initial_colours(g, colours):
    if colours is None:
        return np.zeros(g.n, dtype=int)
    colours = np.asarray(colours, dtype=int)
    if colours.shape != (g.n,):
        raise ValueError("one initial colour per node required")
    return colours


def _histogram(colours):
    _, counts = np.unique(colours, return_counts=True)
    return tuple(sorted(int(c) for c in counts))


def wl_refine(g, rounds, colours=None):
    """Colour histograms (sorted counts) for rounds ``0..rounds``.

    Round t+1 colours encode (own colour, sorted multiset of neighbour
    colours) via lexicographic string interning; refinement is monotone and
    stabilises after at most ``n`` rounds.
    """
    colours = _initial_colours(g, colours)
    table = {}
    histograms = [_histogram(colours)]
    state = [colours]
    for _ in range(rounds):
        state = _refine_once(state, [g], table)
        histograms.append(_histogram(state[0]))
    return histograms


def wl_distinguish(g1, g2, rounds):
    """True iff refinement separates the two graphs within ``rounds`` rounds.

    Colours are interned jointly so histograms are comparable across the
    graphs; a False answer means WL-indistinguishable (necessary but not
    sufficient for isomorphism).
    """
    c1, c2 = _initial_colours(g1, None), _initial_colours(g2, None)
    if g1.n != g2.n:
        return True
    table = {}
    state = [c1, c2]
    for _ in range(rounds):
        state = _refine_once(state, [g1, g2], table)
        u1, n1 = np.unique(state[0], return_counts=True)
        u2, n2 = np.unique(state[1], return_counts=True)
        if not (np.array_equal(u1, u2) and np.array_equal(n1, n2)):
            return True
    return False
