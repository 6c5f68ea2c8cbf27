import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from gdlkit.graph_nn import (
    Graph,
    MlpParams,
    _canonical_index,
    _refine_once,
    _undirected_index,
    check_permutation,
    conv_coefficient,
    deepsets_forward,
    gnn_forward,
    gnn_params,
    graph_from_edges,
    mlp_init,
    permute_graph,
    positional_encoding,
    set_linear_equivariant,
    transformer_forward,
    tree_sum,
    wl_distinguish,
    wl_refine,
)
from gdlkit.rng import substream

IDENTITY = MlpParams(weights=[], biases=[])


def random_graph(n, d, rng, p=0.35):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.uniform() < p]
    return graph_from_edges(n, edges, rng.standard_normal((n, d)))


def permuted_rows(x, p):
    out = np.empty_like(x)
    out[p] = x
    return out


def raw_permuted_adjacency(g, p):
    """``P A P^T`` as the raw sparse product (unsorted indices) with an
    explicit zero stored after node 0's entries, at a non-edge."""
    pm = sp.csr_matrix((np.ones(g.n), (p, np.arange(g.n))), shape=(g.n, g.n))
    raw = (pm @ g.adjacency @ pm.T).tocsr()
    v = next(w for w in range(1, g.n) if raw[0, w] == 0)
    end = raw.indptr[1]
    indptr = raw.indptr.copy()
    indptr[1:] += 1
    return sp.csr_matrix((np.insert(raw.data, end, 0.0), np.insert(raw.indices, end, v), indptr),
                         shape=raw.shape)


class TestPermuteGraph:
    def test_identity(self):
        g = random_graph(5, 3, np.random.default_rng(0))
        h = permute_graph(g, np.arange(5))
        assert np.array_equal(h.features, g.features)
        assert (h.adjacency != g.adjacency).nnz == 0

    def test_involution_restores(self):
        g = random_graph(6, 2, np.random.default_rng(1))
        p = np.array([1, 0, 3, 2, 5, 4])
        h = permute_graph(permute_graph(g, p), p)
        assert np.array_equal(h.features, g.features)
        assert (h.adjacency != g.adjacency).nnz == 0

    def test_path_relabelling_edge_set(self):
        g = graph_from_edges(3, [(0, 1), (1, 2)], np.eye(3))
        h = permute_graph(g, np.array([2, 0, 1]))
        # node u is relabelled p[u]: edges {0,1},{1,2} -> {2,0},{0,1}
        rows, cols = h.adjacency.nonzero()
        edges = {(min(a, b), max(a, b)) for a, b in zip(rows, cols)}
        assert edges == {(0, 2), (0, 1)}

    def test_relabelling_keeps_direction_flags(self):
        rng = np.random.default_rng(4)
        p = rng.permutation(6)
        undirected = random_graph(6, 2, rng)
        h = permute_graph(undirected, p)
        assert h.undirected and (h.adjacency != h.adjacency.T).nnz == 0
        arcs = sp.csr_matrix((np.ones(5), (np.arange(5), np.arange(1, 6))), shape=(6, 6))
        directed = Graph(adjacency=arcs, features=np.eye(6), undirected=False)
        h = permute_graph(directed, p)
        assert not h.undirected
        assert set(zip(*h.adjacency.nonzero())) == {(p[u], p[u + 1]) for u in range(5)}
        with pytest.raises(ValueError, match="not a permutation"):
            permute_graph(directed, np.zeros(6, dtype=int))

    def test_non_integral_permutation_rejected(self):
        # truncation would read [0.9, 1.0, 2.5] as the identity [0, 1, 2]
        with pytest.raises(ValueError, match="not a permutation"):
            check_permutation([0.9, 1.0, 2.5], 3)
        assert np.array_equal(check_permutation([2.0, 0.0, 1.0], 3), [2, 0, 1])

    def test_self_loop_flag_enforced(self):
        with pytest.raises(ValueError, match="self-loop"):
            graph_from_edges(2, [(0, 0)], np.zeros((2, 1)))

    @pytest.mark.parametrize("undirected", [True, False])
    def test_relabelled_csr_is_the_scipy_relabelling(self, undirected):
        # weighted entries, so that the data must follow the edges' new order
        rng = np.random.default_rng(24)
        a = sp.random(40, 40, density=0.15, random_state=24, format="csr")
        a.setdiag(0.0)
        if undirected:
            a = a + a.T
        g = Graph(adjacency=a, features=rng.standard_normal((40, 2)), undirected=undirected)
        p = rng.permutation(40)
        h = permute_graph(g, p)
        coo = g.adjacency.tocoo()
        oracle = sp.csr_matrix((coo.data, (p[coo.row], p[coo.col])), shape=(40, 40))
        for part in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(h.adjacency, part), getattr(oracle, part)), part
        assert np.array_equal(h.edge_index[2], oracle.indptr)
        assert h.undirected == undirected

    @pytest.mark.parametrize("undirected", [True, False])
    def test_relabelling_carries_the_weights(self, undirected):
        rng = np.random.default_rng(29)
        a = sp.random(30, 30, density=0.2, random_state=29, format="csr")
        a.setdiag(0.0)
        if undirected:
            a = a + a.T
        g = Graph(adjacency=a, features=rng.standard_normal((30, 2)), undirected=undirected)
        p = rng.permutation(30)
        h = permute_graph(g, p)
        # the weight of old edge (u, v) sits on new edge (p[u], p[v])
        new = dict(zip(zip(*(e.tolist() for e in h.edge_index[:2])), h.weights.tolist()))
        old = zip(*(e.tolist() for e in g.edge_index[:2]))
        assert {(p[u], p[v]): w for (u, v), w in zip(old, g.weights.tolist())} == new
        assert h.weights.dtype == g.weights.dtype and len(new) == h.weights.size
        assert np.array_equal(permute_graph(h, np.argsort(p)).weights, g.weights)


def canonical_oracle(n, rows, cols):
    """The index of scipy's COO -> CSR conversion, duplicates summed."""
    csr = sp.coo_matrix((np.ones(rows.shape[0]), (rows, cols)), shape=(n, n)).tocsr()
    csr.sum_duplicates()
    return np.repeat(np.arange(n), np.diff(csr.indptr)), csr.indices, csr.indptr


# small node counts, so that duplicates, both orientations, self-pairs and
# isolated nodes all come up; the empty list too
EDGE_LISTS = st.integers(1, 9).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=25)))


@given(EDGE_LISTS)
@settings(max_examples=300, deadline=None)
def test_canonical_index_is_the_scipy_csr_index(case):
    n, entries = case
    rows, cols = np.array(entries, dtype=int).reshape(-1, 2).T
    index, data = _canonical_index(n, rows, cols)
    for ours, reference in zip(index, canonical_oracle(n, rows, cols)):
        assert np.array_equal(ours, reference)
    assert np.array_equal(data, np.ones(index[0].shape[0]))

    pairs, (index, _) = _undirected_index(n, entries)
    assert np.array_equal(pairs, np.array(entries, dtype=int).reshape(-1, 2))
    both = np.concatenate([pairs, pairs[:, ::-1]])
    for ours, reference in zip(index, canonical_oracle(n, both[:, 0], both[:, 1])):
        assert np.array_equal(ours, reference)


@given(EDGE_LISTS.map(lambda case: (case[0], sorted(set(case[1])))))
@settings(max_examples=200, deadline=None)
def test_distinct_entries_carry_their_data(case):
    n, entries = case
    rows, cols = np.array(entries, dtype=int).reshape(-1, 2).T
    values = np.arange(1.0, rows.shape[0] + 1.0)[::-1]
    (receivers, senders, indptr), data = _canonical_index(n, rows[::-1], cols[::-1], values)
    csr = sp.csr_matrix((values, (rows[::-1], cols[::-1])), shape=(n, n))
    assert np.array_equal(senders, csr.indices) and np.array_equal(indptr, csr.indptr)
    assert np.array_equal(data, csr.data)


@given(EDGE_LISTS)
@settings(max_examples=200, deadline=None)
def test_data_mode_only_sorts_and_keeps_repeats_adjacent(case):
    n, entries = case
    rows, cols = np.array(entries, dtype=int).reshape(-1, 2).T
    (receivers, senders, indptr), order = _canonical_index(n, rows, cols, np.arange(rows.size))
    # every entry kept once, repeats included, each with its own datum
    assert np.array_equal(np.sort(order), np.arange(rows.size))
    assert np.array_equal(receivers, rows[order]) and np.array_equal(senders, cols[order])
    # sorted keys put equal entries on adjacent rows
    key = receivers * n + senders
    assert np.all(key[1:] >= key[:-1])
    assert np.array_equal(indptr, np.searchsorted(receivers, np.arange(n + 1)))


@given(EDGE_LISTS)
@settings(max_examples=200, deadline=None)
def test_edge_lists_build_the_graph_of_their_scipy_matrix(case):
    # the matrix constructor, on scipy's binary CSR of both orientations
    n, entries = case
    pairs = np.array(entries, dtype=int).reshape(-1, 2)
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    both = np.concatenate([pairs, pairs[:, ::-1]])
    matrix = sp.csr_matrix((np.ones(both.shape[0]), (both[:, 0], both[:, 1])), shape=(n, n))
    matrix.data[:] = 1.0
    features = np.arange(2.0 * n).reshape(n, 2)
    listed, oracle = graph_from_edges(n, pairs, features), Graph(adjacency=matrix, features=features)
    for ours, reference in zip((*listed.edge_index, listed.weights),
                               (*oracle.edge_index, oracle.weights)):
        assert ours.dtype == reference.dtype and ours.tobytes() == reference.tobytes()
    for part in ("data", "indices", "indptr"):
        ours, reference = getattr(listed.adjacency, part), getattr(matrix, part)
        assert ours.dtype == reference.dtype and ours.tobytes() == reference.tobytes(), part
        assert getattr(oracle.adjacency, part).tobytes() == reference.tobytes(), part


class TestGraphChecks:
    @pytest.mark.parametrize("dense, undirected, got", [
        ([[0.0, np.nan], [np.nan, 0.0]], True, "nan"),
        ([[0.0, np.nan], [1.0, 0.0]], False, "nan"),
        ([[0.0, -1.0], [-1.0, 0.0]], True, "-1.0"),
        ([[0.0, np.inf], [np.inf, 0.0]], True, "inf"),
    ], ids=["symmetric-nan", "directed-nan", "symmetric-negative", "symmetric-inf"])
    def test_entries_that_are_not_weights_are_refused(self, dense, undirected, got):
        with pytest.raises(ValueError,
                           match=f"^adjacency entries must be finite and positive, got {got}$"):
            Graph(adjacency=sp.csr_matrix(np.array(dense)), features=np.zeros((2, 1)),
                  undirected=undirected)

    def test_value_asymmetry_is_refused(self):
        adj = sp.csr_matrix(np.array([[0.0, 1.0], [2.0, 0.0]]))
        with pytest.raises(ValueError, match="^undirected graph requires symmetric adjacency$"):
            Graph(adjacency=adj, features=np.zeros((2, 1)))
        assert not Graph(adjacency=adj, features=np.zeros((2, 1)), undirected=False).undirected

    def test_pattern_asymmetry_is_refused_but_stored_zeros_are_not_edges(self):
        with pytest.raises(ValueError, match="symmetric"):
            Graph(adjacency=sp.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]])),
                  features=np.zeros((2, 1)))
        stored_zero = sp.csr_matrix((np.array([1.0, 1.0, 0.0]), np.array([1, 0, 2]),
                                     np.array([0, 1, 3, 3])), shape=(3, 3))
        g = Graph(adjacency=stored_zero, features=np.zeros((3, 1)))
        assert g.adjacency.nnz == 2 and np.array_equal(g.edge_index[1], [1, 0])

    def test_unflagged_self_loops_are_refused(self):
        adj = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(ValueError, match="^self-loops present but not flagged$"):
            Graph(adjacency=adj, features=np.zeros((2, 1)))
        g = Graph(adjacency=adj, features=np.zeros((2, 1)), allow_self_loops=True)
        assert np.array_equal(g.edge_index[0], [0, 0, 1])

    def test_features_are_checked_on_every_path(self):
        adj = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        bad = np.array([[0.0], [np.nan]])
        for build in (lambda x: Graph(adjacency=adj, features=x),
                      lambda x: graph_from_edges(2, [(0, 1)], x)):
            with pytest.raises(ValueError, match="^adjacency must be square and match the "
                                                 "feature rows$"):
                build(np.zeros((3, 1)))
            with pytest.raises(ValueError, match="^non-finite node features$"):
                build(bad)
        with pytest.raises(dataclasses.FrozenInstanceError):
            graph_from_edges(2, [(0, 1)], np.zeros((2, 1))).weights = np.zeros(2)

    def test_adjacency_is_a_fresh_matrix_on_each_read(self):
        g = graph_from_edges(4, [(0, 1), (1, 2), (3, 1)], np.zeros((4, 1)))
        weights, index = g.weights.copy(), [part.copy() for part in g.edge_index]
        first = g.adjacency
        first.data[:] = 7.0
        first.indices[:] = 0
        first.indptr[:] = 0
        assert np.array_equal(g.weights, weights) and np.array_equal(g.adjacency.data, weights)
        for ours, reference in zip(g.edge_index, index):
            assert np.array_equal(ours, reference)
        assert (g.adjacency != permute_graph(g, np.arange(4)).adjacency).nnz == 0

    @pytest.mark.parametrize("edges, reason", [
        ([(0, 1.5)], r"^edge endpoints must be integers in range\(3\)$"),
        ([(0, -1)], r"^edge endpoints must be integers in range\(3\)$"),
        ([(0, 3)], r"^edge endpoints must be integers in range\(3\)$"),
        ([(0, 1, 2)], r"^edges must be node pairs of shape \(E, 2\), got shape \(1, 3\)$"),
    ])
    def test_bad_edges_are_refused(self, edges, reason):
        with pytest.raises(ValueError, match=reason):
            graph_from_edges(3, edges, np.zeros((3, 1)))

    def test_edge_arrays_and_integral_floats_are_accepted(self):
        listed = graph_from_edges(3, [(0, 1), (2, 1)], np.zeros((3, 1)))
        for edges in (np.array([[0, 1], [2, 1]]), [(0.0, 1.0), (2.0, 1.0)], np.array([[1, 2], [0, 1]])):
            g = graph_from_edges(3, edges, np.zeros((3, 1)))
            for ours, reference in zip(g.edge_index, listed.edge_index):
                assert np.array_equal(ours, reference)
        assert graph_from_edges(3, [], np.zeros((3, 1))).adjacency.nnz == 0


class TestDeepSets:
    def test_identity_maps_sum(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(deepsets_forward(x, IDENTITY, IDENTITY), [4.0, 6.0])

    def test_empty_set_gives_phi_of_zero(self):
        rng = substream(0, "ds")
        psi = mlp_init([3, 4], rng)
        phi = mlp_init([4, 2], rng)
        out = deepsets_forward(np.zeros((0, 3)), psi, phi)
        assert np.array_equal(out, phi.apply(np.zeros(4)))
        assert np.array_equal(deepsets_forward(np.zeros((0, 3)), IDENTITY, IDENTITY), np.zeros(3))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        prng = substream(1, "ds")
        psi = mlp_init([3, 5], prng)
        phi = mlp_init([5, 2], prng)
        x = rng.standard_normal((9, 3))
        base = deepsets_forward(x, psi, phi)
        for _ in range(10):
            p = rng.permutation(9)
            assert np.max(np.abs(deepsets_forward(x[p], psi, phi) - base)) <= 1e-12


class TestSetLinear:
    def test_generators(self):
        x = np.random.default_rng(3).standard_normal((4, 2))
        assert np.array_equal(set_linear_equivariant(x, 1.0, 0.0), x)
        avg = set_linear_equivariant(x, 0.0, 1.0)
        assert np.allclose(avg, np.tile(x.mean(axis=0), (4, 1)))

    def test_equivariance(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((7, 3))
        p = rng.permutation(7)
        lhs = set_linear_equivariant(x[p], 0.7, -0.3)
        rhs = set_linear_equivariant(x, 0.7, -0.3)[p]
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            set_linear_equivariant(np.zeros((0, 2)), 1.0, 1.0)


class TestGnnForward:
    @pytest.mark.parametrize("flavour", ["conv", "attn", "mpnn"])
    def test_zero_features_zero_biases_give_zero(self, flavour):
        g = random_graph(6, 3, np.random.default_rng(5))
        g = Graph(adjacency=g.adjacency, features=np.zeros((6, 3)))
        params = gnn_params(3, 4, 2, flavour, seed=0)
        zeroed = type(params)(
            psi=MlpParams([np.zeros_like(w) for w in params.psi.weights],
                          [np.zeros_like(b) for b in params.psi.biases]),
            phi=MlpParams([np.zeros_like(w) for w in params.phi.weights],
                          [np.zeros_like(b) for b in params.phi.biases]),
            att_w=params.att_w, att_u=params.att_u, att_q=params.att_q)
        out = gnn_forward(g, flavour, zeroed)
        assert np.array_equal(out, np.zeros_like(out))

    @pytest.mark.parametrize("flavour", ["conv", "attn", "mpnn"])
    def test_isolated_node_sees_zero_aggregate(self, flavour):
        g = graph_from_edges(1, [], np.array([[0.3, -1.2]]))
        params = gnn_params(2, 3, 2, flavour, seed=1)
        out = gnn_forward(g, flavour, params)
        expected = params.phi.apply(np.concatenate([g.features[0], np.zeros(3)]))
        assert np.array_equal(out[0], expected)

    @pytest.mark.parametrize("flavour", ["conv", "attn", "mpnn"])
    def test_permutation_equivariance(self, flavour):
        rng = np.random.default_rng(6)
        worst = 0.0
        for trial in range(20):
            g = random_graph(12, 5, rng)
            params = gnn_params(5, 7, 6, flavour, seed=trial)
            p = rng.permutation(12)
            base = gnn_forward(g, flavour, params)
            out = gnn_forward(permute_graph(g, p), flavour, params)
            worst = max(worst, float(np.max(np.abs(out - permuted_rows(base, p)))))
            # a non-canonical CSR gives the same layer and is left as it was
            raw = raw_permuted_adjacency(g, p)
            stored = (raw.indices.copy(), raw.data.copy())
            h = Graph(adjacency=raw, features=permuted_rows(g.features, p))
            assert h.adjacency.nnz == raw.nnz - 1
            assert np.array_equal(gnn_forward(h, flavour, params), out)
            assert np.array_equal(raw.indices, stored[0]) and np.array_equal(raw.data, stored[1])
        assert worst <= 1e-11

    def test_sharp_attention_shifts_logits_per_neighbourhood(self):
        # logits up to ~1e4: a single shift for all nodes underflows whole neighbourhoods
        rng = np.random.default_rng(17)
        g = random_graph(10, 4, rng)
        params = gnn_params(4, 6, 3, "attn", seed=17)
        out = gnn_forward(g, "attn", dataclasses.replace(params, att_q=1e4 * params.att_q))
        assert np.all(np.isfinite(out))

    def test_attention_reduces_to_conv_with_lookup(self):
        rng = np.random.default_rng(7)
        g = random_graph(10, 4, rng)
        params = gnn_params(4, 6, 3, "conv", seed=9)
        conv = gnn_forward(g, "conv", params)
        attn = gnn_forward(g, "attn", params, attention_fn=conv_coefficient)
        assert np.max(np.abs(attn - conv)) <= 1e-12

    def test_mpnn_reduces_to_attention_with_fixed_message(self):
        rng = np.random.default_rng(8)
        g = random_graph(10, 4, rng)
        params = gnn_params(4, 6, 3, "attn", seed=10)
        attn = gnn_forward(g, "attn", params)
        x = g.features
        adj = g.adjacency.toarray()

        def attention_weight(u, v):
            nbrs = np.flatnonzero(adj[u])
            logits = params.att_q @ np.tanh(
                (params.att_w @ x[u])[:, None] + params.att_u @ x[nbrs].T)
            logits = logits - np.max(logits)
            weights = np.exp(logits)
            return weights[list(nbrs).index(v)] / np.sum(weights)

        def node_of(row):
            return int(np.where((x == row).all(axis=1))[0][0])

        def message(xu, xv):
            # one row per edge: receiver features xu, sender features xv
            scores = [attention_weight(node_of(a), node_of(b)) for a, b in zip(xu, xv)]
            return np.array(scores)[:, None] * params.psi.apply(xv)

        mpnn = gnn_forward(g, "mpnn", params, message_fn=message)
        assert np.max(np.abs(mpnn - attn)) <= 1e-12


@dataclasses.dataclass(frozen=True)
class SpyMlp(MlpParams):
    """An MLP that records the number of rows of every input it is applied to."""

    rows: list = dataclasses.field(default_factory=list)

    def apply(self, x):
        self.rows.append(np.shape(x)[0])
        return super().apply(x)


def per_edge_forward(g, flavour, params, attention_fn=None, message_fn=None):
    """The GNN layer with every transform evaluated on the edge rows and the
    softmax taken node by node: the reference for the node-first layer."""
    receivers, senders, indptr = g.edge_index
    x = g.features
    if flavour == "mpnn":
        msgs = (message_fn(x[receivers], x[senders]) if message_fn is not None else
                params.psi.apply(np.concatenate([x[receivers], x[senders]], axis=1)))
    else:
        if flavour == "conv":
            scores = conv_coefficient(g, receivers, senders)
        elif attention_fn is not None:
            scores = attention_fn(g, receivers, senders)
        else:
            logits = np.tanh(x[receivers] @ params.att_w.T
                             + x[senders] @ params.att_u.T) @ params.att_q
            scores = np.empty_like(logits)
            for a, b in zip(indptr[:-1], indptr[1:]):
                weights = np.exp(logits[a:b] - np.max(logits[a:b], initial=0.0))
                scores[a:b] = weights / np.sum(weights)
        msgs = scores[:, None] * params.psi.apply(x[senders])
    return params.phi.apply(np.concatenate([x, tree_sum(msgs, indptr)], axis=1))


class TestNodeFirstTransforms:
    @staticmethod
    def spied(flavour, seed):
        params = gnn_params(5, 7, 6, flavour, seed=seed)
        psi = params.psi
        return dataclasses.replace(params, psi=SpyMlp(psi.weights, psi.biases))

    @pytest.mark.parametrize("flavour", ["conv", "attn", "mpnn"])
    def test_psi_rows_and_per_edge_agreement(self, flavour):
        rng = np.random.default_rng(18)
        # node 11 is isolated: it still gets a psi row but no message
        g = graph_from_edges(12, [(u, v) for u in range(11) for v in range(u + 1, 11)
                                  if rng.uniform() < 0.5], rng.standard_normal((12, 5)))
        n_edges = g.edge_index[0].shape[0]
        params = self.spied(flavour, seed=18)
        out = gnn_forward(g, flavour, params)
        assert params.psi.rows == ([n_edges] if flavour == "mpnn" else [g.n])
        assert n_edges > g.n
        assert np.max(np.abs(out - per_edge_forward(g, flavour, params))) <= 1e-12

    def test_overrides_unchanged(self):
        rng = np.random.default_rng(19)
        g = random_graph(10, 5, rng)
        params = self.spied("attn", seed=19)
        out = gnn_forward(g, "attn", params, attention_fn=conv_coefficient)
        assert params.psi.rows == [g.n]
        reference = per_edge_forward(g, "attn", params, attention_fn=conv_coefficient)
        assert np.max(np.abs(out - reference)) <= 1e-12

        params = self.spied("mpnn", seed=19)
        seen = []

        def message(xu, xv):
            seen.append((xu.copy(), xv.copy()))
            return np.tanh(np.concatenate([xu * xv, xu - xv], axis=1)[:, :7])

        out = gnn_forward(g, "mpnn", params, message_fn=message)
        assert params.psi.rows == []
        receivers, senders, _ = g.edge_index
        assert np.array_equal(seen[0][0], g.features[receivers])
        assert np.array_equal(seen[0][1], g.features[senders])
        assert np.array_equal(out, per_edge_forward(g, "mpnn", params, message_fn=message))


class TestTransformer:
    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_complete_graph_is_the_dense_ones_adjacency(self, n):
        x = np.random.default_rng(n).standard_normal((n, 3))
        params = gnn_params(3, 5, 4, "attn", seed=n)
        dense = Graph(adjacency=sp.csr_matrix(np.ones((n, n))), features=x, allow_self_loops=True)
        assert np.array_equal(transformer_forward(x, params), gnn_forward(dense, "attn", params))

    def test_single_node_attends_to_itself(self):
        x = np.array([[0.4, -0.2]])
        params = gnn_params(2, 3, 2, "attn", seed=11)
        out = transformer_forward(x, params)
        expected = params.phi.apply(np.concatenate([x[0], params.psi.apply(x[0])]))
        assert np.max(np.abs(out[0] - expected)) <= 1e-12

    def test_equivariant_without_positions(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((8, 3))
        params = gnn_params(3, 5, 4, "attn", seed=12)
        base = transformer_forward(x, params)
        for _ in range(5):
            p = rng.permutation(8)
            out = transformer_forward(permuted_rows(x, p), params)
            assert np.max(np.abs(out - permuted_rows(base, p))) <= 1e-11

    def test_positional_encoding_breaks_equivariance(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((8, 3))
        params = gnn_params(3 + 4, 5, 4, "attn", seed=13)
        base = transformer_forward(x, params, use_positional=True)
        p = rng.permutation(8)
        out = transformer_forward(permuted_rows(x, p), params, use_positional=True)
        assert np.max(np.abs(out - permuted_rows(base, p))) > 1e-3


class TestPositionalEncoding:
    def test_first_row_alternates(self):
        enc = positional_encoding(3, 6)
        assert np.array_equal(enc[0], np.array([0.0, 1.0, 0.0, 1.0, 0.0, 1.0]))

    def test_pairs_have_unit_norm(self):
        enc = positional_encoding(10, 8)
        sums = enc[:, 0::2] ** 2 + enc[:, 1::2] ** 2
        assert np.max(np.abs(sums - 1.0)) <= 1e-12

    def test_first_column_is_plain_sine(self):
        enc = positional_encoding(4, 2)
        assert np.allclose(enc[:, 0], np.sin(np.arange(4)))

    def test_odd_width_rejected(self):
        with pytest.raises(ValueError):
            positional_encoding(4, 3)


def cycle_graph(n):
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)], np.zeros((n, 1)))


def path_graph(n):
    return graph_from_edges(n, [(i, i + 1) for i in range(n - 1)], np.zeros((n, 1)))


def star_graph(n):
    return graph_from_edges(n, [(0, i) for i in range(1, n)], np.zeros((n, 1)))


def refine_once_tuples(graphs_colours, graphs, table):
    """Reference refinement round: each signature is the Python tuple
    ``(c, (n_1, ..., n_k))`` of the node's colour and its sorted neighbour
    colours, and new signatures are interned in sorted order."""
    signatures = []
    for colours, g in zip(graphs_colours, graphs):
        receivers, senders, indptr = g.edge_index
        nbrs = colours[senders[np.lexsort((colours[senders], receivers))]]
        signatures.append([(c, tuple(seg.tolist())) for c, seg in
                           zip(colours.tolist(), np.split(nbrs, indptr[1:-1]))])
    fresh = sorted({s for sigs in signatures for s in sigs if s not in table})
    for s in fresh:
        table[s] = len(table)
    return [np.array([table[s] for s in sigs], dtype=int) for sigs in signatures]


# small colours, colours near +-2**62 (where receiver * span + colour leaves
# int64) and the int64 extremes
COLOUR_VALUES = (st.integers(-3, 3) | st.integers(-2**63, 2**63 - 1)
                 | st.sampled_from([2**62 - 1, 2**62, 2**62 + 1, -2**62 - 1, -2**62, -2**62 + 1,
                                    2**63 - 1, -2**63]))


@st.composite
def coloured_graphs(draw):
    """A small graph, often with isolated nodes, and initial colours drawn
    from a palette of one to three values so that signatures collide."""
    n = draw(st.integers(1, 9))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n))
    palette = draw(st.lists(COLOUR_VALUES, min_size=1, max_size=3))
    colours = draw(st.lists(st.sampled_from(palette), min_size=n, max_size=n))
    g = graph_from_edges(n, [(a, b) for a, b in pairs if a != b], np.zeros((n, 1)))
    return g, np.array(colours, dtype=np.int64)


@given(st.lists(coloured_graphs(), min_size=1, max_size=2), st.integers(1, 4))
@settings(max_examples=300, deadline=None)
def test_byte_keys_assign_the_ids_of_tuple_interning(graphs, rounds):
    gs = [g for g, _ in graphs]
    state = expected = [c for _, c in graphs]
    table, tuple_table = {}, {}
    for _ in range(rounds):
        state = _refine_once(state, gs, table)
        expected = refine_once_tuples(expected, gs, tuple_table)
        assert all(np.array_equal(a, b) for a, b in zip(state, expected))
    assert len(table) == len(tuple_table)


class TestWeisfeilerLehman:
    def test_edgeless_graph_one_colour_forever(self):
        g = graph_from_edges(5, [], np.zeros((5, 1)))
        hists = wl_refine(g, 4)
        assert all(h == (5,) for h in hists)

    def test_path_vs_triangle_split_at_round_one(self):
        assert wl_distinguish(path_graph(3), cycle_graph(3), 1)

    def test_refinement_stabilises(self):
        g = path_graph(6)
        hists = wl_refine(g, 8)
        assert hists[6] == hists[7] == hists[8]

    def test_six_cycle_vs_two_triangles_indistinguishable(self):
        two_triangles = graph_from_edges(
            6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)], np.zeros((6, 1)))
        assert not wl_distinguish(cycle_graph(6), two_triangles, 10)

    def test_path_vs_star_distinguished(self):
        assert wl_distinguish(path_graph(4), star_graph(4), 1)
        assert not wl_distinguish(path_graph(4), star_graph(4), 0)

    def test_equal_histograms_are_separated_by_their_colours(self):
        # the star K1,3 and a triangle plus an isolated vertex have equal
        # histograms at every round, but from round 1 on no colour of one
        # graph occurs in the other
        triangle_and_point = graph_from_edges(4, [(0, 1), (1, 2), (2, 0)], np.zeros((4, 1)))
        expected = [(4,), (1, 3), (1, 3)]
        assert wl_refine(star_graph(4), 2) == wl_refine(triangle_and_point, 2) == expected
        assert not wl_distinguish(star_graph(4), triangle_and_point, 0)
        assert wl_distinguish(star_graph(4), triangle_and_point, 1)

    def test_initial_colours_refine_from_round_zero(self):
        hists = wl_refine(path_graph(4), 1, colours=[5, -3, -3, 5])
        assert hists == [(2, 2), (2, 2)]
        assert wl_refine(path_graph(4), 1, colours=[5.0, -3.0, -3.0, 5.0]) == hists

    @pytest.mark.parametrize("colours", [
        [0.2, 0.9, 0.4, 0.1],  # truncation would merge four colours into one
        [0.0, float("inf"), 1.0, 2.0],
        [0.0, float("nan"), 1.0, 2.0],
        [0.0, 2.0**63, 1.0, 2.0],
        [0, 2**64 - 1, 1, 2],
        ["a", "b", "c", "d"],
    ])
    def test_non_integer_colours_rejected(self, colours):
        with pytest.raises(ValueError, match="initial colours must be integers within int64"):
            wl_refine(path_graph(4), 1, colours=colours)

    @pytest.mark.parametrize("rounds", [-2, 1.5, "3", None])
    def test_bad_rounds_rejected(self, rounds):
        with pytest.raises(ValueError, match="rounds must be a non-negative integer"):
            wl_refine(path_graph(4), rounds)
        with pytest.raises(ValueError, match="rounds must be a non-negative integer"):
            wl_distinguish(path_graph(4), path_graph(5), rounds)

    def test_isomorphic_relabellings_indistinguishable(self):
        rng = np.random.default_rng(14)
        for trial in range(50):
            n = int(rng.integers(2, 9))
            g = random_graph(n, 1, rng, p=0.4)
            p = rng.permutation(n)
            assert not wl_distinguish(g, permute_graph(g, p), n + 2)

    def test_histograms_permutation_invariant(self):
        rng = np.random.default_rng(15)
        g = random_graph(7, 1, rng)
        p = rng.permutation(7)
        assert wl_refine(g, 5) == wl_refine(permute_graph(g, p), 5)


def test_tree_sum_matches_plain_sum():
    rng = np.random.default_rng(16)
    rows = rng.standard_normal((13, 4))
    assert np.allclose(tree_sum(rows, [0, 13])[0], rows.sum(axis=0), atol=1e-12)
    # empty segments (leading, inner, trailing, or all of them) give zero rows
    sums = tree_sum(rows, [0, 0, 5, 5, 13, 13])
    assert np.array_equal(sums[[0, 2, 4]], np.zeros((3, 4)))
    assert np.allclose(sums[[1, 3]], [rows[:5].sum(axis=0), rows[5:].sum(axis=0)], atol=1e-12)
    assert np.array_equal(tree_sum(np.zeros((0, 4)), [0, 0, 0]), np.zeros((2, 4)))
