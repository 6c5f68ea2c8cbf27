"""The benchmark's workloads.

A workload is a set-up function that builds every input from the seed, and
a fixed list of operations: CLI experiments run in-process through
``gdlkit.cli.dispatch`` (their time is ``verdict_s``) and direct library
calls on the set-up inputs (their time is ``layers_s``).  Each operation
has a correctness check from :mod:`checks`.  Operations look ``gdlkit``
functions up on their module at call time, so a traced run's wrappers see
every call.

``scale="full"`` is what the benchmark measures; ``scale="smoke"`` is the
same operation list at toy sizes, for the benchmark's own tests.  NOTES.md
explains why each workload exists.
"""

import math
import os
import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks
from gdlkit import cli, equivariant_geo, finite_groups, graph_nn, grid_signals, mesh_core
from gdlkit import seq_models, spectral


@dataclass(frozen=True)
class Op:
    """One timed operation: ``run(inputs)`` is timed, ``check(inputs,
    result)`` is not.  ``known_failure`` names a defect this operation is
    known to show; it still counts as failed, but does not make the run
    incorrect."""

    name: str
    kind: str  # "cli" or "lib"
    run: Callable
    check: Callable
    known_failure: str = ""


@dataclass(frozen=True)
class Workload:
    setup: Callable  # setup(seed) -> inputs dict
    ops: list


def rng(seed, label):
    """Independent generator per input, so inputs never shift one another."""
    return np.random.default_rng([int(seed) % 2**63, zlib.crc32(label.encode())])


# ---------------------------------------------------------------------------
# CLI experiments


def cli_op(argv, check=None, known_failure=""):
    """``gdlkit --seed S --output <file> argv``; the check reads the report."""
    command = " ".join(a for a in argv[:2] if not a.startswith("--"))
    name = "cli:" + " ".join(argv)
    slug = "".join(c if c.isalnum() else "_" for c in name)

    def run(inputs):
        path = os.path.join(inputs["outdir"], slug + ".json")
        code, _ = cli.dispatch(["--seed", str(inputs["seed"]), "--output", path, *argv])
        return code, path

    def verify(inputs, result):
        report = checks.cli_report(result, command, inputs["seed"])
        if check is not None:
            check(report)

    return Op(name, "cli", run, verify, known_failure)


def lib_op(name, run, check):
    return Op(name, "lib", run, check)


# ---------------------------------------------------------------------------
# mesh-spectral: eigensolve, Cayley solves and mesh assembly dominate

MESH_SPECTRAL = {
    "full": {"levels": (3, 4, 5), "basis": (3, 4), "k": 64, "poly": (4, 5), "width": 8,
             "cayley": 4, "cayley_small": 3, "signals": 2, "spectrum": 4},
    "smoke": {"levels": (1, 2), "basis": (1, 2), "k": 8, "poly": (1, 2), "width": 2,
              "cayley": 2, "cayley_small": 1, "signals": 2, "spectrum": 1},
}


def jittered(mesh, generator, amplitude=0.05):
    """Vertices moved by up to ``amplitude`` mean edge lengths per axis."""
    step = amplitude * mesh.mean_edge_length()
    moved = mesh.vertices + step * generator.uniform(-1.0, 1.0, mesh.vertices.shape)
    return mesh_core.TriMesh(vertices=moved, faces=mesh.faces)


def spectral_bound(pair):
    """Gershgorin bound on the spectrum of ``M^{-1} L``."""
    row_abs = np.asarray(abs(pair.stiffness).sum(axis=1)).ravel()
    return float(np.max(row_abs / pair.mass.diagonal()))


def mesh_spectral(scale="full"):
    s = MESH_SPECTRAL[scale]
    k = s["k"]

    def setup(seed):
        meshes = {lvl: jittered(mesh_core.icosphere(lvl), rng(seed, f"mesh{lvl}"))
                  for lvl in s["levels"]}
        pairs = {lvl: mesh_core.cotan_laplacian(m) for lvl, m in meshes.items()}
        gen = rng(seed, "signals")
        signals = {lvl: gen.standard_normal((m.n_vertices, s["width"]))
                   for lvl, m in meshes.items()}
        poly = {lvl: gen.uniform(-1.0, 1.0, 7) / spectral_bound(pairs[lvl]) ** np.arange(7)
                for lvl in s["poly"]}
        cayley2 = gen.standard_normal(3) + 1j * gen.standard_normal(3)
        cayley6 = (gen.standard_normal(7) + 1j * gen.standard_normal(7)) / np.arange(1, 8)
        small = s["cayley_small"]
        # warm-up of the dense eigensolver; the basis is also an input below
        basis = spectral.spectral_basis(pairs[small], k=k)
        coefficients = gen.standard_normal(k)
        top = float(basis.eigenvalues[-1])
        # warm-up of the dense complex solver
        spectral.apply_cayley_filter(pairs[small], cayley2[:2], signals[small][:, 0])
        return {"seed": seed, "meshes": meshes, "pairs": pairs, "signals": signals,
                "poly": poly, "cayley2": cayley2, "cayley6": cayley6, "basis": basis,
                "coefficients": coefficients, "synth": basis.vectors @ coefficients,
                "transfer": lambda lam: np.exp(-np.asarray(lam) / top)}

    def n(lvl):
        return 10 * 4**lvl + 2

    ops = [
        cli_op(["mesh", "spectrum", "--mesh", f"icosphere:{s['spectrum']}", "--k", str(k)],
               check=lambda report: checks.cli_spectrum(report, k)),
        cli_op(["mesh", "stability", "--kind", "poly"]),
        cli_op(["mesh", "stability", "--kind", "cayley"],
               known_failure="the fitted Cayley filter fails its own stability verdict"),
        cli_op(["mesh", "stability", "--kind", "direct-highpass"]),
    ]
    for lvl in s["levels"]:
        ops.append(lib_op(
            f"cotan_laplacian.n{n(lvl)}",
            lambda inp, lvl=lvl: mesh_core.cotan_laplacian(inp["meshes"][lvl]),
            lambda inp, res, lvl=lvl: checks.laplacian_pair(inp["meshes"][lvl], res)))
    for lvl in s["basis"]:
        ops.append(lib_op(
            f"spectral_basis.n{n(lvl)}.k{k}",
            lambda inp, lvl=lvl: spectral.spectral_basis(inp["pairs"][lvl], k=k),
            lambda inp, res, lvl=lvl: checks.spectral_basis(inp["pairs"][lvl], res, k)))
    for lvl in s["poly"]:
        ops.append(lib_op(
            f"apply_poly_filter.n{n(lvl)}.deg6",
            lambda inp, lvl=lvl: spectral.apply_poly_filter(
                inp["pairs"][lvl], inp["poly"][lvl], inp["signals"][lvl]),
            lambda inp, res, lvl=lvl: checks.poly_filter(
                inp["pairs"][lvl], inp["poly"][lvl], inp["signals"][lvl], res)))
    big, small = s["cayley"], s["cayley_small"]
    ops.append(lib_op(
        f"apply_cayley_filter.n{n(big)}.deg2",
        lambda inp: spectral.apply_cayley_filter(
            inp["pairs"][big], inp["cayley2"], inp["signals"][big][:, 0]),
        lambda inp, res: checks.cayley_filter_lu(
            inp["pairs"][big], inp["cayley2"], inp["signals"][big][:, 0], res)))
    ops.append(lib_op(
        f"apply_cayley_filter.n{n(small)}.deg6.x{s['signals']}",
        lambda inp: [spectral.apply_cayley_filter(inp["pairs"][small], inp["cayley6"], x)
                     for x in inp["signals"][small].T[:s["signals"]]],
        lambda inp, res: checks.cayley_filter_eigen(
            inp["pairs"][small], inp["cayley6"], inp["signals"][small].T[:s["signals"]], res)))
    ops.append(lib_op(
        f"fourier_and_transfer.n{n(small)}.k{k}",
        lambda inp: (spectral.fourier_coefficients(inp["basis"], inp["synth"]),
                     spectral.apply_transfer_direct(inp["basis"], inp["transfer"], inp["synth"])),
        lambda inp, res: checks.fourier_and_transfer(
            inp["basis"], inp["coefficients"], inp["transfer"], res)))
    return Workload(setup, ops)


# ---------------------------------------------------------------------------
# message-passing: per-node Python loops in graph_nn and equivariant_geo

MESSAGE_PASSING = {
    "full": {"graphs": (500, 2000), "perm_check": 500, "egnn": (300, 1000), "egnn_check": 300,
             "degree": 8, "width": 8, "hidden": 16, "wl_rounds": 3, "gauge": 4,
             "cli_gnn": ("--n", "100", "--trials", "5"),
             "cli_egnn": ("--n", "150", "--trials", "4"),
             "cli_gauge": "icosphere:4"},
    "smoke": {"graphs": (20, 40), "perm_check": 20, "egnn": (12, 24), "egnn_check": 12,
              "degree": 4, "width": 3, "hidden": 4, "wl_rounds": 2, "gauge": 1,
              "cli_gnn": ("--n", "10", "--trials", "2"), "cli_egnn": ("--n", "8", "--trials", "2"),
              "cli_gauge": "icosphere:1"},
}

GAUGE_ORDERS = (0, 1)
GAUGE_BINS = 8


def sparse_edges(n, degree, generator):
    """``n * degree / 2`` distinct undirected edges, no self-loops, so the
    work per call does not depend on the seed."""
    m = n * degree // 2
    pairs = np.sort(generator.integers(0, n, size=(2 * m, 2)), axis=1)
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    _, first = np.unique(pairs, axis=0, return_index=True)
    if first.shape[0] < m:
        raise ValueError(f"too few distinct edges for n={n}, degree={degree}")
    return pairs[np.sort(first)[:m]]


def message_passing(scale="full"):
    s = MESSAGE_PASSING[scale]
    d, hidden = s["width"], s["hidden"]

    def setup(seed):
        graphs, gnn_params, perms = {}, {}, {}
        for n in s["graphs"]:
            gen = rng(seed, f"graph{n}")
            edges = sparse_edges(n, s["degree"], gen)
            graphs[n] = graph_nn.graph_from_edges(n, edges.tolist(), gen.standard_normal((n, d)))
            perms[n] = gen.permutation(n)
        for flavour in ("conv", "attn", "mpnn"):
            gen = rng(seed, f"gnn-{flavour}")
            psi = graph_nn.mlp_init([2 * d if flavour == "mpnn" else d, hidden], gen)
            phi = graph_nn.mlp_init([d + hidden, d], gen)
            att = {}
            if flavour == "attn":
                att = {"att_w": gen.uniform(-0.5, 0.5, (hidden, d)),
                       "att_u": gen.uniform(-0.5, 0.5, (hidden, d)),
                       "att_q": gen.uniform(-0.5, 0.5, hidden)}
            gnn_params[flavour] = graph_nn.GnnParams(psi=psi, phi=phi, **att)
        geo_graphs = {}
        for n in s["egnn"]:
            gen = rng(seed, f"geo{n}")
            geo_graphs[n] = (equivariant_geo.GeometricGraph(
                positions=gen.standard_normal((n, 3)), features=gen.standard_normal((n, d)),
                edges=[tuple(e) for e in sparse_edges(n, s["degree"], gen).tolist()]),
                gen.permutation(n))
        gen = rng(seed, "egnn-params")
        egnn_params = equivariant_geo.EgnnParams(
            psi_f=graph_nn.mlp_init([2 * d + 1, hidden], gen),
            psi_c=graph_nn.mlp_init([2 * d + 1, 1], gen),
            phi=graph_nn.mlp_init([d + hidden, d], gen))
        mesh = jittered(mesh_core.icosphere(s["gauge"]), rng(seed, "gauge-mesh"))
        # warm-up of the nullspace eigensolver; its size fixes the coefficient count
        basis = equivariant_geo.kernel_constraint_basis(GAUGE_ORDERS, GAUGE_ORDERS, GAUGE_BINS)
        gen = rng(seed, "gauge")
        gauge = {"x": gen.standard_normal((mesh.n_vertices, 3)),
                 "angles": (2 * np.pi / GAUGE_BINS) * gen.integers(0, GAUGE_BINS, mesh.n_vertices),
                 "coefficients": gen.standard_normal(len(basis))}
        return {"seed": seed, "graphs": graphs, "gnn_params": gnn_params, "perms": perms,
                "geo_graphs": geo_graphs, "egnn_params": egnn_params, "mesh": mesh,
                "gauge": gauge}

    ops = [cli_op(["gnn", "equivariance", "--flavour", fl]) for fl in ("conv", "attn", "mpnn")]
    ops += [cli_op(["gnn", "equivariance", "--flavour", fl, *s["cli_gnn"]])
            for fl in ("conv", "attn")]
    ops += [cli_op(["egnn", "equivariance"]),
            cli_op(["egnn", "equivariance", *s["cli_egnn"]]),
            cli_op(["gauge", "equivariance"]),
            cli_op(["gauge", "equivariance", "--mesh", s["cli_gauge"], "--orders", "[0,1,2]"])]
    for n in s["graphs"]:
        for flavour in ("conv", "attn", "mpnn"):
            ops.append(lib_op(
                f"gnn_forward.{flavour}.n{n}",
                lambda inp, n=n, fl=flavour: graph_nn.gnn_forward(
                    inp["graphs"][n], fl, inp["gnn_params"][fl]),
                lambda inp, res, n=n, fl=flavour: _check_gnn(
                    inp, n, fl, res, permute=n == s["perm_check"])))
    n_big = s["graphs"][-1]
    ops.append(lib_op(
        f"wl_refine.n{n_big}.r{s['wl_rounds']}",
        lambda inp: graph_nn.wl_refine(inp["graphs"][n_big], s["wl_rounds"]),
        lambda inp, res: checks.wl_histograms(inp["graphs"][n_big], s["wl_rounds"], res)))
    ops.append(lib_op(
        f"permute_graph.n{n_big}",
        lambda inp: graph_nn.permute_graph(inp["graphs"][n_big], inp["perms"][n_big]),
        lambda inp, res: checks.permuted_graph(inp["graphs"][n_big], inp["perms"][n_big], res)))
    for n in s["egnn"]:
        ops.append(lib_op(
            f"egnn_layer.n{n}",
            lambda inp, n=n: equivariant_geo.egnn_layer(
                inp["geo_graphs"][n][0], inp["egnn_params"]),
            lambda inp, res, n=n: _check_egnn(inp, n, res, permute=n == s["egnn_check"])))
    ops.append(lib_op(f"gauge_pipeline.n{10 * 4 ** s['gauge'] + 2}", _gauge_pipeline,
                      lambda inp, res: checks.gauge_pipeline(inp["mesh"], inp["gauge"], res)))
    return Workload(setup, ops)


def _check_gnn(inputs, n, flavour, out, permute):
    graph, params = inputs["graphs"][n], inputs["gnn_params"][flavour]
    checks.gnn_layer(graph, flavour, params, out)
    if permute:
        p = inputs["perms"][n]
        adj, feats = checks.permuted_graph_arrays(graph.adjacency, graph.features, p)
        relabelled = graph_nn.Graph(adjacency=adj, features=feats)
        checks.gnn_permutation(out, graph_nn.gnn_forward(relabelled, flavour, params), p)


def _check_egnn(inputs, n, result, permute):
    g, p = inputs["geo_graphs"][n]
    checks.egnn_layer(g, inputs["egnn_params"], result)
    if permute:
        feats = np.empty_like(g.features)
        feats[p] = g.features
        pos = np.empty_like(g.positions)
        pos[p] = g.positions
        relabelled = equivariant_geo.GeometricGraph(
            positions=pos, features=feats, edges=[(int(p[a]), int(p[b])) for a, b in g.edges])
        permuted = equivariant_geo.egnn_layer(relabelled, inputs["egnn_params"])
        checks.egnn_permutation(result, permuted, p)


def _gauge_pipeline(inputs):
    """Frames, log map, transport, kernel basis, convolution and a gauge
    change on one mesh: the ``gauge equivariance`` experiment as library calls."""
    geo = equivariant_geo
    mesh, gauge = inputs["mesh"], inputs["gauge"]
    frames = geo.tangent_frames(mesh)
    conn = geo.transport_angles(mesh, frames, geo.one_ring_log_map(mesh, frames))
    basis = geo.kernel_constraint_basis(GAUGE_ORDERS, GAUGE_ORDERS, GAUGE_BINS)
    kernel = geo.kernel_from_coefficients(basis, gauge["coefficients"])
    out = geo.gauge_conv(mesh, conn, kernel, gauge["x"])
    changed = geo.gauge_transform(frames, conn, gauge["x"], gauge["angles"], GAUGE_ORDERS)
    return frames, conn, basis, kernel, out, changed


# ---------------------------------------------------------------------------
# groups-grids: group closure, dense grid transforms and recurrences

GROUPS_GRIDS = {
    "full": {"cyclic": 240, "symmetric": 5, "revcomp": 512, "circulant": (1024, 4096),
             "dft": (1000, 4095), "rnn": 20000, "lstm": 10000, "m": 32,
             "cli_cyclic": "Z240", "cli_fourier": ("--n", "4095", "--k0", "800", "--sigma", "64"),
             "cli_rnn": ("--T", "5000", "--m", "32")},
    "smoke": {"cyclic": 12, "symmetric": 4, "revcomp": 16, "circulant": (16, 32),
              "dft": (10, 15), "rnn": 40, "lstm": 30, "m": 4,
              "cli_cyclic": "Z12", "cli_fourier": ("--n", "511", "--k0", "200", "--sigma", "32"),
              "cli_rnn": ("--T", "40", "--m", "4")},
}


def relabel(perms, generator):
    """Conjugate permutations by a random relabelling of their domain."""
    sigma = generator.permutation(len(perms[0]))
    inv = np.argsort(sigma)
    return [sigma[p[inv]] for p in perms]


def cube_rotations():
    """Quarter turn about z and third turn about the diagonal, acting on the
    27 cells of a 3x3x3 cube."""
    coords = [(x, y, z) for x in (-1, 0, 1) for y in (-1, 0, 1) for z in (-1, 0, 1)]
    index = {c: i for i, c in enumerate(coords)}
    return [np.array([index[(-y, x, z)] for x, y, z in coords]),
            np.array([index[(z, x, y)] for x, y, z in coords])]


def groups_grids(scale="full"):
    s = GROUPS_GRIDS[scale]
    m = s["m"]

    def setup(seed):
        gen = rng(seed, "groups")
        c, q = s["cyclic"], s["symmetric"]
        cycle = np.roll(np.arange(q), -1)
        swap = np.arange(q)
        swap[[0, 1]] = [1, 0]
        groups = {"cyclic": (c, relabel([np.roll(np.arange(c), -1)], gen)),
                  "symmetric": (q, relabel([cycle, swap], gen))}
        cube, _ = finite_groups.group_from_generators(27, relabel(cube_rotations(), gen))
        cells = np.arange(s["revcomp"] * 4).reshape(-1, 4)
        h_perms = [cells.reshape(-1), cells[::-1][:, [3, 2, 1, 0]].reshape(-1)]
        gen = rng(seed, "grids")
        transform = (gen.standard_normal(cells.shape), gen.standard_normal(cells.shape), h_perms)
        circulant = {n: (gen.standard_normal(n), gen.standard_normal((n, 2)))
                     for n in s["circulant"]}
        dft = {n: gen.standard_normal(n) + 1j * gen.standard_normal(n) for n in s["dft"]}
        # warm-up of the dense matrix-vector and DFT kernels
        grid_signals.circulant_apply(*circulant[s["circulant"][0]])
        grid_signals.dft(dft[s["dft"][0]])
        gen = rng(seed, "sequences")
        bound = 1.0 / np.sqrt(m)
        rnn = seq_models.SimpleRnnParams(w=gen.uniform(-bound, bound, (m, m)),
                                         u=0.6 * gen.uniform(-bound, bound, (m, m)),
                                         b=gen.uniform(-bound, bound, m))
        lstm = seq_models.LstmParams(
            **{f"{p}_{g}": gen.uniform(-bound, bound, (m, m)) for p in "wu" for g in "cifo"},
            **{f"b_{g}": gen.uniform(-bound, bound, m) for g in "cifo"})
        return {"seed": seed, "groups": groups, "cube": cube, "transform": transform,
                "circulant": circulant, "dft": dft,
                "rnn": (gen.standard_normal((s["rnn"], m)), gen.standard_normal(m), rnn),
                "lstm": (gen.standard_normal((s["lstm"], m)), gen.standard_normal(m),
                         gen.standard_normal(m), lstm)}

    orders = {"cyclic": s["cyclic"], "symmetric": math.factorial(s["symmetric"])}
    cyclic_order = int(s["cli_cyclic"][1:])
    ops = [
        cli_op(["group", "table", "--name", "Oh"],
               check=lambda r: checks.cli_group_table(r, 24, cyclic=False)),
        cli_op(["group", "table", "--name", "revcomp"],
               check=lambda r: checks.cli_group_table(r, 16, cyclic=False)),
        cli_op(["group", "table", "--name", s["cli_cyclic"]],
               check=lambda r: checks.cli_group_table(r, cyclic_order, cyclic=True)),
        cli_op(["fourier-instability"]),
        cli_op(["fourier-instability", *s["cli_fourier"]]),
        cli_op(["rnn", "shift-equivariance", *s["cli_rnn"]]),
        cli_op(["lstm", "chrono"]),
    ]
    for key, label in (("cyclic", "Z"), ("symmetric", "S")):
        ops.append(lib_op(
            f"group_from_generators.{label}{s[key]}",
            lambda inp, key=key: finite_groups.group_from_generators(*inp["groups"][key]),
            lambda inp, res, key=key: checks.group_closure(
                *inp["groups"][key], orders[key], res)))
    ops += [
        lib_op("regular_representation.Oh",
               lambda inp: finite_groups.regular_representation(inp["cube"]),
               lambda inp, res: checks.regular_representation(inp["cube"], res)),
        lib_op(f"transform_convolve.revcomp.n{s['revcomp']}",
               lambda inp: finite_groups.transform_convolve(*inp["transform"]),
               lambda inp, res: checks.transform_convolve(*inp["transform"], res)),
    ]
    for n in s["circulant"]:
        ops.append(lib_op(
            f"circulant_apply.n{n}",
            lambda inp, n=n: grid_signals.circulant_apply(*inp["circulant"][n]),
            lambda inp, res, n=n: checks.circulant(*inp["circulant"][n], res)))
    for n in s["dft"]:
        ops.append(lib_op(
            f"dft.n{n}",
            lambda inp, n=n: grid_signals.dft(inp["dft"][n]),
            lambda inp, res, n=n: checks.dft(inp["dft"][n], res)))
    ops += [
        lib_op(f"simple_rnn_forward.T{s['rnn']}.m{m}",
               lambda inp: seq_models.simple_rnn_forward(*inp["rnn"]),
               lambda inp, res: checks.rnn_steps(*inp["rnn"], res)),
        lib_op(f"lstm_forward.T{s['lstm']}.m{m}",
               lambda inp: seq_models.lstm_forward(*inp["lstm"]),
               lambda inp, res: checks.lstm_steps(*inp["lstm"], res)),
    ]
    return Workload(setup, ops)


WORKLOADS = {"mesh-spectral": mesh_spectral, "message-passing": message_passing,
             "groups-grids": groups_grids}
