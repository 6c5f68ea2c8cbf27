"""Command-line front door: each subcommand runs one verification
experiment, prints a JSON (or CSV) report, and exits 0 when every verdict
passed, 1 when one failed, 2 on usage or IO errors.

Determinism contract: a command's output bytes are a pure function of
(argv, seed, input files).  The seed defaults from ``GDLKIT_SEED`` (else
42) and feeds named substreams, one per module call, so adding a command
never perturbs another command's draws.  Wall-clock time is reported on
stderr only, keeping the emitted report byte-identical across reruns.
"""

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import equivariant_geo as geo
from . import finite_groups, graph_nn, grid_signals, mesh_core, seq_models, spectral
from .rng import substream

DEFAULT_SEED = 42


@dataclass
class Report:
    command: str
    parameters: dict
    metrics: dict
    verdicts: dict
    seed: int
    payload: dict = field(default_factory=dict)
    runtime_ms: float = 0.0

    def passed(self):
        return all(self.verdicts.values())

    def to_json_dict(self):
        # runtime_ms deliberately excluded: reruns must be byte-identical
        out = {
            "command": self.command,
            "parameters": self.parameters,
            "metrics": {k: float(v) for k, v in self.metrics.items()},
            "verdicts": {k: bool(v) for k, v in self.verdicts.items()},
            "seed": self.seed,
        }
        out.update(self.payload)
        return out


def emit(report, path, fmt="json"):
    """Write the report; ``-`` writes to standard output."""
    if fmt == "json":
        text = json.dumps(report.to_json_dict(), sort_keys=True, indent=2) + "\n"
    elif fmt == "csv":
        lines = [f"{name},{float(value)!r}" for name, value in sorted(report.metrics.items())]
        text = "\n".join(lines) + "\n"
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _mesh_from_spec(spec):
    """Either ``icosphere:k`` or a .off/.obj path.  A loaded mesh must be
    consistently oriented with manifold edges and vertices (boundaries are
    allowed); building its half-edge index checks this and raises on the
    first flaw."""
    if spec.startswith("icosphere:"):
        try:
            level = int(spec.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"mesh spec {spec!r}: the icosphere level must be an integer") from None
        return mesh_core.icosphere(level)
    mesh = mesh_core.load_mesh(spec)
    mesh_core.half_edge_index(mesh)
    return mesh


# ---------------------------------------------------------------------------
# command implementations; each returns (parameters, metrics, verdicts, payload)


def _cmd_fourier_instability(args, seed):
    ratio = grid_signals.modulus_instability_ratio(args.n, args.k0, args.sigma, args.s)
    shift_bins = args.s * args.k0
    spread_bins = args.n / (2.0 * np.pi * args.sigma)
    verdicts = {}
    if shift_bins >= 1.9 * spread_bins:
        verdicts["unstable_at_high_frequency"] = ratio >= 1.0
    elif shift_bins <= 0.5 * spread_bins:
        verdicts["stable_at_low_frequency"] = ratio <= 0.3
    else:
        verdicts["ratio_finite"] = bool(np.isfinite(ratio))
    params = {"n": args.n, "k0": args.k0, "sigma": args.sigma, "s": args.s}
    metrics = {"ratio": ratio, "shift_bins": shift_bins, "spread_bins": spread_bins}
    return params, metrics, verdicts, {}


def _named_group(name):
    if name == "D3":
        gens = [np.array([1, 2, 0]), np.array([1, 0, 2])]
        return finite_groups.group_from_generators(3, gens)
    if name == "Oh":
        return finite_groups.group_from_generators(27, _cube_rotation_generators())
    if name == "revcomp":
        n = 8
        gens = [finite_groups.translation_permutation(n, 4, 1),
                finite_groups.dna_reverse_complement_permutation(n)]
        return finite_groups.group_from_generators(n * 4, gens)
    if name.startswith("Z") and name[1:].isdigit():
        n = int(name[1:])
        if n < 1:
            raise ValueError("cyclic order must be positive")
        if n > finite_groups.CLOSURE_CAP:  # refuse before closing n permutations of length n
            raise ValueError(f"cyclic order {n} exceeds the closure cap of "
                             f"{finite_groups.CLOSURE_CAP} elements")
        return finite_groups.group_from_generators(n, [(np.arange(n) + 1) % n])
    raise ValueError(f"unknown group name {name!r}")


def _cube_rotation_generators():
    """90-degree z-rotation and 120-degree diagonal rotation permuting the
    27 cells of a 3x3x3 cube."""
    coords = [(x, y, z) for x in (-1, 0, 1) for y in (-1, 0, 1) for z in (-1, 0, 1)]
    index = {c: i for i, c in enumerate(coords)}
    rot_z = np.array([index[(-y, x, z)] for (x, y, z) in coords])
    rot_diag = np.array([index[(z, x, y)] for (x, y, z) in coords])
    return [rot_z, rot_diag]


def _cmd_group_table(args, seed):
    group, _ = _named_group(args.name)
    report = finite_groups.verify_group_axioms(group)
    params = {"name": args.name}
    metrics = {"order": float(group.order)}
    verdicts = {"axioms_pass": report.all_pass()}
    payload = {"order": group.order, "table": finite_groups.cayley_table_json(group)}
    return params, metrics, verdicts, payload


def _random_edges(n, p, rng):
    """Each node pair ``u < v``, in row-major order, kept with probability ``p``."""
    u, v = np.triu_indices(n, 1)
    keep = rng.uniform(size=u.size) < p
    return list(zip(u[keep].tolist(), v[keep].tolist()))


def _random_graph(n, d, rng):
    edges = _random_edges(n, 0.35, rng)
    features = rng.standard_normal((n, d))
    return graph_nn.graph_from_edges(n, edges, features)


def _cmd_gnn_equivariance(args, seed):
    if min(args.n, args.trials) < 1:  # a probe over nothing passes vacuously
        raise ValueError(f"--n and --trials must be at least 1, got {args.n} and {args.trials}")
    rng = substream(seed, "gnn-equivariance")
    worst = 0.0
    for trial in range(args.trials):
        g = _random_graph(args.n, 5, rng)
        params = graph_nn.gnn_params(5, 7, 6, args.flavour, seed + trial)
        p = rng.permutation(args.n)
        base = graph_nn.gnn_forward(g, args.flavour, params)
        permuted = graph_nn.gnn_forward(graph_nn.permute_graph(g, p), args.flavour, params)
        expected = np.empty_like(base)
        expected[p] = base
        worst = max(worst, float(np.max(np.abs(permuted - expected))))
    params_out = {"flavour": args.flavour, "n": args.n, "trials": args.trials}
    return params_out, {"max_deviation": worst}, {"equivariant": worst <= 1e-11}, {}


def _cmd_mesh_spectrum(args, seed):
    mesh = _mesh_from_spec(args.mesh)
    pair = mesh_core.cotan_laplacian(mesh)
    basis = spectral.spectral_basis(pair, k=args.k)
    m_phi = basis.mass @ basis.vectors
    gram = basis.vectors.T @ m_phi
    ortho = float(np.max(np.abs(gram - np.eye(basis.k))))
    m_phi_lam = m_phi * basis.eigenvalues
    residual = float(np.max(np.abs(basis.stiffness @ basis.vectors - m_phi_lam)))
    params = {"mesh": args.mesh, "k": args.k}
    metrics = {
        "lambda_min": float(basis.eigenvalues[0]),
        "lambda_max": float(basis.eigenvalues[-1]),
        "orthonormality_error": ortho,
        "eigen_residual": residual,
    }
    verdicts = {
        "positive_semidefinite": basis.eigenvalues[0] >= -1e-9,
        "mass_orthonormal": ortho <= 1e-8,
        "eigen_residual_small": residual <= 1e-8 * max(1.0, float(np.max(np.abs(m_phi_lam)))),
    }
    payload = {"eigenvalues": [float(v) for v in basis.eigenvalues]}
    return params, metrics, verdicts, payload


def _cmd_mesh_stability(args, seed):
    direct = args.kind == "direct-highpass"
    if not direct and args.degree < 0:
        raise ValueError(f"--degree must be at least 0 for --kind {args.kind}, got {args.degree}")
    mesh = _mesh_from_spec(args.mesh)
    result = spectral.perturbation_stability_experiment(
        mesh, args.epsilon, args.kind, seed, degree=None if direct else args.degree)
    metrics = {"discrepancy": result["discrepancy"]}
    verdicts = {}
    if direct:
        if args.epsilon >= 0.005:
            verdicts["direct_transfer_unstable"] = result["discrepancy"] >= 0.5
        else:
            verdicts["completed"] = np.isfinite(result["discrepancy"])
    else:
        metrics["direct_discrepancy"] = result["direct_discrepancy"]
        verdicts["filter_stable_vs_direct"] = (
            result["discrepancy"] <= 0.1 * result["direct_discrepancy"])
    params = {"mesh": args.mesh, "epsilon": args.epsilon,
              "kind": args.kind, "degree": args.degree}
    payload = {"mesh": args.mesh, "epsilon": args.epsilon,
               "kind": result["kind"], "discrepancy": result["discrepancy"]}
    return params, metrics, verdicts, payload


def _random_geometric_graph(n, d, rng):
    positions = rng.standard_normal((n, 3))
    features = rng.standard_normal((n, d))
    edges = _random_edges(n, 0.4, rng)
    return geo.GeometricGraph(positions=positions, features=features, edges=edges)


def _random_rotation(rng, reflect):
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    if (np.linalg.det(q) < 0) != reflect:
        q[:, 0] = -q[:, 0]
    return q


def egnn_test_params(d, hidden, seed):
    rng = substream(seed, "egnn-params")
    return geo.EgnnParams(
        psi_f=graph_nn.mlp_init([2 * d + 1, hidden], rng),
        psi_c=graph_nn.mlp_init([2 * d + 1, 1], rng),
        phi=graph_nn.mlp_init([d + hidden, d], rng),
    )


def _cmd_egnn_equivariance(args, seed):
    if min(args.n, args.trials) < 1:  # a probe over nothing passes vacuously
        raise ValueError(f"--n and --trials must be at least 1, got {args.n} and {args.trials}")
    rng = substream(seed, "egnn-equivariance")
    worst_e3 = 0.0
    worst_perm = 0.0
    d = 5
    for trial in range(args.trials):
        g = _random_geometric_graph(args.n, d, rng)
        params = egnn_test_params(d, 6, seed + trial)
        f0, x0 = geo.egnn_layer(g, params)
        rot = _random_rotation(rng, reflect=trial % 2 == 1)
        t = rng.standard_normal(3)
        f1, x1 = geo.egnn_layer(geo.e3_transform(g, rot, t), params)
        worst_e3 = max(worst_e3,
                       float(np.max(np.abs(f1 - f0))),
                       float(np.max(np.abs(x1 - (x0 @ rot.T + t)))))
        p = rng.permutation(args.n)
        permuted = geo.GeometricGraph(
            positions=_permute_rows(g.positions, p),
            features=_permute_rows(g.features, p),
            edges=[(int(p[a]), int(p[b])) for a, b in g.edges])
        f2, x2 = geo.egnn_layer(permuted, params)
        worst_perm = max(worst_perm,
                         float(np.max(np.abs(f2 - _permute_rows(f0, p)))),
                         float(np.max(np.abs(x2 - _permute_rows(x0, p)))))
    params_out = {"n": args.n, "trials": args.trials}
    metrics = {"max_e3_deviation": worst_e3, "max_permutation_deviation": worst_perm}
    verdicts = {"e3_equivariant": worst_e3 <= 1e-10,
                "permutation_equivariant": worst_perm <= 1e-11}
    return params_out, metrics, verdicts, {}


def _permute_rows(x, p):
    out = np.empty_like(x)
    out[p] = x
    return out


def _parse_orders(text):
    """A feature type such as ``[0,0,1]``: a non-empty JSON list of integers."""
    try:
        orders = json.loads(text)
    except json.JSONDecodeError:
        orders = None
    if not isinstance(orders, list) or not orders or {type(m) for m in orders} != {int}:
        raise ValueError(f"orders must be a non-empty JSON list of integers, got {text!r}")
    return tuple(orders)


def _cmd_gauge_equivariance(args, seed):
    orders_in = _parse_orders(args.orders)
    orders_out = _parse_orders(args.orders_out) if args.orders_out else orders_in
    mesh = _mesh_from_spec(args.mesh)
    frames = geo.tangent_frames(mesh)
    conn = geo.transport_angles(mesh, frames, geo.one_ring_log_map(mesh, frames))
    rng = substream(seed, "gauge-equivariance")
    basis = geo.kernel_constraint_basis(orders_in, orders_out, args.bins)
    if not basis:
        raise ValueError("empty constraint basis for the requested types")
    kernel = geo.kernel_from_coefficients(basis, rng.standard_normal(len(basis)))
    x = rng.standard_normal((mesh.n_vertices, geo.rep_dimension(orders_in)))
    base = geo.gauge_conv(mesh, conn, kernel, x)
    step = 2.0 * np.pi / args.bins
    angles = step * rng.integers(0, args.bins, size=mesh.n_vertices)
    _, conn2, x2 = geo.gauge_transform(frames, conn, x, angles, orders_in)
    transformed = geo.gauge_conv(mesh, conn2, kernel, x2)
    expected = np.einsum("nij,nj->ni", geo.rep_matrix(orders_out, -angles), base)
    worst = float(np.max(np.abs(transformed - expected)))
    params = {"mesh": args.mesh, "orders": args.orders,
              "orders_out": args.orders_out or args.orders, "bins": args.bins}
    metrics = {"max_deviation": worst, "basis_dimension": float(len(basis))}
    verdicts = {"gauge_equivariant": worst <= 1e-8}
    return params, metrics, verdicts, {}


def _cmd_rnn_shift_equivariance(args, seed):
    if min(args.T, args.m) < 1:
        raise ValueError(f"--T and --m must be at least 1, got {args.T} and {args.m}")
    rng = substream(seed, "rnn-shift")
    params = seq_models.simple_rnn_params(args.m, args.m, seed, scale=0.6)
    h0, trace = seq_models.rnn_fixed_point(params, tol=1e-13)
    z = rng.standard_normal((args.T, args.m))
    padded = seq_models.pad_left(z, 3)
    base = seq_models.simple_rnn_forward(padded, h0, params)
    worst = 0.0
    for s in (1, 2, 3):
        shifted = padded[s:]
        out = seq_models.simple_rnn_forward(shifted, h0, params)
        worst = max(worst, float(np.max(np.abs(out - base[s:]))))
    params_out = {"T": args.T, "m": args.m}
    metrics = {"max_deviation": worst, "fixed_point_residual": trace[-1]}
    verdicts = {"shift_equivariant": worst <= 1e-10,
                "fixed_point_converged": trace[-1] <= 1e-12}
    return params_out, metrics, verdicts, {}


def _cmd_lstm_chrono(args, seed):
    if args.m < 1:
        raise ValueError(f"--m must be at least 1, got {args.m}")
    biases = seq_models.chrono_init(args.tlow, args.thigh, args.m, seed)
    gates = 1.0 / (1.0 + np.exp(-biases))
    lo, hi = 1.0 / args.thigh, 1.0 / args.tlow
    within = bool(np.all(gates >= lo - 1e-12) and np.all(gates <= hi + 1e-12))
    params = {"tlow": args.tlow, "thigh": args.thigh, "m": args.m}
    metrics = {"gate_min": float(gates.min()), "gate_max": float(gates.max()),
               "gate_mean": float(gates.mean())}
    verdicts = {"gates_in_horizon_range": within}
    if args.tlow == args.thigh:
        verdicts["degenerate_case_exact"] = bool(
            np.all(np.abs(gates - 1.0 / args.tlow) <= 1e-12))
    return params, metrics, verdicts, {}


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Exact option names and one-line usage errors, for this parser and
    every subparser it creates.  Prefix matching would read ``--k`` of
    ``mesh spectrum`` as ``--kind`` of ``mesh stability``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        self.exit(2, f"gdlkit: error: {message}\n")


def build_parser():
    parser = _Parser(
        prog="gdlkit",
        description="run symmetry and stability verification experiments")
    parser.add_argument("--seed", type=int, default=None,
                        help="random seed (default: GDLKIT_SEED or 42)")
    parser.add_argument("--output", default="-", help="report path, '-' for stdout")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fourier-instability",
                       help="deformation instability of the Fourier modulus")
    p.add_argument("--n", type=int, default=1024)
    p.add_argument("--k0", type=int, default=200)
    p.add_argument("--sigma", type=float, default=32.0)
    p.add_argument("--s", type=float, default=0.05)
    p.set_defaults(runner=_cmd_fourier_instability)

    group = sub.add_parser("group", help="finite group commands").add_subparsers(
        dest="subcommand", required=True)
    p = group.add_parser("table", help="dump a Cayley table")
    p.add_argument("--name", default="D3", help="Zn | D3 | Oh | revcomp")
    p.set_defaults(runner=_cmd_group_table)

    gnn = sub.add_parser("gnn", help="graph layer commands").add_subparsers(
        dest="subcommand", required=True)
    p = gnn.add_parser("equivariance", help="permutation equivariance probe")
    p.add_argument("--flavour", choices=("conv", "attn", "mpnn"), default="conv")
    p.add_argument("--n", type=int, default=12)
    p.add_argument("--trials", type=int, default=20)
    p.set_defaults(runner=_cmd_gnn_equivariance)

    mesh = sub.add_parser("mesh", help="mesh spectral commands").add_subparsers(
        dest="subcommand", required=True)
    p = mesh.add_parser("spectrum", help="generalized Laplacian eigenvalues")
    p.add_argument("--mesh", default="icosphere:2", help="icosphere:k or .off/.obj path")
    p.add_argument("--k", type=int, default=16)
    p.set_defaults(runner=_cmd_mesh_spectrum)
    p = mesh.add_parser("stability", help="filter discrepancy under jitter")
    p.add_argument("--mesh", default="icosphere:3")
    p.add_argument("--epsilon", type=float, default=0.005)
    p.add_argument("--kind", choices=("direct-highpass", "poly", "cayley"), default="poly")
    p.add_argument("--degree", type=int, default=6)
    p.set_defaults(runner=_cmd_mesh_stability)

    egnn = sub.add_parser("egnn", help="geometric graph commands").add_subparsers(
        dest="subcommand", required=True)
    p = egnn.add_parser("equivariance", help="E(3) and permutation probes")
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--trials", type=int, default=20)
    p.set_defaults(runner=_cmd_egnn_equivariance)

    gauge = sub.add_parser("gauge", help="gauge convolution commands").add_subparsers(
        dest="subcommand", required=True)
    p = gauge.add_parser("equivariance", help="frame-rotation equivariance probe")
    p.add_argument("--mesh", default="icosphere:2")
    p.add_argument("--orders", default="[0,1]", help="feature type, e.g. [0,0,1]")
    p.add_argument("--orders-out", dest="orders_out", default=None)
    p.add_argument("--bins", type=int, default=8)
    p.set_defaults(runner=_cmd_gauge_equivariance)

    rnn = sub.add_parser("rnn", help="recurrent model commands").add_subparsers(
        dest="subcommand", required=True)
    p = rnn.add_parser("shift-equivariance", help="padded shift equivariance")
    p.add_argument("--T", type=int, default=12)
    p.add_argument("--m", type=int, default=6)
    p.set_defaults(runner=_cmd_rnn_shift_equivariance)

    lstm = sub.add_parser("lstm", help="gated model commands").add_subparsers(
        dest="subcommand", required=True)
    p = lstm.add_parser("chrono", help="chrono gate-bias initialisation")
    p.add_argument("--tlow", type=float, default=5.0)
    p.add_argument("--thigh", type=float, default=50.0)
    p.add_argument("--m", type=int, default=1000)
    p.set_defaults(runner=_cmd_lstm_chrono)

    return parser


def dispatch(argv):
    """Run one command; returns (exit_code, report or None)."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return (0 if exc.code == 0 else 2), None
    seed = args.seed
    if seed is None:
        seed = int(os.environ.get("GDLKIT_SEED", DEFAULT_SEED))
    command = args.command + (f" {args.subcommand}" if hasattr(args, "subcommand") else "")
    start = time.perf_counter()
    try:
        parameters, metrics, verdicts, payload = args.runner(args, seed)
    except (ValueError, OSError) as exc:
        print(f"gdlkit: error: {exc}", file=sys.stderr)
        return 2, None
    report = Report(command=command, parameters=parameters, metrics=metrics,
                    verdicts=verdicts, seed=seed, payload=payload,
                    runtime_ms=1000.0 * (time.perf_counter() - start))
    try:
        emit(report, args.output, args.format)
    except OSError as exc:
        print(f"gdlkit: error: {exc}", file=sys.stderr)
        return 2, report
    print(f"gdlkit: {command}: {report.runtime_ms:.1f} ms", file=sys.stderr)
    return (0 if report.passed() else 1), report


def main():
    code, _ = dispatch(sys.argv[1:])
    sys.exit(code)


if __name__ == "__main__":
    main()
