"""The command-line contract: exit 0 when every verdict passes, 1 when one
fails, 2 with a one-line reason on bad input, and report bytes that are a
pure function of (argv, seed, inputs)."""

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import gdlkit
from gdlkit import mesh_core, seq_models
from gdlkit.cli import _random_geometric_graph, _random_graph, dispatch

SRC = os.path.dirname(os.path.dirname(os.path.abspath(gdlkit.__file__)))
FLIPPED = "<icosphere 2 with face 0 reversed, as OFF>"
HEADER_ONLY = "<an OFF file holding only its header line>"
TWO_COORDS = "<an OFF file whose second vertex has two coordinates>"
BAD_INDEX = "<an OBJ file with the face f 1 2 x>"
MESH_FILES = {
    HEADER_ONLY: ("header.off", "OFF\n"),
    TWO_COORDS: ("flat.off", "OFF\n3 1 0\n0 0 0\n1 0\n0 1 0\n3 0 1 2\n"),
    BAD_INDEX: ("bad.obj", "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 x\n"),
}


def run(capsys, argv):
    code, _ = dispatch(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_passing_probe_exits_0(capsys):
    code, out, _ = run(capsys, ["gnn", "equivariance", "--n", "6", "--trials", "2"])
    assert code == 0
    assert json.loads(out)["verdicts"] == {"equivariant": True}


def test_failing_verdict_exits_1(capsys):
    code, out, _ = run(capsys, ["mesh", "stability", "--kind", "cayley"])
    assert code == 1
    assert not all(json.loads(out)["verdicts"].values())


def test_shift_verdict_fails_off_the_fixed_point(capsys, monkeypatch):
    def off_fixed_point(params, tol):
        return np.full(params.state_width, 0.7), [0.0]

    monkeypatch.setattr(seq_models, "rnn_fixed_point", off_fixed_point)
    code, out, _ = run(capsys, ["rnn", "shift-equivariance", "--T", "30", "--m", "5"])
    assert code == 1
    assert json.loads(out)["verdicts"] == {"shift_equivariant": False,
                                           "fixed_point_converged": True}


def test_usage_error_exits_2(capsys):
    code, out, _ = run(capsys, ["gnn", "equivariance", "--flavour", "gat"])
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("argv, reason", [
    (["gauge", "equivariance", "--orders", "3"], "orders must be"),
    (["gauge", "equivariance", "--orders", '["a"]'], "orders must be"),
    (["gauge", "equivariance", "--orders-out", "3"], "orders must be"),
    (["gnn", "equivariance", "--trials", "0"], "--n and --trials must be at least 1"),
    (["gnn", "equivariance", "--n", "0"], "--n and --trials must be at least 1"),
    (["egnn", "equivariance", "--trials", "0"], "--n and --trials must be at least 1"),
    (["egnn", "equivariance", "--n", "0"], "--n and --trials must be at least 1"),
    (["mesh", "spectrum", "--mesh", FLIPPED], "orientation conflict on directed edge"),
    (["rnn", "shift-equivariance", "--m", "0"], "--T and --m must be at least 1"),
    (["rnn", "shift-equivariance", "--T", "0"], "--T and --m must be at least 1"),
    (["lstm", "chrono", "--m", "0"], "--m must be at least 1"),
    (["mesh", "stability", "--epsilon", "-1"], "jitter amplitude must be non-negative"),
    (["group", "table", "--name", "Z0"], "cyclic order must be positive"),
    (["group", "table", "--name", "Q8"], "unknown group name 'Q8'"),
    (["mesh", "stability", "--kind", "cayley", "--degree", "-1"], "--degree must be at least 0"),
    (["mesh", "stability", "--kind", "poly", "--degree", "-1"], "--degree must be at least 0"),
    (["mesh", "spectrum", "--mesh", "icosphere:x"], "mesh spec 'icosphere:x'"),
    (["mesh", "stability", "--mesh", "icosphere:1", "--k", "3"], "unrecognized arguments: --k 3"),
    (["mesh", "stability", "--deg", "2"], "unrecognized arguments: --deg 2"),
    (["mesh", "spectrum", "--mesh", "icosphere:1", "--k", "43"], "k=43 out of range"),
    (["fourier-instability", "--n", "0"], "signal length n must be at least 1"),
    (["fourier-instability", "--n", "-5"], "signal length n must be at least 1"),
    (["mesh", "spectrum", "--mesh", HEADER_ONLY], "truncated OFF file"),
    (["mesh", "spectrum", "--mesh", TWO_COORDS],
     "OFF line 4: a vertex needs 3 coordinates, got 2"),
    (["mesh", "spectrum", "--mesh", BAD_INDEX], "OBJ line 4: 'x' is not an integer"),
    (["group", "table", "--name", "Z100000"],
     "cyclic order 100000 exceeds the closure cap of 1024 elements"),
    (["group", "table", "--name", "Z1025"],
     "cyclic order 1025 exceeds the closure cap of 1024 elements"),
    # 2**48 bytes and more: numpy refuses these before allocating anything
    (["rnn", "shift-equivariance", "--m", "10000000"], "Unable to allocate 728. TiB"),
    (["lstm", "chrono", "--m", str(2 ** 45)], "Unable to allocate 256. TiB"),
])
def test_bad_input_exits_2_with_one_line_reason(capsys, tmp_path, argv, reason):
    if FLIPPED in argv:
        mesh = mesh_core.icosphere(2)
        faces = mesh.faces.copy()
        faces[0] = faces[0, ::-1]
        path = tmp_path / "flipped.off"
        path.write_text(f"OFF\n{mesh.n_vertices} {mesh.n_faces} 0\n"
                        + "".join(f"{x!r} {y!r} {z!r}\n" for x, y, z in mesh.vertices.tolist())
                        + "".join(f"3 {a} {b} {c}\n" for a, b, c in faces.tolist()))
        argv = [str(path) if arg == FLIPPED else arg for arg in argv]
    for placeholder, (name, text) in MESH_FILES.items():
        if placeholder in argv:
            path = tmp_path / name
            path.write_text(text)
            argv = [str(path) if arg == placeholder else arg for arg in argv]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("gdlkit: error: ") and reason in lines[0]


def test_group_table_at_the_closure_cap(capsys):
    code, out, _ = run(capsys, ["group", "table", "--name", "Z1024"])
    assert code == 0
    report = json.loads(out)
    assert report["order"] == 1024 and len(report["table"]) == 1024
    assert report["verdicts"] == {"axioms_pass": True}


# sha256 of the reports at --seed 7: element indices follow the breadth-first
# closure, and a reordering of the elements changes these bytes
GROUP_TABLE_DIGESTS = {
    "D3": "05f7a48ece8283ee3c1313387526ef5a349f84095de5349482b6c125cb9cb4c5",
    "Oh": "b49b35ecfa3a38e0e98d03331162b1074e664718410d243aa0e0f17afb167eb6",
    "revcomp": "aa9097e8734e7007272edb276d6ed7995d5afc9f0f871445e8a3f2b5cf607ab4",
    "Z12": "efed46062cd494acf04aaec0e69bda8c083e920a220c41e11ba898b29837f871",
}


@pytest.mark.parametrize("name", sorted(GROUP_TABLE_DIGESTS))
def test_group_table_reports_are_pinned(capsys, name):
    code, out, _ = run(capsys, ["--seed", "7", "group", "table", "--name", name])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GROUP_TABLE_DIGESTS[name]


@pytest.mark.parametrize("argv", [
    ["gnn", "equivariance", "--flavour", "attn", "--n", "8", "--trials", "3"],
    ["egnn", "equivariance", "--n", "7", "--trials", "3"],
    ["gauge", "equivariance", "--mesh", "icosphere:2", "--bins", "4"],
    ["group", "table", "--name", "revcomp"],
    ["fourier-instability", "--n", "1000"],
    ["mesh", "stability", "--kind", "poly"],
    ["mesh", "spectrum"],
    ["rnn", "shift-equivariance", "--T", "200", "--m", "8"],
    ["lstm", "chrono"],
])
def test_reports_byte_identical_across_hash_seeds(argv):
    assert_reruns_identical(argv, {})


@pytest.mark.parametrize("argv", [
    ["mesh", "stability", "--kind", "direct-highpass"],
    ["mesh", "spectrum", "--mesh", "icosphere:4", "--k", "64"],
])
def test_eigensolver_reports_byte_identical_at_two_blas_threads(argv):
    # reruns agree at one thread count; reports at 1 and 2 threads may differ
    threads = "2"
    assert_reruns_identical(argv, {"OPENBLAS_NUM_THREADS": threads,
                                   "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads})


NO_SPARSE_AT_START_UP = """
import sys
from gdlkit.cli import dispatch

def loaded(prefix):
    return sorted(m for m in sys.modules if m == prefix or m.startswith(prefix + "."))

assert not loaded("scipy"), loaded("scipy")
for argv in (["group", "table", "--name", "Oh"], ["fourier-instability"],
             ["rnn", "shift-equivariance"], ["lstm", "chrono"], ["gauge", "equivariance"]):
    assert dispatch(argv)[0] == 0, argv
    assert not loaded("scipy.sparse"), (argv, loaded("scipy.sparse"))
for argv in (["mesh", "spectrum", "--mesh", "icosphere:1", "--k", "8"],
             ["gnn", "equivariance", "--n", "6", "--trials", "2"]):
    assert dispatch(argv)[0] == 0, argv
"""


def test_group_grid_and_sequence_commands_start_without_scipy_sparse():
    # a fresh process: pytest has imported scipy.sparse to resolve the
    # filterwarnings entry of pyproject.toml
    proc = subprocess.run([sys.executable, "-c", NO_SPARSE_AT_START_UP], env=src_env(),
                          capture_output=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr.decode()


def src_env(**extra):
    """This process's environment plus ``extra``, with the package's ``src``
    first on the import path."""
    return dict(os.environ, **extra,
                PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))


def assert_reruns_identical(argv, extra_env):
    reports = []
    for hash_seed in ("0", "12345"):
        env = src_env(PYTHONHASHSEED=hash_seed, **extra_env)
        env.pop("GDLKIT_SEED", None)
        proc = subprocess.run([sys.executable, "-m", "gdlkit.cli", "--seed", "7", *argv],
                              env=env, capture_output=True, timeout=120, check=False)
        assert proc.returncode == 0, proc.stderr.decode()
        reports.append(proc.stdout)
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["seed"] == 7


def _pairs_by_loop(n, p, rng):
    """Oracle: one scalar uniform draw per node pair ``u < v``, row by row."""
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.uniform() < p:
                edges.append((u, v))
    return edges


@pytest.mark.parametrize("n", [1, 2, 12, 150])
def test_random_graphs_match_per_pair_draws(n):
    rng, oracle = np.random.default_rng(n), np.random.default_rng(n)
    g = _random_graph(n, 5, rng)
    edges = _pairs_by_loop(n, 0.35, oracle)
    rows, cols = g.adjacency.nonzero()
    assert sorted((int(a), int(b)) for a, b in zip(rows, cols) if a < b) == edges
    assert np.array_equal(g.features, oracle.standard_normal((n, 5)))
    assert rng.uniform() == oracle.uniform()

    geo = _random_geometric_graph(n, 5, rng)
    positions, features = oracle.standard_normal((n, 3)), oracle.standard_normal((n, 5))
    assert geo.edges == _pairs_by_loop(n, 0.4, oracle)
    assert np.array_equal(geo.positions, positions) and np.array_equal(geo.features, features)
    assert rng.uniform() == oracle.uniform()
