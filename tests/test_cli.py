"""The command-line contract: exit 0 when every verdict passes, 1 when one
fails, 2 with a one-line reason on bad input, and report bytes that are a
pure function of (argv, seed, inputs)."""

import json
import os
import subprocess
import sys

import pytest

import gdlkit
from gdlkit import mesh_core
from gdlkit.cli import dispatch

SRC = os.path.dirname(os.path.dirname(os.path.abspath(gdlkit.__file__)))
FLIPPED = "<icosphere 2 with face 0 reversed, as OFF>"


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
])
def test_bad_input_exits_2_with_one_line_reason(capsys, tmp_path, argv, reason):
    if FLIPPED in argv:
        mesh = mesh_core.icosphere(2)
        faces = mesh.faces.copy()
        faces[0] = faces[0, ::-1]
        path = str(tmp_path / "flipped.off")
        mesh_core.save_mesh(path, mesh_core.TriMesh(vertices=mesh.vertices, faces=faces))
        argv = [path if arg == FLIPPED else arg for arg in argv]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("gdlkit: error: ") and reason in lines[0]


@pytest.mark.parametrize("argv", [
    ["gnn", "equivariance", "--flavour", "attn", "--n", "8", "--trials", "3"],
    ["egnn", "equivariance", "--n", "7", "--trials", "3"],
    ["gauge", "equivariance", "--mesh", "icosphere:2", "--bins", "4"],
])
def test_reports_byte_identical_across_hash_seeds(argv):
    reports = []
    for hash_seed in ("0", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        env.pop("GDLKIT_SEED", None)
        proc = subprocess.run([sys.executable, "-m", "gdlkit.cli", "--seed", "7", *argv],
                              env=env, capture_output=True, timeout=120, check=False)
        assert proc.returncode == 0, proc.stderr.decode()
        reports.append(proc.stdout)
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["seed"] == 7
