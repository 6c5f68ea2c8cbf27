"""The command-line contract: exit 0 when every verdict passes, 1 when one
fails, 2 with a one-line reason on bad input, and report bytes that are a
pure function of (argv, seed, inputs)."""

import json
import os
import subprocess
import sys

import pytest

import gdlkit
from gdlkit.cli import dispatch

SRC = os.path.dirname(os.path.dirname(os.path.abspath(gdlkit.__file__)))


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
])
def test_bad_input_exits_2_with_one_line_reason(capsys, argv, reason):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("gdlkit: error: ") and reason in lines[0]


@pytest.mark.parametrize("argv", [
    ["gnn", "equivariance", "--flavour", "attn", "--n", "8", "--trials", "3"],
    ["egnn", "equivariance", "--n", "7", "--trials", "3"],
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
