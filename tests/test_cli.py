"""The command-line contract: exit 0 when every verdict passes, 1 when one
fails, 2 with a one-line reason on bad input, and report bytes that are a
pure function of (argv, seed, inputs)."""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gdlkit
from gdlkit import equivariant_geo, grid_signals, mesh_core, seq_models, spectral
from gdlkit.cli import _dumps, _random_geometric_graph, _random_graph, build_parser, dispatch

SRC = os.path.dirname(os.path.dirname(os.path.abspath(gdlkit.__file__)))
FLIPPED = "<icosphere 2 with face 0 reversed, as OFF>"
HEADER_ONLY = "<an OFF file holding only its header line>"
TWO_COORDS = "<an OFF file whose second vertex has two coordinates>"
BAD_INDEX = "<an OBJ file with the face f 1 2 x>"
OFF_FACE_BEYOND = "<an OFF file of 3 vertices with the face 3 0 1 3>"
OBJ_FACE_BEYOND = "<an OBJ file of 3 vertices with the face f 1 2 4>"
MESH_FILES = {
    HEADER_ONLY: ("header.off", "OFF\n"),
    TWO_COORDS: ("flat.off", "OFF\n3 1 0\n0 0 0\n1 0\n0 1 0\n3 0 1 2\n"),
    BAD_INDEX: ("bad.obj", "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 x\n"),
    OFF_FACE_BEYOND: ("beyond.off", "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 3\n"),
    OBJ_FACE_BEYOND: ("beyond.obj", "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 4\n"),
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
    (["gnn", "equivariance", "--trials", "0"], "argument --trials: must be at least 1, got 0"),
    (["gnn", "equivariance", "--n", "0"], "argument --n: must be at least 1, got 0"),
    (["egnn", "equivariance", "--trials", "0"], "argument --trials: must be at least 1, got 0"),
    (["egnn", "equivariance", "--n", "0"], "argument --n: must be at least 1, got 0"),
    (["mesh", "spectrum", "--mesh", FLIPPED], "orientation conflict on directed edge"),
    (["rnn", "shift-equivariance", "--m", "0"], "argument --m: must be at least 1, got 0"),
    (["rnn", "shift-equivariance", "--T", "0"], "argument --T: must be at least 1, got 0"),
    (["lstm", "chrono", "--m", "0"], "argument --m: must be at least 1, got 0"),
    (["mesh", "stability", "--epsilon", "-1"], "jitter amplitude must be non-negative"),
    (["group", "table", "--name", "Z0"], "cyclic order must be positive"),
    (["group", "table", "--name", "Q8"], "unknown group name 'Q8'"),
    (["mesh", "stability", "--kind", "cayley", "--degree", "-1"],
     "argument --degree: must be at least 1, got -1"),
    (["mesh", "stability", "--kind", "poly", "--degree", "-1"],
     "argument --degree: must be at least 1, got -1"),
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
    # one bin draws only the zero rotation, so the probe would test nothing
    (["gauge", "equivariance", "--bins", "1"], "argument --bins: must be at least 2, got 1"),
    (["gauge", "equivariance", "--bins", "0"], "argument --bins: must be at least 2, got 0"),
    # the constraint residual gathers a (bins, bins, d_out, d_in) array
    (["gauge", "equivariance", "--bins", "361"], "361 angle bins exceed the cap of 360"),
    # uniform draws on [t_low, inf) overflow
    (["lstm", "chrono", "--thigh", "inf"], "need finite horizons 1 < t_low <= t_high"),
    # the mesh refuses a face index past its vertices, whichever file it came from
    (["mesh", "spectrum", "--mesh", OFF_FACE_BEYOND], "face index out of range"),
    (["mesh", "spectrum", "--mesh", OBJ_FACE_BEYOND], "face index out of range"),
    # a degree-0 filter is a multiple of the identity, stable on any mesh
    (["mesh", "stability", "--kind", "poly", "--degree", "0"],
     "argument --degree: must be at least 1, got 0"),
    (["mesh", "stability", "--kind", "cayley", "--degree", "0"],
     "argument --degree: must be at least 1, got 0"),
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


@pytest.mark.parametrize("command", ["spectrum", "stability"])
@pytest.mark.parametrize("name, text", [("noface.off", "OFF\n3 0 0\n0 0 0\n1 0 0\n0 1 0\n"),
                                        ("noface.obj", "v 0 0 0\nv 1 0 0\nv 0 1 0\n")])
def test_faceless_mesh_files_are_refused_in_one_line(capsys, tmp_path, command, name, text):
    # a RuntimeWarning on the way would fail the test (see pyproject.toml)
    path = tmp_path / name
    path.write_text(text)
    code, out, err = run(capsys, ["mesh", command, "--mesh", str(path)])
    assert code == 2 and out == ""
    assert err == "gdlkit: error: mesh has no edges\n"


# n/(2 pi sigma) at the default n and sigma; at --k0 32 the shift s*k0 is s
# scaled by a power of two, so it lands exactly on a multiple of it
SPREAD = 1024 / (2.0 * np.pi * 32.0)


def fourier_at_shift(shift):
    return ["fourier-instability", "--k0", "32", "--s", repr(float(shift) / 32)]


def direct_at_epsilon(epsilon):
    return ["mesh", "stability", "--mesh", "icosphere:1", "--kind", "direct-highpass",
            "--epsilon", repr(float(epsilon))]


@pytest.mark.parametrize("argv, reason", [
    # between the edges neither the stability nor the instability claim holds
    (fourier_at_shift(np.nextafter(0.5 * SPREAD, np.inf)), "where no verdict is tested"),
    (fourier_at_shift(np.nextafter(1.9 * SPREAD, -np.inf)), "where no verdict is tested"),
    # too little jitter to break the direct transfer
    (direct_at_epsilon(np.nextafter(0.005, 0.0)), "is below 0.005, where --kind direct-highpass"),
    (direct_at_epsilon(0.0), "is below 0.005, where --kind direct-highpass"),
    # a neighbour basis of 8 * 32^4 floats (67 MB)
    (["gauge", "equivariance", "--orders", json.dumps([0] * 32)],
     "types of dimension 32 -> 32 at 8 angle bins need 8388608 floats, above the cap"),
])
def test_refusals_come_before_any_work(capsys, monkeypatch, argv, reason):
    def unreachable(*args, **kwargs):
        raise AssertionError("a refused run started its work")

    monkeypatch.setattr(grid_signals, "modulus_instability_ratio", unreachable)
    monkeypatch.setattr(spectral, "perturbation_stability_experiment", unreachable)
    monkeypatch.setattr(mesh_core, "icosphere", unreachable)
    monkeypatch.setattr(equivariant_geo, "rep_matrix", unreachable)
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("gdlkit: error: ") and reason in lines[0]


@pytest.mark.parametrize("argv, verdict", [
    (fourier_at_shift(0.5 * SPREAD), "stable_at_low_frequency"),
    (fourier_at_shift(1.9 * SPREAD), "unstable_at_high_frequency"),
    (direct_at_epsilon(0.005), "direct_transfer_unstable"),
    (["gauge", "equivariance", "--orders", "[0,1,2]"], "gauge_equivariant"),
])
def test_region_edges_are_accepted(capsys, argv, verdict):
    code, out, _ = run(capsys, argv)
    assert code in (0, 1)
    assert list(json.loads(out)["verdicts"]) == [verdict]


def test_unparsable_seed_variable_exits_2_with_one_line_reason(capsys, monkeypatch):
    monkeypatch.setenv("GDLKIT_SEED", "abc")
    code, out, err = run(capsys, ["group", "table"])
    assert code == 2
    assert out == ""
    assert err == "gdlkit: error: GDLKIT_SEED must be an integer, got 'abc'\n"


def test_group_table_at_the_closure_cap(capsys):
    code, out, _ = run(capsys, ["group", "table", "--name", "Z1024"])
    assert code == 0
    report = json.loads(out)
    assert report["metrics"]["order"] == 1024 and len(report["table"]) == 1024
    assert report["verdicts"] == {"axioms_pass": True}


# sha256 of the reports at --seed 7: element indices follow the breadth-first
# closure, and a reordering of the elements changes these bytes
GROUP_TABLE_DIGESTS = {
    "D3": "9cfbf519426e0bab36be50fa8eabfd7c62fa57082c8a6a28b34c69203a2d4026",
    "Oh": "df7e19237a18bd97c0a8f466eb3a0449b7bcf3d1c9d8ce3f37f31d09f2606873",
    "revcomp": "82106879fe8e762cf3e0b37b2a9d4296e90631f1b01bb515228c502c357a16d6",
    "Z12": "a2d924fd9807e86fefd62c9e9101cff70314865d6813c15516c42a19f17c86ff",
    "Z240": "e87272d0bff4e6e8b42c27f73949522afcf58cda1bd167de78da7d95b56803f8",
}


@pytest.mark.parametrize("name", sorted(GROUP_TABLE_DIGESTS))
def test_group_table_reports_are_pinned(capsys, name):
    code, out, _ = run(capsys, ["--seed", "7", "group", "table", "--name", name])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GROUP_TABLE_DIGESTS[name]


# sha256 of the reports at --seed 7: the equivariance errors are sums in a
# fixed order, so a change to how a layer evaluates its transforms (per node
# or per edge) that moves any bit of the output changes these bytes
LAYER_REPORT_DIGESTS = {
    "gnn equivariance --flavour conv":
        "c8b6757fe4ba2a917c7df7e14f3329538dba6a9fd64adb6dbd61154ac76db989",
    "gnn equivariance --flavour attn":
        "de1b83453f9216297f2f1b90e7ce400336ab8079c94f4d5b3612c8269072bb9a",
    "gnn equivariance --flavour mpnn":
        "bd56652132b1bb3008addd726109752d89a3807dc056fff3348082d4e725db39",
    "gnn equivariance --flavour conv --n 100 --trials 5":
        "453ba71f4fbf28f98d8b1520969d0a3a946da6b85e13ea0e73197d042547027e",
    "gnn equivariance --flavour attn --n 100 --trials 5":
        "a58bb2c2d4ae72fdfbc867d9746c7402ba4c4d62120248a9500d4717339cb55b",
    "egnn equivariance":
        "9050402f68321a444534bb24f81f119e8f3efa8eaf4a58fc0ecbcf0d3206e3fc",
    "egnn equivariance --n 150 --trials 4":
        "82198efd5adb53c5b9f2d22665e282e2e5a14a63ea3b2e8e4404dedbab48c148",
}


@pytest.mark.parametrize("argv", sorted(LAYER_REPORT_DIGESTS))
def test_layer_reports_are_pinned(capsys, argv):
    code, out, _ = run(capsys, ["--seed", "7", *argv.split()])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == LAYER_REPORT_DIGESTS[argv]


# sha256 of the reports at --seed 7 of commands that run no eigensolve, so
# their bytes depend on neither the solver nor the BLAS thread count
REPORT_DIGESTS = {
    "fourier-instability":
        "7184413aaf2a46298e6bae81233ae1836c5d08b883a1541816e61b66d9e8530f",
    "fourier-instability --k0 5":
        "8eb5401bed169288b146794515115b5cf12da164681cca2493a6288c649eb463",
    "gauge equivariance":
        "378b36a400e72d7cbc88dc5b917fd5d48b76acd1ad88161be4dce6995dd1ec5a",
    "gauge equivariance --orders [0,1] --orders-out [1,2]":
        "268c533be1523c9aeedb9bc6d4ae1034e665ee6c74381d37cba900329215bf94",
    # rotations by the grid matrices at 2 pi k / N, which the kernel constraint
    # is solved with: max_deviation 7.105427357601002e-15; rotations at
    # k (2 pi / N) read 7.549516567451064e-15
    "gauge equivariance --bins 6":
        "582c866c98f01d132512f53ced283bb0006f80cca9ebe3b1036ea49f72fa6a4e",
    # likewise 4.440892098500626e-15; at k (2 pi / N) 5.10702591327572e-15
    "gauge equivariance --bins 12":
        "f96a539366172b130f547412570b269ef733b814aecb23500683358b06a89378",
    "rnn shift-equivariance":
        "a67576d8411e7a69935a01ab80ee361741cf8e7db09235a1497402da75230279",
    "lstm chrono":
        "217856d39448654a7e06cad331bbf99165fbec15c6efb017aa8c4392b5895555",
    "--format csv gauge equivariance":
        "d644f68081300ba1e215bfb0fd6746a0e4c57ac5258cd77c1b415480aad5ddc6",
}


@pytest.mark.parametrize("argv", sorted(REPORT_DIGESTS))
def test_reports_are_pinned(capsys, argv):
    code, out, _ = run(capsys, ["--seed", "7", *argv.split()])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == REPORT_DIGESTS[argv]


# options that keep each command's run short; every other command runs at its defaults
QUICK_OPTIONS = {
    "gnn equivariance": ["--n", "6", "--trials", "2"],
    "egnn equivariance": ["--n", "6", "--trials", "2"],
    "mesh spectrum": ["--mesh", "icosphere:1", "--k", "8"],
    "mesh stability": ["--mesh", "icosphere:1"],
}


def leaf_parsers(parser, path=()):
    """(command words, parser) of every command that has a runner."""
    subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subparsers:
        yield " ".join(path), parser
    for action in subparsers:
        for name, child in action.choices.items():
            yield from leaf_parsers(child, (*path, name))


def test_report_parameters_are_the_commands_own_options():
    leaves = dict(leaf_parsers(build_parser()))
    assert len(leaves) == 9
    for command, parser in leaves.items():
        dests = {a.dest for a in parser._actions if not isinstance(a, argparse._HelpAction)}
        argv = ["--seed", "7", "--output", os.devnull, *command.split(),
                *QUICK_OPTIONS.get(command, [])]
        code, report = dispatch(argv)
        assert code == 0, command
        assert report["command"] == command
        assert set(report["parameters"]) == dests, command
        parsed = vars(build_parser().parse_args(argv))
        if command == "gauge equivariance":  # reported as resolved from --orders
            assert parsed["orders_out"] is None
            parsed["orders_out"] = parsed["orders"]
        assert report["parameters"] == {dest: parsed[dest] for dest in dests}, command


def test_reports_restate_no_option():
    """Options appear in a report under ``parameters`` alone."""
    for command, _ in leaf_parsers(build_parser()):
        argv = ["--seed", "7", "--output", os.devnull, *command.split(),
                *QUICK_OPTIONS.get(command, [])]
        _, report = dispatch(argv)
        assert not set(report) & set(report["parameters"]), command


RERUN_ARGV = [
    ["gnn", "equivariance", "--flavour", "attn", "--n", "8", "--trials", "3"],
    ["egnn", "equivariance", "--n", "7", "--trials", "3"],
    ["gauge", "equivariance", "--mesh", "icosphere:2", "--bins", "4"],
    ["group", "table", "--name", "revcomp"],
    ["fourier-instability", "--n", "1000"],
    ["mesh", "stability", "--kind", "poly"],
    ["mesh", "spectrum"],
    ["rnn", "shift-equivariance", "--T", "200", "--m", "8"],
    ["lstm", "chrono"],
]


@pytest.mark.parametrize("argv", RERUN_ARGV)
def test_reports_byte_identical_across_hash_seeds(argv):
    assert_reruns_identical(argv, {})


@pytest.mark.parametrize("argv", RERUN_ARGV + [
    ["mesh", "spectrum", "--mesh", "icosphere:3", "--k", "32"],
])
def test_reports_laid_out_as_indented_json(capsys, argv):
    code, out, _ = run(capsys, ["--seed", "7", *argv])
    assert code == 0
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


# report keys: non-ASCII, quotes, backslashes and control characters included
KEYS = st.text() | st.sampled_from(["", "\"", "\\", "\x00", "\n\t", "\u00e9", "\u2028", "\U0001f600"])
SCALARS = (st.none() | st.booleans() | st.text()
           | st.integers() | st.integers(min_value=2**64) | st.integers(max_value=-2**64)
           | st.floats() | st.sampled_from([-0.0, 5e-324, 2.2e-308, float("inf"), -float("inf")])
           | st.floats().map(np.float64) | st.just([]) | st.just({}))
REPORT_VALUES = st.recursive(
    SCALARS,
    lambda children: (st.lists(children, max_size=6) | st.lists(children, max_size=6).map(tuple)
                      | st.dictionaries(KEYS, children, max_size=5)),
    max_leaves=40)


@given(REPORT_VALUES)
@settings(max_examples=300, deadline=None)
def test_dumps_writes_the_bytes_of_indented_json(obj):
    assert _dumps(obj) == json.dumps(obj, sort_keys=True, indent=2)


@pytest.mark.parametrize("obj", [
    {1: "x"}, {None: 1}, {1.5: 2.0}, {True: 0},
    {"rows": [[1, 2], {"inner": {3: 4}}]},
])
def test_dumps_refuses_keys_json_would_convert(obj):
    json.dumps(obj, sort_keys=True, indent=2)  # json writes these keys as strings
    with pytest.raises(TypeError):
        _dumps(obj)


def test_parser_defaults_are_immutable():
    # every dispatch of a process shares one parser
    parsers = [build_parser()]
    for parser in parsers:
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend(action.choices.values())
            else:
                assert action.default is None or type(action.default) in (str, int, float)
                # argparse converts only str defaults, so a bound must hold for the
                # default as written
                if action.type is not None and action.default is not None:
                    assert action.type(str(action.default)) == action.default
    assert "gdlkit group table" in {parser.prog for parser in parsers}


def test_dispatches_share_one_parser_and_no_state(capsys, monkeypatch):
    build_parser.cache_clear()
    gnn = ["gnn", "equivariance", "--n", "6", "--trials", "2"]
    code, out, err = run(capsys, [*gnn[:2], "--flavour", "attn", *gnn[2:]])
    assert code == 0 and json.loads(out)["parameters"]["flavour"] == "attn"
    assert re.fullmatch(r"gdlkit: gnn equivariance: \d+\.\d ms, report \d+\.\d ms\n", err)
    code, out, _ = run(capsys, gnn)
    assert code == 0 and json.loads(out)["parameters"]["flavour"] == "conv"

    assert run(capsys, ["mesh", "stability", "--k", "3"])[0] == 2
    assert run(capsys, gnn)[0] == 0

    code, out, _ = run(capsys, ["--seed", "9", *gnn])
    assert code == 0 and json.loads(out)["seed"] == 9
    monkeypatch.setenv("GDLKIT_SEED", "5")
    assert json.loads(run(capsys, gnn)[1])["seed"] == 5
    monkeypatch.delenv("GDLKIT_SEED")
    assert json.loads(run(capsys, gnn)[1])["seed"] == 42
    assert build_parser.cache_info().misses == 1


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
             ["rnn", "shift-equivariance"], ["lstm", "chrono"], ["gauge", "equivariance"],
             ["egnn", "equivariance", "--n", "6", "--trials", "2"],
             *(["gnn", "equivariance", "--flavour", flavour, "--n", "6", "--trials", "2"]
               for flavour in ("conv", "attn", "mpnn"))):
    assert dispatch(argv)[0] == 0, argv
    assert not loaded("scipy.sparse"), (argv, loaded("scipy.sparse"))
assert dispatch(["mesh", "spectrum", "--mesh", "icosphere:1", "--k", "8"])[0] == 0
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
    edges = np.array(_pairs_by_loop(n, 0.4, oracle), dtype=int).reshape(-1, 2)
    assert np.array_equal(geo.edges, edges)
    assert np.array_equal(geo.positions, positions) and np.array_equal(geo.features, features)
    assert rng.uniform() == oracle.uniform()
