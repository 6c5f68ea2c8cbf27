"""Tests of the benchmark itself, at the workloads' toy ("smoke") sizes.

Run with ``PYTHONPATH=src python -m pytest -q bench/tests``.
"""

import copy
import json
import os
import re
import sys
from dataclasses import fields, is_dataclass

import numpy as np
import pytest
import scipy.sparse as sp

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    CONFIG = json.load(_fh)
END_TO_END = [m["name"] for m in CONFIG["end_to_end"]]
PER_LAYER = [m["name"] for m in CONFIG["per_layer"]]
NAMES = sorted(workloads.WORKLOADS)


def arrays(obj):
    """Every array inside ``obj`` (sparse matrices by their data), in a
    fixed traversal order."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if sp.issparse(obj):
        return [obj.data]
    if is_dataclass(obj):
        return [a for f in fields(obj) for a in arrays(getattr(obj, f.name))]
    if isinstance(obj, dict):
        return [a for key in sorted(obj, key=str) for a in arrays(obj[key])]
    if isinstance(obj, (list, tuple)):
        return [a for item in obj for a in arrays(item)]
    return []


def corrupted(result):
    """Copies of ``result`` with one entry changed each: every array in
    turn, or the last histogram of a list of histograms."""
    for index in range(len(arrays(result))):
        bad = copy.deepcopy(result)
        target = arrays(bad)[index]
        mid = target.size // 2
        if target.dtype.kind in "iu":
            target.flat[mid] = (target.flat[mid] + 1) % (target.max() + 1)
        else:
            target.flat[mid] += 1e-6 * max(1.0, float(np.max(np.abs(target))))
        yield bad
    if isinstance(result, list) and result and isinstance(result[-1], tuple):
        *head, last = result
        yield head + [(*last[:-1], last[-1] + 1)]


@pytest.fixture(scope="module", params=NAMES)
def smoke(request, tmp_path_factory):
    workload = workloads.WORKLOADS[request.param]("smoke")
    inputs = workload.setup(5)
    inputs["outdir"] = str(tmp_path_factory.mktemp("reports"))
    return request.param, workload, inputs


def test_metric_names_are_well_formed_and_unique():
    pattern = re.compile(r"[A-Za-z0-9_.-]+")
    names = END_TO_END + PER_LAYER + [w["name"] for w in CONFIG["workloads"]]
    assert all(pattern.fullmatch(name) and len(name) <= 64 for name in names)
    assert len(set(END_TO_END + PER_LAYER)) == len(END_TO_END + PER_LAYER)
    assert set(END_TO_END) == {"setup_s", "verdict_s", "layers_s", "peak_rss_mb", "pass_frac"}
    assert [w["name"] for w in CONFIG["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(workloads.WORKLOADS)


def test_every_workload_emits_every_end_to_end_metric(smoke, tmp_path):
    name, workload, _ = smoke
    result = worker.measure(workload, 5, 0.0, "timed", str(tmp_path))
    values = run.end_to_end(dict(result, import_s=0.0))
    assert list(values) == END_TO_END
    assert all(np.isfinite(v) and v > 0 for v in values.values())
    known = [f for f in result["failures"] if f["known"]]
    assert len(known) == len(result["failures"])
    assert values["pass_frac"] == 1.0 - len(known) / result["attempted"]


def test_traced_run_emits_every_per_layer_metric_and_unwraps(tmp_path):
    workload = workloads.WORKLOADS["groups-grids"]("smoke")
    plain = worker.measure(workload, 5, 0.0, "once", str(tmp_path))
    from gdlkit import equivariant_geo, graph_nn, numkit, spectral
    eigensolver = numkit.generalized_sym_eig
    tracer = tracing.Tracer()
    replaced = tracing.install(tracer)
    try:
        assert spectral.generalized_sym_eig is numkit.generalized_sym_eig is not eigensolver
        rebound = {(mod.__name__, attr) for mod, attr, _ in replaced}
        for binding in (("gdlkit.spectral", "generalized_sym_eig"),
                        ("gdlkit.spectral", "complex_linear_solve"),
                        ("gdlkit.equivariant_geo", "tree_sum"),
                        ("gdlkit.equivariant_geo", "nullspace_basis")):
            assert binding in rebound
        traced = worker.measure(workload, 5, 0.0, "traced", str(tmp_path), tracer)
    finally:
        tracing.uninstall(replaced)
    assert spectral.generalized_sym_eig is eigensolver
    assert equivariant_geo.tree_sum is graph_nn.tree_sum
    assert all(getattr(mod, attr) is original for mod, attr, original in replaced)
    values = run.per_layer(plain, traced, PER_LAYER)
    assert set(values) == set(PER_LAYER)
    assert values["finite_groups.group_from_generators.s"] > 0
    assert values["finite_groups.verify_group_axioms.calls"] >= 3
    assert values["cli.dispatch.s"] > 0
    assert values["finite_groups.regular_representation.dense_bytes"] > 0


def test_seed_changes_inputs_but_not_operations():
    for name in NAMES:
        first = workloads.WORKLOADS[name]("smoke")
        second = workloads.WORKLOADS[name]("smoke")
        assert [op.name for op in first.ops] == [op.name for op in second.ops]
        a, b, again = first.setup(1), second.setup(2), first.setup(1)
        shapes = [x.shape for x in arrays(a)]
        assert shapes == [x.shape for x in arrays(b)]
        assert all(np.array_equal(x, y) for x, y in zip(arrays(a), arrays(again)))
        assert not all(np.array_equal(x, y) for x, y in zip(arrays(a), arrays(b)))


def test_checkers_accept_results_and_reject_corrupted_ones(smoke):
    name, workload, inputs = smoke
    for op in workload.ops:
        if op.kind == "cli":
            with pytest.raises(checks.Wrong):
                op.check(inputs, (1, os.path.join(inputs["outdir"], "unused.json")))
            continue
        result = op.run(inputs)
        op.check(inputs, result)
        variants = list(corrupted(result))
        assert variants, op.name
        for bad in variants:
            with pytest.raises(checks.Wrong):
                op.check(inputs, bad)


def test_group_table_checker_rejects_a_wrong_entry(tmp_path):
    workload = workloads.WORKLOADS["groups-grids"]("smoke")
    inputs = {"seed": 5, "outdir": str(tmp_path)}
    op = next(op for op in workload.ops if op.name.startswith("cli:group table --name Z"))
    code, path = op.run(inputs)
    op.check(inputs, (code, path))
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    report["table"][2][3], report["table"][2][4] = report["table"][2][4], report["table"][2][3]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    with pytest.raises(checks.Wrong):
        op.check(inputs, (code, path))


def test_spectral_checker_rejects_a_perturbed_eigenvector():
    workload = workloads.WORKLOADS["mesh-spectral"]("smoke")
    inputs = workload.setup(5)
    op = next(op for op in workload.ops if op.name.startswith("spectral_basis"))
    basis = op.run(inputs)
    op.check(inputs, basis)
    basis.vectors[:, 3] += 1e-6 * basis.vectors[:, 4]
    with pytest.raises(checks.Wrong):
        op.check(inputs, basis)
