"""Spans around calls into ``gdlkit``, for the traced run only.

:func:`install` replaces each listed function with a wrapper on every
``gdlkit`` module that binds it, ``from ... import`` rebindings included,
so that calls made inside the package are seen too.  A spanned wrapper
records (name, start, end, parent span, operation); a counted wrapper,
used for functions called once per node or edge, only counts calls and
leaves its time to the caller's span.  Spans stay in memory until
:meth:`Tracer.write`.  The untraced run never imports this module.
"""

import importlib
import json
import sys
import tracemalloc
from collections import defaultdict
from time import perf_counter

SPANNED = (
    "numkit.generalized_sym_eig", "numkit.complex_linear_solve", "numkit.nullspace_basis",
    "mesh_core.cotan_laplacian", "mesh_core.jitter_mesh", "mesh_core.icosphere",
    "spectral.spectral_basis", "spectral.apply_poly_filter", "spectral.apply_cayley_filter",
    "spectral.fit_poly_to_transfer", "spectral.fit_cayley_to_transfer",
    "spectral.perturbation_stability_experiment", "spectral.fourier_coefficients",
    "spectral.apply_transfer_direct",
    "graph_nn.gnn_forward", "graph_nn.wl_refine", "graph_nn.permute_graph",
    "graph_nn.graph_from_edges",
    "equivariant_geo.egnn_layer", "equivariant_geo.tangent_frames",
    "equivariant_geo.one_ring_log_map", "equivariant_geo.transport_angles",
    "equivariant_geo.kernel_constraint_basis", "equivariant_geo.gauge_conv",
    "equivariant_geo.gauge_transform",
    "finite_groups.group_from_generators", "finite_groups.verify_group_axioms",
    "finite_groups.regular_representation", "finite_groups.transform_convolve",
    "finite_groups.cayley_table_json",
    "grid_signals.circulant_apply", "grid_signals.dft", "grid_signals.warp_signal",
    "grid_signals.modulus_instability_ratio",
    "seq_models.simple_rnn_forward", "seq_models.lstm_forward", "seq_models.rnn_fixed_point",
    "cli.dispatch", "cli.emit",
)

COUNTED = ("graph_nn.conv_coefficient", "graph_nn.tree_sum", "equivariant_geo.rep_matrix",
           "equivariant_geo.kernel_constraint_residual", "grid_signals.dft_direct")

# span-name tag taken from the call's arguments: a size or a flavour
TAGS = {"spectral.spectral_basis": lambda args: f"n{args[0].n}",
        "graph_nn.gnn_forward": lambda args: str(args[1])}

# functions whose peak allocation is recorded as ``dense_bytes``: the n x n
# dense arrays they build dominate it (numpy reports allocations to tracemalloc)
MEMORY = {"numkit.generalized_sym_eig", "spectral.apply_cayley_filter",
          "finite_groups.regular_representation", "grid_signals.circulant_apply"}

# functions whose result's operator size is recorded as ``nnz``
NNZ = {"mesh_core.cotan_laplacian": lambda pair: pair.stiffness.nnz}


class Tracer:
    """Spans and counters of one traced process."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, operation]
        self.stack = []
        self.counters = defaultdict(float)
        self.operation = "setup"
        self.active = True

    def spanned(self, name, fn, tag=None, memory=False, nnz=None):
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            full = f"{name}.{tag(args)}" if tag else name
            index = len(self.spans)
            self.spans.append([full, 0.0, 0.0, self.stack[-1] if self.stack else None,
                               self.operation])
            self.stack.append(index)
            measure = memory and not tracemalloc.is_tracing()
            if measure:
                tracemalloc.start()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self.stack.pop()
                self.spans[index][1:3] = [start, end]
                if measure:
                    self.counters[f"{full}.dense_bytes"] += tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            if nnz is not None:
                self.counters[f"{full}.nnz"] += nnz(result)
            return result
        return wrapper

    def counted(self, name, fn):
        def wrapper(*args, **kwargs):
            if self.active:
                self.counters[f"{name}.calls"] += 1
            return fn(*args, **kwargs)
        return wrapper

    def layer_table(self):
        """Self time and call count per span name, plus the counters."""
        covered = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        table = defaultdict(float, self.counters)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            table[f"{name}.s"] += (end - start) - covered[index]
            table[f"{name}.calls"] += 1
        return dict(table)

    def write(self, path):
        """Spans as JSON lines, times in seconds from the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent, operation) in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "name": name, "start": start - origin,
                                     "end": end - origin, "parent": parent,
                                     "operation": operation}) + "\n")


def install(tracer):
    """Wrap every listed function wherever ``gdlkit`` binds it; returns the
    replaced bindings as (module, attribute, original) for :func:`uninstall`."""
    package = [m for name, m in list(sys.modules.items())
               if name == "gdlkit" or name.startswith("gdlkit.")]
    replaced = []
    for name in SPANNED + COUNTED:
        module, function = name.split(".")
        original = getattr(importlib.import_module(f"gdlkit.{module}"), function)
        if name in COUNTED:
            wrapped = tracer.counted(name, original)
        else:
            wrapped = tracer.spanned(name, original, TAGS.get(name), name in MEMORY,
                                     NNZ.get(name))
        for mod in package:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)
                    replaced.append((mod, attr, original))
    return replaced


def uninstall(replaced):
    for mod, attr, original in replaced:
        setattr(mod, attr, original)
