"""Recurrent models on the temporal grid: the simple recurrence, its
fixed-point initial state (which buys equivariance to padded shifts), the
LSTM, the gated time-warping-invariant form, chrono gate initialisation,
and dilation-style time warping of sequences.

Sequences are ``(T, k)`` arrays, one row per step.  ``simple_rnn_forward``
also takes a time-major batch ``(T, B, k)`` of independent sequences, whose
step is one small GEMM ``H U^T`` for all of them; on one sequence that
product is the mat-vec ``U h``, bit for bit.

Every forward recurrence runs in two phases.  The input term of a step does
not depend on the state, so one matrix product ``z @ W.T`` projects the
whole sequence first, with ``W`` stacking the input blocks of every gate
(candidate, input, forget and output for the LSTM; inner update and gate
for the gated form).  The loop then takes one stacked mat-vec ``U h`` per
step and applies the nonlinearities in place on row slices of it, writing
each step straight into its output row.  The bias is added after ``U h``
and not folded into the projection: every pre-activation is rounded as
``(W z + U h) + b``, the order of the one-step formula
``SimpleRnnParams.step``.
"""

from dataclasses import dataclass, fields

import numpy as np

from .rng import substream


_GATE_FLOOR = np.nextafter(0.0, 1.0)
_GATE_CEIL = np.nextafter(1.0, 0.0)


def _clamp_gates(g):
    # in place into the open unit interval as floats: gates must never reach
    # exactly 0 or 1, which expit does in float64 beyond |x| ~ 37 (maximum and
    # minimum, because np.clip's wrapper costs several times as much per call)
    np.maximum(g, _GATE_FLOOR, out=g)
    return np.minimum(g, _GATE_CEIL, out=g)


def _check_sequence(z, batch=False):
    z = np.asarray(z, dtype=float)
    if z.ndim not in ((2, 3) if batch else (2,)):
        raise ValueError("sequence must be (steps, width)" + " or (steps, batch, width)" * batch)
    if not np.all(np.isfinite(z)):
        raise ValueError("non-finite sequence values")
    return z


def _matrix_widths(params, name):
    shape = np.shape(getattr(params, name))
    if len(shape) != 2:
        raise ValueError(f"parameter {name} must be a matrix, got shape {shape}")
    return shape


def _check_params(params, m, k, inputs, states, biases):
    """Refuse, naming the field, a parameter that is not ``(m, k)`` (input
    matrices), ``(m, m)`` (state matrices) or ``(m,)`` (biases), or that
    holds a non-finite value."""
    expected = {**dict.fromkeys(inputs, (m, k)), **dict.fromkeys(states, (m, m)),
                **dict.fromkeys(biases, (m,))}
    for name, shape in expected.items():
        value = getattr(params, name)
        if np.shape(value) != shape:
            raise ValueError(f"parameter {name} has shape {np.shape(value)}, expected {shape}")
        if not np.all(np.isfinite(value)):
            raise ValueError(f"non-finite values in parameter {name}")


@dataclass(frozen=True)
class SimpleRnnParams:
    """``h <- tanh(W z + U h + b)``."""

    w: np.ndarray
    u: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        _check_params(self, *_matrix_widths(self, "w"), ("w",), ("u",), ("b",))

    @property
    def state_width(self):
        return self.b.shape[0]

    @property
    def input_width(self):
        return self.w.shape[1]

    def step(self, z, h):
        return np.tanh(self.w @ z + self.u @ h + self.b)


def simple_rnn_params(input_width, state_width, seed, scale=1.0):
    rng = substream(seed, "simple-rnn")
    bound = 1.0 / np.sqrt(max(input_width, 1))
    w = rng.uniform(-bound, bound, size=(state_width, input_width))
    u = rng.uniform(-bound, bound, size=(state_width, state_width)) * scale
    b = rng.uniform(-bound, bound, size=state_width)
    return SimpleRnnParams(w=w, u=u, b=b)


def simple_rnn_forward(z, h0, params):
    """All summaries of the recurrence, seeded with ``h0``: ``(T, m)`` for one
    sequence ``(T, k)``, ``(T, B, m)`` for a time-major batch ``(T, B, k)``,
    with ``h0`` shaped ``(m,)`` (shared by the batch) or ``(B, m)``."""
    z = _check_sequence(z, batch=True)
    h = np.asarray(h0, dtype=float)
    if z.shape[-1] != params.input_width:
        raise ValueError(f"sequence width {z.shape[-1]}, expected {params.input_width}")
    row_shape = z.shape[1:-1] + (params.state_width,)
    shapes = list(dict.fromkeys([(params.state_width,), row_shape]))
    if h.shape not in shapes:
        raise ValueError(f"initial state has shape {h.shape}, expected "
                         + " or ".join(map(str, shapes)))
    summaries = z @ params.w.T
    h = np.broadcast_to(h, row_shape)
    # adding the bias by broadcasting costs more than the GEMM (B = 4, m = 32)
    u_t, b = params.u.T, np.ascontiguousarray(np.broadcast_to(params.b, row_shape))
    recurrent = np.empty(row_shape)
    for row in summaries:
        np.dot(h, u_t, out=recurrent)
        row += recurrent
        row += b
        h = np.tanh(row, out=row)
    return summaries


def rnn_fixed_point(params, tol=1e-13, max_iter=200):
    """Iterate ``h <- R(0, h)`` to its fixed point.

    Converges whenever the zero-input map is a contraction (roughly
    ``|U| < 1`` thanks to tanh being 1-Lipschitz); divergence or cycling
    raises, signalling a non-contractive update.  Returns the state and the
    residual trace.
    """
    zero = np.zeros(params.input_width)
    h = np.zeros(params.state_width)
    trace = []
    for _ in range(max_iter):
        nxt = params.step(zero, h)
        residual = float(np.max(np.abs(nxt - h)))
        trace.append(residual)
        h = nxt
        if residual <= tol:
            return h, trace
    raise ValueError(
        f"fixed-point iteration did not converge within {max_iter} steps "
        f"(last residual {trace[-1]:.3e}); update map may not contract")


def pad_left(z, t_prime):
    """Prepend ``t_prime`` zero steps."""
    z = _check_sequence(z)
    if t_prime < 0:
        raise ValueError("padding must be non-negative")
    return np.concatenate([np.zeros((t_prime, z.shape[1])), z], axis=0)


@dataclass(frozen=True)
class LstmParams:
    """Candidate (tanh) plus input/forget/output gates (logistic)."""

    w_c: np.ndarray
    w_i: np.ndarray
    w_f: np.ndarray
    w_o: np.ndarray
    u_c: np.ndarray
    u_i: np.ndarray
    u_f: np.ndarray
    u_o: np.ndarray
    b_c: np.ndarray
    b_i: np.ndarray
    b_f: np.ndarray
    b_o: np.ndarray

    def __post_init__(self):
        _check_params(self, *_matrix_widths(self, "w_c"), ("w_c", "w_i", "w_f", "w_o"),
                      ("u_c", "u_i", "u_f", "u_o"), ("b_c", "b_i", "b_f", "b_o"))

    @property
    def state_width(self):
        return self.b_c.shape[0]

    @property
    def input_width(self):
        return self.w_c.shape[1]


def lstm_params(input_width, state_width, seed):
    """Uniform draws in ``+-1/sqrt(input_width)``, one block per field in
    field order: ``w_*``, ``u_*``, ``b_*``, each ``c, i, f, o``."""
    rng = substream(seed, "lstm")
    bound = 1.0 / np.sqrt(max(input_width, 1))
    shapes = {"w": (state_width, input_width), "u": (state_width, state_width),
              "b": (state_width,)}
    return LstmParams(**{f.name: rng.uniform(-bound, bound, size=shapes[f.name[0]])
                         for f in fields(LstmParams)})


def lstm_forward(z, h0, c0, params):
    """Summaries and cell states of the gated recurrence
    ``c = i * c~ + f * c_prev``, ``h = o * tanh(c)``."""
    z = _check_sequence(z)
    h = np.asarray(h0, dtype=float)
    c = np.asarray(c0, dtype=float)
    m = params.state_width
    if z.shape[1] != params.input_width or h.shape != (m,) or c.shape != (m,):
        raise ValueError("width mismatch")
    from scipy.special import expit
    projected = z @ np.vstack([params.w_c, params.w_i, params.w_f, params.w_o]).T
    u = np.vstack([params.u_c, params.u_i, params.u_f, params.u_o])
    b = np.concatenate([params.b_c, params.b_i, params.b_f, params.b_o])
    summaries = np.empty((z.shape[0], m))
    cells = np.empty((z.shape[0], m))
    pre = np.empty(4 * m)
    candidate, gates = pre[:m], pre[m:]
    gate_i, gate_f, gate_o = pre[m:2 * m], pre[2 * m:3 * m], pre[3 * m:]
    for t in range(z.shape[0]):
        np.dot(u, h, out=pre)
        pre += projected[t]
        pre += b
        np.tanh(candidate, out=candidate)
        _clamp_gates(expit(gates, out=gates))
        gate_f *= c
        c = np.multiply(gate_i, candidate, out=cells[t])
        c += gate_f
        h = np.tanh(c, out=summaries[t])
        h *= gate_o
    return summaries, cells


@dataclass(frozen=True)
class GatedRnnParams:
    """Inner update ``R`` plus the vector gate that fits the warping
    derivative: ``h <- Gamma R(z, h) + (1 - Gamma) h``."""

    inner: SimpleRnnParams
    w_gate: np.ndarray
    u_gate: np.ndarray
    b_gate: np.ndarray

    def __post_init__(self):
        _check_params(self, self.inner.state_width, self.inner.input_width,
                      ("w_gate",), ("u_gate",), ("b_gate",))


def gated_rnn_params(input_width, state_width, seed, gate_bias=None):
    rng = substream(seed, "gated-rnn")
    inner = simple_rnn_params(input_width, state_width, seed, scale=0.5)
    bound = 1.0 / np.sqrt(max(input_width, 1))
    b = rng.uniform(-bound, bound, size=state_width) if gate_bias is None else \
        np.full(state_width, float(gate_bias))
    return GatedRnnParams(
        inner=inner,
        w_gate=rng.uniform(-bound, bound, size=(state_width, input_width)),
        u_gate=rng.uniform(-bound, bound, size=(state_width, state_width)),
        b_gate=b,
    )


def gated_rnn_forward(z, h0, params, gate_scale=1.0):
    """Time-warping-invariant recurrence; ``gate_scale`` rescales the gate,
    which is how a fitted model transfers to a time-rescaled signal."""
    z = _check_sequence(z)
    h = np.asarray(h0, dtype=float)
    if z.shape[1] != params.inner.input_width or h.shape != (params.inner.state_width,):
        raise ValueError("width mismatch")
    from scipy.special import expit
    inner, m = params.inner, params.inner.state_width
    projected = z @ np.vstack([inner.w, params.w_gate]).T
    u = np.vstack([inner.u, params.u_gate])
    b = np.concatenate([inner.b, params.b_gate])
    summaries = np.empty((z.shape[0], m))
    pre = np.empty(2 * m)
    update, gamma = pre[:m], pre[m:]
    for t in range(z.shape[0]):
        np.dot(u, h, out=pre)
        pre += projected[t]
        pre += b
        np.tanh(update, out=update)
        _clamp_gates(expit(gamma, out=gamma))
        gamma *= gate_scale
        update *= gamma
        np.subtract(1.0, gamma, out=gamma)
        gamma *= h
        h = np.add(update, gamma, out=summaries[t])
    return summaries


def chrono_init(t_low, t_high, m, seed):
    """Gate biases ``-log(U(T_l, T_h) - 1)``: the expected gate value then
    sits in ``[1/T_h, 1/T_l]``, matching memory horizons of that range."""
    if not (1 < t_low <= t_high < np.inf):  # U(T_l, inf) has no finite draws
        raise ValueError(f"need finite horizons 1 < t_low <= t_high, got {t_low} and {t_high}")
    rng = substream(seed, "chrono-init")
    draws = rng.uniform(t_low, t_high, size=m)
    return -np.log(draws - 1.0)


def time_warp_sequence(z, tau):
    """Resample a sequence along a monotone time map.

    ``tau[t]`` gives, for each output step, the position on the original
    time axis; dilations (steps of at most one original sample) are allowed
    and introduce zero rows wherever the map lands between samples.
    Contractions are rejected: they would skip data the model never saw.
    """
    z = _check_sequence(z)
    tau = np.asarray(tau, dtype=float)
    if tau.ndim != 1 or tau.shape[0] < 1:
        raise ValueError("time map must be a non-empty 1-D array")
    if np.any(np.diff(tau) <= 0):
        raise ValueError("time map must be strictly increasing")
    if np.any(np.diff(tau) > 1.0 + 1e-12):
        raise ValueError("contraction warp rejected: intermediate samples would be skipped")
    if tau[0] < -1e-12 or tau[-1] > z.shape[0] - 1 + 1e-12:
        raise ValueError("time map leaves the original index range")
    out = np.zeros((tau.shape[0], z.shape[1]))
    nearest = np.round(tau).astype(int)
    on_sample = np.abs(tau - nearest) < 1e-9
    out[on_sample] = z[nearest[on_sample]]
    return out
