import re
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdlkit.rng import substream
from gdlkit.seq_models import (
    GatedRnnParams,
    LstmParams,
    SimpleRnnParams,
    _clamp_gates,
    chrono_init,
    gated_rnn_forward,
    gated_rnn_params,
    lstm_forward,
    lstm_params,
    pad_left,
    rnn_fixed_point,
    simple_rnn_forward,
    simple_rnn_params,
    time_warp_sequence,
)


from scipy.special import expit as logistic  # noqa: E402 - test oracle helper


def clamped_logistic(x):
    return np.clip(logistic(x), np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0))


def lstm_loop(z, h, c, params):
    """Oracle: one mat-vec per gate and block, one step at a time."""
    summaries, cells = np.empty((len(z), len(h))), np.empty((len(z), len(h)))
    for t, zt in enumerate(z):
        candidate = np.tanh(params.w_c @ zt + params.u_c @ h + params.b_c)
        gate_i = clamped_logistic(params.w_i @ zt + params.u_i @ h + params.b_i)
        gate_f = clamped_logistic(params.w_f @ zt + params.u_f @ h + params.b_f)
        gate_o = clamped_logistic(params.w_o @ zt + params.u_o @ h + params.b_o)
        c = gate_i * candidate + gate_f * c
        h = gate_o * np.tanh(c)
        summaries[t], cells[t] = h, c
    return summaries, cells


def gated_rnn_loop(z, h, params, gate_scale=1.0):
    """Oracle: separate inner and gate mat-vecs, one step at a time."""
    inner, summaries = params.inner, np.empty((len(z), len(h)))
    for t, zt in enumerate(z):
        gamma = gate_scale * clamped_logistic(params.w_gate @ zt + params.u_gate @ h
                                              + params.b_gate)
        h = gamma * np.tanh(inner.w @ zt + inner.u @ h + inner.b) + (1.0 - gamma) * h
        summaries[t] = h
    return summaries


def random_widths(rng):
    k, m = rng.choice(np.arange(1, 13), size=2, replace=False)
    return int(k), int(m)


class TestSimpleRnn:
    def test_zero_params_give_zero_summaries(self):
        params = SimpleRnnParams(w=np.zeros((3, 2)), u=np.zeros((3, 3)), b=np.zeros(3))
        z = np.random.default_rng(0).standard_normal((5, 2))
        out = simple_rnn_forward(z, np.zeros(3), params)
        assert np.array_equal(out, np.zeros((5, 3)))

    def test_single_step_closed_form(self):
        params = simple_rnn_params(2, 3, seed=1)
        z = np.array([[0.4, -0.9]])
        h0 = np.array([0.1, -0.2, 0.3])
        out = simple_rnn_forward(z, h0, params)
        expected = np.tanh(params.w @ z[0] + params.u @ h0 + params.b)
        assert np.array_equal(out[0], expected)

    def test_markov_property(self):
        params = simple_rnn_params(2, 4, seed=2)
        rng = np.random.default_rng(3)
        z = rng.standard_normal((8, 2))
        h0 = rng.standard_normal(4)
        full = simple_rnn_forward(z, h0, params)
        resumed = simple_rnn_forward(z[1:], full[0], params)
        assert np.array_equal(resumed, full[1:])

    def test_width_mismatch(self):
        params = simple_rnn_params(2, 3, seed=4)
        with pytest.raises(ValueError):
            simple_rnn_forward(np.zeros((4, 5)), np.zeros(3), params)

    @given(st.integers(1, 12), st.integers(1, 5), st.integers(1, 6), st.integers(1, 6),
           st.booleans(), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_batch_members_match_single_sequences(self, steps, batch, k, m, shared, seed):
        rng = np.random.default_rng(seed)
        params = simple_rnn_params(k, m, seed=seed % 1000)
        z = rng.standard_normal((steps, batch, k))
        h0 = rng.standard_normal(m if shared else (batch, m))

        def single(b):
            return simple_rnn_forward(z[:, b], h0 if shared else h0[b], params)

        out = simple_rnn_forward(z, h0, params)
        assert out.shape == (steps, batch, m)
        for b in range(batch):
            assert np.max(np.abs(out[:, b] - single(b))) <= 1e-12
        one = simple_rnn_forward(z[:, :1], h0 if shared else h0[:1], params)
        assert one.shape == (steps, 1, m)
        assert np.max(np.abs(one[:, 0] - single(0))) <= 1e-12

    @pytest.mark.parametrize("z, h0, reason", [
        (np.full((4, 2, 2), np.nan), np.zeros(3), "non-finite sequence values"),
        (np.zeros((4, 2, 5)), np.zeros(3), "sequence width 5, expected 2"),
        (np.zeros((4, 2, 2)), np.zeros((3, 3)), "initial state has shape (3, 3), expected (3,) or (2, 3)"),
        (np.zeros((4, 2, 2)), np.zeros(2), "initial state has shape (2,), expected"),
        (np.zeros((4, 2)), np.zeros((2, 3)), "initial state has shape (2, 3), expected (3,)"),
        (np.zeros((4, 1, 2, 2)), np.zeros(3), "sequence must be (steps, width) or"),
    ])
    def test_bad_batch_rejected_in_one_line(self, z, h0, reason):
        params = simple_rnn_params(2, 3, seed=4)
        with pytest.raises(ValueError, match=re.escape(reason)) as info:
            simple_rnn_forward(z, h0, params)
        assert "\n" not in str(info.value)


class TestFixedPoint:
    def test_zero_bias_fixed_point_is_zero(self):
        params = SimpleRnnParams(w=np.zeros((3, 3)),
                                 u=0.5 * np.eye(3), b=np.zeros(3))
        h0, trace = rnn_fixed_point(params)
        assert np.array_equal(h0, np.zeros(3))
        assert trace[0] == 0.0

    def test_contraction_converges(self):
        params = simple_rnn_params(3, 5, seed=5, scale=0.4)
        assert np.max(np.abs(np.linalg.eigvals(params.u))) < 1.0
        h0, trace = rnn_fixed_point(params, tol=1e-13)
        residual = np.max(np.abs(params.step(np.zeros(3), h0) - h0))
        assert residual <= 1e-12

    def test_expansion_detected(self):
        # scaling U by 50 destroys the contraction; this configuration
        # oscillates between the saturated corners instead of settling
        contractive = SimpleRnnParams(w=np.zeros((1, 1)),
                                      u=np.array([[-0.9]]), b=np.array([0.5]))
        rnn_fixed_point(contractive)  # sanity: the unscaled map converges
        params = SimpleRnnParams(w=contractive.w, u=50.0 * contractive.u,
                                 b=contractive.b)
        with pytest.raises(ValueError, match="not converge|contract"):
            rnn_fixed_point(params, max_iter=100)


class TestPadding:
    def test_zero_padding_unchanged(self):
        z = np.random.default_rng(7).standard_normal((4, 2))
        assert np.array_equal(pad_left(z, 0), z)

    def test_padding_layout(self):
        z = np.array([[1.0, 2.0]])
        out = pad_left(z, 2)
        assert np.array_equal(out, np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 2.0]]))

    def test_pad_then_drop_restores(self):
        z = np.random.default_rng(8).standard_normal((6, 3))
        assert np.array_equal(pad_left(z, 4)[4:], z)


class TestPaddedShiftEquivariance:
    def test_left_shift_by_up_to_padding(self):
        params = simple_rnn_params(4, 6, seed=9, scale=0.6)
        h0, _ = rnn_fixed_point(params, tol=1e-14)
        z = np.random.default_rng(10).standard_normal((12, 4))
        padded = pad_left(z, 3)
        base = simple_rnn_forward(padded, h0, params)
        for s in (1, 2, 3):
            out = simple_rnn_forward(padded[s:], h0, params)
            assert np.max(np.abs(out - base[s:])) <= 1e-10

    def test_right_shift_corollary(self):
        params = simple_rnn_params(3, 5, seed=11, scale=0.5)
        h0, _ = rnn_fixed_point(params, tol=1e-14)
        z = np.random.default_rng(12).standard_normal((10, 3))
        base = simple_rnn_forward(z, h0, params)
        shifted = simple_rnn_forward(pad_left(z, 2), h0, params)
        assert np.max(np.abs(shifted[2:] - base)) <= 1e-10

    def test_fails_without_fixed_point(self):
        params = simple_rnn_params(3, 5, seed=13, scale=0.5)
        bad_h0 = np.full(5, 0.7)
        z = np.random.default_rng(14).standard_normal((8, 3))
        padded = pad_left(z, 2)
        base = simple_rnn_forward(padded, bad_h0, params)
        out = simple_rnn_forward(padded[1:], bad_h0, params)
        assert np.max(np.abs(out - base[1:])) > 1e-6


def twelve_call_lstm_params(input_width, state_width, seed):
    """Reference draw: one ``uniform`` call per block, in field order."""
    rng = substream(seed, "lstm")
    bound = 1.0 / np.sqrt(max(input_width, 1))

    def mat(rows, cols):
        return rng.uniform(-bound, bound, size=(rows, cols))

    return LstmParams(
        w_c=mat(state_width, input_width), w_i=mat(state_width, input_width),
        w_f=mat(state_width, input_width), w_o=mat(state_width, input_width),
        u_c=mat(state_width, state_width), u_i=mat(state_width, state_width),
        u_f=mat(state_width, state_width), u_o=mat(state_width, state_width),
        b_c=rng.uniform(-bound, bound, size=state_width),
        b_i=rng.uniform(-bound, bound, size=state_width),
        b_f=rng.uniform(-bound, bound, size=state_width),
        b_o=rng.uniform(-bound, bound, size=state_width),
    )


class TestLstm:
    @pytest.mark.parametrize("input_width, state_width, seed", [
        (1, 1, 0), (2, 3, 16), (5, 2, 42), (8, 32, 7), (16, 16, 3), (0, 4, 9)])
    def test_draws_equal_one_call_per_block(self, input_width, state_width, seed):
        params = lstm_params(input_width, state_width, seed)
        expected = twelve_call_lstm_params(input_width, state_width, seed)
        for f in fields(LstmParams):
            assert np.array_equal(getattr(params, f.name), getattr(expected, f.name)), f.name

    def test_all_zero_params_closed_form(self):
        m = 3
        zeros = {k: np.zeros((m, 2)) for k in ("w_c", "w_i", "w_f", "w_o")}
        zeros.update({k: np.zeros((m, m)) for k in ("u_c", "u_i", "u_f", "u_o")})
        zeros.update({k: np.zeros(m) for k in ("b_c", "b_i", "b_f", "b_o")})
        params = LstmParams(**zeros)
        c0 = np.array([0.8, -0.4, 0.2])
        z = np.random.default_rng(15).standard_normal((4, 2))
        summaries, cells = lstm_forward(z, np.zeros(m), c0, params)
        for t in range(4):
            expected_c = 0.5 ** (t + 1) * c0
            assert np.max(np.abs(cells[t] - expected_c)) <= 1e-12
            assert np.max(np.abs(summaries[t] - 0.5 * np.tanh(expected_c))) <= 1e-12

    def test_saturated_gates_preserve_cell(self):
        params = lstm_params(2, 3, seed=16)
        saturated = LstmParams(
            w_c=params.w_c, w_i=params.w_i, w_f=np.zeros_like(params.w_f),
            w_o=params.w_o, u_c=params.u_c, u_i=params.u_i,
            u_f=np.zeros_like(params.u_f), u_o=params.u_o,
            b_c=params.b_c, b_i=np.full(3, -20.0), b_f=np.full(3, 20.0),
            b_o=params.b_o)
        c0 = np.array([0.5, -1.0, 0.25])
        z = np.random.default_rng(17).standard_normal((100, 2))
        _, cells = lstm_forward(z, np.zeros(3), c0, saturated)
        assert np.max(np.abs(cells[-1] - c0)) <= 1e-6

    def test_single_step_matches_hand_evaluation(self):
        params = lstm_params(2, 3, seed=18)
        rng = np.random.default_rng(19)
        z = rng.standard_normal((1, 2))
        h0 = rng.standard_normal(3)
        c0 = rng.standard_normal(3)
        summaries, cells = lstm_forward(z, h0, c0, params)
        candidate = np.tanh(params.w_c @ z[0] + params.u_c @ h0 + params.b_c)
        gi = logistic(params.w_i @ z[0] + params.u_i @ h0 + params.b_i)
        gf = logistic(params.w_f @ z[0] + params.u_f @ h0 + params.b_f)
        go = logistic(params.w_o @ z[0] + params.u_o @ h0 + params.b_o)
        c1 = gi * candidate + gf * c0
        assert np.array_equal(cells[0], c1)
        assert np.array_equal(summaries[0], go * np.tanh(c1))

    def test_no_nan_for_large_inputs(self):
        params = lstm_params(2, 3, seed=20)
        z = np.full((50, 2), 1e3)
        summaries, cells = lstm_forward(z, np.zeros(3), np.zeros(3), params)
        assert np.all(np.isfinite(summaries)) and np.all(np.isfinite(cells))

    @pytest.mark.parametrize("steps", [1, 2, 257])
    @pytest.mark.parametrize("saturated", [False, True])
    def test_matches_per_gate_loop(self, steps, saturated):
        rng = np.random.default_rng(37 + steps)
        k, m = random_widths(rng)
        params = lstm_params(k, m, seed=steps)
        if saturated:
            params = replace(params, b_i=np.full(m, -40.0), b_f=np.full(m, 40.0),
                             b_o=np.full(m, 40.0))
        z = 3.0 * rng.standard_normal((steps, k))
        h0, c0 = rng.standard_normal(m), rng.standard_normal(m)
        summaries, cells = lstm_forward(z, h0, c0, params)
        expected_h, expected_c = lstm_loop(z, h0, c0, params)
        assert np.max(np.abs(summaries - expected_h)) <= 1e-13
        assert np.max(np.abs(cells - expected_c)) <= 1e-13

    @pytest.mark.parametrize("field, value, reason", [
        ("w_f", np.zeros((3, 5)), "parameter w_f has shape (3, 5), expected (3, 2)"),
        ("u_o", np.zeros((3, 2)), "parameter u_o has shape (3, 2), expected (3, 3)"),
        ("b_i", np.zeros(4), "parameter b_i has shape (4,), expected (3,)"),
        ("u_i", np.full((3, 3), np.nan), "non-finite values in parameter u_i"),
        ("b_c", np.array([0.0, np.inf, 0.0]), "non-finite values in parameter b_c"),
    ], ids=["w_f", "u_o", "b_i", "u_i", "b_c"])
    def test_bad_parameters_rejected_at_construction(self, field, value, reason):
        params = lstm_params(2, 3, seed=38)
        with pytest.raises(ValueError, match=re.escape(reason)):
            replace(params, **{field: value})


class TestGatedRnn:
    def test_gate_saturated_high_recovers_simple_rnn(self):
        params = gated_rnn_params(3, 4, seed=21, gate_bias=40.0)
        z = np.random.default_rng(22).standard_normal((10, 3))
        h0 = np.zeros(4)
        gated = gated_rnn_forward(z, h0, params)
        plain = simple_rnn_forward(z, h0, params.inner)
        assert np.max(np.abs(gated - plain)) <= 1e-10

    def test_gate_saturated_low_freezes_state(self):
        params = gated_rnn_params(3, 4, seed=23, gate_bias=-40.0)
        z = np.random.default_rng(24).standard_normal((10, 3))
        h0 = np.array([0.3, -0.1, 0.9, 0.0])
        out = gated_rnn_forward(z, h0, params)
        assert np.max(np.abs(out - h0)) <= 1e-10

    def test_time_dilation_consistency(self):
        # doubling time (zeros interleaved) with the gate halved lands near
        # the undilated summary: first-order Taylor regime
        m, T = 4, 20
        params = gated_rnn_params(m, m, seed=25, gate_bias=-1.5)
        rng = np.random.default_rng(26)
        z = 0.5 * rng.standard_normal((T, m))
        h0 = np.zeros(m)
        base = gated_rnn_forward(z, h0, params)
        tau = np.arange(2 * T - 1) / 2.0
        dilated = time_warp_sequence(z, tau)
        out = gated_rnn_forward(dilated, h0, params, gate_scale=0.5)
        assert np.max(np.abs(out[-1] - base[-1])) <= 5e-2

    def test_gates_strictly_inside_unit_interval(self):
        # expit alone reaches exactly 0 and 1 here; the loops clamp its output in place
        pre = np.concatenate([[-1e3, 1e3], np.random.default_rng(28).standard_normal(40) * 1e3])
        assert {0.0, 1.0} <= set(logistic(pre).tolist())
        g = _clamp_gates(logistic(pre, out=pre))
        assert np.all(g > 0.0) and np.all(g < 1.0)

    @pytest.mark.parametrize("steps", [1, 2, 257])
    @pytest.mark.parametrize("gate_bias, gate_scale", [(None, 1.0), (None, 0.5), (40.0, 1.0),
                                                       (-40.0, 1.0)])
    def test_matches_separate_gate_loop(self, steps, gate_bias, gate_scale):
        rng = np.random.default_rng(39 + steps)
        k, m = random_widths(rng)
        params = gated_rnn_params(k, m, seed=steps, gate_bias=gate_bias)
        z = 3.0 * rng.standard_normal((steps, k))
        h0 = rng.standard_normal(m)
        out = gated_rnn_forward(z, h0, params, gate_scale=gate_scale)
        assert np.max(np.abs(out - gated_rnn_loop(z, h0, params, gate_scale))) <= 1e-13

    @pytest.mark.parametrize("field, value, reason", [
        ("w_gate", np.zeros((4, 4)), "parameter w_gate has shape (4, 4), expected (4, 3)"),
        ("u_gate", np.zeros(4), "parameter u_gate has shape (4,), expected (4, 4)"),
        ("b_gate", np.full(4, np.nan), "non-finite values in parameter b_gate"),
    ], ids=["w_gate", "u_gate", "b_gate"])
    def test_bad_parameters_rejected_at_construction(self, field, value, reason):
        params = gated_rnn_params(3, 4, seed=40)
        with pytest.raises(ValueError, match=re.escape(reason)):
            replace(params, **{field: value})


class TestChronoInit:
    def test_degenerate_horizon_exact(self):
        biases = chrono_init(10.0, 10.0, 5, seed=29)
        assert np.max(np.abs(biases + np.log(9.0))) <= 1e-12
        assert np.max(np.abs(logistic(biases) - 0.1)) <= 1e-12

    def test_horizon_two_gives_zero_bias(self):
        biases = chrono_init(2.0, 2.0, 4, seed=30)
        assert np.max(np.abs(biases)) <= 1e-12
        assert np.max(np.abs(logistic(biases) - 0.5)) <= 1e-12

    def test_sampled_gates_inside_horizon_band(self):
        biases = chrono_init(5.0, 50.0, 1000, seed=31)
        gates = logistic(biases)
        assert np.all(gates >= 1.0 / 50.0) and np.all(gates <= 1.0 / 5.0)
        assert 1.0 / 50.0 <= gates.mean() <= 1.0 / 5.0

    def test_invalid_horizons_rejected(self):
        with pytest.raises(ValueError):
            chrono_init(1.0, 10.0, 3, seed=32)
        with pytest.raises(ValueError):
            chrono_init(8.0, 4.0, 3, seed=33)
        for t_low, t_high in ((5.0, np.inf), (np.inf, np.inf), (5.0, np.nan)):
            with pytest.raises(ValueError, match="need finite horizons"):
                chrono_init(t_low, t_high, 3, seed=34)


class TestTimeWarp:
    def test_identity_warp(self):
        z = np.random.default_rng(34).standard_normal((5, 2))
        assert np.array_equal(time_warp_sequence(z, np.arange(5.0)), z)

    def test_double_time_interleaves_zeros(self):
        z = np.array([[1.0], [2.0], [3.0]])
        out = time_warp_sequence(z, np.arange(5) / 2.0)
        assert np.array_equal(out, np.array([[1.0], [0.0], [2.0], [0.0], [3.0]]))

    def test_contraction_rejected(self):
        z = np.random.default_rng(35).standard_normal((6, 2))
        with pytest.raises(ValueError, match="contraction"):
            time_warp_sequence(z, np.array([0.0, 2.0, 4.0]))

    def test_non_monotone_rejected(self):
        z = np.random.default_rng(36).standard_normal((4, 1))
        with pytest.raises(ValueError, match="increasing"):
            time_warp_sequence(z, np.array([0.0, 1.0, 0.5]))
