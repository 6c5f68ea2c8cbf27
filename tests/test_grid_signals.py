import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdlkit import grid_signals as gs


def brute_circulant(theta, x):
    """Naive double-loop convolution oracle."""
    n = len(x)
    out = np.zeros(n)
    for u in range(n):
        for v in range(n):
            out[u] += x[v] * theta[(u - v) % n]
    return out


class TestCirculant:
    def test_delta_filter_is_identity(self):
        x = np.arange(5.0)
        theta = np.zeros(5)
        theta[0] = 1.0
        assert np.array_equal(gs.circulant_apply(theta, x), x)

    def test_unit_tap_shifts_right(self):
        theta = np.array([0.0, 1.0, 0.0, 0.0])
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert np.array_equal(gs.circulant_apply(theta, x), np.array([4.0, 1.0, 2.0, 3.0]))

    def test_small_example_against_brute_force(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        theta = np.array([1.0, 1.0, 0.0, 0.0])
        expected = brute_circulant(theta, x)
        assert np.array_equal(expected, np.array([5.0, 3.0, 5.0, 7.0]))
        assert np.allclose(gs.circulant_apply(theta, x), expected)

    def test_random_against_brute_force(self):
        rng = np.random.default_rng(2)
        for n in (3, 7, 12):
            x = rng.standard_normal(n)
            theta = rng.standard_normal(n)
            assert np.allclose(gs.circulant_apply(theta, x), brute_circulant(theta, x),
                               atol=1e-12)

    def test_commutativity(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(16)
        a = rng.standard_normal(16)
        b = rng.standard_normal(16)
        one = gs.circulant_apply(a, gs.circulant_apply(b, x))
        two = gs.circulant_apply(b, gs.circulant_apply(a, x))
        assert np.max(np.abs(one - two)) <= 1e-10

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            gs.circulant_apply(np.ones(3), np.ones(4))

    def test_shift_equivariance_bitwise_integer(self):
        rng = np.random.default_rng(6)
        x = rng.integers(-9, 9, size=16).astype(float)
        theta = rng.integers(-9, 9, size=16).astype(float)
        # real-valued (non-integer) samples: exact only if every position
        # adds the same taps in the same order
        real = (rng.standard_normal(16), rng.standard_normal(16))
        for x, theta in ((x, theta), real):
            for v in range(16):
                lhs = gs.circulant_apply(theta, gs.shift(x, v))
                rhs = gs.shift(gs.circulant_apply(theta, x), v)
                assert np.array_equal(lhs, rhs)


class TestShift:
    def test_zero_and_full_period(self):
        x = np.random.default_rng(0).standard_normal(9)
        assert np.array_equal(gs.shift(x, 0), x)
        assert np.array_equal(gs.shift(x, 9), x)

    @given(st.integers(-30, 30), st.integers(-30, 30))
    @settings(max_examples=40, deadline=None)
    def test_composition(self, a, b):
        x = np.arange(11.0)
        assert np.array_equal(gs.shift(gs.shift(x, a), b), gs.shift(x, a + b))

    def test_norm_preserved(self):
        x = np.random.default_rng(1).standard_normal(8)
        assert np.linalg.norm(gs.shift(x, 3)) == np.linalg.norm(x)


class TestDft:
    def test_constant_signal(self):
        xhat = gs.dft(np.ones(4))
        assert np.allclose(xhat, [2.0, 0.0, 0.0, 0.0], atol=1e-12)

    def test_impulse(self):
        x = np.zeros(4)
        x[0] = 1.0
        assert np.allclose(gs.dft(x), 0.5 * np.ones(4), atol=1e-12)

    def test_round_trip_and_parseval(self):
        rng = np.random.default_rng(9)
        for n in (4, 16, 257, 1024):
            x = rng.standard_normal(n)
            xhat = gs.dft(x)
            back = gs.dft(xhat, inverse=True)
            assert np.max(np.abs(back - x)) <= 1e-12
            assert abs(np.linalg.norm(xhat) - np.linalg.norm(x)) <= 1e-12 * n

    def test_fast_path_matches_direct(self):
        rng = np.random.default_rng(10)
        for n in (4, 64, 1024, 257, 1000, 4095):
            x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            assert np.max(np.abs(gs.dft(x) - gs.dft_direct(x))) <= 1e-11
            assert np.max(np.abs(gs.dft(x, inverse=True) -
                                 gs.dft_direct(x, inverse=True))) <= 1e-11

    def test_convolution_theorem(self):
        rng = np.random.default_rng(12)
        for n in (4, 16, 257):
            x = rng.standard_normal(n)
            theta = rng.standard_normal(n)
            lhs = gs.dft(gs.circulant_apply(theta, x))
            rhs = np.sqrt(n) * gs.dft(theta) * gs.dft(x)
            assert np.max(np.abs(lhs - rhs)) <= 1e-10 * np.linalg.norm(x) * np.linalg.norm(theta)

    def test_shift_diagonalised_by_fourier_basis(self):
        n = 16
        u = np.arange(n)
        for k in range(n):
            phi = np.exp(2j * np.pi * k * u / n) / np.sqrt(n)
            shifted = gs.shift(phi, 1)
            assert np.max(np.abs(shifted - np.exp(-2j * np.pi * k / n) * phi)) <= 1e-12


class TestPooling:
    def test_window_one_is_identity(self):
        x = np.arange(6.0)
        assert np.array_equal(gs.grid_pool(x, 1, "average"), x)

    def test_constant_preserved_by_average(self):
        x = np.full(12, 3.7)
        assert np.allclose(gs.grid_pool(x, 3, "average"), np.full(4, 3.7))

    def test_max_mode(self):
        out = gs.grid_pool(np.array([1.0, 3.0, 2.0, 4.0]), 2, "max")
        assert np.array_equal(out, np.array([3.0, 4.0]))

    def test_indivisible_window_rejected(self):
        with pytest.raises(ValueError):
            gs.grid_pool(np.ones(7), 2, "average")


class TestWarp:
    def test_zero_displacement(self):
        x = np.random.default_rng(3).standard_normal(10)
        assert np.allclose(gs.warp_signal(x, np.zeros(10)), x)

    def test_integer_displacement_equals_shift(self):
        x = np.random.default_rng(5).standard_normal(10)
        tau = np.full(10, 0.0)  # constant integer field stays within slope bound
        assert np.array_equal(gs.warp_signal(x, tau), x)
        # constant displacement by 3 has zero slope; compare against shift
        out = gs.warp_signal(x, np.full(10, 3.0))
        assert np.allclose(out, gs.shift(x, 3), atol=1e-15)

    def test_dilation_against_dense_oversampling(self):
        # band-limited signal: analytic resampling is exact, so compare the
        # linear interpolation against the closed form
        n = 1024
        u = np.arange(n)
        x = np.cos(2 * np.pi * 3 * u / n) + 0.5 * np.sin(2 * np.pi * 5 * u / n)
        s = 0.03
        tau = s * (u - n / 2.0)
        pos = (u - tau) % n
        exact = np.cos(2 * np.pi * 3 * pos / n) + 0.5 * np.sin(2 * np.pi * 5 * pos / n)
        assert np.max(np.abs(gs.warp_signal(x, tau) - exact)) <= 1e-3

    def test_invariant_violations_rejected(self):
        with pytest.raises(ValueError):
            gs.warp_signal(np.ones(8), np.full(8, 4.0))  # |tau| >= n/2
        tau = np.zeros(8)
        tau[4] = 1.5  # slope >= 1
        with pytest.raises(ValueError):
            gs.warp_signal(np.ones(8), tau)


class TestInvariantRepresentations:
    def test_modulus_shift_invariant(self):
        x = np.random.default_rng(8).standard_normal(32)
        base = gs.fourier_modulus(x)
        for v in (1, 7, 31):
            assert np.max(np.abs(gs.fourier_modulus(gs.shift(x, v)) - base)) <= 1e-12

    def test_modulus_of_impulse_flat(self):
        x = np.zeros(16)
        x[0] = 1.0
        assert np.allclose(gs.fourier_modulus(x), np.full(16, 0.25), atol=1e-12)

    def test_modulus_parseval(self):
        x = np.random.default_rng(13).standard_normal(64)
        assert abs(np.linalg.norm(gs.fourier_modulus(x)) - np.linalg.norm(x)) <= 1e-10

    def test_autocorrelation_impulse(self):
        x = np.zeros(8)
        x[0] = 1.0
        r = gs.autocorrelation(x)
        assert np.allclose(r, x)

    def test_autocorrelation_zero_lag_energy(self):
        x = np.random.default_rng(14).standard_normal(12)
        assert abs(gs.autocorrelation(x)[0] - np.dot(x, x)) <= 1e-12

    def test_autocorrelation_shift_invariant_exact(self):
        rng = np.random.default_rng(15)
        x = rng.integers(-5, 6, size=16).astype(float)
        base = gs.autocorrelation(x)
        for v in range(16):
            assert np.array_equal(gs.autocorrelation(gs.shift(x, v)), base)

    def test_autocorrelation_spectrum_identity(self):
        x = np.random.default_rng(16).standard_normal(16)
        lhs = gs.dft(gs.autocorrelation(x))
        rhs = np.sqrt(16) * np.abs(gs.dft(x)) ** 2
        assert np.max(np.abs(lhs - rhs)) <= 1e-10

    def test_registration_anchor_at_origin(self):
        x = np.array([5.0, 1.0, 0.5, 1.0])
        h = np.zeros(4)
        h[0] = 1.0
        assert np.array_equal(gs.registration_invariant(x, h), x)

    def test_registration_shift_invariant_bitwise(self):
        rng = np.random.default_rng(17)
        x = rng.standard_normal(32)
        h = rng.standard_normal(32)
        base = gs.registration_invariant(x, h)
        for v in (1, 7, 13, 31):
            out = gs.registration_invariant(gs.shift(x, v), h)
            assert np.array_equal(out, base)

    def test_registration_tie_break(self):
        x = np.full(6, 2.0)
        h = np.zeros(6)
        h[0] = 1.0
        assert np.array_equal(gs.registration_invariant(x, h), x)


class TestGaborInstability:
    def test_zero_frequency_is_real_gaussian(self):
        x = gs.gabor_signal(64, 0, 4.0)
        assert np.max(np.abs(x[:, 1])) <= 1e-12
        assert abs(np.linalg.norm(x) - 1.0) <= 1e-12

    def test_spectrum_peaks_at_carrier(self):
        x = gs.gabor_signal(256, 40, 10.0)
        z = x[:, 0] + 1j * x[:, 1]
        assert int(np.argmax(np.abs(gs.dft(z)))) == 40

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            gs.gabor_signal(64, 0, 20.0)
        with pytest.raises(ValueError):
            gs.gabor_signal(64, 40, 4.0)

    def test_zero_dilation_ratio_zero(self):
        assert gs.modulus_instability_ratio(256, 20, 10.0, 0.0) == 0.0

    def test_high_frequency_unstable_low_frequency_stable(self):
        assert gs.modulus_instability_ratio(1024, 200, 32.0, 0.05) >= 1.0
        assert gs.modulus_instability_ratio(1024, 5, 32.0, 0.05) <= 0.3

    def test_ratio_monotone_in_carrier(self):
        ratios = [gs.modulus_instability_ratio(1024, k0, 32.0, 0.05)
                  for k0 in (8, 32, 128, 256)]
        assert all(a <= b for a, b in zip(ratios, ratios[1:]))
