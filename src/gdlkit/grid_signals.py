"""Signals on a periodic 1-D grid: circulant convolution, shift, DFT,
pooling, warping, and the classic translation-invariant representations
(Fourier modulus, autocorrelation, registration) together with the
dilation experiment that exposes their deformation instability.

Signals are numpy arrays: shape ``(n,)`` for a single channel or
``(n, c)`` for ``c`` channels, indexed by grid position first.  All
boundaries are periodic.

The convolution convention is the circulant one,
``y_u = sum_v x_v theta_{u-v mod n}``; cross-correlation is obtained by
reflecting the filter (see :func:`reflect_filter`).
"""

import numpy as np


def _check_signal(x):
    x = np.asarray(x)
    if x.ndim not in (1, 2) or x.shape[0] < 1:
        raise ValueError("signal must be (n,) or (n, c) with n >= 1")
    if not np.all(np.isfinite(x)):
        raise ValueError("signal has non-finite samples")
    return x


def circulant_apply(theta, x):
    """Circular convolution ``y_u = sum_v x_v theta_{u-v mod n}``.

    Computed as the tap sum ``y = sum_k theta_k x_{. - k}`` over slices of
    ``concat(x, x)``, without forming the n x n circulant.  Every output
    position adds the same taps in the same order, so the result is bitwise
    shift equivariant: ``circulant_apply(theta, shift(x, v))`` equals
    ``shift(circulant_apply(theta, x), v)`` exactly, for any real input.
    Multi-channel signals are convolved channel-wise with the same taps.
    """
    theta = np.asarray(theta, dtype=float)
    x = _check_signal(x)
    n = x.shape[0]
    if theta.shape != (n,):
        raise ValueError(f"filter length {theta.shape} does not match signal length {n}")
    xx = np.concatenate([x, x])
    y = theta[0] * x
    for k in range(1, n):
        y += theta[k] * xx[n - k:2 * n - k]  # xx[n - k + u] = x_{u-k mod n}
    return y


def reflect_filter(theta):
    """Index-reversed taps: convolving with them is cross-correlation."""
    theta = np.asarray(theta, dtype=float)
    return theta[(-np.arange(theta.shape[0])) % theta.shape[0]]


def cross_correlate(x, theta):
    """Cross-correlation ``y_u = sum_v x_v theta_{v-u mod n}``."""
    return circulant_apply(reflect_filter(theta), x)


def shift(x, v):
    """Cyclic right shift: ``y_u = x_{u-v mod n}``; norm preserved exactly."""
    x = _check_signal(x)
    return np.roll(x, int(v), axis=0)


def dft(x, inverse=False):
    """Unitary DFT ``x_k = n^{-1/2} sum_u x_u e^{-2 pi i k u / n}``.

    ``x`` is a single channel, real or complex.  There is one path, numpy's
    FFT, for every ``n``; :func:`dft_direct` is the O(n^2) test oracle.
    """
    x = np.asarray(x)
    if x.ndim != 1:
        raise ValueError("dft expects a single channel")
    n = x.shape[0]
    return np.fft.ifft(x) * np.sqrt(n) if inverse else np.fft.fft(x) / np.sqrt(n)


def dft_direct(x, inverse=False):
    """Direct O(n^2) form of :func:`dft`; its correctness oracle."""
    x = np.asarray(x)
    n = x.shape[0]
    sign = 1.0 if inverse else -1.0
    k = np.arange(n)
    f = np.exp(sign * 2j * np.pi * np.outer(k, k) / n) / np.sqrt(n)
    return f @ x


def grid_pool(x, window, mode="average"):
    """Coarsen by non-overlapping windows: local average (low-pass then
    subsample) or per-window maximum."""
    x = _check_signal(x)
    n = x.shape[0]
    if window < 1 or n % window != 0:
        raise ValueError(f"window {window} does not divide signal length {n}")
    blocks = x.reshape((n // window, window) + x.shape[1:])
    if mode == "average":
        return blocks.mean(axis=1)
    if mode == "max":
        return blocks.max(axis=1)
    raise ValueError(f"unknown pooling mode {mode!r}")


def check_warp_field(tau, n):
    """Validate displacement-field invariants: bounded size and slope."""
    tau = np.asarray(tau, dtype=float)
    if tau.shape != (n,):
        raise ValueError("warp field length must match signal length")
    if not np.all(np.isfinite(tau)):
        raise ValueError("non-finite displacements")
    if np.max(np.abs(tau)) >= n / 2:
        raise ValueError("warp displacement must stay below n/2")
    if n > 1 and np.max(np.abs(np.diff(tau))) >= 1.0:
        raise ValueError("warp slope must stay below 1 (invertibility)")
    return tau


def warp_signal(x, tau):
    """Deform ``x`` by the displacement field: ``y_u = x(u - tau(u))``.

    Fractional positions are filled by linear interpolation on the
    periodic grid, which is exact at integer displacements.
    """
    x = _check_signal(x)
    n = x.shape[0]
    tau = check_warp_field(tau, n)
    pos = (np.arange(n) - tau) % n
    lo = np.floor(pos).astype(int) % n
    hi = (lo + 1) % n
    frac = pos - np.floor(pos)
    if x.ndim == 2:
        frac = frac[:, None]
    return (1.0 - frac) * x[lo] + frac * x[hi]


def fourier_modulus(x):
    """Per-frequency magnitude of the spectrum; exactly shift invariant."""
    return np.abs(dft(x))


def autocorrelation(x):
    """``R_x(v) = sum_u x_u x_{u-v mod n}`` (real single-channel input)."""
    x = _check_signal(x)
    if x.ndim != 1:
        raise ValueError("autocorrelation expects a single channel")
    return cross_correlate(x, x)


def registration_invariant(x, h):
    """Re-anchor ``x`` at the argmax of ``|x * h|``: ``y_u = x_{u + a(x)}``.

    The anchor translates along with the signal, so the output is
    bit-identical for any cyclic shift of the input.  Ties resolve to the
    lowest index.
    """
    x = _check_signal(x)
    if x.ndim != 1:
        raise ValueError("registration expects a single channel")
    response = np.abs(circulant_apply(h, x))
    anchor = int(np.argmax(response))
    return x[(np.arange(x.shape[0]) + anchor) % x.shape[0]]


def gabor_signal(n, k0, sigma):
    """Unit-norm modulated Gaussian ``exp(2 pi i k0 u / n) exp(-(u-n/2)^2 / 2 sigma^2)``.

    Returned as two channels (real, imaginary).
    """
    if n < 1:
        raise ValueError(f"signal length n must be at least 1, got {n}")
    if not (0 < sigma < n / 8):
        raise ValueError("sigma must lie in (0, n/8)")
    if not (0 <= k0 < n / 2):
        raise ValueError("k0 must lie in [0, n/2)")
    u = np.arange(n)
    envelope = np.exp(-((u - n / 2.0) ** 2) / (2.0 * sigma**2))
    wave = np.exp(2j * np.pi * k0 * u / n) * envelope
    wave = wave / np.linalg.norm(wave)
    return np.stack([wave.real, wave.imag], axis=1)


def modulus_instability_ratio(n, k0, sigma, s):
    """``| |x_tau^| - |x^| | / |x|`` for the dilation ``tau(u) = s (u - n/2)``.

    High carrier frequencies move by ``s * k0`` bins under the dilation;
    once that exceeds the spectral spread the moduli stop overlapping and
    the ratio saturates near ``sqrt(2)``, while low frequencies barely move.
    """
    if not abs(s) < 0.5:
        raise ValueError("dilation factor must satisfy |s| < 0.5")
    x = gabor_signal(n, k0, sigma)
    z = x[:, 0] + 1j * x[:, 1]
    tau = s * (np.arange(n) - n / 2.0)
    warped = warp_signal(x, tau)
    zw = warped[:, 0] + 1j * warped[:, 1]
    return float(np.linalg.norm(fourier_modulus(zw) - fourier_modulus(z)) / np.linalg.norm(z))
