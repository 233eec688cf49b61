"""The float32 GELU and the ELU against frozen copies of the kernels they
replaced, bit for bit over a dense sweep of float32 values.

The frozen GELU clamps with a scalar ``np.minimum``, takes ``max(x, 0)``
with a scalar ``np.maximum`` and signs ``1/2 - Phi(-|x|)`` with
``np.copysign``; the ELU ran whole-array passes with scalar operands."""

import numpy as np
import pytest

from aio1 import tensor as tz


def _gelu_f32_frozen(x, g=None):
    flat = x.reshape(-1)
    gflat = None if g is None else g.reshape(-1)
    out = np.empty_like(flat)
    size = min(tz._CHUNK, flat.size)
    abs_buf, t_buf, e_buf = (np.empty(size, np.float32) for _ in range(3))
    for lo in range(0, flat.size, tz._CHUNK):
        xs, o = flat[lo:lo + tz._CHUNK], out[lo:lo + tz._CHUNK]
        a, t, e = abs_buf[:xs.size], t_buf[:xs.size], e_buf[:xs.size]
        np.abs(xs, out=a)
        np.minimum(a, tz._PHI_CLAMP, out=a)
        np.multiply(a, tz._PHI_P, out=t)
        t += 1
        np.reciprocal(t, out=t)
        np.multiply(t, tz._PHI_C[0], out=o)
        for c in tz._PHI_C[1:]:
            o += c
            o *= t
        np.multiply(a, a, out=e)
        e *= -0.5
        np.exp(e, out=e)
        o *= e
        if gflat is None:
            o *= a
            np.maximum(xs, 0, out=t)
            np.subtract(t, o, out=o)
        else:
            np.subtract(0.5, o, out=o)
            np.copysign(o, xs, out=o)
            o += 0.5
            e *= xs
            e *= tz._INV_SQRT_2PI
            o += e
            o *= gflat[lo:lo + tz._CHUNK]
    return out.reshape(x.shape)


def _elu_frozen(a):
    neg = np.minimum(a, 0)
    np.expm1(neg, out=neg)
    out = np.maximum(a, 0)
    out += neg
    return out


def _sweep():
    """Every 613th finite non-negative float32 bit pattern, every pattern
    of the first 2^16 (zero and the smallest subnormals), those around the
    largest subnormal, 1e-4, 1 and the GELU clamp at 15, and the largest
    float32; each with both signs."""
    bits = [np.arange(0, 0x7F800000, 613, dtype=np.uint32),
            np.arange(0, 1 << 16, dtype=np.uint32),
            np.array([0x7F7FFFFF], np.uint32)]
    for centre in (np.float32(np.finfo(np.float32).tiny), np.float32(1e-4),
                   np.float32(1.0), tz._PHI_CLAMP):
        c = int(centre.view(np.uint32))
        bits.append(np.arange(c - 512, c + 512, dtype=np.uint32))
    pos = np.concatenate(bits).view(np.float32)
    return np.concatenate([pos, -pos])


def _same_bits(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    width = np.uint32 if a.dtype == np.float32 else np.uint64
    diff = np.flatnonzero(a.view(width) != b.view(width))
    assert diff.size == 0, (diff.size, diff[:5])


def test_gelu_f32_equals_the_frozen_kernel_bit_for_bit():
    x = _sweep()
    g = np.random.default_rng(50).standard_normal(x.size).astype(np.float32)
    assert np.signbit(x[x == 0]).any() and not np.signbit(x[x == 0]).all()
    _same_bits(tz._gelu_f32(x), _gelu_f32_frozen(x))
    _same_bits(tz._gelu_f32(x, g), _gelu_f32_frozen(x, g))
    # a shape that leaves a short last chunk
    y, gy = x[:3 * tz._CHUNK + 5].reshape(-1, 1), g[:3 * tz._CHUNK + 5].reshape(-1, 1)
    _same_bits(tz._gelu_f32(y, gy), _gelu_f32_frozen(y, gy))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_elu_equals_the_frozen_kernel_bit_for_bit(dtype):
    # expm1 overflows to inf above about 88.7 in float32; the ELU never
    # takes it of a positive value
    x = _sweep().astype(dtype)
    x = x[np.abs(x) < 1e30]
    _same_bits(tz._elu(x), _elu_frozen(x))
    inplace = x.reshape(2, -1).copy()
    assert tz._elu(inplace, out=inplace) is inplace
    _same_bits(inplace.reshape(-1), _elu_frozen(x))
