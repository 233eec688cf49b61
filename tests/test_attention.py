"""Window semantics, oracle equivalence, and gradients for the
neighborhood attention kernels."""

import itertools
import tracemalloc

import numpy as np
import pytest

from aio1 import attention as at
from aio1 import tensor as tz
from aio1.attention import AttentionConfig, init_attention_weights, na1d, na2d
from aio1.errors import ConfigError, DimensionError
from aio1.tensor import Tensor

from attention_oracle import (ContractViolation, composed_na1d, composed_na2d,
                              full_attention_oracle, na1d_mask, na2d_mask,
                              neighborhood_window_1d)
from gradcheck import grad_check
from graph_ops import sigmoid


def _weights(c, cfg, seed, two_d=False, dtype=np.float32, random_bias=True):
    rng = np.random.default_rng(seed)
    w = init_attention_weights(c, cfg, rng, two_d=two_d, dtype=dtype)
    if random_bias:
        w.rpb.data[:] = rng.uniform(-0.5, 0.5, w.rpb.data.shape).astype(dtype)
    for b in (w.bq, w.bk, w.bv, w.bo):
        b.data[:] = rng.uniform(-0.1, 0.1, b.data.shape).astype(dtype)
    return w


# ---------------------------------------------------------------------------
# window geometry
# ---------------------------------------------------------------------------

def test_window_worked_examples():
    assert neighborhood_window_1d(5, 10, 3, 1) == [4, 5, 6]
    assert neighborhood_window_1d(0, 10, 3, 1) == [0, 1, 2]
    assert neighborhood_window_1d(9, 10, 3, 2) == [5, 7, 9]
    assert neighborhood_window_1d(8, 10, 3, 2) == [4, 6, 8]


def test_window_out_of_range():
    with pytest.raises(IndexError):
        neighborhood_window_1d(10, 10, 3, 1)


def brute_force_window(i, length, k, d):
    """Independent construction: enumerate the coset, slide a k-run over
    it, pick the run whose center is closest to i (shifted inward)."""
    coset = [j for j in range(length) if j % d == i % d]
    if len(coset) <= k:
        return coset
    pos = coset.index(i)
    start = min(max(pos - (k - 1) // 2, 0), len(coset) - k)
    return coset[start:start + k]


def test_window_exhaustive_properties():
    for length in range(1, 65):
        for k in (1, 3, 5, 7):
            for d in (1, 2, 3, 8):
                for i in range(length):
                    w = neighborhood_window_1d(i, length, k, d)
                    coset = [j for j in range(length) if j % d == i % d]
                    assert w == brute_force_window(i, length, k, d)
                    assert i in w
                    assert len(w) == min(k, len(coset))
                    assert all(0 <= j < length for j in w)
                    assert all(j % d == i % d for j in w)
                    # contiguous run of the coset
                    first = coset.index(w[0])
                    assert w == coset[first:first + len(w)]


def test_window_table_equals_per_frame_windows():
    lengths = list(range(1, 70)) + [700, 1001, 2048, 4097]
    for length, k, d in itertools.product(lengths, (1, 3, 5, 7),
                                          (1, 2, 3, 8, 64, 512, 2048, 5000)):
        wins = [neighborhood_window_1d(i, length, k, d) for i in range(length)]
        width = max(map(len, wins))
        idx = np.arange(length)[:, None].repeat(width, axis=1)
        valid = np.zeros((length, width), dtype=bool)
        for i, win in enumerate(wins):
            idx[i, :len(win)] = win
            valid[i, :len(win)] = True
        rel = (idx - np.arange(length)[:, None]) // d + k - 1
        slots = at._window_table(length, k, d)
        case = f"length {length}, k {k}, d {d}"
        assert len(slots) == width and all(s.shift == 0 for s in slots), case
        assert np.array_equal(np.stack([s.idx for s in slots], axis=1), idx), case
        assert np.array_equal(np.stack([s.rel for s in slots], axis=1), rel), case
        for j, s in enumerate(slots):
            assert (s.valid is None) == valid[:, j].all(), case
            if s.valid is not None:
                assert np.array_equal(s.valid, valid[:, j]), case


# ---------------------------------------------------------------------------
# na1d
# ---------------------------------------------------------------------------

def test_na1d_uniform_softmax_is_window_mean():
    # zero query/key and zero bias make every window average its values
    t, c = 12, 8
    cfg = AttentionConfig(kernel_size=3, dilation=2, num_heads=2)
    w = _weights(c, cfg, 0, random_bias=False)
    w.wq.data[:] = 0.0
    w.wk.data[:] = 0.0
    w.bq.data[:] = 0.0
    w.bk.data[:] = 0.0
    w.wv.data[:] = np.eye(c, dtype=np.float32)
    w.bv.data[:] = 0.0
    w.wo.data[:] = np.eye(c, dtype=np.float32)
    w.bo.data[:] = 0.0
    rng = np.random.default_rng(1)
    x = rng.standard_normal((t, c)).astype(np.float32)
    out = na1d(Tensor(x), w, cfg).data
    for i in range(t):
        win = neighborhood_window_1d(i, t, 3, 2)
        np.testing.assert_allclose(out[i], x[win].mean(axis=0), atol=1e-6)


def test_na1d_wide_kernel_equals_full_attention():
    t, c = 9, 8
    cfg = AttentionConfig(kernel_size=2 * t - 1, dilation=1, num_heads=2)
    w = _weights(c, cfg, 2)
    x = np.random.default_rng(3).standard_normal((t, c)).astype(np.float32)
    got = na1d(Tensor(x), w, cfg).data
    want = full_attention_oracle(x, w, np.ones((t, t), bool),
                                 rel=np.add.outer(-np.arange(t), np.arange(t))
                                 + cfg.kernel_size - 1,
                                 num_heads=2)
    np.testing.assert_allclose(got, want, atol=1e-5)


@pytest.mark.parametrize("t", [1, 7, 100])
def test_na1d_shape_preserved(t):
    c = 8
    cfg = AttentionConfig(kernel_size=5, dilation=2, num_heads=4)
    w = _weights(c, cfg, 4)
    x = np.random.default_rng(5).standard_normal((t, c)).astype(np.float32)
    assert na1d(Tensor(x), w, cfg).shape == (t, c)


def test_na1d_matches_oracle_randomized():
    rng = np.random.default_rng(6)
    for trial in range(25):
        t = int(rng.integers(1, 65))
        heads = int(rng.choice([1, 2, 4]))
        c = heads * int(rng.choice([2, 4, 6]))
        k = int(rng.choice([3, 5]))
        d = int(rng.choice([1, 2, 4, 8]))
        cfg = AttentionConfig(kernel_size=k, dilation=d, num_heads=heads)
        w = _weights(c, cfg, 100 + trial)
        x = rng.standard_normal((t, c)).astype(np.float32)
        mask, rel = na1d_mask(t, cfg)
        got = na1d(Tensor(x), w, cfg).data
        want = full_attention_oracle(x, w, mask, rel, heads)
        np.testing.assert_allclose(got, want, atol=1e-5)


def test_na1d_batched_matches_per_stem():
    t, c, s = 20, 8, 3
    cfg = AttentionConfig(kernel_size=5, dilation=2, num_heads=2)
    w = _weights(c, cfg, 7)
    x = np.random.default_rng(8).standard_normal((s, t, c)).astype(np.float32)
    batched = na1d(Tensor(x), w, cfg).data
    for i in range(s):
        single = na1d(Tensor(x[i]), w, cfg).data
        np.testing.assert_allclose(batched[i], single, atol=1e-6)


def test_na1d_translation_covariance_interior():
    t, c, d = 64, 8, 2
    cfg = AttentionConfig(kernel_size=3, dilation=d, num_heads=2)
    w = _weights(c, cfg, 9)
    rng = np.random.default_rng(10)
    x = rng.standard_normal((t, c)).astype(np.float32)
    shifted = np.roll(x, d, axis=0)
    out = na1d(Tensor(x), w, cfg).data
    out_shifted = na1d(Tensor(shifted), w, cfg).data
    # interior frames: window centred in both versions
    lo, hi = 3 * d, t - 3 * d
    np.testing.assert_allclose(out_shifted[lo + d:hi + d], out[lo:hi], atol=1e-6)


# ---------------------------------------------------------------------------
# na2d
# ---------------------------------------------------------------------------

def test_na2d_single_stem_reduces_to_na1d():
    t, c = 15, 8
    cfg2 = AttentionConfig(kernel_size=5, dilation=1, num_heads=2)
    w2 = _weights(c, cfg2, 11, two_d=True)
    cfg1 = AttentionConfig(kernel_size=5, dilation=1, num_heads=2)
    w1 = _weights(c, cfg1, 11)
    # share projections; embed the 1-D bias along the zero-stem-offset row
    for src, dst in [(w1.wq, w2.wq), (w1.bq, w2.bq), (w1.wk, w2.wk),
                     (w1.bk, w2.bk), (w1.wv, w2.wv), (w1.bv, w2.bv),
                     (w1.wo, w2.wo), (w1.bo, w2.bo)]:
        dst.data[:] = src.data
    span = 2 * 5 - 1
    w2.rpb.data[:] = 0.0
    w2.rpb.data[:, (5 - 1) * span:(5 - 1) * span + span] = w1.rpb.data
    x = np.random.default_rng(12).standard_normal((1, t, c)).astype(np.float32)
    got = na2d(Tensor(x), w2, cfg2).data[0]
    want = na1d(Tensor(x[0]), w1, cfg1).data
    np.testing.assert_allclose(got, want, atol=1e-5)


def test_na2d_identical_stems_symmetric():
    t, c = 10, 8
    cfg = AttentionConfig(kernel_size=5, dilation=1, num_heads=2)
    w = _weights(c, cfg, 13, two_d=True, random_bias=False)
    x0 = np.random.default_rng(14).standard_normal((t, c)).astype(np.float32)
    x = np.stack([x0, x0])
    out = na2d(Tensor(x), w, cfg).data
    # stems 0 and 1 see mirrored windows; zero bias keeps them exchangeable
    np.testing.assert_allclose(out[0], out[1], atol=1e-6)


def test_na2d_matches_oracle_randomized():
    rng = np.random.default_rng(15)
    for trial in range(25):
        s = int(rng.integers(1, 5))
        t = int(rng.integers(1, 13))
        heads = int(rng.choice([1, 2, 4]))
        c = heads * int(rng.choice([2, 4]))
        k = int(rng.choice([3, 5]))
        cfg = AttentionConfig(kernel_size=k, dilation=1, num_heads=heads)
        w = _weights(c, cfg, 200 + trial, two_d=True)
        x = rng.standard_normal((s, t, c)).astype(np.float32)
        mask, rel = na2d_mask(s, t, cfg)
        got = na2d(Tensor(x), w, cfg).data.reshape(s * t, c)
        want = full_attention_oracle(x.reshape(s * t, c), w, mask, rel, heads)
        np.testing.assert_allclose(got, want, atol=1e-5)


def test_na2d_whole_grid_case():
    s, t, c = 4, 5, 8
    cfg = AttentionConfig(kernel_size=5, dilation=1, num_heads=2)
    w = _weights(c, cfg, 16, two_d=True)
    x = np.random.default_rng(17).standard_normal((s, t, c)).astype(np.float32)
    mask, rel = na2d_mask(s, t, cfg)
    got = na2d(Tensor(x), w, cfg).data.reshape(s * t, c)
    want = full_attention_oracle(x.reshape(s * t, c), w, mask, rel, 2)
    np.testing.assert_allclose(got, want, atol=1e-5)


# ---------------------------------------------------------------------------
# oracle contract
# ---------------------------------------------------------------------------

def test_oracle_identity_mask_returns_projected_values():
    t, c = 6, 8
    cfg = AttentionConfig(kernel_size=3, dilation=1, num_heads=2)
    w = _weights(c, cfg, 18)
    x = np.random.default_rng(19).standard_normal((t, c)).astype(np.float32)
    got = full_attention_oracle(x, w, np.eye(t, dtype=bool), None, 2)
    v = x @ w.wv.data + w.bv.data
    np.testing.assert_allclose(got, v @ w.wo.data + w.bo.data, atol=1e-5)


def test_oracle_all_false_row_raises():
    cfg = AttentionConfig(kernel_size=3, dilation=1, num_heads=2)
    w = _weights(8, cfg, 20)
    mask = np.ones((4, 4), bool)
    mask[2] = False
    with pytest.raises(ContractViolation):
        full_attention_oracle(np.zeros((4, 8), np.float32), w, mask, None, 2)


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def test_attention_grad_check():
    t, c = 7, 4
    cfg = AttentionConfig(kernel_size=3, dilation=2, num_heads=2)
    w = _weights(c, cfg, 21, dtype=np.float64)
    rng = np.random.default_rng(22)
    x = Tensor(rng.standard_normal((t, c)), requires_grad=True)

    params = [x, w.wq, w.bq, w.wk, w.bk, w.wv, w.bv, w.wo, w.bo, w.rpb]

    def loss():
        out = na1d(x, w, cfg)
        return tz.tsum(sigmoid(out))

    err = grad_check(loss, params)
    assert err < 1e-4, err


def test_attention_2d_grad_check():
    s, t, c = 2, 4, 4
    cfg = AttentionConfig(kernel_size=3, dilation=1, num_heads=2)
    w = _weights(c, cfg, 23, two_d=True, dtype=np.float64)
    rng = np.random.default_rng(24)
    x = Tensor(rng.standard_normal((s, t, c)), requires_grad=True)

    params = [x, w.wq, w.bq, w.wk, w.bk, w.wv, w.bv, w.wo, w.bo, w.rpb]

    def loss():
        return tz.tsum(sigmoid(na2d(x, w, cfg)))

    err = grad_check(loss, params)
    assert err < 1e-4, err


@pytest.mark.parametrize("kernel", [na1d, na2d], ids=["na1d", "na2d"])
def test_attention_dropout_grad_check(kernel):
    two_d = kernel is na2d
    cfg = AttentionConfig(kernel_size=3, dilation=1 if two_d else 2, num_heads=2)
    w = _weights(4, cfg, 25, two_d=two_d, dtype=np.float64)
    x = Tensor(np.random.default_rng(26).standard_normal((2, 5, 4)), requires_grad=True)
    params = [x, w.wq, w.bq, w.wk, w.bk, w.wv, w.bv, w.wo, w.bo, w.rpb]

    def loss():
        # a fresh generator per evaluation repeats the dropout mask
        out = kernel(x, w, cfg, 0.3, np.random.default_rng(27))
        return tz.tsum(sigmoid(out))

    err = grad_check(loss, params)
    assert err < 1e-4, err


# ---------------------------------------------------------------------------
# the fused op against the composed reference
# ---------------------------------------------------------------------------

FUSED_CASES = {
    # name: (input shape, kernel size, dilation, grid)
    "1d-dilation-1": ((3, 17, 8), 5, 1, False),
    "1d-dilation-2": ((17, 8), 5, 2, False),
    "1d-coset-shorter-than-kernel": ((3, 10, 8), 5, 4, False),
    "1d-two-lead-axes": ((2, 3, 12, 8), 3, 2, False),
    "2d-1-stem": ((1, 9, 8), 5, 1, True),
    "2d-2-stems": ((2, 9, 8), 5, 1, True),
    "2d-3-stems": ((3, 9, 8), 5, 1, True),
    "2d-4-stems": ((4, 9, 8), 5, 1, True),
    "2d-4-stems-short": ((4, 3, 8), 5, 1, True),
}


def _outputs_and_grads(kernel, x0, w, cfg):
    x = Tensor(x0.copy(), requires_grad=True)
    params = [x, w.wq, w.bq, w.wk, w.bk, w.wv, w.bv, w.wo, w.bo, w.rpb]
    for p in params:
        p.requires_grad = True
        p.grad = None
    out = kernel(x, w, cfg)
    tz.tsum(sigmoid(out)).backward()
    return out.data, [p.grad.copy() for p in params]


@pytest.mark.parametrize("case", FUSED_CASES)
def test_fused_attention_matches_composed_reference(case):
    shape, k, d, grid = FUSED_CASES[case]
    cfg = AttentionConfig(kernel_size=k, dilation=d, num_heads=2)
    w = _weights(shape[-1], cfg, 28, two_d=grid, dtype=np.float64)
    x0 = np.random.default_rng(29).standard_normal(shape)
    got, got_grads = _outputs_and_grads(na2d if grid else na1d, x0, w, cfg)
    want, want_grads = _outputs_and_grads(composed_na2d if grid else composed_na1d,
                                          x0, w, cfg)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)
    for g, wg in zip(got_grads, want_grads):
        np.testing.assert_allclose(g, wg, rtol=0, atol=1e-10)


def test_grid_windows_leave_out_stems_beyond_the_grid():
    # four stems, k = 5: edge stems see 3 stems, inner stems 4, of 5 frames
    s, t, c = 4, 40, 8
    slots = at._grid_slots(s, t, 5)
    reached = [sum(0 <= b + slot.shift < s for slot in slots) for b in range(s)]
    assert reached == [15, 20, 20, 15]
    assert all(slot.valid is None for slot in slots)
    # the op matches attention over exactly those keys, so no slot outside
    # the grid gets weight
    rng = np.random.default_rng(33)
    q, k, v = (rng.standard_normal((s, t, c)) for _ in range(3))
    rpb = np.zeros((2, 81))
    out = tz.neighborhood_attention(*(Tensor(a) for a in (q, k, v, rpb)), slots).data
    for b, i in itertools.product(range(s), (0, 1, 17, 39)):
        keys = [(b + slot.shift, slot.idx[i]) for slot in slots if 0 <= b + slot.shift < s]
        kk = np.array([k[key] for key in keys]).reshape(len(keys), 2, 4)
        vv = np.array([v[key] for key in keys]).reshape(len(keys), 2, 4)
        logits = np.einsum("hc,nhc->hn", q[b, i].reshape(2, 4), kk) / 2.0
        p = np.exp(logits - logits.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        want = np.einsum("hn,nhc->hc", p, vv).reshape(c)
        np.testing.assert_allclose(out[b, i], want, rtol=0, atol=1e-12)


def test_window_table_drops_slots_no_frame_fills():
    # dilation 2048 on 2,000 frames: every coset holds one frame
    slots = at._window_table(2000, 5, 2048)
    assert len(slots) == 1 and slots[0].valid is None
    np.testing.assert_array_equal(slots[0].idx, np.arange(2000))
    # dilation 512: cosets of 4 or 3 frames, 4 slots, the short rows masked
    slots = at._window_table(2000, 5, 512)
    assert len(slots) == 4
    real = sum(np.ones(2000, int) if s.valid is None else s.valid for s in slots)
    np.testing.assert_array_equal(real, [4 if i % 512 < 2000 - 3 * 512 else 3
                                         for i in range(2000)])


def test_head_count_must_match_the_bias_table():
    w = _weights(8, AttentionConfig(kernel_size=3, num_heads=4), 30)
    x = Tensor(np.zeros((6, 8), np.float32))
    with pytest.raises(ConfigError, match="heads"):
        na1d(x, w, AttentionConfig(kernel_size=3, num_heads=2))


def test_na1d_rejects_input_without_a_time_axis():
    w = _weights(8, AttentionConfig(5, 1, 2), 34)
    with pytest.raises(DimensionError, match=r"\[\.\.\., T, C\]"):
        na1d(Tensor(np.zeros(8, np.float32)), w, AttentionConfig(5, 1, 2))


def test_na1d_rejects_an_empty_time_axis():
    w = _weights(8, AttentionConfig(5, 1, 2), 34)
    with pytest.raises(DimensionError, match="T >= 1"):
        na1d(Tensor(np.zeros((4, 0, 8), np.float32)), w, AttentionConfig(5, 1, 2))


@pytest.mark.parametrize("shape", [(9, 8), (2, 4, 9, 8)])
def test_na2d_rejects_input_that_is_not_a_grid(shape):
    w = _weights(8, AttentionConfig(5, 1, 2), 35, two_d=True)
    with pytest.raises(DimensionError, match=r"\[S, T, C\]"):
        na2d(Tensor(np.zeros(shape, np.float32)), w, AttentionConfig(5, 1, 2))


@pytest.mark.parametrize("grid", [False, True])
def test_graph_keeps_only_probabilities_and_dropout_mask(grid):
    # the default layout at a training chunk's length: 4 stems, 700
    # frames, 24 channels, 4 heads, kernel 5
    s, t, c, heads = 4, 700, 24, 4
    slots = at._grid_slots(s, t, 5) if grid else at._window_table(t, 5, 1)
    rng = np.random.default_rng(36)
    q, k, v = (Tensor(rng.standard_normal((s, t, c)).astype(np.float32), requires_grad=True)
               for _ in range(3))
    rpb = Tensor(np.zeros((heads, 81 if grid else 9), np.float32), requires_grad=True)
    drop_rng = np.random.default_rng(37)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = tz.neighborhood_attention(q, k, v, rpb, slots, 0.1, drop_rng)
        held = tracemalloc.get_traced_memory()[0] - before - out.data.nbytes
    finally:
        tracemalloc.stop()
    real = sum(0 <= b + slot.shift < s for slot in slots for b in range(s)) * t * heads
    # a float32 probability and a one-byte mask entry per real slot
    assert held <= 1.5 * real * (4 + 1)
    out.backward(np.ones(out.shape, np.float32))
    assert q.grad.shape == k.grad.shape == v.grad.shape == (s, t, c)
