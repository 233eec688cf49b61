"""Training pieces: targets, loss gradients, RAdam, snapshot averaging
and seeded reproducibility."""

import gc
import math

import numpy as np
import pytest

from aio1 import tensor as tz
from aio1.errors import ConfigError, InputError, TrainingDiverged
from aio1.metrics import Annotation, Beat
from aio1.model import default_config, forward_logits, init_weights, tiny_config
from aio1.postproc import Segment
from aio1.tensor import Tensor
from aio1.training import (DECAY_FACTOR, PATIENCE_EPOCHS, PLATEAU_EPOCHS,
                           RAdamState, SwaAverage, TrainConfig, build_targets,
                           make_toy_dataset, multitask_loss, radam_step, train,
                           train_step)

from frontend_oracle import conv_block_chain
from graph_ops import add, bce_with_logits, log_softmax, mul, per_task_loss, take, tsum


def test_build_targets_ramps_and_labels():
    vocab = ("intro", "verse", "chorus")
    ann = Annotation(beats=[Beat(0.5, 1), Beat(1.0, 2), Beat(1.5, 1)],
                     segments=[Segment(0.0, 1.2, "intro"), Segment(1.2, 3.0, "chorus")],
                     duration=3.0)
    t = build_targets(ann, 100.0, 300, vocab)
    # WIDEN_FRAMES = 2 neighbors each side at WIDEN_WEIGHT = 0.5
    beat = np.zeros(300)
    for f in (50, 100, 150):
        beat[f - 2:f + 3] = [0.5, 0.5, 1.0, 0.5, 0.5]
    np.testing.assert_array_equal(t.beat, beat)
    down = beat.copy()
    down[98:103] = 0.0                      # bar position 2 is no downbeat
    np.testing.assert_array_equal(t.downbeat, down)
    # BOUNDARY_RAMP_S = 0.5: a triangle of half-width 50 frames around the
    # one inner boundary
    ramp = np.zeros(300)
    ramp[70:171] = 1.0 - np.abs(np.arange(70, 171) - 120) / 50
    np.testing.assert_allclose(t.boundary, ramp, rtol=0, atol=1e-7)
    np.testing.assert_array_equal(t.labels, [0] * 120 + [2] * 180)
    part = t.slice(100, 130)
    np.testing.assert_array_equal(part.boundary, t.boundary[100:130])
    np.testing.assert_array_equal(part.labels, t.labels[100:130])


def _masked_form_loss(logits, targets, weights):
    """The loss as once written, with an all-ones frame mask."""
    t = targets.labels.size
    ones = Tensor(np.ones(t, dtype=logits["beat"].data.dtype))

    def masked_mean(per_frame):
        return mul(tsum(mul(per_frame, ones)), 1.0 / float(t))

    total = None
    for w, name in zip(weights[:3], ("beat", "downbeat", "boundary")):
        term = mul(masked_mean(bce_with_logits(logits[name], getattr(targets, name))), w)
        total = term if total is None else add(total, term)
    lsm = log_softmax(logits["labels"], axis=-1)
    picked = take(lsm.reshape(-1), np.arange(t) * lsm.shape[1] + targets.labels)
    return add(total, mul(masked_mean(mul(picked, -1.0)), weights[3]))


@pytest.mark.parametrize("field, value", [
    ("max_epochs", 0), ("chunk_seconds", 0.0), ("chunk_seconds", -2.0),
    ("chunk_seconds", 0.004), ("swa_start_frac", 1.5), ("swa_start_frac", -0.25)])
def test_train_config_rejects_out_of_range_values(field, value):
    cfg = TrainConfig(**{field: value})
    with pytest.raises(ConfigError, match=field):
        cfg.validate()
    # train checks its config before it reads the data
    with pytest.raises(ConfigError, match=field):
        train(tiny_config(), cfg, [], [])


def test_train_config_accepts_the_range_ends():
    for cfg in (TrainConfig(chunk_seconds=0.01), TrainConfig(swa_start_frac=0.0),
                TrainConfig(swa_start_frac=1.0)):
        cfg.validate()


def _beat_and_boundary(beat_s, boundary_s):
    # a 10 s, 1,000-frame track
    return Annotation(beats=[Beat(beat_s, 1)],
                      segments=[Segment(0.0, boundary_s, "intro"),
                                Segment(boundary_s, 10.0, "verse")], duration=10.0)


def test_build_targets_puts_events_in_the_last_half_frame_on_the_last_frame():
    # 9.996 s and 9.997 s round to frame 1000, one past the end
    t = build_targets(_beat_and_boundary(9.996, 9.997), 100.0, 1000)
    for target in (t.beat, t.downbeat, t.boundary):
        assert target.argmax() == 999 and target[999] == 1.0


def test_build_targets_gives_a_section_in_the_last_half_frame_its_label():
    # the verse starts at 9.997 s, which rounds to frame 1000: its label run
    # starts on frame 999, where its boundary is
    t = build_targets(_beat_and_boundary(5.0, 9.997), 100.0, 1000, ("intro", "verse"))
    want = np.zeros(1000, dtype=np.int64)
    want[999] = 1
    np.testing.assert_array_equal(t.labels, want)
    assert t.boundary.argmax() == 999


@pytest.mark.parametrize("beat_s, boundary_s, what", [
    (-0.001, 5.0, "event"), (10.0, 5.0, "event"), (10.5, 5.0, "event"),
    (5.0, -0.001, "boundary"), (5.0, 10.0, "boundary")])
def test_build_targets_rejects_events_outside_the_track(beat_s, boundary_s, what):
    with pytest.raises(InputError, match=f"{what} at .* outside the track"):
        build_targets(_beat_and_boundary(beat_s, boundary_s), 100.0, 1000)


@pytest.mark.filterwarnings("error")
def test_build_targets_ramp_under_half_a_frame_marks_the_boundary_alone():
    ann = Annotation(beats=[Beat(10.0, 1)],
                     segments=[Segment(0.0, 60.0, "intro"), Segment(60.0, 150.0, "verse")],
                     duration=150.0)
    # at 0.5 fps the 0.5 s ramp is a quarter frame, which rounds to 0 frames
    t = build_targets(ann, 0.5, 75)
    want = np.zeros(75)
    want[30] = 1.0
    np.testing.assert_array_equal(t.boundary, want)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_loss_is_bit_identical_to_the_masked_form(dtype):
    """The one-node loss against two chains of ``graph_ops`` nodes: the
    per-task ``bce_with_logits``/``label_nll`` form and the older masked
    form with a log-softmax and a gather."""
    cfg = tiny_config()
    spec, ann = make_toy_dataset(5, 1, 10.0, fps=cfg.fps, bands=cfg.bands,
                                 num_stems=cfg.num_stems, vocab=cfg.label_vocab)[0]
    targets = build_targets(ann, cfg.fps, spec.num_frames, cfg.label_vocab)
    rng = np.random.default_rng(6)
    t, vocab = spec.num_frames, len(cfg.label_vocab)
    logits = {name: Tensor(rng.standard_normal(shape).astype(dtype), requires_grad=True)
              for name, shape in (("beat", t), ("downbeat", t), ("boundary", t),
                                  ("labels", (t, vocab)))}
    # the later cases' weights round differently in another order of the
    # scalings, and a seed gradient other than 1 does so in the backward
    for weights, seed in (((1.0, 0.5, 2.0, 1.5), 1.0), ((0.3, 0.7, 1.9, 1.3), 0.37),
                          ((3.7, 1.3, 0.1, 2.9), 1.0), ((1.3, 3.7, 2.9, 0.1), 1.0)):
        got, _ = multitask_loss(logits, targets, weights)
        got.backward(np.asarray(seed, dtype))
        got_grads = {k: v.grad for k, v in logits.items()}
        for oracle in (per_task_loss, _masked_form_loss):
            for v in logits.values():
                v.grad = None
            want = oracle(logits, targets, weights)
            want.backward(np.asarray(seed, dtype))
            assert got.data.tobytes() == want.data.tobytes(), oracle.__name__
            for k, v in logits.items():
                np.testing.assert_array_equal(got_grads[k], v.grad,
                                              err_msg=f"{oracle.__name__} {k}")
        for v in logits.values():
            v.grad = None


def _step_from_seed(cfg):
    """A fresh model after one ``train_step`` on a seeded chunk."""
    spec, ann = make_toy_dataset(4, 1, 10.0, fps=cfg.fps, bands=cfg.bands,
                                 num_stems=cfg.num_stems, vocab=cfg.label_vocab)[0]
    targets = build_targets(ann, cfg.fps, spec.num_frames,
                            cfg.label_vocab).slice(0, 300)
    weights = init_weights(cfg, seed=2)
    state = RAdamState.for_params(weights.parameters())
    tcfg = TrainConfig()
    stats = train_step(weights, state, spec.values[:, :300], targets, cfg, tcfg,
                       tcfg.lr, np.random.default_rng(3))
    return weights, stats


def test_fresh_model_backprops_into_every_weight():
    weights, stats = _step_from_seed(tiny_config())
    assert isinstance(stats.loss, float) and math.isfinite(stats.loss)
    for name, t in weights.named_tensors():
        assert t.grad is not None, name
        assert t.grad.shape == t.data.shape and np.isfinite(t.grad).all(), name


def test_a_step_reports_its_task_losses_and_gradient_norm():
    weights, stats = _step_from_seed(tiny_config())
    # the terms the loss sums, in its order, and the float64 norm of the
    # gradients the step applied
    t0, t1, t2, t3 = (np.float32(t) for t in stats.task_losses)
    assert np.float32(stats.loss) == ((t0 + t1) + t2) + t3
    squares = sum(float(np.sum(t.grad.astype(np.float64) ** 2))
                  for _, t in weights.named_tensors())
    assert stats.grad_norm == pytest.approx(math.sqrt(squares), rel=1e-12)


def test_train_step_is_seeded_and_frees_its_graph():
    cfg = tiny_config()
    gc.collect()
    (w1, loss1), (w2, loss2) = _step_from_seed(cfg), _step_from_seed(cfg)
    # no collection in between: the graph must go when the step returns
    assert not [o for o in gc.get_objects()
                if isinstance(o, Tensor) and o._backward is not None]
    assert loss1 == loss2
    start = init_weights(cfg, seed=2)
    for (name, a), (_, b), (_, s) in zip(w1.named_tensors(), w2.named_tensors(),
                                         start.named_tensors()):
        np.testing.assert_array_equal(a.data, b.data, err_msg=name)
        np.testing.assert_array_equal(a.grad, b.grad, err_msg=name)
    assert any(not np.array_equal(a.data, s.data)
               for (_, a), (_, s) in zip(w1.named_tensors(), start.named_tensors()))


def numpy_radam(p, g, m, v, t, lr, wd, beta1=0.9, beta2=0.999, eps=1e-8):
    """One RAdam step (Liu et al., 2020) with decoupled weight decay."""
    m = beta1 * m + (1 - beta1) * g
    v = beta2 * v + (1 - beta2) * g ** 2
    m_hat = m / (1 - beta1 ** t)
    rho_inf = 2 / (1 - beta2) - 1
    rho = rho_inf - 2 * t * beta2 ** t / (1 - beta2 ** t)
    if rho > 4:
        r = math.sqrt((rho - 4) * (rho - 2) * rho_inf / ((rho_inf - 4) * (rho_inf - 2) * rho))
        step = lr * r * m_hat / (np.sqrt(v / (1 - beta2 ** t)) + eps)
    else:
        step = lr * m_hat
    return p - step - lr * wd * p, m, v, rho


def test_radam_matches_numpy_reference():
    rng = np.random.default_rng(9)
    params = [Tensor(rng.standard_normal(s), requires_grad=True) for s in ((3, 4), (5,), (2,))]
    ref = [(p.data.copy(), np.zeros(p.shape), np.zeros(p.shape)) for p in params]
    state = RAdamState.for_params(params)
    lr, wd = 0.01, 0.05
    branches = []
    for t in range(1, 7):
        # the last tensor never gets a gradient: only weight decay moves it
        for p in params[:2]:
            p.grad = rng.standard_normal(p.shape)
        params[2].grad = None
        grads = [p.grad for p in params[:2]] + [np.zeros(2)]
        radam_step(params, state, lr, weight_decay=wd)
        new_ref = []
        for (p0, m, v), g in zip(ref, grads):
            p1, m, v, rho = numpy_radam(p0, g, m, v, t, lr, wd)
            new_ref.append((p1, m, v))
        ref = new_ref
        branches.append(rho > 4)
        for p, (want, _, _) in zip(params, ref):
            np.testing.assert_allclose(p.data, want, rtol=1e-12, atol=1e-15)
    assert branches == [False] * 4 + [True] * 2


def test_swa_weights_are_float64_mean_of_snapshots():
    cfg = tiny_config()
    snapshots = [init_weights(cfg, seed=s) for s in (1, 2, 3)]
    swa = SwaAverage()
    for w in snapshots:
        swa.update(w)
    avg = swa.weights(snapshots[0])
    for i, (name, t) in enumerate(avg.named_tensors()):
        stack = np.stack([list(w.named_tensors())[i][1].data.astype(np.float64)
                          for w in snapshots])
        expected = (stack.sum(axis=0) / len(snapshots)).astype(t.data.dtype)
        np.testing.assert_array_equal(t.data, expected, err_msg=name)
    # the average is a new model; the snapshot it was shaped like is untouched
    fresh = init_weights(cfg, seed=1)
    for (_, a), (_, b) in zip(snapshots[0].named_tensors(), fresh.named_tensors()):
        np.testing.assert_array_equal(a.data, b.data)


def test_seeded_train_runs_are_bit_identical():
    cfg = tiny_config()
    data = make_toy_dataset(3, 3, 10.0, fps=cfg.fps, bands=cfg.bands,
                            num_stems=cfg.num_stems, vocab=cfg.label_vocab)
    # random chunks and every dropout site draw from the seeded generator
    tcfg = TrainConfig(chunk_seconds=4.0, max_epochs=3, seed=7)
    (w1, h1), (w2, h2) = (train(cfg, tcfg, data[:2], data[2:]) for _ in range(2))
    assert _seeded(h1) == _seeded(h2)
    assert [h["swa_active"] for h in h1] == [True, True, True]
    for (name, a), (_, b) in zip(w1.named_tensors(), w2.named_tensors()):
        np.testing.assert_array_equal(a.data, b.data, err_msg=name)
    # and the run did train: the weights left their initial values
    start = init_weights(cfg, tcfg.seed)
    assert any(not np.array_equal(a.data, b.data)
               for (_, a), (_, b) in zip(w1.named_tensors(), start.named_tensors()))


def test_fused_front_end_gives_the_four_node_chain_gradients(monkeypatch):
    cfg = default_config()
    spec, ann = make_toy_dataset(5, 1, 10.0, fps=cfg.fps, bands=cfg.bands,
                                 num_stems=cfg.num_stems, vocab=cfg.label_vocab)[0]
    # a 3 s chunk
    targets = build_targets(ann, cfg.fps, spec.num_frames, cfg.label_vocab).slice(200, 500)
    runs = []
    for block in (tz.conv_block, conv_block_chain):
        monkeypatch.setattr(tz, "conv_block", block)
        weights = init_weights(cfg, seed=6)
        # dropout on at every site, drawn from one seeded generator
        logits = forward_logits(spec.values[:, 200:500], weights, cfg,
                                np.random.default_rng(8))
        loss, _ = multitask_loss(logits, targets, TrainConfig().loss_weights)
        loss.backward()
        runs.append((loss.data, list(weights.named_tensors())))
    (loss, fused), (want_loss, chain) = runs
    np.testing.assert_array_equal(loss, want_loss)
    for (name, a), (_, b) in zip(fused, chain):
        assert a.grad is not None, name
        np.testing.assert_array_equal(a.grad, b.grad, err_msg=name)


def _seeded(history):
    """The history without its one wall-clock value, frames per second."""
    return [{k: v for k, v in h.items() if k != "frames_per_s"} for h in history]


def test_history_records_task_losses_gradient_norms_and_frames_per_second():
    cfg = tiny_config()
    data = make_toy_dataset(3, 3, 10.0, fps=cfg.fps, bands=cfg.bands,
                            num_stems=cfg.num_stems, vocab=cfg.label_vocab)
    tcfg = TrainConfig(chunk_seconds=4.0, max_epochs=2, loss_weights=(1.0, 0.5, 2.0, 1.5),
                       seed=7)
    _, history = train(cfg, tcfg, data[:2], data[2:])
    for h in history:
        assert set(h) == {"epoch", "train_loss", "val_loss", "lr", "swa_active", "train_tasks",
                          "val_tasks", "grad_norm", "frames_per_s"}
        for split in ("train", "val"):
            tasks = h[f"{split}_tasks"]
            assert list(tasks) == ["beat", "downbeat", "boundary", "labels"]
            # the weighted terms add up to the loss, up to the rounding of
            # the float32 sums and of the history
            assert sum(tasks.values()) == pytest.approx(h[f"{split}_loss"], abs=1e-5)
        assert math.isfinite(h["grad_norm"]) and h["grad_norm"] > 0
        assert h["frames_per_s"] > 0


def _one_track_run(tcfg):
    cfg = tiny_config()
    data = make_toy_dataset(3, 2, 10.0, fps=cfg.fps, bands=cfg.bands,
                            num_stems=cfg.num_stems, vocab=cfg.label_vocab)
    return train(cfg, tcfg, data[:1], data[1:])


def test_schedule_decays_on_plateaus_switches_rate_and_stops():
    # at these rates the weights cannot move, so validation loss is flat
    # from epoch 1 on: every later epoch is one more without improvement
    tcfg = TrainConfig(lr=1e-30, swa_lr=2e-30, chunk_seconds=1.0, max_epochs=40,
                       swa_start_frac=0.5, seed=1)
    _, history = _one_track_run(tcfg)
    assert [h["epoch"] for h in history] == list(range(1, 2 + PATIENCE_EPOCHS))
    assert len({h["val_loss"] for h in history}) == 1
    assert [h["swa_active"] for h in history] == [
        e >= 20 for e in range(1, 2 + PATIENCE_EPOCHS)]
    # epochs 6, 11, ..., 31 end a run of PLATEAU_EPOCHS without improvement
    decays = range(1 + PLATEAU_EPOCHS, 2 + PATIENCE_EPOCHS, PLATEAU_EPOCHS)
    lr, want = tcfg.lr, []
    for epoch in range(1, 2 + PATIENCE_EPOCHS):
        if epoch == 20:                     # swa_start_frac * max_epochs
            lr = tcfg.swa_lr
        if epoch in decays:
            lr *= DECAY_FACTOR
        want.append(lr)
    assert [h["lr"] for h in history] == want


@pytest.mark.filterwarnings("error")
def test_divergence_in_validation_raises_training_diverged():
    # the first step blows the weights up; the validation forward that
    # follows is the first op to overflow
    tcfg = TrainConfig(lr=1e20, swa_lr=1e20, chunk_seconds=1.0, max_epochs=5)
    with pytest.raises(TrainingDiverged, match="epoch 1"):
        _one_track_run(tcfg)
