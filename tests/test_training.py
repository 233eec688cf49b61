"""Training pieces: snapshot averaging and seeded reproducibility."""

import numpy as np

from aio1.model import init_weights, tiny_config
from aio1.training import SwaAverage, TrainConfig, make_toy_dataset, train


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
    assert h1 == h2
    assert [h["swa_active"] for h in h1] == [True, True, True]
    for (name, a), (_, b) in zip(w1.named_tensors(), w2.named_tensors()):
        np.testing.assert_array_equal(a.data, b.data, err_msg=name)
    # and the run did train: the weights left their initial values
    start = init_weights(cfg, tcfg.seed)
    assert any(not np.array_equal(a.data, b.data)
               for (_, a), (_, b) in zip(w1.named_tensors(), start.named_tensors()))
