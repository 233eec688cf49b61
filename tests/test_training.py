"""Training pieces: snapshot averaging."""

import numpy as np

from aio1.model import init_weights, tiny_config
from aio1.training import SwaAverage


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
