"""Peak RSS of one default-preset ``train_step`` on a long chunk, in a fresh
process: a toy track of ``--seconds`` (default: ``TrainConfig``'s chunk),
one forward with dropout on, the loss, the backward and the RAdam update.
It prints one JSON line and exits 1 if the peak exceeds ``--limit-mb`` or
the loss is not finite.

    PYTHONPATH=src python3 tests/long_chunk_memory.py [--seconds 300] [--limit-mb 4096]

Not a pytest module: the peak of a process is only meaningful in a fresh one.
"""

import argparse
import json
import math
import resource
import sys
import time

import numpy as np

from aio1.model import default_config, init_weights
from aio1.training import RAdamState, TrainConfig, build_targets, make_toy_dataset, train_step


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=float, default=TrainConfig().chunk_seconds)
    parser.add_argument("--limit-mb", type=float, default=4096.0)
    args = parser.parse_args(argv)

    cfg, tcfg = default_config(), TrainConfig()
    spec, ann = make_toy_dataset(0, 1, args.seconds, fps=cfg.fps, bands=cfg.bands,
                                 num_stems=cfg.num_stems, vocab=cfg.label_vocab)[0]
    targets = build_targets(ann, cfg.fps, spec.num_frames, cfg.label_vocab)
    weights = init_weights(cfg, seed=0)
    state = RAdamState.for_params(weights.parameters())
    before_mb = _rss_mb()
    start = time.perf_counter()
    loss = train_step(weights, state, spec.values, targets, cfg, tcfg, tcfg.lr,
                      np.random.default_rng(1)).loss
    step_s = time.perf_counter() - start
    peak_mb = _rss_mb()
    ok = peak_mb <= args.limit_mb and math.isfinite(loss)
    print(json.dumps({"chunk_s": args.seconds, "frames": spec.num_frames,
                      "peak_rss_mb": round(peak_mb, 1),
                      "peak_rss_before_step_mb": round(before_mb, 1),
                      "limit_mb": args.limit_mb, "step_s": round(step_s, 2),
                      "loss": loss, "ok": ok}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
