"""Central finite-difference check of the analytic gradients of the
tensor primitives, the oracle for every hand-written backward."""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from aio1.errors import NumericError, ParameterError
from aio1.tensor import Tensor


def grad_check(fn: Callable[[], Tensor], tensors: Sequence[Tensor],
               eps: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``fn`` rebuilds a scalar loss from the current parameter values; it is
    re-evaluated twice per parameter entry. All parameters must be held in
    float64 — float32 round-off swamps the finite-difference signal.
    """
    for t in tensors:
        if t.data.dtype != np.float64:
            raise ParameterError("grad_check requires float64 parameters")
        t.requires_grad = True
        t.grad = None
    out = fn()
    if out.size != 1:
        raise ParameterError("grad_check needs a scalar function")
    if not np.isfinite(out.data).all():
        raise NumericError("grad_check: non-finite function value")
    if out.requires_grad:
        out.backward()
    analytic = [np.zeros_like(t.data) if t.grad is None else t.grad.copy()
                for t in tensors]

    worst = 0.0
    for t, ana in zip(tensors, analytic):
        flat = t.data.reshape(-1)
        ana_flat = ana.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = float(fn().data)
            flat[i] = orig - eps
            lo = float(fn().data)
            flat[i] = orig
            if not (math.isfinite(hi) and math.isfinite(lo)):
                raise NumericError("grad_check: non-finite perturbed value")
            num = (hi - lo) / (2.0 * eps)
            denom = max(1e-8, abs(ana_flat[i]) + abs(num))
            worst = max(worst, abs(ana_flat[i] - num) / denom)
    return worst
