"""Graph ops that only the tests build: a plain matrix product and a
standalone ELU node. The model runs every product through ``tz.linear``
and the ELU inside ``tz.conv_block``; these reuse the same helpers."""

import numpy as np

from aio1 import tensor as tz
from aio1.tensor import Tensor


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with numpy broadcasting over leading (batch) axes."""
    tz._check_matmul(a, b, "matmul")
    return Tensor._from_op(np.matmul(a.data, b.data), (a, b),
                           lambda g: tz._matmul_backward(a, b, g), "matmul")


def elu(x: Tensor) -> Tensor:
    out_data = tz._elu(x.data)
    return Tensor._from_op(out_data, (x,), lambda g: (tz._elu_slope(out_data, g),), "elu")
