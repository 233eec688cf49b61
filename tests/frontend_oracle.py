"""The four-node front-end layer that ``tz.conv_block`` fuses, kept as
the reference its outputs and gradients must equal bit for bit."""

from aio1 import tensor as tz


def conv_block_chain(x, kernels, bias, padding, rate, rng, pool):
    """``tz.conv_block`` built from the primitives: conv2d, ELU, dropout
    and the frequency max-pool, one graph node each."""
    h = tz.elu(tz.conv2d(x, kernels, bias, padding))
    return tz.maxpool(tz.dropout(h, rate, rng), axis=2, width=pool)
