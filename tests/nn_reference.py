"""The generic forward, backward and chain of pre-activation gradients
that ``StackPass`` replaced, on fresh arrays: the reference every pass of
``trafficlab.nn`` is held to bit for bit, and the passes that
``ac_reference`` and ``td_reference`` build their updates from.

Each is a free function over a net's layers (an ``Mlp``, a stack member
or a net built from float64 ``Layer``s alike), in the dtype of its
weights: ``forward`` keeps each layer's input and the output in a
``ForwardCache``, which ``backward`` and ``chain`` only read. It keeps no
state of its own, so there is nothing in it to go stale.
"""

import numpy as np

from trafficlab.nn import Gradients


class ForwardCache:
    """Each layer's input and the net's output, captured by forward(); the
    activation gradients need no pre-activation."""

    def __init__(self, inputs: list[np.ndarray], output: np.ndarray):
        self.inputs = inputs              # inputs[l]: (B, in_l)
        self.output = output              # (B, out_L), the last activation


def forward(net, x: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """The output at one sample ``(n,)`` or a batch ``(B, n)``, and the
    cache ``backward`` and ``chain`` read."""
    layers = net.layers
    x = np.asarray(x, dtype=layers[0].w.dtype)
    squeeze = x.ndim == 1
    a = x[None, :] if squeeze else x
    if a.shape[1] != layers[0].w.shape[1]:
        raise ValueError(
            f"input size {a.shape[1]} does not match net input "
            f"{layers[0].w.shape[1]}")
    inputs = []
    last = len(layers) - 1
    for idx, layer in enumerate(layers):
        inputs.append(a)
        a = a @ layer.w.T
        a += layer.b
        if idx < last:
            np.tanh(a, out=a)
    out = a[0] if squeeze else a
    return out, ForwardCache(inputs, a)


def backward(net, cache: ForwardCache, output_grad: np.ndarray) -> Gradients:
    """Exact gradients of the scalar whose output gradient is supplied.

    ``output_grad`` carries any loss scaling (e.g. 1/B for a mean), so the
    returned gradients sum over the batch. This is the ``chain``, then
    each layer's weight and bias products, written into a new
    ``Gradients``.
    """
    pre_grads = chain(net, cache, output_grad)
    shapes = [l.w.shape for l in net.layers]
    grads = Gradients(np.empty(sum(l.w.size + l.b.size for l in net.layers),
                               net.layers[0].w.dtype), shapes)
    for ds, a, dw, db in zip(pre_grads, cache.inputs, grads.dw, grads.db):
        np.dot(ds.T, a, out=dw)  # the gemm of ds.T @ a, into the view
        ds.sum(axis=0, out=db)
    return grads


def chain(net, cache: ForwardCache, output_grad: np.ndarray) -> list[np.ndarray]:
    """The per-sample gradients at each layer's pre-activation, from the
    output gradient back to the first layer, without the weight and bias
    products ``backward`` adds; the cache is only read."""
    layers = net.layers
    g = np.asarray(output_grad, dtype=layers[0].w.dtype)
    if g.ndim == 1:
        g = g[None, :]
    if g.shape != cache.output.shape:
        raise ValueError("output gradient shape does not match forward cache")
    pre_grads: list[np.ndarray] = [None] * len(layers)
    ds = g  # the output layer is linear
    for idx in range(len(layers) - 1, -1, -1):
        pre_grads[idx] = ds
        if idx > 0:  # layer idx - 1 is tanh; its output is ``a``
            w = layers[idx].w
            # a one-column ds (a critic's) takes the broadcast product:
            # each element is the same one rounded product, and numpy's
            # K = 1 matmul is several times slower
            da = ds * w if ds.shape[1] == 1 else ds @ w
            a = cache.inputs[idx]
            ds = a * a  # (1 - a*a) * da in one array; products commute
            np.subtract(1.0, ds, out=ds)
            ds *= da
    return pre_grads
