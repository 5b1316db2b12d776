"""Small dense networks with exact backprop, plain/adaptive gradient steps,
and Kronecker-factored curvature for natural-gradient preconditioning.

Every net has one shape: affine layers, tanh on each hidden layer and a
linear output layer. A net's dtype is that of its ``params``: float32
(``DTYPE``) for every net ``Mlp.create`` builds, or the dtype of the
``Layer`` arrays a net is built from (float64 ones give a float64 net, as
the finite-difference tests use). Everything derived from a net follows
it: inference, every array of a pass, ``Gradients``, the Adam moments and
scratch, and the K-FAC factors, their damped inverses and the directions
they precondition; an input of another dtype is cast once, on the way in.

There is one net type: a net (``Mlp``) is a stack of one. A stack
(``MlpStack``) keeps ``S`` nets of one shape in one ``(S, P)`` buffer,
each member a net over its row; a lone net owns a ``(1, P)`` buffer. A
net's ``params`` is its row, laid out per layer as the weight matrix
row-major, then the bias; each layer's ``w`` and ``b`` are views into it,
so an optimizer step is a few whole-vector operations. ``Gradients`` use
the same layout and views, over a flat vector cut without a copy. Each
stack builds its plan of views once, and ``Mlp.run``, a net's one
inference entry, reads row 0's views of it. ``run`` keeps nothing and
takes three input shapes, each with one equality:

- one sample, 1-D ``(n,)``: ``w.dot(a)`` per layer, the BLAS
  matrix-vector kernel that ``a @ w.T`` also reaches, without the matmul
  dispatch; bit-equal to ``a @ w.T`` and to the one-row batch;
- a batch, 2-D ``(B, n)``: ``a @ w.T``, bit-equal to a ``StackPass``
  forward of the same batch, but not to ``B`` one-sample calls, as its
  product takes a matrix-matrix kernel that may round differently;
- a stack of single rows, ``(E, 1, n)``: ``a @ w.T`` again; numpy
  multiplies each one-row matrix of the stack the way it multiplies a
  1-D sample, so row ``k`` of the ``(E, 1, out)`` result is bit-equal to
  the one-sample call on ``x[k, 0]``, for every ``E``.

The one pass that caches, ``StackPass``, takes a stack or a net as it is.
It runs the members' forwards as one pass, ``(S, B, n) @ (S, n, m)`` per
layer, then one member's backward, or its chain of pre-activation
gradients alone (a curvature refresh), over arrays of its own built once
for a fixed ``B``; two passes share no array but their input.
Every learner trains through it: DQL's q and target nets as their stack,
each actor-critic net as itself. ``Mlp.forward`` and ``Mlp.backward``, a
pass over the net and its backward, are the benchmark tracer's hooks. A
pass never writes its net: it reads ``params`` in place and writes only
its own arrays. An Adam step writes ``m``, ``v``, ``params`` and its
scratch.

The generic forward, backward and chain the pass replaced, each on fresh
arrays, live on in the test suite (``tests/nn_reference.py``) as its
reference; the suite checks these equalities on the BLAS build it runs
on. A copy (``copy.deepcopy``, ``pickle``) follows the buffer: a stack
copies as its buffer and a member as its row of its copied stack; copies
of a ``Gradients`` and an optimizer view their own arrays, and a
``StackPass`` refuses to be copied. An agent checkpoint (see
``trafficlab.agents``) stores each net's ``params`` and each optimizer's
``state_arrays()``, the live state a loader writes into in place; it
holds the K-FAC factors but not their damped inverses (see ``KfacStats``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class DivergenceError(RuntimeError):
    """A gradient or update direction stopped being finite."""


class SingularCurvatureError(RuntimeError):
    """A curvature factor could not be inverted (no damping to rescue it)."""


# the dtype of every net ``Mlp.create`` builds; at these sizes a DQL
# training step takes about two thirds of its float64 time in float32
# (2 vCPUs, one BLAS thread)
DTYPE = np.float32


def _layer_views(flat: np.ndarray, shapes) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-layer weight and bias views into the last axis of ``flat``,
    laid out as [w0 row-major, b0, w1, b1, ...] for weight shapes
    ``(out, in)``; leading axes (a stack's) lead every view."""
    lead = flat.shape[:-1]
    ws, bs = [], []
    off = 0
    for out_dim, in_dim in shapes:
        ws.append(flat[..., off:off + out_dim * in_dim].reshape(
            lead + (out_dim, in_dim)))
        off += out_dim * in_dim
        bs.append(flat[..., off:off + out_dim])
        off += out_dim
    return ws, bs


@dataclass
class Layer:
    w: np.ndarray  # (out, in)
    b: np.ndarray  # (out,)

    def __post_init__(self):
        if self.w.ndim != 2 or self.b.shape != (self.w.shape[0],):
            raise ValueError("layer weight/bias shapes are inconsistent")


class Gradients:
    """Weight/bias gradients shaped like their source network: one flat
    vector in the ``Mlp.params`` layout, with per-layer ``dw``/``db`` views.
    Built over ``flat`` itself (no copy), cut into weight ``shapes``."""

    def __init__(self, flat: np.ndarray, shapes):
        self.flat = flat
        self.shapes = [tuple(shape) for shape in shapes]
        self.dw, self.db = _layer_views(flat, self.shapes)

    def __reduce__(self):
        # ``dw`` and ``db`` view ``flat``: a copy cuts its own
        return type(self), (self.flat, self.shapes)

    def is_finite(self) -> bool:
        return bool(np.isfinite(self.flat).all())


def _flat(layers: list[Layer]) -> np.ndarray:
    """``layers``' values in a new vector, in their float dtype (ints make
    a float64 net)."""
    for prev, nxt in zip(layers, layers[1:]):
        if nxt.w.shape[1] != prev.w.shape[0]:
            raise ValueError("adjacent layer dimensions are incompatible")
    parts = [part for l in layers for part in (l.w.ravel(), l.b)]
    return np.concatenate(parts).astype(np.result_type(np.float32, *parts),
                                        copy=False)


class MlpStack:
    """``size`` nets of one shape over one ``(size, P)`` buffer,
    ``params``, each row starting as a copy of ``layers``. ``members[k]``
    is the net over row ``k``; copying one member into another is a row
    copy. ``_plan``, what a ``StackPass`` reads, holds per layer the
    stacked weights ``(S, out, in)``, their transposes, the biases ``(S,
    1, out)`` and the activation (None for the linear output layer)."""

    def __init__(self, layers: list[Layer], size: int):
        shapes = [l.w.shape for l in layers]
        self._over(np.tile(_flat(layers), (size, 1)), shapes)
        self.members = [Mlp._member(self, k, shapes) for k in range(size)]

    def _over(self, rows: np.ndarray, shapes) -> None:
        """Take the ``(S, P)`` buffer ``rows`` as ``params``; plan over it."""
        self.params = rows
        ws, bs = _layer_views(rows, shapes)
        last = len(ws) - 1
        self._plan = [(w, w.transpose(0, 2, 1), b[:, None, :],
                       np.tanh if idx < last else None)
                      for idx, (w, b) in enumerate(zip(ws, bs))]

    def __reduce__(self):
        # the members and the plan view the buffer: a copy builds its own
        return (type(self), (self.members[0].layers, len(self.members)),
                self.params)

    def __setstate__(self, params: np.ndarray) -> None:
        self.params[...] = params


def _member_of(stack: MlpStack, k: int) -> "Mlp":
    """Member ``k`` of ``stack``: a copied member, of the copied stack."""
    return stack.members[k]


class Mlp(MlpStack):
    """Fixed-topology feed-forward net: affine layers, tanh on each but
    the last, which is linear; a stack of one, over a ``(1, P)`` buffer of
    its own that copies the given layers' values, or over a row of a
    larger stack's buffer.

    ``params`` is that row, and each layer's ``w``/``b`` a view into it.
    Write parameters in place (``layer.w[...] = ...``, ``params[...] =
    ...``); rebinding ``layer.w``, or an agent's attribute that holds a
    net, would cut it off from ``params``, the optimizers and the passes.
    ``Mlp(net.layers)`` is a copy of ``net``. ``run`` is inference;
    ``forward`` and ``backward`` run a ``StackPass`` over the net itself.
    """

    # (stack, k) for member k of a larger stack, which a copy follows
    _parent = None

    def __init__(self, layers: list[Layer]):
        self._over(_flat(layers)[None], [l.w.shape for l in layers])

    @classmethod
    def _member(cls, stack: MlpStack, k: int, shapes) -> "Mlp":
        """The net over row ``k`` of ``stack``'s buffer."""
        net = cls.__new__(cls)
        net._parent = stack, k
        net._over(stack.params[k:k + 1], shapes)
        return net

    def _over(self, rows: np.ndarray, shapes) -> None:
        super()._over(rows, shapes)
        self.params = rows[0]
        self._run_plan = [(w[0], wt[0], b[0, 0], act)
                          for w, wt, b, act in self._plan]
        self.layers = [Layer(w, b) for w, _, b, _ in self._run_plan]

    def __reduce__(self):
        # a lone net copies as ``Mlp(layers)`` over copies of its layers, a
        # member as its row of its copied stack
        if self._parent is None:
            return type(self), (self.layers,)
        return _member_of, self._parent

    @classmethod
    def create(cls, sizes: list[int], seed: int) -> "Mlp":
        """Scaled uniform fan-in init (+/- 1/sqrt(fan_in)), zero biases, in
        ``DTYPE``; ``sizes`` runs from the input to the output. The weights
        are float64 uniform draws, each rounded once."""
        rng = np.random.default_rng(seed)
        layers = []
        for fan_in, fan_out in zip(sizes, sizes[1:]):
            bound = 1.0 / math.sqrt(fan_in)
            w = rng.uniform(-bound, bound, size=(fan_out, fan_in))
            layers.append(Layer(w=w.astype(DTYPE),
                                b=np.zeros(fan_out, dtype=DTYPE)))
        return cls(layers)

    def run(self, a: np.ndarray) -> np.ndarray:
        """The output at one sample ``(n,)``, a batch ``(B, n)`` or a stack
        of single rows ``(E, 1, n)``, for an input whose size the caller
        has checked and whose dtype casts exactly to the net's (the first
        product casts it); the module docstring names the bit-equality
        each shape keeps. Nothing is cached."""
        if a.ndim == 1:
            for w, _, b, act in self._run_plan:
                a = w.dot(a)
                a += b
                if act is not None:
                    act(a, out=a)
            return a
        for _, wt, b, act in self._run_plan:
            a = a @ wt
            a += b
            if act is not None:
                act(a, out=a)
        return a

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, StackPass]:
        """The output at one sample ``(n,)`` or a batch ``(B, n)``, run by
        a fresh pass over the net, and that pass, which ``backward``
        reads."""
        x = np.asarray(x, dtype=self.params.dtype)
        run = StackPass(self, x[None, None] if x.ndim == 1 else x[None])
        out = run.forward()[0]
        return (out[0] if x.ndim == 1 else out), run

    def backward(self, cache: StackPass,
                 output_grad: np.ndarray) -> Gradients:
        """Exact gradients of the scalar whose output gradient is supplied,
        from the pass ``forward`` returned, in a new ``Gradients``.
        ``output_grad`` carries any loss scaling (e.g. 1/B for a mean), so
        the gradients sum over the batch."""
        g = np.asarray(output_grad)
        if (g[None] if g.ndim == 1 else g).shape != cache.dout.shape:
            raise ValueError("output gradient shape does not match forward cache")
        cache.dout[...] = g
        grads = cache.backward(0)
        return Gradients(grads.flat.copy(), grads.shapes)

    def flatten(self) -> np.ndarray:
        """A copy of ``params``, safe to compare against later values."""
        return self.params.copy()


class StackPass:
    """A stack's (or a net's) forward and one member's ``backward`` or
    chain, over arrays built once for a fixed batch of ``B`` rows.

    ``x`` is the caller's ``(S, B, n)`` input, written in place before each
    ``forward``; its dtype is the stack's or one that casts to it exactly
    (a DQL agent's replay draws are ``DTYPE`` whatever its nets' dtype).
    Every other array is the pass's own, in the stack's dtype:
    ``acts[l]``, ``(S, B, out_l)``, is layer ``l``'s output, the last one
    the stack's outputs; ``inputs[k]`` lists member ``k``'s layer inputs;
    ``dout``, ``(B, out_L)``, is the output gradient ``backward`` and
    ``chain`` read; ``grads`` is the ``Gradients`` ``backward`` writes;
    the chain scratch is private. Two passes over one ``x`` share only
    ``x``, so each keeps what its last forward, backward and chain left.
    Shapes are checked here, once, and never per pass.

    ``forward`` writes each layer as ``Mlp.run`` computes a batch, its
    product by ``np.matmul(..., out=)``, so row ``k`` of every activation
    is bit-equal to the member's batch ``run`` on ``x[k]``.
    ``backward(k)`` and ``chain(k)`` write, bit for bit, what the generic
    backward and chain on fresh arrays give from the same forward: those
    are their reference, in ``tests/nn_reference.py``, and the test suite
    checks the equalities. The plan views the stack's buffer, so the pass
    reads every in-place write to it and writes none; a pass is not
    copied, as a copy of the stack needs a pass of its own.
    """

    def __init__(self, stack: MlpStack, x: np.ndarray):
        plan = self._plan = stack._plan
        dtype = stack.params.dtype
        size, _, n = plan[0][0].shape
        if x.ndim != 3 or x.shape[0] != size or x.shape[2] != n:
            raise ValueError(f"expected a ({size}, B, {n}) input, got "
                             f"{x.shape}")
        batch = x.shape[1]
        if not np.can_cast(x.dtype, dtype, "safe"):
            raise ValueError(f"input dtype {x.dtype} does not cast exactly "
                             f"to the stack's {dtype}")
        self.x = x
        self.acts = [np.zeros((size, batch, wt.shape[2]), dtype)
                     for _, wt, _, _ in plan]
        self.dout = np.zeros((batch, self.acts[-1].shape[2]), dtype)
        shapes = [w.shape[1:] for w, _, _, _ in plan]
        self.grads = Gradients(np.empty(stack.params.shape[-1], dtype), shapes)
        self.inputs = [[x[k]] + [a[k] for a in self.acts[:-1]]
                       for k in range(size)]
        # the chain scratch, shared by the members: each layer's
        # pre-activation gradient (``dout`` for the linear output layer),
        # and its input's gradient, one array per width
        pre_grads = self._pre_grads = [
            np.zeros((batch, out_dim), dtype)
            for out_dim, _ in shapes[:-1]] + [self.dout]
        widths = {in_dim: np.zeros((batch, in_dim), dtype)
                  for _, in_dim in shapes[1:]}
        input_grads = [None] + [widths[in_dim] for _, in_dim in shapes[1:]]
        # per member, the layers above the first, top down: the product
        # (the broadcast one below a one-column gradient: each element is
        # the same one rounded product, and numpy's K = 1 matmul is several
        # times slower), the member's weight, the layer's
        # pre-activation gradient and input, the input's gradient and the
        # gradient below
        self._chains = [[
            (np.multiply if pre_grads[idx].shape[1] == 1 else np.matmul,
             plan[idx][0][k], pre_grads[idx], self.inputs[k][idx],
             input_grads[idx], pre_grads[idx - 1])
            for idx in range(len(shapes) - 1, 0, -1)]
            for k in range(size)]

    def __reduce__(self):
        raise TypeError("a StackPass is not copied: build one over the "
                        "copied stack")

    def forward(self) -> np.ndarray:
        """The ``(S, B, out)`` outputs of every member on its row of
        ``x``: ``acts[-1]``."""
        a = self.x
        for (_, wt, b, act), out in zip(self._plan, self.acts):
            np.matmul(a, wt, out=out)
            out += b
            if act is not None:
                act(out, out=out)
            a = out
        return a

    def backward(self, member: int) -> Gradients:
        """Member ``member``'s gradients of the scalar whose output
        gradient is ``dout``, from the last ``forward``, into ``grads``:
        the chain, then each layer's weight and bias products."""
        for ds, a, dw, db in zip(self.chain(member), self.inputs[member],
                                 self.grads.dw, self.grads.db):
            np.dot(ds.T, a, out=dw)  # the gemm of ds.T @ a, into the view
            np.add.reduce(ds, axis=0, out=db)
        return self.grads

    def chain(self, member: int) -> list[np.ndarray]:
        """Member ``member``'s per-sample pre-activation gradients from
        ``dout`` and the last ``forward``, in layer order (the last is
        ``dout``); a curvature refresh reads nothing else of a pass."""
        for product, w, ds, a, da, ds_below in self._chains[member]:
            # ``a`` is the tanh output of the layer below
            product(ds, w, out=da)
            np.multiply(a, a, out=ds_below)
            np.subtract(1.0, ds_below, out=ds_below)
            ds_below *= da
        return self._pre_grads


# ---------------------------------------------------------------------------
# optimizers
# ---------------------------------------------------------------------------

class SgdOptimizer:
    """W <- W + lr * direction (ascent; for descent, callers hand the
    gradient of the negated loss)."""

    def __init__(self, net: Mlp):
        """SGD keeps no state; it takes the net as every optimizer does."""

    def step(self, net: Mlp, direction: Gradients, learning_rate: float) -> None:
        if not direction.is_finite():
            raise DivergenceError("non-finite update direction")
        net.params += learning_rate * direction.flat

    def state_arrays(self) -> list[np.ndarray]:
        return []


class AdamOptimizer:
    """First/second-moment adaptive steps, ascent convention.

    The moments ``m`` and ``v`` are flat vectors in the ``Mlp.params``
    layout, the two rows of one ``(2, P)`` array, ``_moments``, so the
    paired decays, moment adds and bias corrections of a step are one
    operation each.
    Their checkpoint form is per-layer views, all weights then all biases.
    A scratch array of the same shape holds each step's intermediates; it
    is derived state and is not checkpointed. All of them take the net's
    dtype. The step count ``t`` is checkpointed among the agent's
    counters."""

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, net: Mlp):
        self.t = 0
        dtype = net.params.dtype
        self._moments = np.zeros((2, net.params.size), dtype)
        self._scratch = np.empty_like(self._moments)
        self._decays = np.array([[self.BETA1], [self.BETA2]], dtype)
        self._corrections = np.empty((2, 1), dtype)
        self._shapes = [l.w.shape for l in net.layers]

    def step(self, net: Mlp, direction: Gradients, learning_rate: float) -> None:
        if not direction.is_finite():
            raise DivergenceError("non-finite update direction")
        g = direction.flat
        self.t += 1
        self._corrections[0, 0] = 1.0 - self.BETA1 ** self.t
        self._corrections[1, 0] = 1.0 - self.BETA2 ** self.t
        # params += lr * (m / bias1) / (sqrt(v / bias2) + eps), with the
        # moment updates before it, each operation as in that expression
        # (products commuted, which is exact) and written into scratch;
        # an operation on both rows at once rounds each element as the
        # row's own operation would
        moments, scratch = self._moments, self._scratch
        step, denom = scratch
        moments *= self._decays
        np.multiply(g, 1 - self.BETA1, out=step)
        np.multiply(g, g, out=denom)
        denom *= 1 - self.BETA2
        moments += scratch
        np.divide(moments, self._corrections, out=scratch)
        step *= learning_rate
        np.sqrt(denom, out=denom)
        denom += self.EPS
        step /= denom
        net.params += step

    def state_arrays(self) -> list[np.ndarray]:
        """``m`` then ``v``, each as views [w0 .. wL, b0 .. bL]."""
        views = []
        for flat in self._moments:
            ws, bs = _layer_views(flat, self._shapes)
            views += ws + bs
        return views


# ---------------------------------------------------------------------------
# Kronecker-factored curvature
# ---------------------------------------------------------------------------

class KfacStats:
    """Per-layer running factors A ~ E[a a^T] and S ~ E[ds ds^T].

    Preconditioning applies (S + damping I)^-1 G (A + damping I)^-1 per
    layer, the Kronecker realization of the inverse-curvature product.
    Biases use the S factor alone. ``damping`` and ``decay`` come from
    ``AgentConfig``, which checks their ranges. The factors, their
    inverses and the directions take the net's dtype, and ``precondition``
    takes gradients of that dtype.

    The damped inverses are cached: ``update`` marks them stale, and the
    next ``precondition`` rebuilds all of them from the factors. They are
    not checkpointed; a new instance, such as the one a checkpoint loader
    fills, has none until its first ``precondition``. Code that writes a
    factor directly must write it in place, keeping its dtype, and do so
    before the first ``precondition`` or follow it with an ``update``.
    """

    def __init__(self, net: Mlp, *, damping: float, decay: float):
        self.damping = damping
        self.decay = decay
        dtype = net.params.dtype
        self.a_factors = [np.eye(l.w.shape[1], dtype=dtype) for l in net.layers]
        self.s_factors = [np.eye(l.w.shape[0], dtype=dtype) for l in net.layers]
        self._inverses: list[tuple[np.ndarray, np.ndarray]] | None = None

    def update(self, activations: list[np.ndarray],
               pre_grads: list[np.ndarray]) -> None:
        """Fold one minibatch of per-sample activations and pre-activation
        gradients into the running factors, in place, in their dtype."""
        if len(activations) != len(self.a_factors):
            raise ValueError("layer count mismatch in curvature update")
        d = self.decay
        for factors, xs in ((self.a_factors, activations),
                            (self.s_factors, pre_grads)):
            for factor, x in zip(factors, xs):
                # numpy forms x.T @ x with a symmetric rank-k product
                # (syrk), which fills both triangles alike, so each blend
                # stays exactly symmetric with no symmetrization (the test
                # suite checks this)
                factor *= d
                factor += (1 - d) * (x.T @ x) / x.shape[0]
        self._inverses = None

    def state_arrays(self) -> list[np.ndarray]:
        return list(self.a_factors) + list(self.s_factors)

    def _damped_inverse(self, factor: np.ndarray) -> np.ndarray:
        mat = factor
        if self.damping > 0:
            mat = factor + self.damping * np.eye(len(factor), dtype=factor.dtype)
        try:
            return np.linalg.inv(mat)
        except np.linalg.LinAlgError as exc:
            raise SingularCurvatureError(
                "curvature factor is singular and damping is zero") from exc

    def precondition(self, grads: Gradients) -> Gradients:
        """(S + damping I)^-1 G (A + damping I)^-1 per layer, written
        into the views of a fresh direction."""
        if self._inverses is None:
            self._inverses = [
                (self._damped_inverse(a), self._damped_inverse(s))
                for a, s in zip(self.a_factors, self.s_factors)]
        out = Gradients(np.empty_like(grads.flat), grads.shapes)
        for (a_inv, s_inv), dw, db, out_dw, out_db in zip(
                self._inverses, grads.dw, grads.db, out.dw, out.db):
            # straight into the direction's views (np.dot takes an ``out``
            # of its result's dtype only)
            np.dot(np.dot(s_inv, dw), a_inv, out=out_dw)
            np.dot(s_inv, db, out=out_db)
        return out
