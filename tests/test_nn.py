import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kfac_oracle import gradients_of, solve_precondition
from nn_reference import backward, chain, forward
from trafficlab.nn import (
    DTYPE,
    AdamOptimizer,
    DivergenceError,
    Gradients,
    KfacStats,
    Layer,
    Mlp,
    MlpStack,
    SgdOptimizer,
    SingularCurvatureError,
    StackPass,
)


def small_net(seed=0, sizes=(3, 4, 2)):
    return Mlp.create(list(sizes), seed=seed)


def float64_net(sizes, seed):
    """The net ``Mlp.create`` builds, widened to a float64 net through
    float64 ``Layer``s: the finite-difference and dense-algebra oracles
    need float64's precision."""
    return Mlp([Layer(l.w.astype(np.float64), l.b.astype(np.float64))
                for l in Mlp.create(list(sizes), seed=seed).layers])


def is_hidden(net, idx):
    """Whether layer ``idx`` of ``net`` is a hidden (tanh) layer; the
    last layer is linear."""
    return idx < len(net.layers) - 1


def loss_and_grad(net, x, target):
    """Half squared error against a fixed target; returns loss and d/d output."""
    out, cache = net.forward(x)
    diff = np.atleast_2d(out) - np.atleast_2d(target)
    return 0.5 * float(np.sum(diff * diff)), diff, cache


def numeric_gradient(net, x, target, h=1e-5):
    flat = net.flatten()
    grad = np.zeros_like(flat)
    probe = Mlp(net.layers)
    for i in range(flat.size):
        for sign in (1.0, -1.0):
            bumped = flat.copy()
            bumped[i] += sign * h
            probe.params[...] = bumped
            loss, _, _ = loss_and_grad(probe, x, target)
            grad[i] += sign * loss
    return grad / (2 * h)


def call_reference(net, x):
    """Inference as it was before it worked in place: a new array for
    each operation, in the net's dtype. The oracle for ``Mlp.run``."""
    a = np.asarray(x, dtype=net.params.dtype)
    for idx, layer in enumerate(net.layers):
        s = a @ layer.w.T + layer.b
        a = np.tanh(s) if is_hidden(net, idx) else s
    return a


def adam_reference(params, m, v, g, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """One ``AdamOptimizer.step`` as it was before its scratch buffers,
    writing ``params``, ``m`` and ``v`` in place. The oracle for the
    scratch-buffer step."""
    bias1 = 1.0 - beta1 ** t
    bias2 = 1.0 - beta2 ** t
    m *= beta1
    m += (1 - beta1) * g
    v *= beta2
    v += (1 - beta2) * (g * g)
    params += lr * (m / bias1) / (np.sqrt(v / bias2) + eps)


def random_net(rng, depth, in_dim):
    """A net of ``depth`` layers of random sizes with non-zero biases."""
    sizes = [in_dim] + [int(n) for n in rng.integers(1, 65, size=depth)]
    net = Mlp.create(sizes, seed=int(rng.integers(2**32)))
    net.params += rng.normal(size=net.params.size)
    return net


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------

def test_zero_net_identity_activation_outputs_zero():
    layers = [Layer(np.zeros((2, 3)), np.zeros(2))]  # the linear output layer
    net = Mlp(layers)
    out, _ = net.forward(np.array([1.0, -2.0, 3.0]))
    np.testing.assert_array_equal(out, np.zeros(2))


def test_single_affine_layer_arithmetic():
    net = Mlp([Layer(np.array([[2.0]]), np.array([1.0]))])
    out, _ = net.forward(np.array([3.0]))
    assert out[0] == 7.0


def test_forward_matches_dense_algebra_oracle():
    rng = np.random.default_rng(5)
    net = float64_net((4, 5, 3, 2), seed=1)
    x = rng.normal(size=(6, 4))
    out, _ = net.forward(x)
    # independent composition with explicit matrix products: tanh on the
    # two hidden layers, a linear output
    a = x
    for idx, layer in enumerate(net.layers):
        s = np.einsum("bi,oi->bo", a, layer.w) + layer.b
        a = np.tanh(s) if idx < 2 else s
    np.testing.assert_allclose(out, a, rtol=0, atol=1e-12)


@pytest.mark.parametrize("shape", [(5,), (2,), (4, 5)])
def test_forward_rejects_wrong_input_size(shape):
    with pytest.raises(ValueError, match="input, got"):
        small_net().forward(np.zeros(shape))
    with pytest.raises(ValueError, match="input size"):
        forward(small_net(), np.zeros(shape))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(7,), (1, 7), (5, 7)])
def test_the_tracer_hooks_equal_the_reference_passes_bit_for_bit(
        shape, dtype):
    """``Mlp.forward`` and ``Mlp.backward``, a pass over the net itself,
    give what the generic passes give, leave the net as it was, and
    hand out a new ``Gradients`` at each backward."""
    rng = np.random.default_rng(len(shape) + 10 * shape[0])
    net = Mlp([Layer(l.w.astype(dtype), l.b.astype(dtype))
               for l in random_net(rng, 3, 7).layers])
    values = net.params.tobytes()
    x = rng.normal(size=shape) * 2.0
    out, run = net.forward(x)
    expected, cache = forward(net, x)
    assert out.shape == expected.shape and out.dtype == dtype
    assert out.tobytes() == expected.tobytes()
    g = rng.normal(size=out.shape)
    grads = net.backward(run, g)
    assert grads.flat.dtype == dtype
    assert grads.flat.tobytes() == backward(net, cache, g).flat.tobytes()
    again = net.backward(run, g)
    assert not np.shares_memory(again.flat, grads.flat)
    assert again.flat.tobytes() == grads.flat.tobytes()
    assert net.params.tobytes() == values


@settings(max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), batch=st.sampled_from([None, 1, 7]),
       scale=st.sampled_from([0.0, 1e-3, 1.0, 30.0]),
       depth=st.integers(1, 3))
def test_call_equals_forward_bit_for_bit(seed, batch, scale, depth):
    rng = np.random.default_rng(seed)
    net = random_net(rng, depth, 11)
    shape = (11,) if batch is None else (batch, 11)
    x = (scale * rng.normal(size=shape)).astype(DTYPE)
    x_before = x.copy()
    out, expected = net.run(x), forward(net, x)[0]
    assert out.shape == expected.shape
    assert out.tobytes() == expected.tobytes()
    assert out.tobytes() == call_reference(net, x).tobytes()
    assert x.tobytes() == x_before.tobytes()  # the input is never written


@settings(max_examples=100)
@given(seed=st.integers(0, 2**32 - 1), in_dim=st.integers(1, 80),
       x_scale=st.sampled_from([0.0, 1e-3, 1.0, 30.0, 1e4]),
       w_scale=st.sampled_from([1e-3, 1.0, 8.0, 300.0]),
       depth=st.integers(1, 4))
def test_one_sample_call_equals_one_row_forward_and_matmul_bit_for_bit(
        seed, in_dim, x_scale, w_scale, depth):
    # a 1-D sample takes w.dot(a) per layer, the kernel a @ w.T reaches
    # for a vector; act relies on it agreeing with the one-row forward
    rng = np.random.default_rng(seed)
    net = random_net(rng, depth, in_dim)
    net.params *= w_scale
    x = (x_scale * rng.normal(size=in_dim)).astype(DTYPE)
    out = net.run(x)
    assert out.shape == (net.layers[-1].w.shape[0],)
    assert out.tobytes() == forward(net, x[None, :])[0][0].tobytes()
    assert out.tobytes() == call_reference(net, x).tobytes()


@settings(max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 64),
       in_dim=st.integers(1, 16),
       depth=st.integers(1, 4))
def test_call_on_stacked_rows_equals_one_row_calls_bit_for_bit(
        seed, rows, in_dim, depth):
    # greedy evaluation runs all its episodes' observations as one (E, 1, n)
    # stack and relies on each row's output equalling the 1-D call's; a 2-D
    # (E, n) batch may take another BLAS kernel and round differently
    rng = np.random.default_rng(seed)
    net = random_net(rng, depth, in_dim)
    x = rng.normal(size=(rows, in_dim)).astype(DTYPE)
    out = net.run(x[:, None, :])
    assert out.shape == (rows, 1, net.layers[-1].w.shape[0])
    for k in range(rows):
        assert out[k, 0].tobytes() == net.run(x[k]).tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("batch", [1, 4, 64, 256])
@pytest.mark.parametrize("size", [2, 3])
def test_stacked_forward_rows_equal_each_members_passes_bit_for_bit(
        size, batch, dtype):
    # DQL runs its q and target nets as one stacked pass and relies on each
    # member's rows equalling its own forward and batch call, and on each
    # member's backward from the pass equalling its generic backward; a
    # BLAS build that breaks this fails here
    rng = np.random.default_rng(1000 * size + batch)
    layers = [Layer(l.w.astype(dtype), l.b.astype(dtype))
              for l in Mlp.create([11, 64, 64, 2], seed=batch).layers]
    stack = MlpStack(layers, size)
    assert stack.params.shape == (size, Mlp(layers).params.size)
    assert stack.params.dtype == dtype
    for member in stack.members:
        assert member.params.tobytes() == Mlp(layers).params.tobytes()
        member.params += rng.normal(size=member.params.size)  # apart
        assert_views_aliased(member)
    x = (rng.normal(size=(size, batch, 11)) * 3.0).astype(dtype)
    run = StackPass(stack, x)
    out = run.forward()
    assert out is run.acts[-1]
    assert out.shape == (size, batch, 2) and out.dtype == dtype
    for k, member in enumerate(stack.members):
        assert np.shares_memory(member.params, stack.params[k])
        expected, cache = forward(member, x[k])
        assert out[k].tobytes() == expected.tobytes()
        assert out[k].tobytes() == member.run(x[k]).tobytes()
        assert [a[k].tobytes() for a in [x] + run.acts[:-1]] == [
            a.tobytes() for a in cache.inputs]
    for k, member in enumerate(stack.members):  # after every forward row
        g = rng.normal(size=(batch, 2)).astype(dtype)
        run.dout[...] = g
        grads = run.backward(k)
        assert grads is run.grads
        expected = backward(member, forward(member, x[k])[1], g).flat
        assert grads.flat.tobytes() == expected.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_stacked_backward_equals_the_generic_one_at_a_one_wide_layer(dtype):
    # below a one-wide layer both take the broadcast product, as below a
    # critic's one-wide output: one rounded product per element
    rng = np.random.default_rng(7)
    for sizes in ([5, 1, 3, 1, 2], [5, 4, 3, 1]):
        layers = [Layer(l.w.astype(dtype), l.b.astype(dtype))
                  for l in Mlp.create(sizes, seed=7).layers]
        stack = MlpStack(layers, 2)
        x = rng.normal(size=(2, 9, 5)).astype(dtype)
        run = StackPass(stack, x)
        run.forward()
        run.dout[...] = rng.normal(size=(9, sizes[-1]))
        member = stack.members[0]
        cache = forward(member, x[0])[1]
        expected = backward(member, cache, run.dout).flat
        assert run.backward(0).flat.tobytes() == expected.tobytes()
        pre_grads = chain(member, cache, run.dout)
        assert [ds.tobytes() for ds in run.chain(0)] == [
            ds.tobytes() for ds in pre_grads]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 16), hidden=st.lists(st.integers(1, 24),
                                                    max_size=3),
       in_dim=st.integers(1, 12), rows=st.integers(1, 80),
       batches=st.lists(st.integers(1, 80), min_size=1, max_size=6),
       dtype=st.sampled_from([np.float32, np.float64]))
def test_one_member_passes_over_their_own_arrays_equal_the_generic_ones(
        seed, hidden, in_dim, rows, batches, dtype):
    """An actor-critic runs a two-output and a one-output net of the same
    hidden widths through a pair of passes over one input at each row
    count its update meets: every pass, run after any other, writes what
    the generic ``forward``, ``backward`` and ``chain`` give on fresh
    arrays, bit for bit, and the two passes of a pair share no array but
    their input."""
    rng = np.random.default_rng(seed)
    nets = []
    for out in (2, 1):
        net = Mlp.create([in_dim] + hidden + [out], seed=seed + out)
        net = Mlp([Layer(l.w.astype(dtype), l.b.astype(dtype))
                   for l in net.layers])
        net.params += rng.normal(size=net.params.size)
        nets.append(net)
    passes = {}
    for batch in [b for b in batches if b <= rows] + [rows]:
        pair = passes.get(batch)
        if pair is None:
            x = np.zeros((1, batch, in_dim), dtype)
            pair = passes[batch] = [StackPass(net, x) for net in nets]
        x = pair[0].x
        x[0] = rng.normal(size=(batch, in_dim)) * 2.0
        for net, run in zip(nets, pair):
            out, cache = forward(net, x[0])
            assert run.forward()[0].tobytes() == out.tobytes()
            assert [a.tobytes() for a in run.inputs[0]] == [
                a.tobytes() for a in cache.inputs]
            g = rng.normal(size=out.shape).astype(dtype)
            run.dout[...] = g
            assert (run.backward(0).flat.tobytes()
                    == backward(net, cache, g).flat.tobytes())
            g = rng.normal(size=out.shape).astype(dtype)
            run.dout[...] = g
            assert [ds.tobytes() for ds in run.chain(0)] == [
                ds.tobytes() for ds in chain(net, cache, g)]
        actor, critic = pair
        assert critic.x is actor.x
        assert not any(np.shares_memory(a, b)
                       for a in [*actor.acts, *actor.chain(0)]
                       for b in [*critic.acts, *critic.chain(0)])


def test_a_nets_own_pass_trains_the_net_in_place():
    # a net is a one-member stack: its pass runs the net's own plan, so
    # every in-place write to its params shows in the next forward
    net = small_net(seed=9)
    values = net.flatten()
    run = StackPass(net, np.ones((1, 4, 3), DTYPE))
    assert net.params.tobytes() == values.tobytes()
    assert all(np.shares_memory(w, net.params) for w, _, _, _ in run._plan)
    before = run.forward().copy()
    net.layers[0].b[...] += 1.0  # in place, as an optimizer writes
    assert (run.forward()[0].tobytes()
            == net.run(np.ones((4, 3), DTYPE)).tobytes())
    assert not np.array_equal(before, run.acts[-1])
    run.dout[...] = 1.0
    SgdOptimizer(net).step(net, run.backward(0), 0.1)
    assert (run.forward()[0].tobytes()
            == net.run(np.ones((4, 3), DTYPE)).tobytes())
    twin = copy.deepcopy(net)  # a copy is a net of its own
    assert twin.params.tobytes() == net.params.tobytes()
    assert not np.shares_memory(twin.params, net.params)


def test_a_pass_over_a_net_whose_params_are_read_only_writes_nothing():
    # building a pass over a net once wrote its params again, which a
    # read-only view refused with "assignment destination is read-only"
    net = small_net(seed=2)
    net.params.flags.writeable = False
    values = net.params.tobytes()
    x = np.linspace(-1.0, 1.0, 12, dtype=DTYPE).reshape(1, 4, 3)
    run = StackPass(net, x)
    out, cache = forward(net, x[0])
    assert run.forward()[0].tobytes() == out.tobytes()
    g = np.linspace(-2.0, 2.0, 8, dtype=DTYPE).reshape(4, 2)
    run.dout[...] = g
    assert (run.backward(0).flat.tobytes()
            == backward(net, cache, g).flat.tobytes())
    assert [ds.tobytes() for ds in run.chain(0)] == [
        ds.tobytes() for ds in chain(net, cache, g)]
    hooked, hook = net.forward(x[0])
    assert hooked.tobytes() == out.tobytes()
    assert net.backward(hook, g).flat.tobytes() == run.grads.flat.tobytes()
    assert net.params.tobytes() == values


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_the_unchecked_layer_loop_reads_a_narrower_input_exactly(dtype):
    """``run`` on a ``DTYPE`` input, the form every ``act`` hands it,
    equals ``run`` on its exact cast to the net's dtype at one sample, a
    batch and a stack of single rows."""
    rng = np.random.default_rng(12)
    net = Mlp([Layer(l.w.astype(dtype), l.b.astype(dtype))
               for l in random_net(rng, 3, 7).layers])
    for shape in [(7,), (5, 7), (5, 1, 7)]:
        x = rng.normal(size=shape).astype(DTYPE)
        got = net.run(x)
        assert got.dtype == dtype
        assert got.tobytes() == net.run(x.astype(dtype)).tobytes()


def test_stacked_pass_reads_a_narrower_input_dtype_exactly():
    # DQL's replay draws are float32 whatever its nets' dtype: a float32
    # input to a float64 stack runs as its exact float64 cast
    rng = np.random.default_rng(8)
    layers = float64_net([4, 6, 2], seed=8).layers
    stack = MlpStack(layers, 2)
    x = rng.normal(size=(2, 5, 4)).astype(np.float32)
    run = StackPass(stack, x)
    out = run.forward()
    cast = StackPass(stack, x.astype(np.float64))
    assert out.tobytes() == cast.forward().tobytes()
    run.dout[...] = cast.dout[...] = rng.normal(size=(5, 2))
    assert (run.backward(0).flat.tobytes()
            == cast.backward(0).flat.tobytes())


def test_stacked_forward_rejects_a_stack_of_the_wrong_shape():
    # or of a dtype that does not cast exactly to the stack's
    stack = MlpStack(small_net().layers, 2)
    for shape in [(2, 4, 4), (3, 4, 3), (4, 3)]:
        with pytest.raises(ValueError, match="input, got"):
            StackPass(stack, np.zeros(shape, DTYPE))
    with pytest.raises(ValueError, match="does not cast exactly"):
        StackPass(stack, np.zeros((2, 4, 3)))  # float64 into float32


def test_a_write_to_one_member_shows_in_the_stacked_pass_only_for_it():
    stack = MlpStack(small_net(seed=4).layers, 2)
    run = StackPass(stack, np.ones((2, 5, 3), DTYPE))
    before = run.forward().copy()  # the pass overwrites its arrays
    AdamOptimizer(stack.members[0]).step(
        stack.members[0], gradients_of(
            [np.ones_like(l.w) for l in stack.members[0].layers],
            [np.ones_like(l.b) for l in stack.members[0].layers]), 0.1)
    after = run.forward().copy()
    assert not np.array_equal(after[0], before[0])
    assert after[1].tobytes() == before[1].tobytes()
    stack.members[1].params[...] = stack.members[0].params  # a target sync
    synced = run.forward()
    assert synced[1].tobytes() == synced[0].tobytes()


@pytest.mark.parametrize("dtype, net_dtype", [
    (np.float32, np.float32), (np.float64, np.float64), (np.int64, np.float64)])
def test_everything_of_a_net_follows_the_dtype_of_its_layers(dtype, net_dtype):
    """A net takes its dtype from the ``Layer``s it is built from (ints
    make a float64 net); its inference, passes, gradients, Adam state and
    K-FAC factors, inverses and direction follow it, and a float64 input
    to ``forward`` is cast on the way in."""
    net = Mlp([Layer(np.ones((4, 3), dtype), np.zeros(4, dtype)),
               Layer(np.ones((2, 4), dtype), np.zeros(2, dtype))])
    x = np.linspace(-1.0, 1.0, 6).reshape(2, 3)
    out, run = net.forward(x)
    grads = net.backward(run, np.ones((2, 2)))
    pre_grads = run.chain(0)
    adam = AdamOptimizer(net)
    adam.step(net, grads, 0.1)
    stats = KfacStats(net, damping=1e-2, decay=0.9)
    stats.update(run.inputs[0], pre_grads)
    x = x.astype(DTYPE)  # the form ``run`` takes whatever the net's dtype
    arrays = [net.params, out, net.run(x), net.run(x[0]),
              net.run(x[:, None, :]), *run.inputs[0], *run.acts, run.dout,
              *pre_grads, grads.flat, *adam._moments,
              *adam._scratch, stats.precondition(grads).flat,
              *stats.a_factors, *stats.s_factors,
              *[inverse for pair in stats._inverses for inverse in pair]]
    assert {a.dtype for a in arrays} == {np.dtype(net_dtype)}


def test_created_nets_are_float32_rounding_the_float64_draws_once():
    net = Mlp.create([3, 4, 2], seed=7)
    assert net.params.dtype == DTYPE == np.float32
    rng = np.random.default_rng(7)
    for layer in net.layers:
        out_dim, in_dim = layer.w.shape
        bound = 1.0 / math.sqrt(in_dim)
        draw = rng.uniform(-bound, bound, size=(out_dim, in_dim))
        assert layer.w.tobytes() == draw.astype(np.float32).tobytes()
        assert layer.b.tobytes() == np.zeros(out_dim, np.float32).tobytes()
    assert Mlp(net.layers).params.dtype == np.float32


def test_mismatched_layer_dims_rejected():
    with pytest.raises(ValueError, match="incompatible"):
        Mlp([
            Layer(np.zeros((3, 2)), np.zeros(3)),
            Layer(np.zeros((2, 4)), np.zeros(2)),
        ])


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------

def test_backward_identity_net_outer_product_structure():
    net = Mlp([Layer(np.zeros((2, 3)), np.zeros(2))])
    x = np.array([1.0, 2.0, -1.0])
    _, cache = net.forward(x)
    grads = net.backward(cache, np.ones(2))
    np.testing.assert_allclose(grads.dw[0], np.outer(np.ones(2), x))
    np.testing.assert_allclose(grads.db[0], np.ones(2))


def test_zero_output_gradient_gives_zero_gradients():
    net = small_net(seed=2)
    x = np.random.default_rng(0).normal(size=(4, 3))
    _, cache = net.forward(x)
    grads = net.backward(cache, np.zeros((4, 2)))
    assert not grads.flat.any()


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_backward_matches_finite_differences(depth):
    rng = np.random.default_rng(depth)
    sizes = [3] + [4] * (depth - 1) + [2]
    net = float64_net(sizes, seed=int(rng.integers(1000)))
    x = rng.normal(size=(5, 3))
    target = rng.normal(size=(5, 2))
    _, dout, cache = loss_and_grad(net, x, target)
    analytic = net.backward(cache, dout).flat
    numeric = numeric_gradient(net, x, target)
    denom = np.maximum(np.abs(numeric), 1e-8)
    assert np.max(np.abs(analytic - numeric) / denom) < 1e-4


def test_backward_gradient_exactness_property_family():
    rng = np.random.default_rng(77)
    for trial in range(15):
        depth = int(rng.integers(1, 4))
        sizes = [int(rng.integers(1, 5)) for _ in range(depth + 1)]
        net = float64_net(sizes, seed=trial)
        x = rng.normal(size=(3, sizes[0]))
        target = rng.normal(size=(3, sizes[-1]))
        _, dout, cache = loss_and_grad(net, x, target)
        analytic = net.backward(cache, dout).flat
        numeric = numeric_gradient(net, x, target)
        denom = np.maximum(np.abs(numeric), 1e-6)
        assert np.max(np.abs(analytic - numeric) / denom) < 1e-4


def test_backward_equals_per_layer_reference_bit_for_bit():
    """Reusing forward's post-activations and writing into one flat vector
    must give exactly what recomputing each activation gives."""
    rng = np.random.default_rng(41)
    net = Mlp.create([4, 6, 5, 3, 2], seed=41)
    x = rng.normal(size=(7, 4))
    out, cache = forward(net, x)
    dout = rng.normal(size=out.shape).astype(net.params.dtype)
    grads = backward(net, cache, dout)
    pre_grads = chain(net, cache, dout)
    da = dout
    for idx in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[idx]
        s = cache.inputs[idx] @ layer.w.T + layer.b  # as forward computed it
        if is_hidden(net, idx):
            a = np.tanh(s)
            ds = da * (1.0 - a * a)
        else:
            ds = da * np.ones_like(s)
        np.testing.assert_array_equal(pre_grads[idx], ds)
        np.testing.assert_array_equal(grads.dw[idx], ds.T @ cache.inputs[idx])
        np.testing.assert_array_equal(grads.db[idx], ds.sum(axis=0))
        da = ds @ layer.w
    assert np.shares_memory(grads.dw[0], grads.flat)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("batch", [1, 2, 3, 7, 16, 39, 63, 64, 65, 128, 255,
                                   256, 257, 512])
def test_one_column_chain_product_equals_matmul_bit_for_bit(batch, dtype):
    # a critic's (B, 1) output gradient reaches the last hidden layer as the
    # broadcast ds * w, not ds @ w; each element is one rounded product
    # either way, and a BLAS whose K = 1 gemm rounds otherwise fails here
    layers = [Layer(l.w.astype(dtype), l.b.astype(dtype))
              for l in Mlp.create([11, 64, 64, 1], seed=batch).layers]
    net = Mlp(layers)
    w = net.layers[-1].w
    rng = np.random.default_rng(batch)
    for _ in range(5):
        x = rng.normal(size=(batch, 11)) * 3.0
        out, cache = forward(net, x)
        g = rng.normal(size=out.shape).astype(dtype)
        assert (g * w).tobytes() == (g @ w).tobytes()
        a = cache.inputs[-1]
        expected = (1.0 - a * a) * (g @ w)
        pre_grads = chain(net, cache, g)
        assert pre_grads[-2].dtype == dtype
        assert pre_grads[-2].tobytes() == expected.tobytes()


@settings(max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), batch=st.sampled_from([1, 7]),
       depth=st.integers(1, 3))
def test_repeated_backward_on_one_cache_is_pure(seed, batch, depth):
    """ACKTR runs a second, curvature backward on the cache of the first:
    both must see the cache forward left, and give equal results."""
    rng = np.random.default_rng(seed)
    net = random_net(rng, depth, 5)
    out, cache = forward(net, rng.normal(size=(batch, 5)))
    snapshot = [a.copy() for a in cache.inputs + [cache.output]]
    dout = rng.normal(size=out.shape)
    dout_before = dout.copy()
    first = backward(net, cache, dout)
    first_chain = chain(net, cache, dout)
    second = backward(net, cache, dout)
    assert first.flat.tobytes() == second.flat.tobytes()
    for a, b in zip(first_chain, chain(net, cache, dout)):
        assert a.tobytes() == b.tobytes()
    for now, before in zip(cache.inputs + [cache.output], snapshot):
        assert now.tobytes() == before.tobytes()
    assert dout.tobytes() == dout_before.tobytes()


def test_backward_shape_mismatch_rejected():
    net = small_net()
    _, cache = net.forward(np.zeros(3))
    with pytest.raises(ValueError, match="output gradient"):
        net.backward(cache, np.zeros((2, 5)))
    with pytest.raises(ValueError, match="output gradient"):
        chain(net, forward(net, np.zeros(3))[1], np.zeros((2, 5)))


@settings(max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), batch=st.integers(1, 300),
       depth=st.integers(1, 4))
def test_pre_activation_chain_leaves_what_backward_leaves(seed, batch, depth):
    """The chain alone (what a curvature refresh runs) gives the
    pre-activation gradients ``backward`` builds its products from, bit for
    bit, and writes nothing forward or the caller made."""
    rng = np.random.default_rng(seed)
    net = random_net(rng, depth, int(rng.integers(1, 20)))
    x = rng.normal(size=(batch, net.layers[0].w.shape[1]))
    out, cache = forward(net, x)
    dout = rng.normal(size=out.shape) * rng.choice([1e-6, 1.0, 1e6])
    snapshot = [a.tobytes() for a in cache.inputs + [cache.output, dout]]
    pre_grads = chain(net, cache, dout)
    grads = backward(net, cache, dout)
    assert len(pre_grads) == len(net.layers)
    for ds, a, dw, db in zip(pre_grads, cache.inputs, grads.dw, grads.db):
        assert ds.shape == (batch, dw.shape[0])
        assert dw.tobytes() == np.dot(ds.T, a).tobytes()
        assert db.tobytes() == ds.sum(axis=0).tobytes()
    assert snapshot == [a.tobytes() for a in cache.inputs + [cache.output, dout]]


# ---------------------------------------------------------------------------
# flatten / determinism
# ---------------------------------------------------------------------------

def test_flatten_round_trip_is_identity():
    net = small_net(seed=9, sizes=(5, 7, 3))
    flat = net.flatten()
    clone = Mlp(net.layers)
    clone.params[...] = flat
    np.testing.assert_array_equal(clone.flatten(), flat)
    for a, b in zip(net.layers, clone.layers):
        np.testing.assert_array_equal(a.w, b.w)
        np.testing.assert_array_equal(a.b, b.b)


def assert_views_aliased(net):
    for layer in net.layers:
        assert np.shares_memory(layer.w, net.params)
        assert np.shares_memory(layer.b, net.params)
    laid_out = np.concatenate([p for l in net.layers for p in (l.w.ravel(), l.b)])
    np.testing.assert_array_equal(laid_out, net.params)


COPIERS = [pytest.param(copy.deepcopy, id="deepcopy"),
           pytest.param(lambda x: pickle.loads(pickle.dumps(x)), id="pickle")]


@pytest.mark.parametrize("copier", COPIERS)
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_a_copied_net_runs_from_its_own_params(copier, dtype):
    # numpy copies a view as an array of its own, so a copy that took the
    # layers as they are would run from arrays cut off from its params
    net = Mlp([Layer(l.w.astype(dtype), l.b.astype(dtype))
               for l in small_net(seed=5).layers])
    twin = copier(net)
    assert twin.params.dtype == dtype
    assert twin.params.tobytes() == net.params.tobytes()
    assert not np.shares_memory(twin.params, net.params)
    assert_views_aliased(twin)
    x = np.ones((4, 3), dtype)
    before = net.run(x)
    twin.params[...] = 0.0
    assert not twin.run(x).any() and not twin.forward(x)[0].any()
    assert net.run(x).tobytes() == before.tobytes()


@pytest.mark.parametrize("copier", COPIERS)
def test_a_copied_stack_keeps_its_members_on_its_own_rows(copier):
    stack = MlpStack(small_net(seed=6).layers, 2)
    stack.members[1].params += 1.0
    twin = copier(stack)
    assert twin.params.tobytes() == stack.params.tobytes()
    assert not np.shares_memory(twin.params, stack.params)
    for k, member in enumerate(twin.members):
        assert np.shares_memory(member.params, twin.params[k])
        assert_views_aliased(member)
    run = StackPass(twin, np.ones((2, 4, 3), DTYPE))
    twin.members[1].params[...] = 0.0
    assert not run.forward()[1].any()
    assert StackPass(stack, run.x).forward()[1].any()


@pytest.mark.parametrize("copier", COPIERS)
def test_a_copied_member_is_its_row_of_the_copied_stack(copier):
    # copied with its stack, before or after it, a member is that copy's
    # member; copied alone, it brings a copy of its stack along
    stack = MlpStack(small_net(seed=6).layers, 2)
    member = stack.members[1]
    for order in (1, -1):
        twin_member, twin = copier((member, stack)[::order])[::order]
        assert twin_member is twin.members[1]
        assert not np.shares_memory(twin.params, stack.params)
    alone = copier(member)
    assert alone.params.tobytes() == member.params.tobytes()
    assert not np.shares_memory(alone.params, stack.params)
    assert_views_aliased(alone)
    alone.params[...] = 0.0
    assert not alone.run(np.ones(3, DTYPE)).any()
    assert member.params.any()


@pytest.mark.parametrize("copier", COPIERS)
def test_a_copied_adam_steps_its_own_moments(copier):
    net = small_net(seed=7)
    adam = AdamOptimizer(net)
    grads = gradients_of([np.ones_like(l.w) for l in net.layers],
                         [np.ones_like(l.b) for l in net.layers])
    adam.step(net, grads, 0.1)
    twin, twin_net = copier((adam, net))
    assert twin.t == 1
    assert all(np.shares_memory(view, twin._moments)
               for view in twin.state_arrays())
    twin.step(twin_net, grads, 0.1)
    adam.step(net, grads, 0.1)
    assert twin._moments.tobytes() == adam._moments.tobytes()
    assert twin_net.params.tobytes() == net.params.tobytes()
    copied = copier(grads)
    assert all(np.shares_memory(dw, copied.flat) for dw in copied.dw)


def test_a_stacked_pass_refuses_to_be_copied():
    run = StackPass(MlpStack(small_net().layers, 2),
                    np.zeros((2, 1, 3), DTYPE))
    for copier in (copy.deepcopy, pickle.dumps):
        with pytest.raises(TypeError, match="StackPass is not copied"):
            copier(run)


def test_layer_views_stay_aliased_to_params():
    net = small_net(seed=3, sizes=(3, 5, 2))
    assert_views_aliased(net)
    given = Layer(np.ones((2, 3)), np.zeros(2))
    built = Mlp([given])
    assert_views_aliased(built)
    assert not np.shares_memory(given.w, built.params)
    clone = Mlp(net.layers)
    assert_views_aliased(clone)
    assert not np.shares_memory(clone.params, net.params)
    clone.params[...] = np.arange(clone.params.size, dtype=float)
    assert_views_aliased(clone)
    assert clone.layers[0].w[0, 1] == 1.0


@pytest.mark.parametrize("optimizer_class", [SgdOptimizer, AdamOptimizer],
                         ids=["sgd", "adam"])
def test_optimizer_step_shows_in_next_forward(optimizer_class):
    net = small_net(seed=5)
    x = np.array([0.3, -0.2, 0.9], DTYPE)
    out, cache = net.forward(x)
    grads = net.backward(cache, np.ones(2))
    optimizer_class(net).step(net, grads, 0.1)
    assert_views_aliased(net)
    after = net.run(x)
    assert not np.array_equal(after, out)
    fresh = small_net(seed=99)
    fresh.params[...] = net.params
    np.testing.assert_array_equal(fresh.run(x), after)


def test_seeded_init_is_deterministic():
    a = small_net(seed=123)
    b = small_net(seed=123)
    np.testing.assert_array_equal(a.flatten(), b.flatten())
    c = small_net(seed=124)
    assert not np.array_equal(a.flatten(), c.flatten())


# ---------------------------------------------------------------------------
# optimizers
# ---------------------------------------------------------------------------

def test_zero_learning_rate_leaves_net_unchanged():
    net = small_net(seed=4)
    before = net.flatten()
    _, cache = net.forward(np.ones(3))
    grads = net.backward(cache, np.ones(2))
    SgdOptimizer(net).step(net, grads, 0.0)
    np.testing.assert_array_equal(net.flatten(), before)


def test_sgd_quadratic_descent_arithmetic():
    # f(w) = w^2 from w=1: gradient 2, descent step 0.1 -> 0.8
    net = Mlp([Layer(np.array([[1.0]]), np.array([0.0]))])
    grads = gradients_of([np.array([[2.0]])], [np.array([0.0])])
    grads.flat *= -1.0  # descent
    SgdOptimizer(net).step(net, grads, 0.1)
    assert net.layers[0].w[0, 0] == pytest.approx(0.8)


def test_sgd_monotone_decrease_on_convex_quadratic():
    # independent scalar oracle: f(w) = 0.5 c w^2, stable for lr < 2/c
    c = 4.0
    net = Mlp([Layer(np.array([[1.5]]), np.array([0.0]))])
    opt = SgdOptimizer(net)
    losses = []
    for _ in range(50):
        w = net.layers[0].w[0, 0]
        losses.append(0.5 * c * w * w)
        grads = gradients_of([np.array([[c * w]])], [np.array([0.0])])
        grads.flat *= -1.0  # descent
        opt.step(net, grads, 0.2)  # 0.2 < 2/c = 0.5
    assert all(b < a or a == 0 for a, b in zip(losses, losses[1:]))


def test_adam_zero_gradient_is_a_fixed_point():
    net = small_net(seed=6)
    before = net.flatten()
    opt = AdamOptimizer(net)
    zeros = gradients_of([np.zeros_like(l.w) for l in net.layers],
                      [np.zeros_like(l.b) for l in net.layers])
    for _ in range(3):
        opt.step(net, zeros, 0.1)
    np.testing.assert_array_equal(net.flatten(), before)


def test_adam_reduces_quadratic_loss():
    net = Mlp([Layer(np.array([[2.0]]), np.array([0.0]))])
    opt = AdamOptimizer(net)
    for _ in range(400):
        w = net.layers[0].w[0, 0]
        grads = gradients_of([np.array([[2.0 * w]])], [np.array([0.0])])
        grads.flat *= -1.0  # descent
        opt.step(net, grads, 0.05)
    assert abs(net.layers[0].w[0, 0]) < 1e-3


def test_flat_optimizer_steps_equal_per_layer_loop():
    """Adam and SGD on the flat vector, bit for bit against the per-layer
    update loop they replaced; Adam's state keeps its [w..., b...] order."""
    rng = np.random.default_rng(13)
    net = small_net(seed=13, sizes=(3, 6, 4, 2))
    sgd_net = Mlp(net.layers)
    adam, sgd = AdamOptimizer(net), SgdOptimizer(sgd_net)
    ref = [l.w.copy() for l in net.layers] + [l.b.copy() for l in net.layers]
    sgd_ref = [a.copy() for a in ref]
    m = [np.zeros_like(a) for a in ref]
    v = [np.zeros_like(a) for a in ref]
    b1, b2, eps, lr = 0.9, 0.999, 1e-8, 0.01
    for t in range(1, 6):
        dw = [rng.normal(size=l.w.shape).astype(DTYPE) for l in net.layers]
        db = [rng.normal(size=l.b.shape).astype(DTYPE) for l in net.layers]
        adam.step(net, gradients_of(dw, db), lr)
        sgd.step(sgd_net, gradients_of(dw, db), lr)
        bias1, bias2 = 1.0 - b1 ** t, 1.0 - b2 ** t
        for mi, vi, g, target, plain in zip(m, v, dw + db, ref, sgd_ref):
            mi *= b1
            mi += (1 - b1) * g
            vi *= b2
            vi += (1 - b2) * (g * g)
            target += lr * (mi / bias1) / (np.sqrt(vi / bias2) + eps)
            plain += lr * g
    for got, want in zip([l.w for l in net.layers] + [l.b for l in net.layers], ref):
        np.testing.assert_array_equal(got, want)
    for got, want in zip([l.w for l in sgd_net.layers] + [l.b for l in sgd_net.layers],
                         sgd_ref):
        np.testing.assert_array_equal(got, want)
    state = adam.state_arrays()
    assert [a.shape for a in state] == [a.shape for a in m + v]
    for got, want in zip(state, m + v):
        np.testing.assert_array_equal(got, want)


@settings(max_examples=40)
@given(seed=st.integers(0, 2**32 - 1),
       depth=st.integers(1, 3),
       lr=st.sampled_from([0.0, 1e-4, 5e-4, 0.3]),
       scale=st.sampled_from([0.0, 1e-6, 1.0, 1e3]))
def test_adam_step_equals_reference_bit_for_bit(seed, depth, lr, scale):
    rng = np.random.default_rng(seed)
    net = random_net(rng, depth, int(rng.integers(1, 20)))
    adam = AdamOptimizer(net)
    params, m, v = net.flatten(), np.zeros_like(net.params), np.zeros_like(net.params)
    for t in range(1, 5):
        g = (scale * rng.normal(size=net.params.size)).astype(DTYPE)
        direction = Gradients(g.copy(), [l.w.shape for l in net.layers])
        adam.step(net, direction, lr)
        adam_reference(params, m, v, g, t, lr)
        assert direction.flat.tobytes() == g.tobytes()
        assert net.params.tobytes() == params.tobytes()
        assert adam._moments[0].tobytes() == m.tobytes()
        assert adam._moments[1].tobytes() == v.tobytes()
    # the scratch vectors are not state: a checkpoint holds m and v only
    state = adam.state_arrays()
    assert sum(a.size for a in state) == 2 * net.params.size
    assert all(np.shares_memory(a, adam._moments) for a in state)


def test_non_finite_direction_raises_divergence():
    net = small_net(seed=8)
    bad = gradients_of([np.full_like(l.w, np.nan) for l in net.layers],
                    [np.zeros_like(l.b) for l in net.layers])
    with pytest.raises(DivergenceError):
        SgdOptimizer(net).step(net, bad, 0.1)


# ---------------------------------------------------------------------------
# curvature stats
# ---------------------------------------------------------------------------

def one_layer_net(in_dim=2, out_dim=2):
    return Mlp([Layer(np.zeros((out_dim, in_dim)), np.zeros(out_dim))])


def test_stats_single_sample_outer_product():
    stats = KfacStats(one_layer_net(), damping=0.0, decay=0.0)
    stats.update([np.array([[1.0, 0.0]])], [np.array([[0.5, 0.5]])])
    np.testing.assert_allclose(stats.a_factors[0], np.array([[1.0, 0.0], [0.0, 0.0]]))
    np.testing.assert_allclose(stats.s_factors[0], 0.25 * np.ones((2, 2)))


def test_stats_decay_one_leaves_factors_unchanged():
    stats = KfacStats(one_layer_net(), damping=1e-2, decay=1.0)
    before_a = stats.a_factors[0].copy()
    stats.update([np.random.default_rng(0).normal(size=(8, 2))],
                 [np.random.default_rng(1).normal(size=(8, 2))])
    np.testing.assert_array_equal(stats.a_factors[0], before_a)


def test_stats_batch_mean_matches_dense_oracle():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(16, 3))
    ds = rng.normal(size=(16, 2))
    stats = KfacStats(Mlp([Layer(np.zeros((2, 3)), np.zeros(2))]),
                      damping=1e-2, decay=0.0)
    stats.update([a], [ds])
    dense_a = sum(np.outer(row, row) for row in a) / len(a)
    dense_s = sum(np.outer(row, row) for row in ds) / len(ds)
    np.testing.assert_allclose(stats.a_factors[0], dense_a, atol=1e-12)
    np.testing.assert_allclose(stats.s_factors[0], dense_s, atol=1e-12)


def test_stats_stay_symmetric_psd_after_update_sequences():
    rng = np.random.default_rng(12)
    stats = KfacStats(one_layer_net(3, 2), damping=1e-2, decay=0.9)
    for _ in range(40):
        stats.update([rng.normal(size=(4, 3))], [rng.normal(size=(4, 2))])
    for factor in (stats.a_factors[0], stats.s_factors[0]):
        np.testing.assert_array_equal(factor, factor.T)
        assert np.linalg.eigvalsh(factor).min() >= -1e-10


# ---------------------------------------------------------------------------
# preconditioning
# ---------------------------------------------------------------------------

def grads_for(net, dw):
    return gradients_of([np.asarray(dw, dtype=float)],
                     [np.zeros(net.layers[0].w.shape[0])])


def test_identity_curvature_is_identity_preconditioner():
    net = one_layer_net(3, 2)
    stats = KfacStats(net, damping=0.0, decay=0.95)
    g = np.arange(6, dtype=float).reshape(2, 3)
    out = stats.precondition(grads_for(net, g))
    np.testing.assert_allclose(out.dw[0], g)


def test_diagonal_curvature_scales_gradient():
    net = one_layer_net(3, 2)
    stats = KfacStats(net, damping=0.0, decay=0.95)
    stats.a_factors[0] = 2.0 * np.eye(3)
    stats.s_factors[0] = 4.0 * np.eye(2)
    g = np.ones((2, 3))
    out = stats.precondition(grads_for(net, g))
    np.testing.assert_allclose(out.dw[0], g / 8.0)


def random_spd(rng, n):
    m = rng.normal(size=(n, n))
    return m @ m.T + 0.5 * np.eye(n)


def test_preconditioning_matches_dense_kronecker_inverse():
    rng = np.random.default_rng(42)
    for trial in range(100):
        rows = int(rng.integers(1, 7))
        cols = int(rng.integers(1, 7))
        damping = float(rng.choice([0.0, 1e-2, 0.3]))
        net = one_layer_net(cols, rows)
        stats = KfacStats(net, damping=damping, decay=0.95)
        stats.a_factors[0] = random_spd(rng, cols)
        stats.s_factors[0] = random_spd(rng, rows)
        g = rng.normal(size=(rows, cols))
        out = stats.precondition(grads_for(net, g)).dw[0]
        a_d = stats.a_factors[0] + damping * np.eye(cols)
        s_d = stats.s_factors[0] + damping * np.eye(rows)
        # column-stacking convention: vec(S X A) = (A^T kron S) vec(X)
        dense = np.kron(a_d.T, s_d)
        expect = np.linalg.solve(dense, g.ravel(order="F")).reshape(
            (rows, cols), order="F")
        np.testing.assert_allclose(out, expect, rtol=1e-8, atol=1e-10)


def test_bias_preconditioned_by_s_factor_alone():
    net = one_layer_net(3, 2)
    stats = KfacStats(net, damping=0.0, decay=0.95)
    stats.s_factors[0] = 4.0 * np.eye(2)
    grads = gradients_of([np.zeros((2, 3))], [np.array([2.0, 4.0])])
    out = stats.precondition(grads)
    np.testing.assert_allclose(out.db[0], np.array([0.5, 1.0]))


def test_singular_factor_without_damping_raises():
    net = one_layer_net(2, 2)
    stats = KfacStats(net, damping=0.0, decay=0.95)
    stats.a_factors[0] = np.zeros((2, 2))
    with pytest.raises(SingularCurvatureError):
        stats.precondition(grads_for(net, np.ones((2, 2))))


def check_update_after_precondition_refreshes_the_inverses(net, rtol):
    """The inverses ``precondition`` caches are rebuilt after an
    ``update``: each direction matches the float64 solve oracle on the
    factors of its time, to ``rtol``."""
    rng = np.random.default_rng(31)
    stats = KfacStats(net, damping=1e-2, decay=0.5)
    dtype = net.params.dtype
    grads = gradients_of(
        [rng.normal(size=l.w.shape).astype(dtype) for l in net.layers],
        [rng.normal(size=l.b.shape).astype(dtype) for l in net.layers])

    def feed():
        x = rng.normal(size=(8, 3))
        _, cache = forward(net, x)
        stats.update(cache.inputs,
                     chain(net, cache, rng.normal(size=(8, 2))))

    feed()
    first = stats.precondition(grads).flat
    np.testing.assert_allclose(first, solve_precondition(stats, grads).flat,
                               rtol=rtol)
    feed()
    second = stats.precondition(grads).flat
    np.testing.assert_allclose(second, solve_precondition(stats, grads).flat,
                               rtol=rtol)
    assert not np.allclose(first, second, rtol=1e-6)


def test_update_after_precondition_refreshes_the_inverses():
    # float32 factors and inverses against the float64 oracle: the largest
    # relative error seen was 7.9e-7
    check_update_after_precondition_refreshes_the_inverses(
        small_net(sizes=(3, 5, 2)), rtol=1e-5)


def test_update_after_precondition_refreshes_the_inverses_of_a_float64_net():
    check_update_after_precondition_refreshes_the_inverses(
        float64_net((3, 5, 2), seed=0), rtol=1e-9)
