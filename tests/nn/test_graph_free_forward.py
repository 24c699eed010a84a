"""The graph-free frozen forward is bit-identical to the unfold-everything conv.

``im2col`` hands an unpadded 1x1 conv its input as the columns, padding
is one zeros buffer instead of ``np.pad``, a conv that nothing can
differentiate returns without a backward closure, and a frozen
``Bottleneck`` joins its residual in place.  Each is a speedup only: the
reference below is the original unfold loop over an ``np.pad``-ed input,
and every forward, ``x.grad`` and ``weight.grad`` must match it byte for
byte.
"""

import numpy as np
import pytest

from repro.fastpath import overrides
from repro.models.blocks import Bottleneck
from repro.nn import functional
from repro.nn.functional import conv2d, conv_output_size
from repro.nn.tensor import Tensor, no_grad


def reference_im2col(x, kh, kw, stride, padding):
    """The original unfold: always pads with ``np.pad``, always copies."""
    n, c, h, w = x.shape
    oh = conv_output_size(h, kh, stride, padding)
    ow = conv_output_size(w, kw, stride, padding)
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    cols = np.empty((n, c, kh, kw, oh, ow), dtype=x.dtype)
    for i in range(kh):
        i_stop = i + stride * oh
        for j in range(kw):
            j_stop = j + stride * ow
            cols[:, :, i, j] = x[:, :, i:i_stop:stride, j:j_stop:stride]
    return cols.reshape(n, c * kh * kw, oh * ow), oh, ow


def reference_pad2d(x, padding, value=0.0):
    if not padding:
        return x
    return np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)),
                  constant_values=value)


def _bytes_equal(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


# (kernel, stride, padding, groups, non-contiguous input)
CASES = {
    "1x1-s1": (1, 1, 0, 1, False),
    "1x1-s2": (1, 2, 0, 1, False),
    "3x3-p1-s1": (3, 1, 1, 1, False),
    "3x3-p1-s2": (3, 2, 1, 1, False),
    "grouped-3x3-s1": (3, 1, 1, 2, False),
    "grouped-3x3-s2": (3, 2, 1, 2, False),
    "grouped-1x1": (1, 1, 0, 2, False),
    "1x1-channel-slice": (1, 1, 0, 1, True),
    "1x1-s2-channel-slice": (1, 2, 0, 1, True),
    "3x3-p1-channel-slice": (3, 1, 1, 1, True),
}


def _operands(kernel, groups, sliced, dtype, seed=0):
    rng = np.random.default_rng(seed)
    n, c, f, hw = 2, 4, 6, 7
    if sliced:
        # ShuffleUnit's right half: x[:, half:] of a wider activation
        x = rng.standard_normal((n, 2 * c, hw, hw)).astype(dtype)[:, c:]
        assert not x.flags.c_contiguous
    else:
        x = rng.standard_normal((n, c, hw, hw)).astype(dtype)
    w = (rng.standard_normal((f, c // groups, kernel, kernel)) * 0.3).astype(dtype)
    return x, w


def _conv_with_grads(x, w, stride, padding, groups, upstream):
    """Forward, ``x.grad`` and ``weight.grad``; then ``weight.grad`` alone
    with a constant input, as for a network's first conv."""
    xt = Tensor(x, requires_grad=True)
    wt = Tensor(w, requires_grad=True)
    out = conv2d(xt, wt, stride=stride, padding=padding, groups=groups)
    assert out._parents  # the graph was recorded
    out.backward(upstream)
    w_only = Tensor(w, requires_grad=True)
    conv2d(Tensor(x), w_only, stride, padding, groups).backward(upstream)
    return out.data, xt.grad, wt.grad, w_only.grad


@pytest.mark.parametrize("vectorized", [True, False])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", sorted(CASES))
def test_conv_matches_unfold_reference(case, dtype, vectorized, monkeypatch):
    kernel, stride, padding, groups, sliced = CASES[case]
    x, w = _operands(kernel, groups, sliced, dtype)
    x_before = x.copy()
    with overrides(vectorized_autograd=vectorized):
        with monkeypatch.context() as patch:
            patch.setattr(functional, "im2col", reference_im2col)
            ref_out = conv2d(Tensor(x), Tensor(w), stride, padding, groups).data
            upstream = np.random.default_rng(1).standard_normal(
                ref_out.shape).astype(dtype)
            ref = _conv_with_grads(x, w, stride, padding, groups, upstream)
        frozen = conv2d(Tensor(x), Tensor(w), stride, padding, groups)
        with no_grad():
            no_graph = conv2d(Tensor(x, requires_grad=True),
                              Tensor(w, requires_grad=True),
                              stride, padding, groups)
        new = _conv_with_grads(x, w, stride, padding, groups, upstream)
    for graph_free in (frozen, no_graph):
        assert not graph_free.requires_grad and not graph_free._parents
        assert graph_free._backward is None
        _bytes_equal(graph_free.data, ref_out)
    _bytes_equal(ref_out, ref[0])
    for got, want in zip(new, ref):
        _bytes_equal(got, want)
    _bytes_equal(x, x_before)


def test_unpadded_1x1_columns_are_the_input():
    x = np.arange(2 * 3 * 4 * 4, dtype=np.float64).reshape(2, 3, 4, 4)
    cols, oh, ow = functional.im2col(x, 1, 1, 1, 0)
    assert (oh, ow) == (4, 4) and np.shares_memory(cols, x)
    _bytes_equal(cols, reference_im2col(x, 1, 1, 1, 0)[0])
    strided, oh, ow = functional.im2col(x, 1, 1, 2, 0)
    assert (oh, ow) == (2, 2) and not np.shares_memory(strided, x)
    _bytes_equal(strided, reference_im2col(x, 1, 1, 2, 0)[0])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("value", [0.0, -np.inf])
def test_pad2d_matches_np_pad(dtype, value):
    x = np.random.default_rng(2).standard_normal((2, 6, 5, 5)).astype(dtype)
    for arr in (x, x[:, 3:], x[:, :, ::2]):
        for padding in (0, 1, 2):
            _bytes_equal(functional.pad2d(arr, padding, value),
                         reference_pad2d(arr, padding, value))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_padded_depthwise_and_pools_match_np_pad(dtype, monkeypatch):
    rng = np.random.default_rng(3)
    x = rng.standard_normal((2, 4, 6, 6)).astype(dtype)
    w = rng.standard_normal((4, 1, 3, 3)).astype(dtype)
    upstream = rng.standard_normal((2, 4, 3, 3)).astype(dtype)

    def run():
        xt = Tensor(x, requires_grad=True)
        wt = Tensor(w, requires_grad=True)
        out = conv2d(xt, wt, stride=2, padding=1, groups=4)
        out.backward(upstream)
        frozen = conv2d(Tensor(x), Tensor(w), stride=2, padding=1, groups=4)
        pools = [functional.max_pool2d(Tensor(x), 3, 1, 1).data,
                 functional.avg_pool2d(Tensor(x), 3, 1, 1).data]
        return [out.data, xt.grad, wt.grad, frozen.data] + pools

    new = run()
    monkeypatch.setattr(functional, "pad2d", reference_pad2d)
    for got, want in zip(new, run()):
        _bytes_equal(got, want)


def _bottleneck(stride, in_ch=8, out_ch=8, groups=1):
    block = Bottleneck(in_ch, 4, out_ch, stride=stride, groups=groups,
                       rng=np.random.default_rng(4))
    return block.eval()


def _reference_join(block, x):
    """The join as plain Tensor ops: ``(out + shortcut(x)).relu()``."""
    out = block.conv3(block.conv2(block.conv1(x)))
    return (out + block.shortcut(x)).relu()


BLOCKS = {
    "identity-shortcut": dict(stride=1),
    "projection-shortcut": dict(stride=2, out_ch=16),
    "grouped": dict(stride=1, groups=2),
}


class TestBottleneckInPlaceJoin:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("name", sorted(BLOCKS))
    def test_frozen_forward_leaves_input_unchanged(self, name, dtype):
        block = _bottleneck(**BLOCKS[name]).freeze()
        x = np.random.default_rng(5).standard_normal((2, 8, 6, 6)).astype(dtype)
        x_before = x.copy()
        with no_grad():
            out = block(Tensor(x)).data
            want = _reference_join(block, Tensor(x)).data
        out_grad_mode = block(Tensor(x)).data  # frozen: nothing records
        _bytes_equal(x, x_before)
        assert not np.shares_memory(out, x)
        _bytes_equal(out, want)
        _bytes_equal(out_grad_mode, want)
        assert np.signbit(out[out == 0]).any()  # ReLU keeps -0.0 like Tensor.relu

    @pytest.mark.parametrize("name", sorted(BLOCKS))
    def test_recorded_graph_skips_in_place_join(self, name):
        block = _bottleneck(**BLOCKS[name])
        x = np.random.default_rng(6).standard_normal((2, 8, 6, 6))
        x_before = x.copy()

        def grads(forward):
            block.zero_grad()
            xt = Tensor(x, requires_grad=True)
            out = forward(xt)
            assert out._parents  # a graph was recorded
            out.backward(np.random.default_rng(7).standard_normal(out.shape))
            return [out.data, xt.grad] + [p.grad for p in block.parameters()]

        got = grads(block)
        want = grads(lambda xt: _reference_join(block, xt))
        for a, b in zip(got, want):
            _bytes_equal(a, b)
        _bytes_equal(x, x_before)
