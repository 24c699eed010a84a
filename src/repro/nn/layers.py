"""Standard layers used by the model zoo.

All layers accept an explicit ``rng`` so that model construction is fully
deterministic — the drift experiments depend on reproducible initial models.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..fastpath import flags
from . import functional as F
from . import init
from .module import Module, Parameter
from .tensor import Tensor, gelu, grad_enabled


def _default_rng(rng: Optional[np.random.Generator]) -> np.random.Generator:
    return rng if rng is not None else np.random.default_rng(0)


class Linear(Module):
    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = _default_rng(rng)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            init.kaiming_normal((in_features, out_features), in_features, rng)
        )
        self.bias = Parameter(np.zeros(out_features)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out


class Conv2d(Module):
    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, padding: int = 0, groups: int = 1,
                 bias: bool = False, rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = _default_rng(rng)
        if in_channels % groups:
            raise ValueError(f"in_channels {in_channels} not divisible by groups {groups}")
        self.stride = stride
        self.padding = padding
        self.groups = groups
        fan_in = init.conv_fan_in(in_channels // groups, kernel_size)
        self.weight = Parameter(
            init.kaiming_normal(
                (out_channels, in_channels // groups, kernel_size, kernel_size),
                fan_in, rng,
            )
        )
        self.bias = Parameter(np.zeros(out_channels)) if bias else None
        # (source arrays, folded weight, folded bias) of the last BN fold
        self._fold = None

    def forward(self, x: Tensor) -> Tensor:
        out = F.conv2d(x, self.weight, self.stride, self.padding, self.groups)
        if self.bias is not None:
            out = out + self.bias.reshape(1, -1, 1, 1)
        return out

    def can_fold(self, bn: "BatchNorm2d", x: Tensor) -> bool:
        """Whether ``bn(self(x))`` may run as one folded conv.

        Only a frozen, eval-mode, bias-free pair whose input is not being
        differentiated folds: nothing downstream can then need the
        unfolded intermediate or a gradient through it.
        """
        return (not self.training and not bn.training and self.bias is None
                and not self.weight.requires_grad
                and not bn.gamma.requires_grad and not bn.beta.requires_grad
                and not (x.requires_grad and grad_enabled()))

    def forward_folded(self, x: Tensor, bn: "BatchNorm2d", relu: bool) -> Tensor:
        """``bn(self(x))`` (then ReLU) as one conv with BN in its weights.

        Equal to the unfolded pair up to rounding: the scale moves from
        the conv output onto the weight.  Returns a graph-free Tensor.
        """
        weight, bias = self._folded(bn)
        out = F.conv2d(x, weight, self.stride, self.padding, self.groups).data
        if out.dtype == bias.dtype:
            out += bias
        else:  # a float32 input promotes to the float64 bias, as BN does
            out = out + bias
        if relu:
            np.maximum(out, 0, out=out)
        return Tensor(out)

    def _folded(self, bn: "BatchNorm2d"):
        """The folded (weight Tensor, bias array), refolded only when a
        source array was rebound (optimizer step, ``load_state_dict``,
        ``cast``, a train-mode BN pass) — i.e. once per model version."""
        sources = (self.weight.data, bn._buffers["running_mean"],
                   bn._buffers["running_var"], bn.gamma.data, bn.beta.data)
        fold = self._fold
        if fold is None or any(a is not b for a, b in zip(fold[0], sources)):
            w, mean, var, gamma, beta = sources
            scale = (var + bn.eps) ** -0.5 * gamma
            fold = self._fold = (
                sources,
                Tensor(w * scale.reshape(-1, 1, 1, 1)),
                (beta - mean * scale).reshape(1, -1, 1, 1),
            )
        return fold[1], fold[2]


class BatchNorm2d(Module):
    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1):
        super().__init__()
        self.eps = eps
        self.momentum = momentum
        self.gamma = Parameter(np.ones(num_features))
        self.beta = Parameter(np.zeros(num_features))
        self._buffers["running_mean"] = np.zeros(num_features)
        self._buffers["running_var"] = np.ones(num_features)

    def forward(self, x: Tensor) -> Tensor:
        if self.training:
            mean = x.mean(axis=(0, 2, 3), keepdims=True)
            var = x.var(axis=(0, 2, 3), keepdims=True)
            m = self.momentum
            self._buffers["running_mean"] = (
                (1 - m) * self._buffers["running_mean"] + m * mean.data.reshape(-1)
            )
            self._buffers["running_var"] = (
                (1 - m) * self._buffers["running_var"] + m * var.data.reshape(-1)
            )
        else:
            if not grad_enabled() and flags().vectorized_autograd:
                return self._eval_fast(x)
            mean = Tensor(self._buffers["running_mean"].reshape(1, -1, 1, 1))
            var = Tensor(self._buffers["running_var"].reshape(1, -1, 1, 1))
        inv = (var + self.eps) ** -0.5
        normed = (x - mean) * inv
        return normed * self.gamma.reshape(1, -1, 1, 1) + self.beta.reshape(1, -1, 1, 1)

    def _eval_fast(self, x: Tensor) -> Tensor:
        """Raw-numpy eval normalisation, used only under ``no_grad``.

        Performs the exact operation sequence of the Tensor path —
        ``(var + eps) ** -0.5`` then ``((x - mean) * inv) * gamma + beta``
        with the same float64 broadcasts — so outputs are bit-identical;
        it merely skips boxing each intermediate in a Tensor, and writes
        every step into the one buffer ``x - mean`` allocates.  That
        buffer already has the result dtype unless a later operand is
        wider (with float32 statistics and input, ``inv`` is float64
        because ``eps`` is); then the steps run out of place, promoting
        exactly where the Tensor path does.
        """
        rm = self._buffers["running_mean"].reshape(1, -1, 1, 1)
        rv = self._buffers["running_var"].reshape(1, -1, 1, 1)
        # eps enters as float64, as the Tensor path's boxed scalar does,
        # so float32 statistics promote here exactly as they do there
        inv = (rv + np.float64(self.eps)) ** -0.5
        gamma = self.gamma.data.reshape(1, -1, 1, 1)
        beta = self.beta.data.reshape(1, -1, 1, 1)
        out = x.data - rm
        if np.result_type(out, inv, gamma, beta) != out.dtype:
            return Tensor((out * inv) * gamma + beta)
        out *= inv
        out *= gamma
        out += beta
        return Tensor(out)


class LayerNorm(Module):
    def __init__(self, dim: int, eps: float = 1e-5):
        super().__init__()
        self.eps = eps
        self.gamma = Parameter(np.ones(dim))
        self.beta = Parameter(np.zeros(dim))

    def forward(self, x: Tensor) -> Tensor:
        mean = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        normed = (x - mean) * (var + self.eps) ** -0.5
        return normed * self.gamma + self.beta


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class GELU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return gelu(x)


class MaxPool2d(Module):
    def __init__(self, kernel_size: int, stride: Optional[int] = None, padding: int = 0):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride or kernel_size
        self.padding = padding

    def forward(self, x: Tensor) -> Tensor:
        return F.max_pool2d(x, self.kernel_size, self.stride, self.padding)


class AvgPool2d(Module):
    def __init__(self, kernel_size: int, stride: Optional[int] = None, padding: int = 0):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride or kernel_size
        self.padding = padding

    def forward(self, x: Tensor) -> Tensor:
        return F.avg_pool2d(x, self.kernel_size, self.stride, self.padding)


class GlobalAvgPool2d(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.global_avg_pool2d(x)


class Flatten(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.reshape(x.shape[0], -1)


class Dropout(Module):
    def __init__(self, p: float = 0.5, rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.p = p
        self.rng = _default_rng(rng)

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.p, self.training, self.rng)


class Sequential(Module):
    def __init__(self, *layers: Module):
        super().__init__()
        self._layers = list(layers)
        for i, layer in enumerate(layers):
            setattr(self, f"layer{i}", layer)

    def __iter__(self):
        return iter(self._layers)

    def __len__(self):
        return len(self._layers)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Sequential(*self._layers[index])
        return self._layers[index]

    def append(self, layer: Module) -> "Sequential":
        setattr(self, f"layer{len(self._layers)}", layer)
        self._layers.append(layer)
        return self

    def forward(self, x: Tensor) -> Tensor:
        layers = self._layers
        i = 0
        while i < len(layers):
            layer = layers[i]
            bn = layers[i + 1] if i + 1 < len(layers) else None
            if (isinstance(layer, Conv2d) and isinstance(bn, BatchNorm2d)
                    and layer.can_fold(bn, x)):
                relu = i + 2 < len(layers) and isinstance(layers[i + 2], ReLU)
                x = layer.forward_folded(x, bn, relu)
                i += 3 if relu else 2
            else:
                x = layer(x)
                i += 1
        return x


class Identity(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x
