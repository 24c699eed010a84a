"""Frozen-front BatchNorm folding: tolerance equivalence and stale-fold guards.

A frozen, eval-mode ``Conv2d -> BatchNorm2d (-> ReLU)`` run inside a
``Sequential`` executes as one conv whose weight and bias carry the BN
affine.  The fold moves the BN scale from the conv output onto the
weight, so it agrees with the unfolded pair up to rounding (identical
argmax, logits within 1e-6).  The folded weights are derived state,
cached per source-array identity: every way a model version changes
(``load_state_dict``, a Check-N-Run delta, ``cast``, a train-mode BN
pass) must refold, so a folded forward always equals a freshly built
model's folded forward bit for bit.
"""

import numpy as np
import pytest

from repro import nn
from repro.core import checknrun
from repro.core.cluster import NDPipeCluster
from repro.core.config import ClusterConfig
from repro.core.pipestore import PipeStore
from repro.models.registry import tiny_model
from repro.nn.tensor import Tensor, no_grad

MODELS = ["ResNet50", "ResNeXt101", "ShuffleNetV2", "InceptionV3"]


def _perturb_bn(model, seed):
    """Give every BN non-trivial statistics and affine parameters."""
    rng = np.random.default_rng(seed)
    for module in model.modules():
        if isinstance(module, nn.BatchNorm2d):
            c = module.gamma.shape[0]
            module._buffers["running_mean"] = rng.normal(0.0, 0.2, c)
            module._buffers["running_var"] = rng.uniform(0.5, 2.0, c)
            module.gamma.data = rng.uniform(0.5, 1.5, c)
            module.beta.data = rng.normal(0.0, 0.1, c)
    return model


def _build(name, state=None, seed=3):
    model = tiny_model(name, num_classes=8, width=8, seed=seed)
    if state is not None:
        model.load_state_dict(state)
    return model


def _frozen(name, state):
    return _build(name, state).eval().freeze()


def _inputs(model, n=6, seed=0, dtype=np.float32):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n,) + model.input_shape).astype(dtype)


def _forward(model, x):
    with no_grad():
        return model(Tensor(x)).data


def _folds(model):
    return [m._fold for m in model.modules()
            if isinstance(m, nn.Conv2d) and m._fold is not None]


@pytest.fixture
def count_bn_calls(monkeypatch):
    calls = []
    original = nn.BatchNorm2d.forward

    def counting(self, x):
        calls.append(self)
        return original(self, x)

    monkeypatch.setattr(nn.BatchNorm2d, "forward", counting)
    return calls


class TestToleranceEquivalence:
    @pytest.mark.parametrize("name", MODELS)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_folded_matches_unfolded(self, name, dtype, count_bn_calls):
        state = _perturb_bn(_build(name), seed=1).state_dict()
        unfolded = _build(name, state).eval()  # trainable: never folds
        folded = _frozen(name, state)
        x = _inputs(folded, dtype=dtype)

        reference = _forward(unfolded, x)
        assert count_bn_calls, "the unfrozen model must run its BN layers"
        count_bn_calls.clear()
        out = _forward(folded, x)

        assert count_bn_calls == [], "every BN of a frozen model folds"
        n_bn = sum(isinstance(m, nn.BatchNorm2d) for m in folded.modules())
        assert len(_folds(folded)) == n_bn
        assert out.dtype == reference.dtype == np.float64
        np.testing.assert_array_equal(out.argmax(axis=1),
                                      reference.argmax(axis=1))
        np.testing.assert_allclose(out, reference, rtol=1e-6, atol=1e-6)

    def test_depthwise_pair_mid_sequential_folds(self):
        rng = np.random.default_rng(0)
        seq = nn.Sequential(
            nn.ReLU(),
            nn.Conv2d(4, 4, 3, padding=1, groups=4, rng=rng),
            nn.BatchNorm2d(4),
            nn.Conv2d(4, 4, 1, rng=rng),
        )
        _perturb_bn(seq, seed=2)
        x = rng.normal(size=(2, 4, 5, 5))
        reference = _forward(seq.eval(), x)
        out = _forward(seq.freeze(), x)
        assert seq[1]._fold is not None and seq[3]._fold is None
        np.testing.assert_allclose(out, reference, rtol=1e-12, atol=1e-12)

    def test_train_mode_bn_never_folds(self):
        rng = np.random.default_rng(0)
        seq = nn.Sequential(nn.Conv2d(3, 4, 3, padding=1, rng=rng),
                            nn.BatchNorm2d(4)).eval().freeze()
        seq[1].train()
        before = seq[1]._buffers["running_mean"]
        _forward(seq, rng.normal(size=(2, 3, 4, 4)))
        assert seq[0]._fold is None
        assert not np.array_equal(seq[1]._buffers["running_mean"], before)

    def test_unfrozen_eval_still_trains_gamma_beta(self):
        rng = np.random.default_rng(0)
        seq = nn.Sequential(nn.Conv2d(3, 4, 3, padding=1, rng=rng),
                            nn.BatchNorm2d(4), nn.ReLU()).eval()
        _perturb_bn(seq, seed=3)
        seq(Tensor(rng.normal(size=(2, 3, 4, 4)))).sum().backward()
        bn = seq[1]
        assert seq[0]._fold is None
        assert bn.gamma.grad is not None and np.abs(bn.gamma.grad).sum() > 0
        assert bn.beta.grad is not None and np.abs(bn.beta.grad).sum() > 0

    def test_frozen_pair_differentiates_its_input(self):
        rng = np.random.default_rng(0)
        x_data = rng.normal(size=(2, 3, 4, 4))

        def input_grad(freeze):
            seq = nn.Sequential(
                nn.Conv2d(3, 4, 3, padding=1, rng=np.random.default_rng(1)),
                nn.BatchNorm2d(4), nn.ReLU()).eval()
            _perturb_bn(seq, seed=4)
            if freeze:
                seq.freeze()
            x = Tensor(x_data, requires_grad=True)
            (seq(x) * Tensor(np.arange(64.0).reshape(1, 4, 4, 4))).sum().backward()
            assert seq[0]._fold is None
            return x.grad

        frozen, trainable = input_grad(True), input_grad(False)
        assert frozen is not None and np.abs(frozen).sum() > 0
        np.testing.assert_array_equal(frozen, trainable)


class TestStaleFold:
    NAME = "ResNet50"

    def _states(self):
        old = _perturb_bn(_build(self.NAME), seed=5).state_dict()
        new = _perturb_bn(_build(self.NAME, seed=4), seed=6).state_dict()
        return old, new

    def test_cache_reused_until_a_source_is_rebound(self):
        old, new = self._states()
        model = _frozen(self.NAME, old)
        x = _inputs(model)
        _forward(model, x)
        first = _folds(model)
        _forward(model, x)
        assert all(a is b for a, b in zip(first, _folds(model)))
        model.load_state_dict(new)
        _forward(model, x)
        assert all(a is not b for a, b in zip(first, _folds(model)))

    def test_load_state_dict_refolds(self):
        old, new = self._states()
        model = _frozen(self.NAME, old)
        x = _inputs(model)
        _forward(model, x)
        model.load_state_dict(new)
        np.testing.assert_array_equal(_forward(model, x),
                                      _forward(_frozen(self.NAME, new), x))

    def test_apply_model_delta_refolds(self):
        old, new = self._states()
        store = PipeStore("pipestore-0")
        store.install_model(_build(self.NAME, old).freeze_features(),
                            split=5, version=0)
        x = _inputs(store.model)
        _forward(store.model, x)
        assert _folds(store.model)
        store.apply_model_delta(checknrun.encode_delta(old, new), version=1)

        fresh = _build(self.NAME, new).freeze_features().eval()
        np.testing.assert_array_equal(_forward(store.model, x),
                                      _forward(fresh, x))

    def test_cast_refolds(self):
        old, _ = self._states()
        model = _frozen(self.NAME, old)
        x = _inputs(model)
        _forward(model, x)
        model.cast(np.float32)
        out = _forward(model, x)
        assert all(w.dtype == np.float32 and b.dtype == np.float32
                   for _, w, b in _folds(model))
        fresh = _frozen(self.NAME, old).cast(np.float32)
        np.testing.assert_array_equal(out, _forward(fresh, x))

    def test_train_pass_moving_running_stats_refolds(self):
        old, _ = self._states()
        model = _frozen(self.NAME, old)
        x = _inputs(model)
        _forward(model, x)
        model.train()
        _forward(model, _inputs(model, seed=9))
        model.eval()
        moved = model.state_dict()
        assert any(not np.array_equal(moved[k], old[k])
                   for k in old if k.endswith("running_mean"))
        np.testing.assert_array_equal(_forward(model, x),
                                      _forward(_frozen(self.NAME, moved), x))

    def test_folded_forward_leaves_state_dict_unchanged(self):
        old, _ = self._states()
        model = _frozen(self.NAME, old)
        before = model.state_dict()
        _forward(model, _inputs(model))
        assert _folds(model)
        after = model.state_dict()
        assert list(after) == list(before)
        for key in before:
            assert after[key].tobytes() == before[key].tobytes(), key

    def test_folded_forward_leaves_checkpoint_unchanged(self):
        cluster = NDPipeCluster(
            lambda: tiny_model(self.NAME, num_classes=8, width=8, seed=3),
            ClusterConfig(num_stores=2, nominal_raw_bytes=4096))
        before = cluster.checkpoint()
        x = _inputs(cluster.inference_server.model)
        cluster.inference_server.classify_preprocessed(x)
        for store in cluster.stores:
            _forward(store.model, x)
        assert _folds(cluster.inference_server.model)
        assert all(_folds(store.model) for store in cluster.stores)
        assert cluster.checkpoint() == before
