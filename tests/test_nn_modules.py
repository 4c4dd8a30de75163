"""Unit tests for the module system (repro.nn.modules)."""

import numpy as np
import pytest

import repro.nn as nn
from repro.nn import Tensor

from .gradcheck import assert_gradients_close

RNG = np.random.default_rng(2)


def make_mlp():
    rng = np.random.default_rng(0)
    return nn.Sequential(
        nn.Linear(4, 8, rng=rng),
        nn.ReLU(),
        nn.Linear(8, 3, rng=rng),
    )


class TestModuleTraversal:
    def test_named_parameters_paths(self):
        mlp = make_mlp()
        names = [n for n, _ in mlp.named_parameters()]
        assert names == ["0.weight", "0.bias", "2.weight", "2.bias"]

    def test_num_parameters(self):
        mlp = make_mlp()
        assert mlp.num_parameters() == 4 * 8 + 8 + 8 * 3 + 3

    def test_size_bytes_is_float32_wire(self):
        mlp = make_mlp()
        assert mlp.size_bytes() == 4 * mlp.num_parameters()

    def test_modules_iterates_all(self):
        mlp = make_mlp()
        assert len(list(mlp.modules())) == 4  # Sequential + 3 layers

    def test_train_eval_propagates(self):
        mlp = make_mlp()
        mlp.eval()
        assert all(not m.training for m in mlp.modules())
        mlp.train()
        assert all(m.training for m in mlp.modules())

    def test_zero_grad(self):
        mlp = make_mlp()
        x = Tensor(RNG.normal(size=(2, 4)))
        loss = (mlp(x) ** 2).sum()
        loss.backward()
        assert any(p.grad is not None for p in mlp.parameters())
        mlp.zero_grad()
        assert all(p.grad is None for p in mlp.parameters())


class TestStateDict:
    def test_roundtrip(self):
        a, b = make_mlp(), make_mlp()
        # Perturb b so it differs, then restore from a.
        for p in b.parameters():
            p.data += 1.0
        b.load_state_dict(a.state_dict())
        for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
            np.testing.assert_allclose(pa.data, pb.data)

    def test_state_dict_is_a_copy(self):
        mlp = make_mlp()
        state = mlp.state_dict()
        state["0.weight"][...] = 99.0
        assert not np.any(mlp.layers[0].weight.data == 99.0)

    def test_strict_load_rejects_unknown_keys(self):
        mlp = make_mlp()
        state = mlp.state_dict()
        state["bogus"] = np.zeros(3)
        with pytest.raises(KeyError):
            mlp.load_state_dict(state)

    def test_strict_load_rejects_missing_keys(self):
        mlp = make_mlp()
        state = mlp.state_dict()
        del state["0.bias"]
        with pytest.raises(KeyError):
            mlp.load_state_dict(state)

    def test_shape_mismatch_rejected(self):
        mlp = make_mlp()
        state = mlp.state_dict()
        state["0.weight"] = np.zeros((2, 2))
        with pytest.raises(ValueError):
            mlp.load_state_dict(state)

    def test_buffers_in_state_dict(self):
        bn = nn.BatchNorm2d(3)
        state = bn.state_dict()
        assert "running_mean" in state and "running_var" in state

    def test_buffer_roundtrip_through_load(self):
        bn1, bn2 = nn.BatchNorm2d(2), nn.BatchNorm2d(2)
        x = Tensor(RNG.normal(size=(4, 2, 3, 3)))
        bn1(x)  # update running stats
        bn2.load_state_dict(bn1.state_dict())
        np.testing.assert_allclose(bn2.running_mean, bn1.running_mean)
        np.testing.assert_allclose(bn2.running_var, bn1.running_var)


class TestLayers:
    def test_linear_gradcheck(self):
        layer = nn.Linear(3, 2, rng=np.random.default_rng(0))
        x = Tensor(RNG.normal(size=(4, 3)), requires_grad=True)
        assert_gradients_close(
            lambda: (layer(x) ** 2).sum(), [x, layer.weight, layer.bias], rtol=1e-3
        )

    def test_conv2d_layer_shapes(self):
        conv = nn.Conv2d(3, 8, 3, padding=1, rng=np.random.default_rng(0))
        x = Tensor(RNG.normal(size=(2, 3, 6, 6)))
        assert conv(x).shape == (2, 8, 6, 6)

    def test_conv2d_invalid_groups(self):
        with pytest.raises(ValueError):
            nn.Conv2d(3, 6, 3, groups=2)

    def test_identity(self):
        x = Tensor(RNG.normal(size=(2, 3)))
        assert nn.Identity()(x) is x

    def test_zero_op_outputs_zeros(self):
        x = Tensor(RNG.normal(size=(1, 2, 4, 4)), requires_grad=True)
        out = nn.Zero()(x)
        assert (out.data == 0).all()
        assert out.shape == x.shape

    def test_zero_op_stride2_downsamples(self):
        x = Tensor(RNG.normal(size=(1, 2, 4, 4)))
        out = nn.Zero(stride=2)(x)
        assert out.shape == (1, 2, 2, 2)
        assert (out.data == 0).all()

    def test_global_avg_pool(self):
        x = Tensor(RNG.normal(size=(2, 3, 4, 4)))
        out = nn.GlobalAvgPool()(x)
        assert out.shape == (2, 3)
        np.testing.assert_allclose(out.data, x.data.mean(axis=(2, 3)))

    def test_flatten(self):
        x = Tensor(RNG.normal(size=(2, 3, 4)))
        assert nn.Flatten()(x).shape == (2, 12)

    def test_module_list(self):
        ml = nn.ModuleList([nn.Linear(2, 2), nn.Linear(2, 2)])
        assert len(ml) == 2
        assert len(list(ml[0].parameters())) == 2
        names = [n for n, _ in ml.named_parameters()]
        assert names == ["0.weight", "0.bias", "1.weight", "1.bias"]


class TestBatchNorm:
    def test_training_normalises_batch(self):
        bn = nn.BatchNorm2d(3)
        x = Tensor(RNG.normal(loc=5.0, scale=2.0, size=(8, 3, 4, 4)))
        out = bn(x)
        assert abs(out.data.mean()) < 1e-6
        assert out.data.std() == pytest.approx(1.0, abs=0.05)

    def test_eval_uses_running_stats(self):
        bn = nn.BatchNorm2d(2, momentum=1.0)  # running stats = last batch
        x = Tensor(RNG.normal(loc=3.0, size=(16, 2, 4, 4)))
        bn(x)
        bn.eval()
        out = bn(x)
        # Normalising by (biased) batch stats should roughly standardise.
        assert abs(out.data.mean()) < 0.05

    def test_affine_false_has_no_params(self):
        bn = nn.BatchNorm2d(3, affine=False)
        assert bn.num_parameters() == 0

    def test_gradcheck_training_mode(self):
        bn = nn.BatchNorm2d(2)
        x = Tensor(RNG.normal(size=(4, 2, 3, 3)), requires_grad=True)

        def fn():
            # Freeze running-stat side effects for deterministic FD checks.
            bn.running_mean[...] = 0
            bn.running_var[...] = 1
            return (bn(x) ** 2).sum()

        assert_gradients_close(fn, [x, bn.weight, bn.bias], rtol=1e-3, atol=1e-6)

    def test_gradcheck_training_mode_affine_false(self):
        # The search-phase configuration: no learnable scale/shift.
        bn = nn.BatchNorm2d(3, affine=False)
        x = Tensor(RNG.normal(size=(4, 3, 3, 3)), requires_grad=True)
        w = RNG.normal(size=(4, 3, 3, 3))

        def fn():
            bn.running_mean[...] = 0
            bn.running_var[...] = 1
            return (bn(x) * Tensor(w)).sum()

        assert_gradients_close(fn, [x], rtol=1e-3, atol=1e-6)

    def test_rejects_non_nchw(self):
        bn = nn.BatchNorm2d(3)
        with pytest.raises(ValueError):
            bn(Tensor(RNG.normal(size=(2, 3))))

    @staticmethod
    def _composite_reference(bn, x):
        """Batch norm composed from generic tensor ops: the independent
        reference the ``batch_norm`` primitive is checked against."""
        if bn.training:
            mu = x.mean(axis=(0, 2, 3), keepdims=True)
            diff = x - mu
            sigma2 = (diff * diff).mean(axis=(0, 2, 3), keepdims=True)
            m = bn.momentum
            bn.running_mean[...] = (
                (1 - m) * bn.running_mean + m * mu.data.reshape(-1)
            )
            bn.running_var[...] = (
                (1 - m) * bn.running_var + m * sigma2.data.reshape(-1)
            )
            xhat = diff / (sigma2 + bn.eps).sqrt()
        else:
            mu = Tensor(bn.running_mean.reshape(1, -1, 1, 1))
            sigma = Tensor(np.sqrt(bn.running_var.reshape(1, -1, 1, 1) + bn.eps))
            xhat = (x - mu) / sigma
        if bn.affine:
            c = bn.num_features
            return xhat * bn.weight.reshape(1, c, 1, 1) + bn.bias.reshape(1, c, 1, 1)
        return xhat

    @pytest.mark.parametrize("affine", [True, False])
    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_composite_reference(self, affine, training, seed):
        rng = np.random.default_rng(seed)
        shape = (int(rng.integers(2, 9)), int(rng.integers(1, 6)), 5, 4)
        c = shape[1]
        x0 = rng.normal(loc=rng.normal() * 3, scale=rng.uniform(0.1, 4), size=shape)
        upstream = rng.normal(size=shape)
        state = {
            "running_mean": rng.normal(size=c),
            "running_var": rng.uniform(0.5, 2.0, size=c),
        }
        if affine:
            state.update(weight=rng.normal(size=c), bias=rng.normal(size=c))

        results = []
        for forward in (self._composite_reference, lambda bn, x: bn(x)):
            bn = nn.BatchNorm2d(c, affine=affine).train(training)
            bn.apply_state(state, strict=True)
            x = Tensor(x0.copy(), requires_grad=True)
            out = forward(bn, x)
            out.backward(upstream)
            grads = [x.grad] + ([bn.weight.grad, bn.bias.grad] if affine else [])
            results.append(
                (out.data, bn.running_mean.copy(), bn.running_var.copy(), grads)
            )

        (ref_out, ref_rm, ref_rv, ref_grads), (out, rm, rv, grads) = results
        # Forward and running statistics: bit-equal.
        np.testing.assert_array_equal(out, ref_out)
        np.testing.assert_array_equal(rm, ref_rm)
        np.testing.assert_array_equal(rv, ref_rv)
        # Gradients: the analytic backward reassociates the sums.  The
        # atol term covers entries that cancel to ~0 relative to the
        # gradient's scale.
        for got, ref in zip(grads, ref_grads):
            np.testing.assert_allclose(
                got, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max()
            )

    @pytest.mark.parametrize("affine", [True, False])
    def test_training_call_adds_one_graph_node(self, affine):
        bn = nn.BatchNorm2d(3, affine=affine)
        x = Tensor(RNG.normal(size=(4, 3, 2, 2)), requires_grad=True)
        out = bn(x)
        parents = (x, bn.weight, bn.bias) if affine else (x,)
        assert out._parents == parents
        assert all(p._backward is None for p in parents)


class TestEndToEndTraining:
    def test_mlp_learns_xor(self):
        rng = np.random.default_rng(3)
        x = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
        y = np.array([0, 1, 1, 0])
        model = nn.Sequential(
            nn.Linear(2, 16, rng=rng), nn.ReLU(), nn.Linear(16, 2, rng=rng)
        )
        opt = nn.SGD(model.parameters(), lr=0.5, momentum=0.9)
        for _ in range(300):
            opt.zero_grad()
            loss = nn.functional.cross_entropy(model(Tensor(x)), y)
            loss.backward()
            opt.step()
        preds = model(Tensor(x)).argmax(axis=1)
        np.testing.assert_array_equal(preds, y)

    def test_small_cnn_overfits_tiny_batch(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(8, 3, 8, 8)))
        y = rng.integers(0, 4, size=8)
        model = nn.Sequential(
            nn.Conv2d(3, 8, 3, padding=1, rng=rng),
            nn.ReLU(),
            nn.GlobalAvgPool(),
            nn.Linear(8, 4, rng=rng),
        )
        opt = nn.Adam(model.parameters(), lr=0.05)
        losses = []
        for _ in range(60):
            opt.zero_grad()
            loss = nn.functional.cross_entropy(model(x), y)
            loss.backward()
            opt.step()
            losses.append(loss.item())
        assert losses[-1] < losses[0] * 0.5


class TestNdarrayCoercion:
    def test_sequential_accepts_raw_ndarray(self):
        rng = np.random.default_rng(0)
        model = nn.Sequential(
            nn.Conv2d(3, 4, 3, padding=1, rng=rng), nn.ReLU(), nn.GlobalAvgPool()
        )
        out = model(rng.normal(size=(2, 3, 6, 6)))
        assert out.shape == (2, 4)

    def test_linear_accepts_raw_ndarray(self):
        layer = nn.Linear(3, 2, rng=np.random.default_rng(0))
        out = layer(np.ones((4, 3)))
        assert out.shape == (4, 2)

    def test_conv_accepts_raw_ndarray(self):
        conv = nn.Conv2d(2, 3, 3, padding=1, rng=np.random.default_rng(0))
        out = conv(np.ones((1, 2, 5, 5)))
        assert out.shape == (1, 3, 5, 5)
