"""Read-only shared model weights: attach semantics and cross-process fidelity."""

import multiprocessing

import numpy as np
import pytest

from repro.serve.shared_weights import SharedModuleWeights
from repro.nn import MLP, tensor


def make_model(seed=0):
    return MLP(5, [8], 3, rng=np.random.default_rng(seed))


def _forward(model, inputs):
    return np.asarray(model(tensor(inputs)).data)


def _child_forward(weights, inputs, seed, queue):
    model = make_model(seed=seed)
    weights.attach(model)
    queue.put(_forward(model, inputs))


class TestSharedModuleWeights:
    def test_attach_matches_source_forward(self):
        source = make_model(seed=1)
        weights = SharedModuleWeights.from_module(source)
        clone = make_model(seed=2)
        weights.attach(clone)
        x = np.random.default_rng(0).normal(size=(4, 5))
        np.testing.assert_allclose(_forward(clone, x), _forward(source, x))

    def test_attached_params_are_read_only_views(self):
        source = make_model(seed=1)
        weights = SharedModuleWeights.from_module(source)
        clone = make_model(seed=2)
        weights.attach(clone)
        for param in clone.parameters():
            assert not param.data.flags.writeable
            with pytest.raises(ValueError):
                param.data[...] = 0.0

    def test_attach_rejects_mismatched_module(self):
        weights = SharedModuleWeights.from_module(make_model(seed=1))
        other = MLP(5, [9], 3, rng=np.random.default_rng(0))
        with pytest.raises((KeyError, ValueError)):
            weights.attach(other)

    def test_nbytes_and_names(self):
        source = make_model(seed=1)
        weights = SharedModuleWeights.from_module(source)
        state = source.state_dict()
        assert sorted(weights._specs) == sorted(state)
        assert weights.nbytes() >= sum(a.nbytes for a in state.values())

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_child_process_forward_matches(self, method):
        ctx = multiprocessing.get_context(method)
        source = make_model(seed=1)
        weights = SharedModuleWeights.from_module(source, context=ctx)
        x = np.random.default_rng(3).normal(size=(2, 5))
        queue = ctx.Queue()
        proc = ctx.Process(target=_child_forward, args=(weights, x, 7, queue))
        proc.start()
        child_out = queue.get(timeout=60)
        proc.join(timeout=60)
        assert proc.exitcode == 0
        np.testing.assert_allclose(child_out, _forward(source, x))
