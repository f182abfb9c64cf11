"""Inference never touches model state.

``Module.infer`` is the eval-mode forward that ``HashingNetwork.relaxed_codes``
(and so every encode, micro-batcher flush and served query) runs.  It must
equal the ``train(False)`` forward bit for bit, and concurrent calls on one
shared network must neither switch its mode nor move its batch-norm running
statistics.
"""

import sys
import threading

import numpy as np
import pytest

from repro.core.hashing_network import HashingNetwork
from repro.nn.layers import (
    BatchNorm1d,
    BatchNorm2d,
    Dropout,
    Linear,
    ReLU,
    Sequential,
    Tanh,
)
from repro.nn.vgg import VGGHashNet


def randomize_state(module, rng):
    """Move parameters and running statistics off their defaults, so that
    batch statistics and running statistics give different outputs."""
    for p in module.parameters():
        p.data[...] = rng.normal(size=p.data.shape)
    for m in module._modules_recursive():
        if "running_var" in m._buffers:
            m.running_mean[...] = rng.normal(size=m.running_mean.shape)
            m.running_var[...] = rng.uniform(0.5, 2.0, size=m.running_var.shape)
    return module


MODULES = {
    "batchnorm1d": (lambda: BatchNorm1d(6), (5, 6)),
    "batchnorm2d": (lambda: BatchNorm2d(3), (4, 3, 5, 5)),
    "dropout": (lambda: Dropout(0.5, rng=0), (5, 6)),
    "sequential": (
        lambda: Sequential(Linear(6, 8, rng=0), BatchNorm1d(8), ReLU(),
                           Dropout(0.5, rng=1), Linear(8, 4, rng=2), Tanh()),
        (5, 6),
    ),
    "vgg": (
        lambda: VGGHashNet(8, image_size=8, profile="tiny", hidden_dims=(16,),
                           dropout=0.5, rng=0),
        (3, 3, 8, 8),
    ),
}


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("name", sorted(MODULES))
def test_infer_equals_eval_forward(name, dtype):
    make, shape = MODULES[name]
    rng = np.random.default_rng(3)
    module = randomize_state(make(), rng).to(dtype)
    x = rng.normal(size=shape)
    module.train(False)
    expected = module.forward(x)
    module.train(True)
    state = module.state_dict()
    got = module.infer(x)
    assert got.dtype == np.dtype(dtype)
    np.testing.assert_array_equal(got, expected)
    assert module.training
    for key, value in module.state_dict().items():
        np.testing.assert_array_equal(value, state[key])


NETWORKS = {
    # Batch norm: a training-mode forward would use batch statistics.
    "feature": (lambda: HashingNetwork(16, mode="feature",
                                       feature_extractor=lambda x: x,
                                       feature_dim=32, hidden_dims=(64,),
                                       rng=0),
                (4, 32)),
    # Conv: every forward writes the layer's shared im2col buffer ring.
    "conv": (lambda: HashingNetwork(16, mode="conv", image_size=8,
                                    conv_profile="tiny", hidden_dims=(16,),
                                    rng=0),
             (4, 3, 8, 8)),
}


@pytest.mark.parametrize("mode", sorted(NETWORKS))
def test_concurrent_encodes_match_serial_and_leave_the_model_alone(mode):
    n_threads, calls = 8, 25
    make, shape = NETWORKS[mode]
    network = make()
    randomize_state(network.net, np.random.default_rng(1))
    training = network.net.training
    state = network.net.state_dict()
    rng = np.random.default_rng(2)
    inputs = rng.normal(size=(n_threads, calls, *shape))
    oracle = [[network.encode(batch) for batch in per_thread]
              for per_thread in inputs]

    results = [[None] * calls for _ in range(n_threads)]
    barrier = threading.Barrier(n_threads, timeout=30)

    def work(t):
        barrier.wait()
        for c in range(calls):
            results[t][c] = network.encode(inputs[t, c])

    # Switch threads as often as the interpreter allows, so that forwards
    # interleave even though each one is short.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,))
                   for t in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)

    wrong = sum(not np.array_equal(results[t][c], oracle[t][c])
                for t in range(n_threads) for c in range(calls))
    assert wrong == 0, f"{wrong} of {n_threads * calls} encodes differ"
    assert network.net.training == training
    for key, value in network.net.state_dict().items():
        np.testing.assert_array_equal(value, state[key], err_msg=key)
