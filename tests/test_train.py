from dataclasses import replace

import pytest

from coldgraph.graph import SyntheticSpec, build_implicit, generate_synthetic, segment
from coldgraph.train import TrainConfig, train_base, train_joint


@pytest.fixture(scope="module")
def data():
    spec = SyntheticSpec(n_users=80, n_items=120, n_groups=30, occasional_fraction=0.5,
                         occasional_scale=0.1, seed=2)
    graph = build_implicit(generate_synthetic(spec), 3, 1)
    return graph, segment(graph, 10, 10, 10, 0.1)


def test_joint_without_reconstruction_is_the_base_trainer(data):
    """The ``train_joint`` promise: with lam1=0 and the enhancer off the run is
    bit-identical to plain base training, whatever the SSL and warm-up knobs."""
    graph, split = data
    config = TrainConfig(d=8, L=2, epochs=2, batch_size=128, lam1=0.0, enhancer=False, seed=5)
    knobs = replace(config, ssl_targets=3, warmup_epochs=2, warmup_targets=5, K=2)
    joint, _, history = train_joint(knobs, split, graph)
    base, _ = train_base(config, split, graph)
    assert all(e.l_r == 0.0 and e.masked_edges == 0 for e in history.epochs)
    for (name, a), (_, b) in zip(joint.named_tensors(), base.named_tensors()):
        assert a.data.tobytes() == b.data.tobytes(), name
