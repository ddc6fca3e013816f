import logging

import numpy as np
import pytest

from coldgraph import autodiff as ad
from coldgraph.enhancer import episode_metas, init_enhancer_params
from coldgraph.checkpoint import load_checkpoint, save_checkpoint
from coldgraph.graph import (
    InteractionGraph,
    SyntheticSpec,
    build_implicit,
    generate_synthetic,
    sample_episode,
    segment,
)
from coldgraph.model import GraphTensors, embed_from_episode, full_embeddings, init_model_params
from coldgraph.reconstruction import (
    GroundTruthTable,
    layer_sum_table,
    reconstruction_terms,
    ssl_loss,
)
import oracles
from oracles import as_float64, dict_trees, embed_episode, reconstruction_loss, truth_table, truth_vector

KINDS = ("group", "user", "item")


@pytest.fixture(scope="module")
def setup():
    spec = SyntheticSpec(n_users=24, n_items=30, n_groups=10, n_clusters=2, intra_p=0.3,
                         inter_p=0.05, group_size_min=2, group_size_max=4, seed=1)
    g = build_implicit(generate_synthetic(spec), 3, 1)
    g = InteractionGraph({k: n + 1 for k, n in g.counts.items()}, g.edges)  # isolated nodes
    params = as_float64(init_model_params(g.counts, 6, "light", 2, True, np.random.default_rng(0)))
    rng = np.random.default_rng(1)
    gt = truth_table(g.counts, {(k, i): rng.normal(size=6) for k in KINDS for i in range(g.counts[k])})
    batches = {
        kind: sample_episode(g, kind, range(0, g.counts[kind], 2), k=3, depth=2, seed=4)
        for kind in KINDS
    }
    return g, params, gt, batches


def oracle_mean(batch, params, gt, metas=None):
    losses = []
    for b, ep in enumerate(dict_trees(batch)):
        ep_metas = {rel: ad.Tensor(m.data[b]) for rel, m in metas.items()} if metas else None
        h = embed_episode(ep, params, ep_metas)
        losses.append(reconstruction_loss(h, truth_vector(gt, ep.target)).item())
    return float(np.mean(losses))


@pytest.mark.parametrize("with_enhancer", [False, True])
def test_parts_are_per_kind_batch_means(setup, with_enhancer):
    g, params, gt, batches = setup
    enh = as_float64(init_enhancer_params(6, np.random.default_rng(2))) if with_enhancer else None
    total, parts = ssl_loss(batches["group"], batches["user"], batches["item"], params, enh, gt)
    for kind in KINDS:
        metas = episode_metas(batches[kind], params.table, enh) if enh else None
        assert parts[kind] == pytest.approx(oracle_mean(batches[kind], params, gt, metas), abs=1e-12)
    assert total.item() == pytest.approx(sum(parts.values()), abs=1e-12)


def test_empty_batch_contributes_zero_with_a_warning(setup, caplog):
    g, params, gt, batches = setup
    with caplog.at_level(logging.WARNING, logger="coldgraph"):
        total, parts = ssl_loss(batches["group"], [], batches["item"], params, None, gt)
    assert parts["user"] == 0.0
    assert "empty user batch" in caplog.text
    assert total.item() == pytest.approx(parts["group"] + parts["item"], abs=1e-12)


def test_missing_ground_truth_raises(setup):
    g, params, gt, batches = setup
    partial = GroundTruthTable(gt.rows, {k: m.copy() for k, m in gt.known.items()}, "test")
    partial.known["user"][batches["user"].targets[1]] = False
    with pytest.raises(KeyError, match="no ground-truth embedding"):
        ssl_loss(batches["group"], batches["user"], batches["item"], params, None, partial)


def test_full_state_path_gathers_the_fused_embeddings(setup):
    g, params, gt, batches = setup
    state = full_embeddings(GraphTensors(g), params)
    for kind in KINDS:
        got = reconstruction_terms(batches[kind], params, None, gt, full_state=state)
        batch = batches[kind]
        for cost, target in zip(got.data, batch.targets):
            h = state.fused[kind].data[target]
            want = truth_vector(gt, (kind, target))
            assert cost == pytest.approx(1 - h @ want / np.linalg.norm(h) / np.linalg.norm(want))


def test_layer_sum_table_matches_the_per_node_table(setup):
    g, params, _, _ = setup
    split = segment(g, 4, 4, 4, 0.3)
    gtens = GraphTensors(g)
    table = layer_sum_table(gtens, params, split, "test")
    want = oracles.layer_sum_table(gtens, params, split)
    assert 0 < len(want) < sum(g.counts.values())
    for (kind, index), vec in want.items():
        assert table.lookup(kind, [index])[0].tobytes() == vec.tobytes()
    for kind in KINDS:
        assert table.known[kind].sum() == sum(k == kind for k, _ in want)
        cold = split.cold[kind][0]
        for target in (cold, -1, g.counts[kind]):
            with pytest.raises(KeyError, match=f"no ground-truth embedding for {kind}:{target}"):
                table.lookup(kind, [split.warm[kind][0], target])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("variant", ["light", "gcn"])
def test_layer_sums_are_bit_equal_to_the_sums_of_shallower_passes(setup, variant, dtype):
    g = setup[0]
    split = segment(g, 4, 4, 4, 0.3)
    params = init_model_params(g.counts, 6, variant, 3, False, np.random.default_rng(2))
    if dtype == np.float64:
        as_float64(params)
    gtens = GraphTensors(g)
    table = layer_sum_table(gtens, params, split, "test")
    want = oracles.layer_sum_table(gtens, params, split)
    assert 0 < len(want) < sum(g.counts.values())
    for (kind, index), vec in want.items():
        assert table.rows[kind].dtype == dtype
        assert table.rows[kind][index].tobytes() == vec.tobytes()


def test_teacher_table_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    counts = {"user": 3, "item": 0, "group": 2}  # no items at all
    table = truth_table(counts, {("user", 0): rng.normal(size=4), ("user", 2): rng.normal(size=4),
                                 ("group", 1): rng.normal(size=4)}, provenance="p")
    tensors = dict(table.named_tensors())
    assert sorted(tensors) == sorted(f"teacher/{k}{s}" for k in KINDS for s in ("", "_known"))
    save_checkpoint(tmp_path / "teacher.ckpt", tensors)
    loaded = GroundTruthTable.from_named_tensors(load_checkpoint(tmp_path / "teacher.ckpt")[0], "p")
    assert loaded.d == 4 and loaded.provenance == "p"
    for kind in KINDS:
        assert loaded.rows[kind].shape == (counts[kind], 4)
        assert loaded.rows[kind].dtype == np.float32
        np.testing.assert_array_equal(loaded.rows[kind], table.rows[kind].astype(np.float32))
        np.testing.assert_array_equal(loaded.known[kind], table.known[kind])
    assert loaded.known["user"].tolist() == [True, False, True]


def test_float64_teacher_checkpoint_is_read_rounded_to_float32(setup, tmp_path):
    g, _, gt, batches = setup  # the table's rows are float64 draws
    save_checkpoint(tmp_path / "teacher.ckpt", dict(gt.named_tensors()))
    loaded = GroundTruthTable.from_named_tensors(load_checkpoint(tmp_path / "teacher.ckpt")[0], "t")
    params = init_model_params(g.counts, 6, "light", 2, True, np.random.default_rng(0))
    for kind in KINDS:
        assert loaded.rows[kind].dtype == np.float32
        np.testing.assert_array_equal(loaded.rows[kind], gt.rows[kind].astype(np.float32))
        batch = batches[kind]
        got = reconstruction_terms(batch, params, None, loaded)
        h = embed_from_episode(batch, params)
        truth = ad.const(gt.rows[kind][batch.targets].astype(np.float32))
        want = ad.sub(ad.const(np.ones(len(batch), np.float32)), ad.cosine_similarity(h, truth))
        assert got.data.dtype == np.float32
        assert got.data.tobytes() == want.data.tobytes()


@pytest.mark.parametrize(
    "broken, message",
    [
        (lambda t: t.pop("teacher/item_known"), "missing tensor teacher/item_known"),
        (lambda t: t.update({"teacher/user_known": np.ones(2)}), "does not match"),
        (lambda t: t.update({"teacher/group": np.zeros(2)}), "does not match"),
        (lambda t: t.update({"teacher/group": np.zeros((2, 3))}), "embedding width"),
    ],
)
def test_teacher_table_rejects_malformed_tensors(broken, message):
    table = truth_table({"user": 3, "item": 1, "group": 2}, {("user", 0): np.ones(4)})
    tensors = dict(table.named_tensors())
    broken(tensors)
    with pytest.raises(ValueError, match=message):
        GroundTruthTable.from_named_tensors(tensors, "p")
