import gc
import logging
import types
from dataclasses import replace

import numpy as np
import pytest

import coldgraph
from coldgraph import autodiff as ad
from coldgraph import cli, enhancer, train
from coldgraph.graph import (
    SyntheticSpec, build_implicit, generate_synthetic, load_graph_cache, make_training_graph,
    read_split_manifest, segment,
)
from coldgraph.model import GraphTensors, init_model_params
from coldgraph.evaluation import evaluate
from coldgraph.train import AdamState, TrainConfig, final_state, train_model, train_teacher
from oracles import RecordingTape, as_float64, bpr_by_gathers, scatter_rows_sorted

# a small model that trains with the reconstruction task in one full batch
SMALL = dict(d=8, L=2, K=3, ssl_targets=8, warmup_targets=8, warmup_epochs=2, teacher_epochs=1,
             batch_size=100_000, seed=3)


@pytest.fixture(scope="module")
def data():
    spec = SyntheticSpec(n_users=80, n_items=120, n_groups=30, occasional_fraction=0.5,
                         occasional_scale=0.1, seed=2)
    graph = build_implicit(generate_synthetic(spec), 3, 1)
    return graph, segment(graph, 10, 10, 10, 0.1)


@pytest.fixture(scope="module")
def gtens(data):
    graph, split = data
    return GraphTensors(make_training_graph(graph, split))


@pytest.fixture(scope="module")
def teacher(data, gtens):
    return train_teacher(data[1], gtens, TrainConfig(**SMALL))


def tensor_bytes(params, enh):
    named = params.named_tensors() + (enh.named_tensors() if enh else [])
    return [(name, t.data.tobytes()) for name, t in named]


def test_joint_without_reconstruction_is_the_base_trainer(data, gtens):
    """With lam1=0 and the enhancer off the run is bit-identical to plain base
    training, whatever the SSL and warm-up knobs: they draw no randomness."""
    split = data[1]
    config = TrainConfig(d=8, L=2, epochs=2, batch_size=128, lam1=0.0, enhancer=False, seed=5)
    knobs = replace(config, ssl_targets=3, warmup_epochs=2, warmup_targets=5, K=2)
    joint, enh, history = train_model(knobs, split, gtens)
    base, _, _ = train_model(config, split, gtens)
    assert enh is None
    assert [e.phase for e in history.epochs] == ["joint", "joint"]
    assert all(e.l_r == 0.0 and e.masked_edges == 0 for e in history.epochs)
    assert tensor_bytes(joint, None) == tensor_bytes(base, None)


def test_pretrain_finetune_runs_reconstruction_then_ranking(data, gtens, teacher):
    split = data[1]
    config = TrainConfig(**SMALL, paradigm="pretrain_finetune", pretrain_epochs=2, epochs=3)
    _, _, history = train_model(config, split, gtens, teacher)
    assert [e.epoch for e in history.epochs] == [1, 2, 3, 4, 5]
    assert [e.phase for e in history.epochs] == ["pretrain"] * 2 + ["finetune"] * 3
    pretrain, finetune = history.epochs[:2], history.epochs[2:]
    assert all(e.l_main == 0.0 and e.l_r > 0.0 and e.masked_edges > 0 for e in pretrain)
    assert all(e.l_r == 0.0 and e.l_main > 0.0 and e.masked_edges == 0 for e in finetune)


def test_same_seed_trains_bit_identical_tensors_with_the_enhancer(data, gtens, teacher):
    split = data[1]
    config = TrainConfig(**SMALL, epochs=2)
    (p1, e1, h1), (p2, e2, h2) = (train_model(config, split, gtens, teacher) for _ in range(2))
    assert e1 is not None
    assert tensor_bytes(p1, e1) == tensor_bytes(p2, e2)
    assert h1.totals() == h2.totals()


@pytest.mark.parametrize("meta_mode,enhancer", [("episodic", False), ("full_neighborhood", True)])
def test_minibatches_lose_as_much_as_with_every_row(data, monkeypatch, meta_mode, enhancer):
    """Mini-batch steps compute the last step only for the rows their BPR
    edges and, in full_neighborhood mode, their SSL targets read; the losses
    are those of passes over every row, up to float32 summation order."""
    graph, _ = data
    split = segment(graph, 5, 5, 5, 0.1)  # warm nodes of every kind to reconstruct
    config = TrainConfig(**dict(SMALL, batch_size=8), epochs=1, meta_mode=meta_mode, enhancer=enhancer)
    gtens = GraphTensors(make_training_graph(graph, split))
    teacher = train_teacher(split, gtens, config)
    full, restricted = train.full_embeddings, []

    def spy(*args, **kwargs):
        state = full(*args, **kwargs)
        restricted.append(any(ids is not None for ids in state.rows.values()))
        return state

    monkeypatch.setattr(train, "full_embeddings", spy)
    _, _, got = train_model(config, split, gtens, teacher)
    assert len(restricted) > 2 and all(restricted)
    monkeypatch.setattr(train, "full_embeddings", lambda *a, reads=None, **k: full(*a, **k))
    _, _, want = train_model(config, split, gtens, teacher)
    for a, b in zip(got.epochs, want.epochs, strict=True):
        assert a.l_main > 0 and a.l_r > 0
        for part in ("l_main", "l_r", "total"):
            np.testing.assert_allclose(getattr(a, part), getattr(b, part), rtol=1e-5)


def test_evaluation_in_training_equals_the_read_back(data, gtens, teacher):
    """Evaluating on the training run's own GraphTensors gives, bit for bit,
    what final_state gives after rebuilding the training graph from the
    workspace's graph and split."""
    graph, split = data
    seen = []

    def eval_fn(state):
        seen.append(state.arrays())
        m = evaluate(seen[-1], split)
        return m.recall_at_k, m.ndcg_at_k

    config = TrainConfig(**SMALL, epochs=2, eval_every=1)
    params, enh, history = train_model(config, split, gtens, teacher, eval_fn=eval_fn)
    assert enh is not None and len(seen) == 2
    arrays = final_state(params, enh, graph, split).arrays()
    m = evaluate(arrays, split)
    assert (history.epochs[-1].recall, history.epochs[-1].ndcg) == (m.recall_at_k, m.ndcg_at_k)
    assert m.evaluated > 0 and m.recall_at_k > 0
    for kind, rows in arrays.items():
        assert rows.tobytes() == seen[-1][kind].tobytes()


def test_the_package_keeps_the_train_module():
    assert isinstance(coldgraph.train, types.ModuleType)
    assert coldgraph.train.train_model is coldgraph.train_model


@pytest.mark.parametrize("paradigm", ["joint", "pretrain_finetune"])
def test_float32_steps_never_upcast(data, gtens, teacher, monkeypatch, paradigm):
    """An enhancer warm-up step, then a joint full-batch step with the
    enhancer, or a pretrain and a finetune step, all stay float32: every
    recorded op's output, every gradient backward returns and every Adam
    moment.  ``train_teacher`` makes a float32 table; a float64 copy of it
    is read as float32 too."""
    split = data[1]
    dtypes, steps = set(), []
    emit, backward, step = ad._emit, ad.Tape.backward, AdamState.step

    def checked_emit(out_data, inputs, vjp):
        out = emit(out_data, inputs, vjp)
        if out.requires_grad:  # recorded on a tape
            dtypes.add(out.data.dtype)
        return out

    def checked_backward(tape, loss, params):
        grads = backward(tape, loss, params)
        dtypes.update(g.dtype for g in grads.values())
        return grads

    def checked_step(adam, grads):
        wrote = step(adam, grads)
        dtypes.update(a.dtype for a in adam.m + adam.v)
        steps.append(len(adam.tensors))
        return wrote

    monkeypatch.setattr(ad, "_emit", checked_emit)
    monkeypatch.setattr(ad.Tape, "backward", checked_backward)
    monkeypatch.setattr(AdamState, "step", checked_step)
    config = replace(TrainConfig(**SMALL), warmup_epochs=1, paradigm=paradigm, pretrain_epochs=1, epochs=1)
    assert all(rows.dtype == np.float32 for rows in teacher.rows.values())
    teacher64 = replace(teacher, rows={k: r.astype(np.float64) for k, r in teacher.rows.items()})
    params, enh, history = train_model(config, split, gtens, teacher64)
    assert dtypes == {np.dtype(np.float32)}
    assert all(t.data.dtype == np.float32 for t in params.tensors() + enh.tensors())
    # warm-up steps train the enhancer alone, the phases every tensor
    n_enh, n_all = len(enh.tensors()), len(params.tensors() + enh.tensors())
    assert steps[0] == n_enh and steps[-len(history.epochs):] == [n_all] * len(history.epochs)


def _gradients_per_step(monkeypatch, tape_cls, config, split, gtens, teacher, leaf_maps):
    """Train under ``tape_cls`` and return each backward's gradients: in
    ``params`` order, or, with ``leaf_maps`` under the record-holding tape,
    as the (param index, gradient) pairs of its leaf map, which then feeds
    the step."""
    log, backward = [], tape_cls.backward

    def logged(tape, loss, params):
        assert type(tape) is tape_cls
        if not leaf_maps or tape_cls is not RecordingTape:
            grads = backward(tape, loss, params)
            log.append([grads[p] for p in params])
            return grads
        leaves, index = backward(tape, loss), {p: i for i, p in enumerate(params)}
        log.append([(index.get(t), g) for t, g in leaves.items()])
        return {p: leaves.get(p, np.zeros_like(p.data)) for p in params}

    with monkeypatch.context() as m:
        m.setattr(ad, "Tape", tape_cls)
        m.setattr(tape_cls, "backward", logged)
        train_model(config, split, gtens, teacher)
    return log


@pytest.mark.parametrize(
    "step",
    [
        dict(lam1=0.0, enhancer=False, batch_size=64, warmup_epochs=0),  # base minibatch
        dict(warmup_epochs=0),  # joint full batch with the enhancer
        dict(paradigm="pretrain_finetune", pretrain_epochs=1, warmup_epochs=0),  # pretrain SSL
        dict(warmup_epochs=1),  # enhancer warm-up, then a joint step
    ],
    ids=["base-minibatch", "joint-full-batch", "pretrain-ssl", "warm-up"],
)
@pytest.mark.parametrize("leaf_maps", [False, True], ids=["params", "leaves"])
def test_key_tape_equals_the_record_holding_tape(data, gtens, teacher, monkeypatch, step, leaf_maps):
    """Every gradient of every step is bit-identical in float32 under the
    tape that keeps only keys and under the one that holds every tensor;
    and the latter's leaf map, every tensor that got a gradient, holds only
    the step's ``params``, with the same gradients."""
    config = replace(TrainConfig(**SMALL), epochs=1, **step)
    runs = [
        _gradients_per_step(monkeypatch, cls, config, data[1], gtens, teacher, leaf_maps)
        for cls in (ad.Tape, RecordingTape)
    ]
    assert len(runs[0]) == len(runs[1]) > 0
    for new, old in zip(*runs):
        if leaf_maps:
            index = [i for i, _ in old]
            assert None not in index and len(set(index)) == len(index)
            old = [dict(old).get(i, np.zeros_like(g)) for i, g in enumerate(new)]
        assert len(new) == len(old) > 0
        for a, b in zip(new, old):
            assert a.dtype == b.dtype == np.float32 and a.shape == b.shape
            assert a.tobytes() == b.tobytes()


def test_warmup_logs_its_curve_in_one_line(data, gtens, teacher, caplog):
    split = data[1]
    config = replace(TrainConfig(**SMALL), warmup_epochs=3, epochs=1)
    with caplog.at_level("INFO", logger="coldgraph"):
        train_model(config, split, gtens, teacher)
    lines = [r.getMessage() for r in caplog.records if "warm-up" in r.getMessage()]
    assert len(lines) == 1
    assert lines[0].startswith("warm-up: 3 epochs, loss ") and " -> " in lines[0]


def test_no_step_leaves_garbage_for_the_cyclic_collector(data, gtens, teacher, monkeypatch):
    """Every structure a step builds dies by reference counting alone: with
    the cyclic collector off, gc.collect() after each optimizer step (of the
    warm-up, pretrain, finetune, full-neighborhood joint and gcn runs)
    finds nothing to free."""
    found = []
    adam_step = AdamState.step

    def step(self, grads):
        ok = adam_step(self, grads)
        found[-1].append(gc.collect())
        return ok

    monkeypatch.setattr(AdamState, "step", step)
    runs = {
        "warm-up, pretrain, finetune": dict(paradigm="pretrain_finetune", pretrain_epochs=1),
        "joint, full neighborhood": dict(meta_mode="full_neighborhood"),
        "joint, gcn": dict(backbone="gcn"),
    }
    gc.collect()
    gc.disable()
    try:
        for overrides in runs.values():
            found.append([])
            config = TrainConfig(**{**SMALL, "epochs": 1, **overrides})
            epochs = len(train_model(config, data[1], gtens, teacher)[2].epochs)
            assert len(found[-1]) > epochs  # the warm-up's steps, then a full batch per epoch
    finally:
        gc.enable()
    assert dict(zip(runs, found)) == {name: [0] * len(counts) for name, counts in zip(runs, found)}


#: the part names each kind of step returns
PART_NAMES = {
    "joint": {"main/group", "main/user", "ssl", "l2"},
    "pretrain": {"ssl"},
    "finetune": {"main/group", "main/user", "l2"},
    "warm-up": {"warm-up"},
}


def by_hand(phase, parts, config):
    """The paper's objective over one step's parts, term by term in float32."""
    f32 = np.float32
    if phase == "warm-up":
        return parts["warm-up"]
    terms = []
    if "main/group" in parts or "main/user" in parts:
        main = f32(0)
        if "main/group" in parts:
            main = main + parts["main/group"]
        if "main/user" in parts:
            main = main + parts["main/user"] * f32(config.lam)
        terms.append(main)
    if "ssl" in parts:
        terms.append(parts["ssl"] * f32(0.0 if phase == "finetune" else config.lam1))
    if "l2" in parts:
        terms.append(parts["l2"] * f32(config.lam2))
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total


@pytest.mark.parametrize(
    "overrides,phases",
    [
        (dict(batch_size=64, enhancer=False), {"joint"}),
        (dict(), {"warm-up", "joint"}),
        (dict(paradigm="pretrain_finetune", pretrain_epochs=1), {"warm-up", "pretrain", "finetune"}),
    ],
    ids=["joint-minibatch", "warm-up, joint-full-batch-enhancer", "warm-up, pretrain, finetune"],
)
def test_each_step_descends_the_weighted_sum_of_its_parts(data, gtens, teacher, monkeypatch, overrides, phases):
    """The loss each step hands to backward is the weighted sum of the parts
    that step returned, computed here by hand, bit for bit in float32."""
    config = replace(TrainConfig(**SMALL), epochs=1, lam=0.5, lam1=0.7, lam2=0.01, **overrides)
    events = []
    parts_fn, warm_fn, backward = train._Phase.parts, enhancer._WarmupLayout.loss, ad.Tape.backward

    def parts(phase, *args):
        out = parts_fn(phase, *args)
        events.append((phase.name, {name: np.float32(t.data) for name, t in out.items()}))
        return out

    def warm_loss(layout, *args):
        out = warm_fn(layout, *args)
        if out is not None:
            events.append(("warm-up", {"warm-up": np.float32(out.data)}))
        return out

    def descended(tape, loss, params):
        events.append(("descended", loss.data))
        return backward(tape, loss, params)

    monkeypatch.setattr(train._Phase, "parts", parts)
    monkeypatch.setattr(enhancer._WarmupLayout, "loss", warm_loss)
    monkeypatch.setattr(ad.Tape, "backward", descended)
    train_model(config, data[1], gtens, teacher)
    assert len(events) % 2 == 0
    seen = {}
    for (phase, step_parts), (tag, loss) in zip(events[::2], events[1::2]):
        assert tag == "descended" and loss.dtype == np.float32
        assert by_hand(phase, step_parts, config).tobytes() == loss.tobytes()
        seen.setdefault(phase, set()).update(step_parts)
    assert seen == {phase: PART_NAMES[phase] for phase in phases}


def test_every_gradient_matches_the_sorted_scatter_in_float64(data, gtens, teacher, monkeypatch):
    """Every step of a warm-up and a full-batch joint epoch with the
    enhancer, in float64 (``as_float64``): its gathers, ranking terms and
    attention scatter-add repeated rows with ``np.add.at``, and each step's
    gradients equal those of the stable-argsort + ``np.add.reduceat``
    scatter (tests/oracles.py) to 1e-12."""
    config = replace(TrainConfig(**SMALL), epochs=1, warmup_epochs=1)
    for name in ("init_model_params", "init_enhancer_params"):
        monkeypatch.setattr(train, name, lambda *a, _init=getattr(train, name), **k: as_float64(_init(*a, **k)))
    backward, runs = ad.Tape.backward, []

    def recorded(tape, loss, params):
        grads = backward(tape, loss, params)
        runs[-1].append([grads[p] for p in params])
        return grads

    monkeypatch.setattr(ad.Tape, "backward", recorded)
    for scatter in (ad._scatter_rows, scatter_rows_sorted):
        runs.append([])
        monkeypatch.setattr(ad, "_scatter_rows", scatter)
        train_model(config, data[1], gtens, teacher)
    got, want = runs
    assert len(got) == len(want) >= 2
    for step_got, step_want in zip(got, want):
        for g, w in zip(step_got, step_want):
            assert g.dtype == np.float64
            np.testing.assert_allclose(g, w, rtol=0, atol=1e-12)


@pytest.mark.parametrize("warmup_epochs", [0, 1], ids=["phase", "warm-up"])
def test_a_failing_backward_is_an_error_not_a_divergence(data, gtens, teacher, monkeypatch, warmup_epochs):
    """Backward of a scalar loss raises ValueError only from a rule's shape
    or operator check, an internal error that training passes on as is."""

    def broken(tape, loss, params=None):
        raise ValueError("vjp shape check")

    monkeypatch.setattr(ad.Tape, "backward", broken)
    config = replace(TrainConfig(**SMALL), epochs=1, warmup_epochs=warmup_epochs)
    with pytest.raises(ValueError, match="vjp shape check"):
        train_model(config, data[1], gtens, teacher)


def test_a_kind_left_out_of_a_step_logs_nothing(tmp_path, monkeypatch, caplog):
    """The x1 synthetic spec at seed 4242 has 34 warm groups and 38 steps of
    64 edges per epoch, so 64 SSL targets per kind leave the groups out of
    four steps an epoch: those steps have no group part and log no warning."""
    args = ["synth_occasional_fraction=0.5", "synth_occasional_scale=0.1", "c_u=3", "c_g=1", "seed=4242",
            f"data_dir={tmp_path / 'data'}"]
    assert cli.main(["synth", "--out", str(tmp_path / "data"), *args]) == 0
    assert cli.main(["prepare", "--out", str(tmp_path), *args]) == 0
    split = read_split_manifest(tmp_path / "split.txt")
    gtens = GraphTensors(make_training_graph(load_graph_cache(tmp_path / "graph"), split))
    config = TrainConfig(d=8, c_u=3, c_g=1, seed=4242, batch_size=64, ssl_targets=64, epochs=2,
                         teacher_epochs=1, warmup_epochs=1)
    gt = train_teacher(split, gtens, config)
    without_groups, ssl_loss = [], train.ssl_loss

    def spy(group_batch, *args, **kwargs):
        without_groups.append(group_batch is None)
        return ssl_loss(group_batch, *args, **kwargs)

    monkeypatch.setattr(train, "ssl_loss", spy)
    with caplog.at_level(logging.WARNING, logger="coldgraph"):
        train_model(config, split, gtens, gt)
    assert split.warm["group"].size == 34 and sum(without_groups) == 8
    assert [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING] == []


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_ranking_parts_equal_the_lookups_and_ops(data, gtens, monkeypatch, dtype):
    """Each kind's ranking part and every gradient of the step's total equal
    those of three ``FullState.lookup`` gathers and the op-by-op BPR term:
    bit for bit in float32, to 1e-12 in float64.  The steps hold both kinds,
    a single group edge (no user edge), and repeated user edges alone."""
    config = TrainConfig(d=8, L=2, lam=0.5, lam1=0.0, enhancer=False, seed=5)
    params = init_model_params(gtens.graph.counts, 8, "light", 2, with_meta=False, rng=np.random.default_rng(5))
    if dtype == np.float64:
        as_float64(params)
    phase = train._Phase("joint", config, data[1], gtens, params, None, None, train._positives(gtens.graph))
    negatives, _, _ = phase.plan(train._seed_streams(config))
    n_gi, n = phase.positives.n_gi, len(phase.positives.edges)
    steps = [np.arange(n), np.array([0]), np.array([n_gi, n - 1, n_gi, n - 1, n_gi])]

    def run():
        out = []
        for rows in steps:
            with ad.Tape() as tape:
                parts = phase.parts(rows, negatives, {})
                total, _ = phase.objective(parts)
            grads = tape.backward(total, phase.tensors)
            out.append(({k: v.data for k, v in parts.items()}, [grads[t] for t in phase.tensors]))
        return out

    got = run()
    monkeypatch.setattr(ad, "bpr", bpr_by_gathers)
    want = run()
    assert [sorted(parts) for parts, _ in got] == [
        ["l2", "main/group", "main/user"], ["l2", "main/group"], ["l2", "main/user"]
    ]
    for (parts, grads), (want_parts, want_grads) in zip(got, want, strict=True):
        assert parts.keys() == want_parts.keys()
        for a, b in zip([*parts.values(), *grads], [*want_parts.values(), *want_grads], strict=True):
            assert a.dtype == b.dtype == dtype
            if dtype == np.float32:
                assert a.tobytes() == b.tobytes()
            else:
                np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize(
    "step",
    [dict(lam1=0.0, enhancer=False, batch_size=64, warmup_epochs=0), dict(warmup_epochs=1)],
    ids=["base-minibatch", "joint-full-batch"],
)
def test_training_through_the_ranking_op_is_bit_identical(data, gtens, teacher, monkeypatch, step):
    config = replace(TrainConfig(**SMALL), epochs=2, **step)
    params, enh, history = train_model(config, data[1], gtens, teacher)
    monkeypatch.setattr(ad, "bpr", bpr_by_gathers)
    want_params, want_enh, want_history = train_model(config, data[1], gtens, teacher)
    assert tensor_bytes(params, enh) == tensor_bytes(want_params, want_enh)
    assert history.totals() == want_history.totals()
