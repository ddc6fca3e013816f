"""The benchmark trace wraps coldgraph names by attribute; this fails as soon
as a refactor removes or renames one of them."""

import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    """Import ``perfbench/<name>.py`` read-only, without touching the package."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module by name
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def load_tracer():
    return load("tracer")


def test_trace_installs_and_uninstalls():
    from coldgraph import autodiff, enhancer, graph, model, reconstruction

    wrapped = [
        (graph, "sample_episode"),
        (enhancer, "episode_metas"),
        (enhancer, "train_enhancer"),
        (enhancer, "full_meta_matrices"),
        (model, "embed_from_episode"),
        (reconstruction, "ssl_loss"),
        (autodiff, "gather_rows"),
    ]
    before = [getattr(mod, name) for mod, name in wrapped]
    tracer_mod = load_tracer()
    tracer = tracer_mod.Tracer()
    try:
        tracer_mod.install(tracer)
        assert all(getattr(mod, name) is not fn for (mod, name), fn in zip(wrapped, before))
    finally:
        tracer.uninstall()
    assert all(getattr(mod, name) is fn for (mod, name), fn in zip(wrapped, before))


def test_masked_edge_counter_reads_the_sampled_batch():
    # the trace counts masked edges from the value sample_episode returns
    import coldgraph.graph
    from coldgraph.graph import InteractionGraph

    g = InteractionGraph(
        {"user": 4, "item": 3, "group": 1},
        {"UI": [(0, 0), (1, 0), (2, 0), (3, 0), (0, 1), (3, 2)], "GU": [(0, 1), (0, 2)]},
    )
    tracer_mod = load_tracer()
    tracer = tracer_mod.Tracer()
    try:
        tracer_mod.install(tracer)
        batch = coldgraph.graph.sample_episode(g, "user", [0, 3], 2, 2, 5)
    finally:
        tracer.uninstall()
    assert batch.edge_count() > 0
    assert tracer.counters["graph.masked_edges"] == batch.edge_count()


def test_traced_ops_are_autodiff_ops():
    # an op that disappears would silently report 0 calls and 0 s per layer
    from coldgraph import autodiff

    missing = [op for op in load("spec").TRACED_OPS if op not in autodiff.__all__]
    assert not missing


def test_benchmark_checks_read_the_graph_and_split_types():
    # perfbench/checks.py recomputes the ranking loss and Recall/NDCG from the
    # training graph's edge arrays and the split's edge tuples
    import math

    import numpy as np

    from coldgraph.evaluation import evaluate
    from coldgraph.graph import (
        SyntheticSpec, build_implicit, generate_synthetic, make_training_graph, segment,
    )

    spec = SyntheticSpec(n_users=40, n_items=60, n_groups=20, n_clusters=2, intra_p=0.3,
                         inter_p=0.02, occasional_fraction=0.5, occasional_scale=0.1, seed=1)
    graph = build_implicit(generate_synthetic(spec), 3, 1)
    split = segment(graph, 4, 4, 4, 0.3)
    rng = np.random.default_rng(0)
    arrays = {kind: rng.normal(size=(n, 4)) for kind, n in graph.counts.items()}
    checks = load("checks")
    trained = checks.Trained(arrays, make_training_graph(graph, split), split, lam=0.5)
    assert math.isfinite(checks.ranking_loss(trained, seed=0))
    metrics = evaluate(arrays, split, k=20)
    assert metrics.evaluated > 0
    recall, ndcg = checks.oracle_metrics(trained, 20)
    assert abs(recall - metrics.recall_at_k) <= 1e-12
    assert abs(ndcg - metrics.ndcg_at_k) <= 1e-12
