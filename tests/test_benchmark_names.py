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
