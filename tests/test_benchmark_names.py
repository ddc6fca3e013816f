"""The benchmark trace wraps coldgraph names by attribute; this fails as soon
as a refactor removes or renames one of them."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_installs_and_uninstalls():
    from coldgraph import autodiff, enhancer, model, reconstruction

    wrapped = [
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
