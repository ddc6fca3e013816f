"""Self-supervised multi-relation GNN engine for cold-start group recommendation."""

from .autodiff import Tape, Tensor
from .graph import (
    EpisodeBatch,
    EvalSplit,
    InteractionGraph,
    SyntheticSpec,
    build_implicit,
    generate_synthetic,
    load_edges,
    make_training_graph,
    sample_episode,
    segment,
)
from .model import ModelParams, embed_from_episode, full_embeddings, init_model_params
from .enhancer import EnhancerParams, init_enhancer_params, train_enhancer
from .reconstruction import GroundTruthTable, ssl_loss
from .train import TrainConfig, TrainHistory, train_model, train_teacher
from .evaluation import Metrics, evaluate

__version__ = "0.1.0"
