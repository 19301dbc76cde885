import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "fixtures")

# (option, lowest and highest accepted value) of every bounded size option
SIZE_BOUNDS = [("dim", 1, 512), ("ffn_dim", 1, 2048), ("queries_per_token", 1, 8),
               ("encoder_layers", 0, 8), ("mos_components", 1, 8), ("batch_size", 1, 1024),
               ("corpus_size", 1, 100000)]


@pytest.fixture(scope="session")
def fixture_dir():
    return FIXTURE_DIR


def fixture_path(name: str) -> str:
    return os.path.join(FIXTURE_DIR, name)


@pytest.fixture(scope="session")
def all_fixture_graphs():
    from mrparse.graph import load_graphs

    graphs = []
    for name in sorted(os.listdir(FIXTURE_DIR)):
        if name.endswith(".jsonl"):
            graphs.extend(load_graphs(fixture_path(name)))
    return graphs


@pytest.fixture(scope="session")
def trained_toy():
    """One shared seed-1 training run used by the acceptance criteria."""
    import time

    from mrparse import corpus, trainer

    graphs = corpus.synth_corpus(1, 500)
    config = trainer.TrainConfig(
        epochs=30, stop_when={"labels": 0.95, "anchors": 0.95, "edges": 0.90})
    start = time.time()
    trained, metrics = trainer.train(config, graphs)
    elapsed = time.time() - start
    return {"trained": trained, "metrics": metrics, "graphs": graphs,
            "config": config, "seconds": elapsed}
