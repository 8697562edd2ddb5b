import numpy as np
import pytest

from orderlab.corpus import Corpus, SynthConfig, synth_corpus
from orderlab.dualview import DualViewConfig, DualViewModel
from orderlab.numkit import SeededRng
from orderlab.semantics import synth_semantics


@pytest.fixture
def rng():
    return SeededRng(1234)


@pytest.fixture(scope="session")
def small_synth():
    """A small but realistic corpus: 150 users, 60 items, 4 categories."""
    rng = SeededRng(77)
    cfg = SynthConfig(users=150, items=60, categories=4, mean_length=18)
    corpus, cats = synth_corpus(cfg, rng.child("synth"))
    table = synth_semantics(cats, 24, 0.1, rng.child("sem"))
    return corpus, cats, table


def toy_corpus(sequences, n_items):
    """Corpus from explicit dense-index sequences."""
    users = [f"u{i}" for i in range(len(sequences))]
    items = [f"i{j}" for j in range(n_items)]
    return Corpus(users, [np.asarray(s, dtype=np.int64) for s in sequences], items)


def tiny_dualview(vocab=10, sem_dim=12, hidden=8, seed=3, scale=0.3):
    gen = SeededRng(seed).gen
    sem = gen.standard_normal((vocab, sem_dim))
    reduced = gen.standard_normal((vocab, hidden))
    model = DualViewModel(
        DualViewConfig(vocab=vocab, sem_dim=sem_dim, hidden=hidden, max_len=64, init_scale=scale),
        sem,
        reduced,
    )
    params = model.init_params(SeededRng(seed + 1))
    return model, params
