import numpy as np
import pytest

from orderlab import params as params_module
from orderlab.corpus import Corpus, SynthConfig, synth_corpus
from orderlab.dualview import DualViewConfig, DualViewModel
from orderlab.errors import InvalidArgument, NumericalFailure
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


def init_params_at_scale(model, rng, scale):
    """`model.init_params(rng)` with the initial weights' scale set to `scale`."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(params_module, "_INIT_SCALE", scale)
        return model.init_params(rng)


def tiny_dualview(vocab=10, sem_dim=12, hidden=8, seed=3, scale=0.3):
    gen = SeededRng(seed).gen
    sem = gen.standard_normal((vocab, sem_dim))
    reduced = gen.standard_normal((vocab, hidden))
    model = DualViewModel(
        DualViewConfig(vocab=vocab, sem_dim=sem_dim, hidden=hidden, max_len=64),
        sem,
        reduced,
    )
    params = init_params_at_scale(model, SeededRng(seed + 1), scale)
    return model, params


_DIRECTIONAL_FD_DIM = 2000  # above this, fd_gradient_check probes random directions


def fd_gradient_check(
    f,
    analytic_grad,
    x,
    eps: float,
    directions: int | None = None,
) -> float:
    """Max relative error between an analytic gradient and central differences.

    Per-coordinate probes by default; when the dimension exceeds 2000 (or
    `directions` is given) the check uses that many random unit directions
    instead. Relative error uses denominator max(|analytic|, |numeric|, 1e-8).
    """
    xv = np.asarray(x, dtype=np.float64).ravel()
    g = np.asarray(analytic_grad, dtype=np.float64).ravel()
    if xv.size != g.size:
        raise InvalidArgument(f"gradient size {g.size} != point size {xv.size}")
    if not eps > 0.0:
        raise InvalidArgument("eps must be positive")
    if directions is None and xv.size > _DIRECTIONAL_FD_DIM:
        directions = 200

    def probe(direction: np.ndarray) -> float:
        fp = float(f(xv + eps * direction))
        fm = float(f(xv - eps * direction))
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise NumericalFailure("objective returned a non-finite value")
        return (fp - fm) / (2.0 * eps)

    worst = 0.0
    if directions is None:
        for i in range(xv.size):
            e = np.zeros(xv.size)
            e[i] = 1.0
            num = probe(e)
            denom = max(abs(num), abs(g[i]), 1e-8)
            worst = max(worst, abs(num - g[i]) / denom)
    else:
        rng = np.random.Generator(np.random.PCG64(0xD1FF))
        for _ in range(int(directions)):
            v = rng.standard_normal(xv.size)
            v /= np.linalg.norm(v)
            num = probe(v)
            ana = float(g @ v)
            denom = max(abs(num), abs(ana), 1e-8)
            worst = max(worst, abs(num - ana) / denom)
    return worst
