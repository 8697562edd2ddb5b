"""Detector features, smoothing, weight fitting and threshold tuning."""
import numpy as np
import pytest

from orderlab.detector import (
    DetectorConfig,
    features,
    fit_weights,
    smooth_by_user,
    tune_threshold,
)
from orderlab.errors import InvalidArgument
from orderlab.numkit import SeededRng

from conftest import tiny_dualview, toy_corpus

# prefixes of lengths 1, 2 and 5 in one batch, over a 10-item vocabulary
RAGGED = [np.array([3]), np.array([1, 4]), np.array([2, 7, 2, 5, 9])]


@pytest.fixture(scope="module")
def ragged_features():
    model, params = tiny_dualview()
    corpus = toy_corpus(
        [[3, 1, 4, 1, 5, 9, 2, 6], [2, 7, 1, 8, 2, 8], [1, 4, 2, 7, 2, 5, 9, 0, 3]],
        n_items=model.cfg.vocab,
    )
    feats, users, positions = features(model, params, corpus, prefixes=RAGGED)
    return corpus, feats, users, positions


def reference_context(corpus, seq):
    """Negative mean log-probability of the transitions into and out of each position."""
    out = []
    for k in range(len(seq)):
        terms = []
        if k >= 1:
            terms.append(corpus.bigram_logprob(seq[k - 1], seq[k]))
        if k + 1 < len(seq):
            terms.append(corpus.bigram_logprob(seq[k], seq[k + 1]))
        out.append(-sum(terms) / len(terms) if terms else 0.0)
    return out


def reference_smooth(raw, rho):
    """Smoothing of one user's scores with the mean of the available neighbours."""
    if raw.size == 1:
        return raw.copy()
    neighbour = np.empty_like(raw)
    neighbour[0] = raw[1]
    neighbour[-1] = raw[-2]
    neighbour[1:-1] = (raw[:-2] + raw[2:]) / 2
    return (1.0 - rho) * raw + rho * neighbour


class TestFeatures:
    def test_rows_line_up_with_users_and_positions(self, ragged_features):
        _, feats, users, positions = ragged_features
        assert feats.shape == (8, 4)
        np.testing.assert_array_equal(users, [0, 1, 1, 2, 2, 2, 2, 2])
        np.testing.assert_array_equal(positions, [0, 0, 1, 0, 1, 2, 3, 4])

    def test_context_disruption_is_one_sided_at_edges(self, ragged_features):
        corpus, feats, _, _ = ragged_features
        expected = np.concatenate([reference_context(corpus, seq) for seq in RAGGED])
        np.testing.assert_array_equal(feats[:, 3], expected)
        assert feats[0, 3] == 0.0  # a length-1 prefix has no transition

    def test_pop_deviation_matches_per_user_reference(self, ragged_features):
        corpus, feats, _, _ = ragged_features
        log_pop = np.log1p(corpus.counts.astype(np.float64))
        expected = []
        for seq in RAGGED:
            x = log_pop[seq]
            expected.append(np.abs(x - x.mean()) / (x.std() + 1e-8))
        np.testing.assert_allclose(feats[:, 2], np.concatenate(expected), rtol=1e-12, atol=0)

    def test_batches_do_not_change_values(self, ragged_features):
        _, feats, users, positions = ragged_features
        model, params = tiny_dualview()
        corpus = ragged_features[0]
        split = features(model, params, corpus, prefixes=RAGGED, batch_users=2)
        np.testing.assert_allclose(split[0], feats, rtol=1e-12, atol=1e-15)
        np.testing.assert_array_equal(split[1], users)
        np.testing.assert_array_equal(split[2], positions)


class TestSmoothByUser:
    def test_equals_per_user_smoothing(self):
        raw = SeededRng(5).gen.standard_normal(10)
        users = np.array([0, 0, 0, 0, 1, 2, 2, 3, 3, 3])
        expected = np.concatenate(
            [reference_smooth(raw[users == u], 0.3) for u in range(4)]
        )
        np.testing.assert_array_equal(smooth_by_user(raw, users, 0.3), expected)

    def test_single_position_user_keeps_its_score(self):
        raw = np.array([0.7, -1.2, 2.5])
        users = np.array([0, 1, 2])
        np.testing.assert_array_equal(smooth_by_user(raw, users, 0.5), raw)

    def test_zero_rho_is_identity(self):
        raw = np.array([1.0, 4.0, -2.0, 0.5])
        np.testing.assert_array_equal(smooth_by_user(raw, np.zeros(4, dtype=np.int64), 0.0), raw)

    @pytest.mark.parametrize("rho", [-0.1, 1.0])
    def test_rho_out_of_range(self, rho):
        with pytest.raises(InvalidArgument):
            smooth_by_user(np.zeros(3), np.zeros(3, dtype=np.int64), rho)


class TestFitWeights:
    def test_one_class_labels_give_uniform_weights(self):
        feats = SeededRng(2).gen.standard_normal((40, 4))
        w = fit_weights(feats, np.zeros(40, dtype=bool), DetectorConfig())
        np.testing.assert_array_equal(w, 0.25)

    def test_weight_goes_to_the_informative_feature(self):
        gen = SeededRng(3).gen
        feats = gen.standard_normal((400, 4))
        labels = feats[:, 2] > 0.5
        w = fit_weights(feats, labels, DetectorConfig())
        assert w.sum() == pytest.approx(1.0)
        assert (w >= 0).all()
        assert int(np.argmax(w)) == 2 and w[2] > 0.8


class TestTuneThreshold:
    def test_no_positive_labels_fall_back_to_percentile(self):
        scores = SeededRng(4).gen.standard_normal(200)
        tau = tune_threshold(scores, np.zeros(200, dtype=bool), default_percentile=90.0)
        assert tau == np.percentile(scores, 90.0)

    def test_picks_the_fbeta_maximiser(self):
        scores = np.arange(100, dtype=np.float64)
        labels = scores >= 90  # the top tenth: the 90th percentile separates them exactly
        tau = tune_threshold(scores, labels, beta=2.0)
        assert tau == np.percentile(scores, 90)
        np.testing.assert_array_equal(scores > tau, labels)
