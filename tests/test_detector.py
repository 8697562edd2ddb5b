"""Detector features, smoothing, weight fitting, threshold tuning and the CSV report."""
import csv

import numpy as np
import pytest

from orderlab import detector
from orderlab.detector import (
    FEATURE_NAMES,
    DetectionReport,
    FeatureStats,
    _jsd_rows,
    features,
    fit_weights,
    smooth_by_user,
    tune_threshold,
    unified_score,
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


def reference_jsd(p, q):
    """Natural-log JSD along the last axis, with the zero entries masked by copies."""

    def ent(x):
        safe = np.where(x > 0.0, x, 1.0)
        return -(safe * np.log(safe) * (x > 0.0)).sum(axis=-1)

    m = 0.5 * (p + q)
    return np.maximum(ent(m) - 0.5 * (ent(p) + ent(q)), 0.0)


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

    def test_length_sorted_batches_match_user_order_batches(self, ragged_features):
        """Batches cut in prefix-length order give the features of batches
        cut in user order, in (user, position) order: JSD to rounding, the
        other three bit for bit."""
        corpus = ragged_features[0]
        model, params = tiny_dualview()
        prefixes = [RAGGED[k] for k in (2, 0, 1, 2, 0, 1, 2)]  # lengths 5, 1, 2, 5, 1, 2, 5
        parts = []
        for start in range(0, len(prefixes), 2):  # one call per user-order batch
            f, u, p = features(model, params, corpus, prefixes=prefixes[start : start + 2])
            parts.append((f, start + u, p))
        ref_feats, ref_users, ref_positions = map(np.concatenate, zip(*parts))
        feats, users, positions = features(model, params, corpus, prefixes=prefixes, batch_users=2)
        np.testing.assert_array_equal(users, ref_users)
        np.testing.assert_array_equal(positions, ref_positions)
        np.testing.assert_array_equal(feats[:, 1:], ref_feats[:, 1:])
        np.testing.assert_allclose(feats[:, 0], ref_feats[:, 0], rtol=1e-12, atol=0)

    def test_no_prefix_means_no_divergence(self, ragged_features):
        _, feats, _, positions = ragged_features
        first = positions == 0
        assert first.sum() == len(RAGGED)
        np.testing.assert_array_equal(feats[first, 0], 0.0)
        assert (feats[~first, 0] > 0.0).all()


def test_jsd_matches_the_masked_reference():
    gen = np.random.default_rng(5)
    logits = gen.normal(0.0, 3.0, size=(2, 4, 6, 50))
    p, q = np.exp(logits) / np.exp(logits).sum(axis=-1, keepdims=True)
    p[0, :, :25] = 0.0  # exact zeros in one or both rows
    q[0, :3, 10:40] = 0.0
    p[2, 0] = q[2, 0] = 0.0
    p[2, 0, 7] = q[2, 0, 9] = 1.0  # disjoint point masses: ln 2
    p[3] = q[3]  # identical rows: 0
    p /= p.sum(axis=-1, keepdims=True)
    q /= q.sum(axis=-1, keepdims=True)
    jsd = _jsd_rows(p, q)
    assert jsd.shape == (4, 6)
    np.testing.assert_allclose(jsd, reference_jsd(p, q), rtol=0, atol=1e-14)
    assert jsd[2, 0] == pytest.approx(np.log(2.0), abs=1e-15)
    np.testing.assert_array_equal(jsd[3], 0.0)



def whole_array_jsd(p, q):
    """The JSD over all rows at once, each entropy with its own zeroed log buffer."""
    def entropy(x):
        return -np.einsum("...v,...v->...", x, np.log(x, out=np.zeros_like(x), where=x > 0.0))

    m = (p + q) * 0.5
    return np.maximum(entropy(m) - 0.5 * (entropy(p) + entropy(q)), 0.0)


@pytest.mark.parametrize("block", [1, 5, 24, 64])
def test_jsd_row_blocks_give_the_whole_array_bits(monkeypatch, block):
    gen = np.random.default_rng(6)
    logits = gen.normal(0.0, 3.0, size=(2, 3, 4, 40))  # 24 rows
    p, q = np.exp(logits) / np.exp(logits).sum(axis=-1, keepdims=True)
    p[1, :, :20] = 0.0  # exact zeros
    p /= p.sum(axis=-1, keepdims=True)
    p_in, q_in = p.copy(), q.copy()
    monkeypatch.setattr(detector, "_JSD_ROWS", block)
    jsd = _jsd_rows(p, q)
    assert jsd.shape == (3, 4)
    np.testing.assert_array_equal(jsd, whole_array_jsd(p, q))
    np.testing.assert_array_equal(p, p_in)  # inputs are left as they were
    np.testing.assert_array_equal(q, q_in)


def test_entropy_ignores_what_its_scratch_buffer_held():
    x = np.array([[0.5, 0.0, 0.5], [0.0, 1.0, 0.0]])
    scratch = np.full_like(x, np.nan)
    np.testing.assert_array_equal(detector._entropy_rows(x, scratch), [np.log(2.0), 0.0])

class TestSmoothByUser:
    def test_equals_per_user_smoothing(self):
        raw = SeededRng(5).gen.standard_normal(10)
        users = np.array([0, 0, 0, 0, 1, 2, 2, 3, 3, 3])
        expected = np.concatenate(
            [reference_smooth(raw[users == u], 0.3) for u in range(4)]
        )
        np.testing.assert_array_equal(smooth_by_user(raw, users), expected)

    def test_single_position_user_keeps_its_score(self, monkeypatch):
        monkeypatch.setattr(detector, "_SMOOTHING", 0.5)
        raw = np.array([0.7, -1.2, 2.5])
        users = np.array([0, 1, 2])
        np.testing.assert_array_equal(smooth_by_user(raw, users), raw)

    def test_zero_rho_is_identity(self, monkeypatch):
        monkeypatch.setattr(detector, "_SMOOTHING", 0.0)
        raw = np.array([1.0, 4.0, -2.0, 0.5])
        np.testing.assert_array_equal(smooth_by_user(raw, np.zeros(4, dtype=np.int64)), raw)


class TestUnifiedScore:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_constant_feature_normalises_to_zero(self):
        feats = SeededRng(5).gen.standard_normal((50, 4))
        feats[:, 2] = 3.7
        stats = FeatureStats.fit(feats)
        assert stats.std[2] == 1e-8
        norm = stats.apply(feats)
        # the column's mean carries rounding (here 2.7e-15), which the floor scales by 1e8
        np.testing.assert_allclose(norm[:, 2], 0.0, atol=1e-6)
        np.testing.assert_allclose(norm[:, [0, 1, 3]].mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(norm[:, [0, 1, 3]].std(axis=0), 1.0, rtol=1e-12)
        w = np.array([0.1, 0.2, 0.3, 0.4])
        np.testing.assert_allclose(unified_score(feats, w, stats), norm @ w, rtol=1e-12)

    @pytest.mark.parametrize("weights", [[0.5, 0.5, 0.0], [0.2] * 5, [[0.25] * 4]])
    def test_weights_of_the_wrong_length_are_rejected(self, weights):
        feats = SeededRng(6).gen.standard_normal((10, 4))
        with pytest.raises(InvalidArgument, match="need 4 weights"):
            unified_score(feats, weights, FeatureStats.fit(feats))


class TestFitWeights:
    def test_one_class_labels_give_uniform_weights(self):
        feats = SeededRng(2).gen.standard_normal((40, 4))
        w = fit_weights(feats, np.zeros(40, dtype=bool))
        np.testing.assert_array_equal(w, 0.25)

    def test_weight_goes_to_the_informative_feature(self):
        gen = SeededRng(3).gen
        feats = gen.standard_normal((400, 4))
        labels = feats[:, 2] > 0.5
        w = fit_weights(feats, labels)
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
        tau = tune_threshold(scores, labels, default_percentile=95.0)
        assert tau == np.percentile(scores, 90)
        np.testing.assert_array_equal(scores > tau, labels)


def reference_csv(report, path, truth):
    """The csv.writer loop that DetectionReport.to_csv replaced."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["user", "position", *FEATURE_NAMES, "raw_score", "smoothed_score", "flag", "truth_type"]
        )
        for i in range(report.users.size):
            key = (int(report.users[i]), int(report.positions[i]))
            writer.writerow([
                key[0],
                key[1],
                *[repr(float(v)) for v in report.features[i]],
                repr(float(report.raw_scores[i])),
                repr(float(report.smoothed_scores[i])),
                int(report.flags[i]),
                truth.get(key, ""),
            ])


@pytest.mark.parametrize("with_truth", [True, False])
def test_csv_equals_the_csv_writer(tmp_path, monkeypatch, with_truth):
    """Blocks of 7 rows over 40: the last block is partial; floats of every magnitude."""
    monkeypatch.setattr(detector, "_CSV_ROWS", 7)
    gen = np.random.default_rng(4)
    n = 40
    feats = gen.normal(size=(n, 4)) * 10.0 ** gen.integers(-300, 300, size=(n, 4))
    feats[:4, 0] = [0.0, -0.0, 1.0, 1e-5]
    users, positions = np.repeat(np.arange(8), 5), np.tile(np.arange(5), 8)
    report = DetectionReport(
        users, positions, feats, gen.normal(size=n), gen.normal(size=n), gen.random(n) > 0.7,
    )
    truth = {(0, 1): "repetitive", (3, 4): "semantic", (7, 0): "sequential"} if with_truth else {}
    report.to_csv(str(tmp_path / "got.csv"), truth)
    reference_csv(report, tmp_path / "want.csv", truth)
    got = (tmp_path / "got.csv").read_bytes()
    assert got == (tmp_path / "want.csv").read_bytes()
    assert got.count(b"\r\n") == n + 1 and (b"semantic" in got) == with_truth
