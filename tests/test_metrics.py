"""Sampled-negative top-k evaluation and the small metric helpers."""
import math

import numpy as np
import pytest

from orderlab.corpus import Corpus, SynthConfig, leave_one_out, sample_negatives, synth_corpus
from orderlab.errors import InvalidArgument
from orderlab.harness import metrics
from orderlab.harness.metrics import (
    MODES,
    convergence_report,
    draw_candidates,
    evaluate_topk,
    hit_rate,
    ndcg,
    rank_of_positive,
    round_up_to_cadence,
    topk_report,
)
from orderlab.numkit import SeededRng
from orderlab.params import ParamVector, TrainConfig, convergence_epoch, run_training
from orderlab.seqrec import ModelConfig, SeqRecModel

from conftest import toy_corpus

NEGATIVES = 12
KS = (1, 5, 10)


def reference_ranks(model, params, corpus, split, mode, negatives, rng, batch_users=64):
    """The per-mode, per-user loop that evaluate_topk replaced: a forward pass over
    the train prefix ("valid") or prefix + validation item ("test"), then one
    draw, one product and one scalar pessimistic rank per user."""
    table = params.view("item_embeddings")
    ranks = np.empty(len(split.users), dtype=np.int64)
    order = sorted(range(len(split.users)), key=lambda i: len(split.prefixes[i]))
    for start in range(0, len(order), batch_users):
        part = order[start : start + batch_users]
        inputs = []
        for i in part:
            prefix = split.prefixes[i]
            if mode == "test":
                prefix = np.append(prefix, split.valid_targets[i])
            inputs.append(prefix)
        states, _, cache = model.batch_states(params, inputs)
        for j, i in enumerate(part):
            final = states[j, cache["lengths"][j] - 1]
            user = split.users[i]
            target = int(split.test_targets[i] if mode == "test" else split.valid_targets[i])
            user_rng = rng.child(f"neg-{mode}-{corpus.user_ids[user]}")
            negs = sample_negatives(corpus, user, negatives, user_rng)
            scores = table[np.concatenate([[target], negs])] @ final
            pos, neg = float(scores[0]), scores[1:]
            ranks[i] = 1 + int((neg > pos).sum()) + int((neg == pos).sum())
    return ranks


@pytest.fixture(scope="module")
def setup():
    """70 synthetic users of ragged length plus one too short to evaluate, and a model."""
    cfg = SynthConfig(users=70, items=50, categories=4, mean_length=8, max_length=14)
    synth, _ = synth_corpus(cfg, SeededRng(5).child("synth"))
    corpus = toy_corpus([*synth.sequences[:30], [1, 2], *synth.sequences[30:]], synth.n_items)
    split = leave_one_out(corpus)
    assert split.skipped == [30]
    model = SeqRecModel(ModelConfig(vocab=corpus.n_items, hidden=8))
    params = model.init_params(SeededRng(6))
    return model, params, corpus, split


def drawn(corpus, split, rng):
    return {mode: draw_candidates(corpus, split, mode, NEGATIVES, rng) for mode in MODES}


class TestEvaluateTopk:
    @pytest.mark.parametrize("mode", ["valid", "test"])
    @pytest.mark.parametrize("batch_users", [16, 64])
    def test_equals_per_user_reference(self, setup, mode, batch_users, monkeypatch):
        """One pass over prefix + validation item ranks both targets as a
        separate pass per mode does."""
        model, params, corpus, split = setup
        monkeypatch.setattr(metrics, "_BATCH_USERS", batch_users)
        monkeypatch.setattr(metrics, "KS", KS)
        got = evaluate_topk(model, params, corpus, split, NEGATIVES, SeededRng(8))
        assert sorted(got) == ["test", "valid"]
        want = reference_ranks(model, params, corpus, split, mode, NEGATIVES, SeededRng(8),
                               batch_users=batch_users)
        assert np.array_equal(got[mode], want)
        report = topk_report(got[mode], NEGATIVES)
        assert report["users_evaluated"] == len(split.users) and report["negatives"] == NEGATIVES
        assert 0.0 < report["HR@10"] < 1.0
        assert report["NDCG@5"] == ndcg(want, 5)

    @pytest.mark.parametrize("mode", ["valid", "test"])
    def test_reused_matrix_equals_fresh_draws(self, setup, mode):
        model, params, corpus, split = setup
        fresh = evaluate_topk(model, params, corpus, split, NEGATIVES, SeededRng(8))
        candidates = drawn(corpus, split, SeededRng(8))
        for _ in range(2):
            reused = evaluate_topk(model, params, corpus, split, NEGATIVES, candidates=candidates)
            assert np.array_equal(reused[mode], fresh[mode])

    def test_candidate_rows_follow_the_split(self, setup):
        _, _, corpus, split = setup
        candidates = draw_candidates(corpus, split, "test", NEGATIVES, SeededRng(8))
        assert candidates.shape == (len(split.users), 1 + NEGATIVES)
        assert np.array_equal(candidates[:, 0], split.test_targets)
        for row, user in zip(candidates, split.users):
            assert len(set(row[1:])) == NEGATIVES
            assert not set(row[1:]) & set(corpus.sequences[user].tolist())

    def test_ties_count_against_the_positive(self, setup, monkeypatch):
        model, _, corpus, split = setup
        monkeypatch.setattr(metrics, "KS", (NEGATIVES, 13))
        flat = model.zero_params()  # every item scores 0: the positive ties all negatives
        ranks = evaluate_topk(model, flat, corpus, split, NEGATIVES, SeededRng(8))
        for mode in MODES:
            report = topk_report(ranks[mode], NEGATIVES)
            assert report[f"HR@{NEGATIVES}"] == 0.0
            assert report["HR@13"] == 1.0
            assert report["NDCG@13"] == pytest.approx(1.0 / math.log2(14.0))

    def test_bad_mode(self, setup):
        model, params, corpus, split = setup
        with pytest.raises(InvalidArgument):
            draw_candidates(corpus, split, "train", NEGATIVES, SeededRng(8))
        candidates = drawn(corpus, split, SeededRng(8))
        with pytest.raises(InvalidArgument):  # a mode without its matrix
            evaluate_topk(model, params, corpus, split, NEGATIVES,
                          candidates={"train": candidates["test"], "test": candidates["test"]})

    def test_missing_rng(self, setup):
        model, params, corpus, split = setup
        with pytest.raises(InvalidArgument):
            evaluate_topk(model, params, corpus, split, NEGATIVES)

    def test_candidates_of_another_shape(self, setup):
        model, params, corpus, split = setup
        candidates = drawn(corpus, split, SeededRng(8))
        with pytest.raises(InvalidArgument):
            evaluate_topk(model, params, corpus, split, NEGATIVES + 1, candidates=candidates)
        with pytest.raises(InvalidArgument):
            evaluate_topk(model, params, corpus, split, NEGATIVES,
                          candidates=dict(candidates, valid=candidates["valid"][1:]))


class TestSharedRows:
    """A row depends only on the path, the user's sequence and the vocabulary,
    so a second corpus copies the rows of the users it leaves unchanged."""

    @staticmethod
    def draw_counted(*args, **kwargs):
        """draw_candidates(*args, **kwargs) and the users it drew negatives for."""
        users = []

        def counted(corpus, user, n, rng):
            users.append(user)
            return sample_negatives(corpus, user, n, rng)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(metrics, "sample_negatives", counted)
            return draw_candidates(*args, **kwargs), users

    @pytest.mark.parametrize("mode", MODES)
    def test_copied_rows_equal_fresh_draws(self, setup, mode):
        _, _, corpus, split = setup
        # every third user gains an order; the short user 30 joins the split
        seqs = [np.append(s, s[0]) if u % 3 == 0 else s for u, s in enumerate(corpus.sequences)]
        other = corpus.with_sequences(seqs)
        other_split = leave_one_out(other)
        assert 30 in other_split.users and 30 not in split.users
        first = draw_candidates(corpus, split, mode, NEGATIVES, SeededRng(8))
        got, users = self.draw_counted(
            other, other_split, mode, NEGATIVES, SeededRng(8),
            like=(corpus, split, first),
        )
        assert np.array_equal(got, draw_candidates(other, other_split, mode, NEGATIVES, SeededRng(8)))
        assert users == [u for u in other_split.users if u % 3 == 0]
        # and the other way round: the first corpus copies from the second
        back, users = self.draw_counted(
            corpus, split, mode, NEGATIVES, SeededRng(8),
            like=(other, other_split, got),
        )
        assert np.array_equal(back, first)
        assert users == [u for u in split.users if u % 3 == 0]

    def test_another_vocabulary_shares_no_row(self, setup):
        _, _, corpus, split = setup
        renamed = Corpus(corpus.user_ids, corpus.sequences, [f"x{k}" for k in range(corpus.n_items)])
        first = draw_candidates(corpus, split, "test", NEGATIVES, SeededRng(8))
        got, users = self.draw_counted(
            renamed, split, "test", NEGATIVES, SeededRng(8),
            like=(corpus, split, first),
        )
        assert np.array_equal(got, first)
        assert users == split.users


def test_rank_of_positive_row_wise():
    scores = np.array([
        [3.0, 1.0, 2.0, 0.5],  # the best: rank 1
        [1.0, 1.0, 2.0, 0.5],  # one above, one tied: rank 3
        [0.0, 1.0, 2.0, 3.0],  # the worst: rank 4
        [2.0, 2.0, 2.0, 2.0],  # all tied: rank 4
    ])
    assert rank_of_positive(scores).tolist() == [1, 3, 4, 4]


def test_hit_rate_and_ndcg():
    ranks = np.array([1, 2, 10, 11])
    assert hit_rate(ranks, 10) == 0.75
    assert hit_rate(ranks, 1) == 0.25
    assert ndcg(ranks, 10) == pytest.approx((1.0 + 1.0 / math.log2(3.0) + 1.0 / math.log2(11.0)) / 4)
    assert ndcg(ranks, 1) == 0.25
    assert ndcg(np.array([5, 6]), 4) == 0.0


@pytest.mark.parametrize("epoch, cadence, want", [(0, 5, 0), (1, 5, 5), (5, 5, 5), (6, 5, 10),
                                                  (7, 1, 7)])
def test_round_up_to_cadence(epoch, cadence, want):
    assert round_up_to_cadence(epoch, cadence) == want


def test_convergence_report():
    report = convergence_report({
        "flat": [10.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0],  # converges at epoch 5
        "falling": [3.0, 2.0, 1.0],
        "empty": [],
    })
    assert report["flat"] == {"epochs": 5, "reported": 5, "converged": True}
    assert report["falling"] == {"epochs": 3, "reported": 5, "converged": False}
    assert report["empty"] == {"epochs": 0, "reported": 5, "converged": False}


def train_on(losses):
    """`run_training` with early stopping over a loss that follows `losses`, one epoch each."""
    per_epoch = iter(losses)
    params, zero_grad = ParamVector({"w": (2,)}), ParamVector({"w": (2,)})
    cfg = TrainConfig(epochs=len(losses), batch_size=4, early_stop=True)
    return run_training(lambda p, batch: (next(per_epoch), zero_grad), params, cfg=cfg,
                        rng=SeededRng(0), sizes=np.ones(4, dtype=np.int64))


def test_an_early_stopped_run_is_reported_converged():
    trace = train_on([10.0] + [5.0] * 9)
    assert len(trace) == 5
    assert convergence_report({"train": trace})["train"] == {
        "epochs": len(trace), "reported": 5, "converged": True,
    }


def test_a_slow_run_neither_stops_nor_converges():
    """0.5% better every epoch: above the 1e-3 rule, so training runs to its limit."""
    trace = train_on([0.995 ** epoch for epoch in range(12)])
    assert len(trace) == 12
    assert convergence_epoch(trace) is None
    assert convergence_report({"train": trace})["train"] == {
        "epochs": 12, "reported": 15, "converged": False,
    }
