"""Vocabulary expansion and full-vocabulary probability policies.

The two load-bearing properties:

  * expanding never changes any original word's logit, bitwise;
  * a synthesized word's logit equals the weighted mean of its candidates'
    logits in every state, because the same candidates and weights build
    the input column, the output column and the bias entry.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from lmexpand.expansion import (
    SKIP_IN_SHORTLIST,
    SKIP_NO_VECTOR,
    FullVocabScorer,
    build_candidate_plan,
    expand_model,
    expand_with_embeddings,
    extract_oos_words,
    synthesize_vector,
)
from lmexpand.ngram import train_kn
from lmexpand.rescoring import Hypothesis
from lmexpand.rnnlm import (
    RnnState,
    _step,
    forward_step,
    init_model,
    log_softmax,
    named_parameters,
    score_sentence,
    softmax,
    zero_state,
)
from lmexpand.skipgram import WordEmbeddings
from lmexpand.vocab import BOS_ID, EOS_ID, RESERVED, UNK, UNK_ID, Vocabulary


def make_vocab(content=7, shortlist_content=4):
    words = list(RESERVED) + [f"w{i}" for i in range(content)]
    return Vocabulary(words, shortlist_size=3 + shortlist_content)


def make_model(seed=0, **kwargs):
    vocab = make_vocab(**kwargs)
    return init_model(vocab, embed_dim=5, hidden_dim=6, num_layers=2, seed=seed)


def run_states(model, feed_ids):
    """States after each prefix of feed_ids, starting from the zero state."""
    states = [zero_state(model)]
    for w in feed_ids:
        states.append(forward_step(model, w, states[-1]).state)
    return states


# ------------------------------------------------------------- extraction


def hyp(words, rank, ac=-1.0):
    return Hypothesis(words=words, acoustic_score=ac, lm_score=0.0, rank=rank)


def test_extract_oos_top_n_semantics():
    vocab = make_vocab()  # shortlist w0..w3; tail w4..w6
    nbest = {
        "u1": [hyp(["w0", "w5"], 1), hyp(["w6", "w1"], 2)],
        "u2": [hyp(["w2"], 1), hyp(["novel", "w4"], 2)],
    }
    assert extract_oos_words(nbest, vocab, n=1) == ["w5"]
    assert extract_oos_words(nbest, vocab, n=2) == ["novel", "w4", "w5", "w6"]
    assert extract_oos_words(nbest, vocab, n=50) == ["novel", "w4", "w5", "w6"]
    with pytest.raises(ValueError):
        extract_oos_words(nbest, vocab, n=0)


def test_extract_oos_ignores_shortlist_and_dedupes():
    vocab = make_vocab()
    nbest = {"u": [hyp(["w5", "w5", "w0", "w5"], 1)]}
    assert extract_oos_words(nbest, vocab) == ["w5"]


# -------------------------------------------------------------- synthesis


def test_synthesize_vector_plain_mean():
    got = synthesize_vector([np.array([1.0, 2.0]), np.array([3.0, 4.0])], [1.0, 1.0])
    np.testing.assert_array_equal(got, [2.0, 3.0])


def test_synthesize_vector_weighted():
    got = synthesize_vector([np.array([1.0, 0.0]), np.array([0.0, 1.0])], [3.0, 1.0])
    np.testing.assert_allclose(got, [0.75, 0.25])


def test_synthesize_vector_errors():
    v = np.ones(2)
    with pytest.raises(ValueError, match="no candidate"):
        synthesize_vector([], [])
    with pytest.raises(ValueError, match="length"):
        synthesize_vector([v], [1.0, 2.0])
    with pytest.raises(ValueError, match="negative"):
        synthesize_vector([v, v], [1.0, -0.5])
    with pytest.raises(ValueError, match="zero"):
        synthesize_vector([v, v], [0.0, 0.0])
    with pytest.raises(ValueError, match="dimension"):
        synthesize_vector([np.ones(2), np.ones(3)], [1.0, 1.0])


# -------------------------------------------------------------- expansion


def test_expansion_preserves_original_logits_bitwise():
    model = make_model()
    plan = {
        "w4": [(3, 1.0), (4, 1.0), (5, 1.0)],
        "w6": [(4, 2.0), (6, 1.0)],
    }
    expanded, report = expand_model(model, plan)
    n = model.n_explicit

    feed = [BOS_ID, 3, 5, 4, 6, 3]
    for before, after in zip(run_states(model, feed), run_states(expanded, feed)):
        np.testing.assert_array_equal(before.h, after.h)
        np.testing.assert_array_equal(before.c, after.c)
    for state in run_states(model, feed):
        orig = forward_step(model, 3, state).logits
        wide = forward_step(expanded, 3, state).logits
        assert orig.tobytes() == wide[:n].tobytes()

    assert report.explicit_before == n
    assert report.explicit_after == n + 2
    for (name, a), (_, b) in zip(named_parameters(model), named_parameters(expanded)):
        if name.startswith("layers."):
            assert a.tobytes() == b.tobytes(), name


def test_batched_step_preserves_original_logits_bitwise():
    """Criterion 1 on the batched kernel: 100 rows in one call, where a
    plain matrix product would switch to gemm and perturb the originals."""
    rng = np.random.default_rng(101)
    words = [f"w{i:02d}" for i in range(47)] + [f"n{i}" for i in range(5)]
    vocab = Vocabulary(list(RESERVED) + words, shortlist_size=50)
    model = init_model(vocab, embed_dim=16, hidden_dim=24, num_layers=2, seed=11)
    plan = {f"n{i}": [(int(rng.integers(3, 50)), float(rng.uniform(0.5, 2.0)))] for i in range(5)}
    expanded, _ = expand_model(model, plan)

    batch = 100
    h = rng.normal(size=(2, batch, 24))
    c = rng.normal(size=(2, batch, 24))
    ids = rng.integers(0, 50, size=batch)
    la, ha, ca = _step(model, ids, h, c)
    lb, hb, cb = _step(expanded, ids, h, c)
    assert la.tobytes() == np.ascontiguousarray(lb[:, :50]).tobytes()
    assert ha.tobytes() == hb.tobytes() and ca.tobytes() == cb.tobytes()
    for row in range(batch):
        state = RnnState(h=h[:, row].copy(), c=c[:, row].copy())
        assert forward_step(model, int(ids[row]), state).logits.tobytes() == la[row].tobytes()


def test_new_word_logit_is_weighted_mean_of_candidates():
    model = make_model(seed=3)
    plan = {
        "w4": [(3, 1.0), (5, 1.0)],
        "w5": [(3, 0.6), (4, 0.3), (6, 0.1)],
    }
    expanded, _ = expand_model(model, plan)
    n = model.n_explicit
    new_ids = {w: expanded.vocab.encode(w) for w in plan}
    assert new_ids == {"w4": n, "w5": n + 1}

    for state in run_states(expanded, [BOS_ID, 4, n, 6, n + 1]):
        logits = forward_step(expanded, 3, state).logits
        for word, entries in plan.items():
            wsum = sum(wt for _, wt in entries)
            mean = sum(wt * logits[wid] for wid, wt in entries) / wsum
            assert logits[new_ids[word]] == pytest.approx(mean, rel=1e-12)


def test_softmax_ratios_of_originals_survive_expansion():
    model = make_model(seed=1)
    expanded, _ = expand_model(model, {"w5": [(3, 1.0), (4, 1.0)]})
    state_a = run_states(model, [BOS_ID, 4])[-1]
    state_b = run_states(expanded, [BOS_ID, 4])[-1]
    pa = softmax(forward_step(model, 5, state_a).logits)
    pb = softmax(forward_step(expanded, 5, state_b).logits)
    ratio_a = pa[3] / pa[6]
    ratio_b = pb[3] / pb[6]
    assert ratio_a == pytest.approx(ratio_b, rel=1e-12)


def test_expanded_vocab_ordering():
    model = make_model()  # shortlist [reserved, w0..w3], tail [w4, w5, w6]
    expanded, _ = expand_model(model, {"w5": [(3, 1.0)]})
    v = expanded.vocab
    assert v.words == list(RESERVED) + ["w0", "w1", "w2", "w3", "w5", "w4", "w6"]
    assert v.shortlist_size == 8
    assert v.is_shortlist("w5")
    assert not v.is_shortlist("w4")


def test_brand_new_word_can_join():
    model = make_model()
    expanded, report = expand_model(model, {"zebra": [(3, 1.0), (4, 1.0)]})
    assert expanded.vocab.is_shortlist("zebra")
    assert "zebra" in report.expanded
    # original tail intact
    assert expanded.vocab.tail_words == ["w4", "w5", "w6"]


def test_empty_plan_copies_model():
    model = make_model()
    expanded, report = expand_model(model, {})
    assert report.expanded == []
    assert expanded.n_explicit == model.n_explicit
    assert expanded.vocab == model.vocab
    expanded.input_embed[0, 0] += 1.0  # must not alias the original
    assert model.input_embed[0, 0] != expanded.input_embed[0, 0]


def test_expand_model_validation_errors():
    model = make_model()
    with pytest.raises(ValueError, match="already explicit"):
        expand_model(model, {"w0": [(3, 1.0)]})
    with pytest.raises(ValueError, match="empty candidate"):
        expand_model(model, {"w4": []})
    with pytest.raises(ValueError, match="outside explicit"):
        expand_model(model, {"w4": [(model.n_explicit, 1.0)]})
    with pytest.raises(ValueError, match="outside explicit"):
        expand_model(model, {"w4": [(-1, 1.0)]})


def test_expand_with_embeddings_reports_skips():
    model = make_model(seed=2)
    rng = np.random.default_rng(0)
    table = ["w0", "w1", "w2", "w3", "w4", "w5"]
    emb = WordEmbeddings(table, rng.normal(size=(6, 4)))
    expanded, report = expand_with_embeddings(
        model, ["w0", "w4", "w5", "w6"], emb, k=2
    )
    assert report.expanded == ["w4", "w5"]
    assert ("w0", SKIP_IN_SHORTLIST) in report.skipped
    assert ("w6", SKIP_NO_VECTOR) in report.skipped
    assert expanded.n_explicit == model.n_explicit + 2
    for word in ("w4", "w5"):
        assert len(report.candidates[word]) == 2
        for name, wt in report.candidates[word]:
            assert model.vocab.is_shortlist(name)
            assert wt == 1.0
    d = report.to_dict()
    assert d["expanded"] == ["w4", "w5"]
    assert d["explicit_before"] == model.n_explicit


def test_weighted_plan_uses_cosine_weights():
    vocab = make_vocab()
    emb = WordEmbeddings(
        ["w0", "w1", "w4"],
        np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 0.2]]),
    )
    plan, skipped = build_candidate_plan(["w4"], emb, vocab, k=2, weighted=True)
    assert not skipped
    entries = plan["w4"]
    assert [vocab.decode(w) for w, _ in entries] == ["w0", "w1"]
    target = emb.vector("w4")
    for wid, wt in entries:
        v = emb.vector(vocab.decode(wid))
        cos = float(np.dot(target, v) / (np.linalg.norm(target) * np.linalg.norm(v)))
        assert wt == pytest.approx(cos, rel=1e-12)


# ----------------------------------------------------------------- policies


@pytest.fixture(scope="module")
def policy_setup():
    """A 10-word vocabulary, a shortlist model, and a matching n-gram model."""
    words = list(RESERVED) + [f"w{i}" for i in range(7)]
    full_vocab = Vocabulary(words, shortlist_size=7)  # w4, w5, w6 out of shortlist
    model = init_model(full_vocab, embed_dim=4, hidden_dim=5, num_layers=1, seed=4)
    corpus = [
        ["w0", "w4", "w1", "w5"],
        ["w2", "w6", "w0"],
        ["w4", "w5", "w6", "w3"],
        ["w1", "w0", "w2", "w4"],
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        ngram = train_kn(corpus, full_vocab, order=3)
    return model, full_vocab, ngram


def contexts_to_probe(model):
    histories = [[], ["w0"], ["w0", "w4"], ["w2", "w6", "w1"]]
    probes = []
    for history in histories:
        state = zero_state(model)
        feed = [BOS_ID] + [model.vocab.encode(t, shortlist_only=True) for t in history]
        for w in feed:
            state = forward_step(model, w, state).state
        probes.append((history, state))
    return probes


def test_uniform_policy_accounting_identity(policy_setup):
    model, full_vocab, _ = policy_setup
    scorer = FullVocabScorer(model, "uniform", full_vocab)
    assert scorer.n_oos == 3
    for history, state in contexts_to_probe(model):
        logits = forward_step(model, BOS_ID, state).logits
        unk_p = softmax(logits)[UNK_ID]
        total = sum(
            math.exp(scorer.word_logprob(logits, w, history))
            for w in full_vocab.words
            if w != UNK
        )
        assert total + unk_p / (scorer.n_oos + 1) == pytest.approx(1.0, abs=1e-9)


def test_ngram_policy_accounting_identity(policy_setup):
    model, full_vocab, ngram = policy_setup
    scorer = FullVocabScorer(model, "ngram", full_vocab, ngram=ngram)
    for history, state in contexts_to_probe(model):
        logits = forward_step(model, BOS_ID, state).logits
        total = sum(
            math.exp(scorer.word_logprob(logits, w, history))
            for w in full_vocab.words
            if w != UNK
        )
        assert total == pytest.approx(1.0, abs=1e-9)


def test_shortlist_policy_scores_oos_as_unk(policy_setup):
    model, full_vocab, _ = policy_setup
    scorer = FullVocabScorer(model, "shortlist", full_vocab)
    logits = forward_step(model, BOS_ID, zero_state(model)).logits
    unk_lp = float(log_softmax(logits)[UNK_ID])
    for w in ("w4", "w5", "w6"):
        assert scorer.word_logprob(logits, w) == unk_lp


def test_ngram_policy_tracks_context(policy_setup):
    model, full_vocab, ngram = policy_setup
    scorer = FullVocabScorer(model, "ngram", full_vocab, ngram=ngram)
    logits = forward_step(model, BOS_ID, zero_state(model)).logits
    a = scorer.word_logprob(logits, "w4", ["w0"])
    b = scorer.word_logprob(logits, "w4", ["w2", "w6"])
    assert a != b  # share depends on the n-gram context


def test_policy_validation(policy_setup):
    model, full_vocab, ngram = policy_setup
    with pytest.raises(ValueError, match="policy"):
        FullVocabScorer(model, "magic", full_vocab)
    with pytest.raises(ValueError, match="n-gram"):
        FullVocabScorer(model, "ngram", full_vocab)


def test_words_beyond_full_vocab_take_unseen_share(policy_setup):
    """Garbage hypothesis tokens must still score under every policy."""
    model, full_vocab, ngram = policy_setup
    logits = forward_step(model, BOS_ID, zero_state(model)).logits
    unk_lp = float(log_softmax(logits)[UNK_ID])

    scorer = FullVocabScorer(model, "shortlist", full_vocab)
    assert scorer.word_logprob(logits, "unheard-of") == unk_lp

    scorer = FullVocabScorer(model, "uniform", full_vocab)
    assert scorer.word_logprob(logits, "unheard-of") == pytest.approx(
        unk_lp - math.log(scorer.n_oos + 1)
    )

    scorer = FullVocabScorer(model, "ngram", full_vocab, ngram=ngram)
    got = scorer.word_logprob(logits, "unheard-of", ["w0"])
    assert math.isfinite(got) and got < unk_lp


def test_score_tokens_feeds_unk_for_oos(policy_setup):
    model, full_vocab, _ = policy_setup
    scorer = FullVocabScorer(model, "uniform", full_vocab)
    lps = scorer.score_tokens(["w0", "w4", "w1"])
    assert lps.shape == (4,)

    uniform_shift = math.log(scorer.n_oos + 1)
    state = zero_state(model)
    expected = []
    for feed, target in [
        (BOS_ID, "w0"),
        (full_vocab.encode("w0"), "w4"),
        (UNK_ID, "w1"),
        (full_vocab.encode("w1"), None),
    ]:
        step = forward_step(model, feed, state)
        logp = log_softmax(step.logits)
        if target is None:
            expected.append(float(logp[EOS_ID]))
        elif full_vocab.is_shortlist(target):
            expected.append(float(logp[full_vocab.encode(target)]))
        else:
            expected.append(float(logp[UNK_ID]) - uniform_shift)
        state = step.state
    np.testing.assert_array_equal(lps, expected)


def test_scorer_shortlist_matches_plain_scoring(policy_setup):
    model, full_vocab, _ = policy_setup
    scorer = FullVocabScorer(model, "shortlist", full_vocab)
    tokens = ["w0", "w4", "w2"]
    ids = [full_vocab.encode(t, shortlist_only=True) for t in tokens]
    np.testing.assert_array_equal(scorer.score_tokens(tokens), score_sentence(model, ids))


def test_empty_hypothesis_scores_sentence_end(policy_setup):
    model, full_vocab, _ = policy_setup
    scorer = FullVocabScorer(model, "uniform", full_vocab)
    step = forward_step(model, BOS_ID, zero_state(model))
    assert scorer.batch_logprob([[]]) == [
        pytest.approx(float(log_softmax(step.logits)[EOS_ID]), rel=1e-12)
    ]


def test_corpus_perplexity_uses_policy(policy_setup):
    model, full_vocab, ngram = policy_setup
    corpus = [["w0", "w4"], ["w6", "w1", "w5"]]
    for policy, extra in (("uniform", None), ("ngram", ngram), ("shortlist", None)):
        scorer = FullVocabScorer(model, policy, full_vocab, ngram=extra)
        manual = []
        for s in corpus:
            manual.extend(scorer.score_tokens(s))
        batched = scorer.score_batch(corpus)
        assert [b.tobytes() for b in batched] == [scorer.score_tokens(s).tobytes() for s in corpus]
        assert scorer.batch_logprob(corpus) == [float(b.sum()) for b in batched]
        assert scorer.corpus_perplexity(corpus) == pytest.approx(
            math.exp(-np.mean(manual)), rel=1e-12
        )
        with pytest.raises(ValueError, match="no scoreable tokens"):
            scorer.corpus_perplexity([])


def test_expanded_model_scores_new_word_explicitly(policy_setup):
    """After expansion the policy no longer applies to the new word."""
    model, full_vocab, _ = policy_setup
    expanded, _ = expand_model(model, {"w4": [(3, 1.0), (4, 1.0)]})
    scorer = FullVocabScorer(expanded, "uniform", full_vocab)
    assert scorer.n_oos == 2  # w5, w6 remain outside
    logits = forward_step(expanded, BOS_ID, zero_state(expanded)).logits
    got = scorer.word_logprob(logits, "w4")
    assert got == pytest.approx(
        float(log_softmax(logits)[expanded.vocab.encode("w4")]), rel=1e-12
    )
