"""Vocabulary expansion and full-vocabulary probability policies.

The two load-bearing properties:

  * expanding never changes any original word's logit, bitwise;
  * a synthesized word's logit equals the weighted mean of its candidates'
    logits in every state, because the same candidates and weights build
    the input column, the output column and the bias entry.
"""

from __future__ import annotations

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmexpand.expansion import (
    _weighted_means,
    POLICIES,
    SKIP_IN_SHORTLIST,
    SKIP_NO_VECTOR,
    ExpansionReport,
    FullVocabScorer,
    build_candidate_plan,
    expand_model,
    expand_with_embeddings,
    extract_oos_words,
)
from lmexpand.ngram import import_arpa, train_kn
from lmexpand.rescoring import Hypothesis
from lmexpand.rnnlm import (
    RnnState,
    _project,
    _step,
    forward_step,
    init_model,
    log_softmax,
    named_parameters,
    zero_state,
)
from lmexpand import skipgram
from lmexpand.skipgram import WordEmbeddings, nearest_in_shortlist
from lmexpand.vocab import (
    BOS,
    BOS_ID,
    EOS,
    EOS_ID,
    RESERVED,
    UNK,
    UNK_ID,
    TokenTable,
    Vocabulary,
    build_vocabulary,
)

from test_ngram import walk_logprob
from test_rnnlm import score_ids, softmax


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


def synthesize_vector(vectors, weights) -> np.ndarray:
    """Weighted mean of one word's candidate columns, plain mean when the
    weights are equal, computed for that row alone: the reference each row
    of the batched ``_weighted_means`` is held to."""
    if len(vectors) == 0:
        raise ValueError("no candidate vectors")
    if len(vectors) != len(weights):
        raise ValueError("weights and vectors differ in length")
    arrays = [np.asarray(v, dtype=float) for v in vectors]
    if len({a.shape for a in arrays}) != 1:
        raise ValueError("candidate vectors differ in dimension")
    [row] = _weighted_means(np.stack(arrays)[None], np.asarray(weights, dtype=float)[None])
    return row


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
    la, ha, ca = _step(model, _project(model.input_embed[ids], model.layers[0].w_in), h, c)
    z = _project(expanded.input_embed[ids], expanded.layers[0].w_in)
    lb, hb, cb = _step(expanded, z, h, c)
    assert la.tobytes() == np.ascontiguousarray(lb[:, :50]).tobytes()
    assert ha.tobytes() == hb.tobytes() and ca.tobytes() == cb.tobytes()
    for row in range(batch):
        state = RnnState(h=h[:, row].copy(), c=c[:, row].copy())
        assert forward_step(model, int(ids[row]), state).logits.tobytes() == la[row].tobytes()


def test_new_rows_match_per_block_synthesis():
    """One synthesis over [input | output | bias] gives the input and output
    rows bit for bit.  The bias may round differently, because numpy sums a
    lone column pairwise; it stays within the recursive-summation error
    bound, n * eps times the weighted mean of the candidates' |bias|."""
    rng = np.random.default_rng(3)
    words = [f"w{i:02d}" for i in range(40)] + [f"n{i}" for i in range(6)]
    vocab = Vocabulary(list(RESERVED) + words, shortlist_size=43)
    model = init_model(vocab, embed_dim=7, hidden_dim=9, num_layers=1, seed=5)
    model.output_bias[:] = rng.normal(size=model.n_explicit)
    plan = {
        f"n{i}": [(int(w), float(rng.uniform(0.1, 2.0))) for w in rng.choice(43, size=n)]
        for i, n in enumerate((1, 2, 5, 8, 13, 30))
    }
    expanded, _ = expand_model(model, plan)
    for row, entries in enumerate(plan.values(), start=model.n_explicit):
        ids = [wid for wid, _ in entries]
        weights = [wt for _, wt in entries]
        new_in = synthesize_vector([model.input_embed[i] for i in ids], weights)
        new_out = synthesize_vector([model.output_embed[i] for i in ids], weights)
        new_bias = synthesize_vector([model.output_bias[i : i + 1] for i in ids], weights)
        assert expanded.input_embed[row].tobytes() == new_in.tobytes()
        assert expanded.output_embed[row].tobytes() == new_out.tobytes()
        magnitude = np.dot(weights, np.abs(model.output_bias[ids])) / sum(weights)
        bound = len(ids) * np.finfo(float).eps * magnitude
        assert abs(expanded.output_bias[row] - new_bias[0]) <= bound
    assert expanded.input_embed.flags.c_contiguous and expanded.output_embed.flags.c_contiguous


@pytest.mark.parametrize("seed", range(6))
def test_a_ragged_weighted_plan_synthesizes_each_row_as_its_own_mean(seed):
    """A weighted plan drops candidates of similarity <= 0, so its words have
    different numbers of candidates; each new [input | output | bias] row is
    still ``synthesize_vector`` of that row's candidates alone, bit for bit,
    weight sums of more than eight candidates (summed pairwise) included."""
    rng = np.random.default_rng(seed)
    words = [f"w{i:02d}" for i in range(24)] + [f"n{i}" for i in range(12)]
    vocab = Vocabulary(list(RESERVED) + words, shortlist_size=27)
    model = init_model(vocab, embed_dim=7, hidden_dim=9, num_layers=1, seed=seed)
    model.output_bias[:] = rng.normal(size=model.n_explicit)
    emb = WordEmbeddings(words, rng.normal(size=(len(words), 3)))
    plan, _ = build_candidate_plan(words[24:], emb, vocab, k=24, weighted=True)
    sizes = [len(entries) for entries in plan.values()]
    assert len(set(sizes)) > 1 and max(sizes) > 8
    expanded, _ = expand_model(model, plan)
    table = np.hstack([model.input_embed, model.output_embed, model.output_bias[:, None]])
    for row, entries in enumerate(plan.values(), start=model.n_explicit):
        want = synthesize_vector([table[wid] for wid, _ in entries], [wt for _, wt in entries])
        got = [expanded.input_embed[row], expanded.output_embed[row], expanded.output_bias[row]]
        assert np.hstack(got).tobytes() == want.tobytes()


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


def test_report_dict_layout_is_pinned():
    report = ExpansionReport(
        expanded=["w4"],
        skipped=[("w6", SKIP_NO_VECTOR)],
        candidates={"w4": [("w0", 1.0), ("w1", 0.5)]},
        embed_dim=5,
        hidden_dim=6,
        explicit_before=7,
        explicit_after=8,
    )
    assert json.dumps(report.to_dict()) == (
        '{"expanded": ["w4"], "skipped": [["w6", "absent from embedding vocabulary"]],'
        ' "candidates": {"w4": [["w0", 1.0], ["w1", 0.5]]}, "embed_dim": 5,'
        ' "hidden_dim": 6, "explicit_before": 7, "explicit_after": 8}'
    )


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


POLICY_CORPUS = [
    ["w0", "w4", "w1", "w5"],
    ["w2", "w6", "w0"],
    ["w4", "w5", "w6", "w3"],
    ["w1", "w0", "w2", "w4"],
]


def quiet_kn(corpus, vocab, order):
    """``train_kn`` without its warning about degenerate counts-of-counts."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return train_kn(corpus, vocab, order=order)


@pytest.fixture(scope="module")
def policy_setup():
    """A 10-word vocabulary, a shortlist model, and a matching n-gram model."""
    words = list(RESERVED) + [f"w{i}" for i in range(7)]
    full_vocab = Vocabulary(words, shortlist_size=7)  # w4, w5, w6 out of shortlist
    model = init_model(full_vocab, embed_dim=4, hidden_dim=5, num_layers=1, seed=4)
    return model, full_vocab, quiet_kn(POLICY_CORPUS, full_vocab, 3)


def step_logits(model, sentence):
    """The logits after <s> and each prefix of ``sentence``, one forward step
    per word fed (out-of-shortlist words as the unknown token)."""
    state, out = zero_state(model), []
    for w in [BOS_ID] + [model.vocab.encode(t, shortlist_only=True) for t in sentence]:
        step = forward_step(model, w, state)
        state = step.state
        out.append(step.logits)
    return out


def contexts_to_probe(model):
    """(history, the logits after <s> and the history) of each probed history."""
    histories = [[], ["w0"], ["w0", "w4"], ["w2", "w6", "w1"]]
    return [(history, step_logits(model, history)[-1]) for history in histories]


def test_uniform_policy_accounting_identity(policy_setup):
    model, full_vocab, _ = policy_setup
    scorer = FullVocabScorer(model, "uniform", full_vocab)
    assert scorer.n_oos == 3
    for history, logits in contexts_to_probe(model):
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
    for history, logits in contexts_to_probe(model):
        total = sum(
            math.exp(scorer.word_logprob(logits, w, history))
            for w in full_vocab.words
            if w != UNK
        )
        assert total == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize(
    "unigrams, shares",
    [
        # zz alone takes the whole unknown mass although 10^-400 is 0 as a float
        (["-400\tzz"], {"zz": 0.0}),
        (["-400\tzz", "-401\tzy"], {"zz": -math.log1p(0.1), "zy": -math.log(11.0)}),
        # one underflowing word among ordinary ones
        (["-400\tzz", "-1\tzy"], {"zz": -399 * math.log(10.0), "zy": 0.0}),
    ],
)
def test_ngram_share_survives_underflowing_probabilities(tmp_path, unigrams, shares):
    lines = ["-0.3\t</s>", "-0.3\ta", *unigrams]
    arpa = tmp_path / "u.arpa"
    arpa.write_text(
        f"\\data\\\nngram 1={len(lines)}\n\n\\1-grams:\n" + "\n".join(lines) + "\n\n\\end\\\n"
    )
    vocab = Vocabulary([*RESERVED, "a", *shares], shortlist_size=4)
    model = init_model(vocab, 2, 3, 1, seed=0)
    scorer = FullVocabScorer(model, "ngram", vocab, import_arpa(arpa))
    plain = FullVocabScorer(model, "shortlist", vocab)
    for word, share in shares.items():
        [got] = scorer.batch_logprob([["a", word]])
        [unk] = plain.batch_logprob([["a", word]])
        assert math.isfinite(got)
        assert got - unk == pytest.approx(share, abs=1e-9)


def test_ngram_policy_rejects_a_word_the_closed_arpa_lacks(tmp_path):
    arpa = tmp_path / "closed.arpa"
    arpa.write_text("\\data\\\nngram 1=3\n\n\\1-grams:\n-0.3\t</s>\n-0.3\ta\n-1\tzz\n\n\\end\\\n")
    ngram = import_arpa(arpa)
    vocab = Vocabulary([*RESERVED, "a", "zz", "qq"], shortlist_size=4)
    model = init_model(vocab, 2, 3, 1, seed=0)
    with pytest.raises(ValueError, match="'qq' has no unigram"):
        FullVocabScorer(model, "ngram", vocab, ngram)
    for policy in ("uniform", "shortlist"):  # they never read the n-gram model
        [lp] = FullVocabScorer(model, policy, vocab, ngram).batch_logprob([["a", "qq"]])
        assert math.isfinite(lp)
    covered = Vocabulary([*RESERVED, "a", "zz"], shortlist_size=4)
    scorer = FullVocabScorer(model, "ngram", covered, ngram)
    [lp] = scorer.batch_logprob([["a", "zz"]])
    assert math.isfinite(lp)


def test_ngram_policy_names_a_word_beyond_a_closed_arpa(tmp_path):
    # qq is in neither vocabulary, and the ARPA has no <unk> to score it as
    arpa = tmp_path / "closed.arpa"
    arpa.write_text("\\data\\\nngram 1=3\n\n\\1-grams:\n-0.3\t</s>\n-0.3\ta\n-1\tzz\n\n\\end\\\n")
    vocab = Vocabulary([*RESERVED, "a", "zz"], shortlist_size=4)
    model = init_model(vocab, 2, 3, 1, seed=0)
    scorer = FullVocabScorer(model, "ngram", vocab, import_arpa(arpa))
    with pytest.raises(ValueError, match="'qq' has no unigram"):
        scorer.batch_logprob([["a", "qq"]])
    logits = forward_step(model, BOS_ID, zero_state(model)).logits
    with pytest.raises(ValueError, match="'qq' has no unigram"):
        scorer.word_logprob(logits, "qq", ["a"])
    [lp] = scorer.batch_logprob([["a", "zz"]])
    assert math.isfinite(lp)


def reference_oos_share(scorer, word, context):
    """The per-word walk (``test_ngram.walk_logprob``) and log-sum-exp the
    ngram policy share is defined by, after <s> and the sentence so far
    ``context``: the walk reads the last order - 1 of those ids."""
    ng = scorer.ngram
    ctx = (BOS_ID, *map(ng.vocab.encode, context))
    lps = [walk_logprob(ng, ng.vocab.encode(w), ctx) for w in scorer.oos_words]
    top = max(lps)
    log_denom = top + math.log(sum(math.exp(lp - top) for lp in lps))
    return walk_logprob(ng, ng.vocab.encode(word), ctx) - log_denom


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.lists(st.sampled_from("abcdefgh"), min_size=1, max_size=8), min_size=1, max_size=8),
    st.integers(1, 4),
    st.data(),
)
def test_ngram_share_matches_per_word_reference_bit_for_bit(corpus, order, data):
    full_vocab = build_vocabulary(corpus, 3, 11)
    ngram = quiet_kn(corpus, full_vocab, order)
    shortlist = Vocabulary(full_vocab.words, data.draw(st.integers(3, len(full_vocab) - 1)))
    scorer = FullVocabScorer(init_model(shortlist, 2, 3, 1, seed=0), "ngram", full_vocab, ngram)
    tokens = st.sampled_from([BOS, *full_vocab.words[3:], "unheard-of"])
    for context in data.draw(st.lists(st.lists(tokens, max_size=order + 1), min_size=1, max_size=4)):
        for word in [*scorer.oos_words, "unheard-of"]:
            [got] = scorer._oos_shares(TokenTable([[*context, word]]), np.array([len(context)]))
            assert float(got).hex() == reference_oos_share(scorer, word, context).hex()


@pytest.mark.parametrize("order", [1, 2, 3, 4])
@pytest.mark.parametrize("policy", POLICIES)
def test_word_logprob_is_score_tokens_at_every_position(policy_setup, policy, order):
    """Given the logits after <s> and the sentence so far, ``word_logprob``
    scores every position bit for bit as ``score_tokens``: from the first
    word on, where the history is shorter than order - 1, and for a word
    outside even the full vocabulary."""
    model, full_vocab, _ = policy_setup
    scorer = FullVocabScorer(model, policy, full_vocab, quiet_kn(POLICY_CORPUS, full_vocab, order))
    sentences = [
        ["w4"],
        ["w0", "w4"],
        ["w5", "w6", "w4", "w1"],
        ["w2", "unheard-of", "w5"],
        ["w6", "w0", "w5", "w3", "w4"],
        [],
    ]
    for sentence in sentences:
        want = scorer.score_tokens(sentence)
        events = [*sentence, EOS]
        got = [
            scorer.word_logprob(logits, word, sentence[:i])
            for i, (word, logits) in enumerate(zip(events, step_logits(model, sentence)))
        ]
        assert [lp.hex() for lp in got] == [float(lp).hex() for lp in want], sentence


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
    np.testing.assert_array_equal(scorer.score_tokens(tokens), score_ids(model, ids))


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


# ---------------------------------------------- one neighbour table per plan


def per_target_search(emb, target, vocab, k):
    """The search that gathers its shortlist rows anew for each target, the
    target's own row left out: the reference for the shared table."""
    tvec = emb.vector(target)
    ids = [wid for wid, w in enumerate(vocab.shortlist_words[3:], 3) if w != target and w in emb]
    rows = emb.vectors[[emb.index[vocab.words[wid]] for wid in ids]][:, None, :]
    dots = (rows @ tvec)[:, 0]
    norms = np.sqrt((rows @ rows.transpose(0, 2, 1))[:, 0, 0])
    tnorm = float(np.linalg.norm(tvec))
    with np.errstate(divide="ignore", invalid="ignore"):
        sims = np.where((norms == 0.0) | (tnorm == 0.0), 0.0, dots / (tnorm * norms))
    return [(ids[i], float(sims[i])) for i in np.argsort(-sims, kind="stable")[:k]]


def hexed(pairs):
    return [(wid, float(sim).hex()) for wid, sim in pairs]


@st.composite
def neighbour_tables(draw):
    """A vocabulary, an embedding table whose rows are scaled copies of a few
    directions (equal and collinear rows tie exactly) or zero, shortlist and
    tail words without a vector, and words outside the vocabulary."""
    dim = draw(st.sampled_from([1, 2, 3, 8, 16, 24]))
    n_short, n_tail = draw(st.integers(0, 12)), draw(st.integers(0, 5))
    vocab = Vocabulary(
        list(RESERVED) + [f"s{i}" for i in range(n_short)] + [f"t{i}" for i in range(n_tail)],
        shortlist_size=3 + n_short,
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = [rng.normal(size=dim), rng.integers(-2, 3, size=dim).astype(float), np.zeros(dim)]
    table, rows = [], []
    for word in vocab.words[3:] + ["x0", "x1"]:
        base = draw(st.integers(-1, len(pool) - 1))  # -1: no vector
        if base >= 0:
            table.append(word)
            rows.append(pool[base] * draw(st.sampled_from([0.25, 1.0, 3.0, -1.0, -4.0])))
    emb = WordEmbeddings(table, np.array(rows).reshape(len(rows), dim))
    oos = draw(st.lists(st.sampled_from(vocab.words[3:] + ["x0", "x1", "x2"]), unique=True))
    return vocab, emb, oos, draw(st.integers(1, n_short + 2))


@settings(max_examples=150, deadline=None)
@given(neighbour_tables())
def test_candidate_plan_is_the_per_word_search_bit_for_bit(case):
    vocab, emb, oos, k = case
    searched = [w for w in oos if not vocab.is_shortlist(w) and w in emb]
    want = {w: per_target_search(emb, w, vocab, k) for w in searched}
    for w in searched:
        assert hexed(nearest_in_shortlist(emb, w, vocab, k)) == hexed(want[w])
    plan, skipped = build_candidate_plan(oos, emb, vocab, k)
    weighted, skipped_w = build_candidate_plan(oos, emb, vocab, k, weighted=True)
    assert plan == {w: [(wid, 1.0) for wid, _ in want[w]] for w in searched if want[w]}
    assert {w: hexed(e) for w, e in weighted.items()} == {
        w: hexed(p) for w in searched if (p := [(i, s) for i, s in want[w] if s > 0.0])
    }
    assert [w for w, _ in skipped] == [w for w in oos if w not in plan]
    assert [w for w, _ in skipped_w] == [w for w in oos if w not in weighted]
    # a public query may name a shortlist word: it is left out of its own list
    for w in vocab.shortlist_words[3:]:
        if w in emb:
            got = nearest_in_shortlist(emb, w, vocab, k)
            assert hexed(got) == hexed(per_target_search(emb, w, vocab, k))
            assert vocab.encode(w) not in [wid for wid, _ in got]


def test_targets_past_one_block_are_searched_block_by_block(monkeypatch):
    """More targets than one search pass takes are split into passes of
    ``_TARGET_BLOCK`` targets, the last one short, each as the per-word search."""
    rng = np.random.default_rng(11)
    words = [f"s{i}" for i in range(9)] + [f"t{i}" for i in range(7)]
    vocab = Vocabulary(list(RESERVED) + words, shortlist_size=12)
    emb = WordEmbeddings(words, rng.normal(size=(len(words), 4)).round(1))
    monkeypatch.setattr(skipgram, "_TARGET_BLOCK", 3)
    plan, skipped = build_candidate_plan(words[9:], emb, vocab, k=4, weighted=True)
    assert not skipped
    for w in words[9:]:
        want = [(i, s) for i, s in per_target_search(emb, w, vocab, 4) if s > 0.0]
        assert hexed(plan[w]) == hexed(want)

