"""LSTM language model: cell math, scoring, gradients, checkpoints, training.

The cell oracle is pure Python floats so a numpy indexing or transpose slip
in the implementation cannot cancel out in the test.  Gate rows are packed
[input; forget; output; candidate].
"""

from __future__ import annotations

import hashlib
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmexpand.expansion import expand_model
from lmexpand.rnnlm import (
    MAGIC,
    RnnState,
    TrainConfig,
    TrainingDivergedError,
    corpus_perplexity,
    forward_step,
    init_model,
    load_checkpoint,
    log_softmax,
    loss_and_grads,
    named_parameters,
    perplexity,
    _BLOCK_ROWS,
    _project,
    _sigmoid,
    save_checkpoint,
    score_batch,
    score_ids,
    softmax,
    train_bptt,
    zero_state,
)
from lmexpand.vocab import BOS_ID, EOS_ID, RESERVED, UNK_ID, Vocabulary, build_vocabulary


def small_vocab(n_words=5, shortlist=None):
    words = list(RESERVED) + [f"w{i}" for i in range(n_words)]
    return Vocabulary(words, shortlist or len(words))


# ---------------------------------------------------------------- cell math


def scalar_lstm_step(w_in, w_rec, bias, x, h_prev, c_prev):
    """One LSTM step with Python floats only."""
    hid = len(h_prev)

    def dot(row, vec):
        return sum(float(a) * float(b) for a, b in zip(row, vec))

    def sig(v):
        return 1.0 / (1.0 + math.exp(-v))

    z = [dot(w_in[r], x) + dot(w_rec[r], h_prev) + float(bias[r]) for r in range(4 * hid)]
    i = [sig(z[r]) for r in range(hid)]
    f = [sig(z[hid + r]) for r in range(hid)]
    o = [sig(z[2 * hid + r]) for r in range(hid)]
    g = [math.tanh(z[3 * hid + r]) for r in range(hid)]
    c = [f[r] * float(c_prev[r]) + i[r] * g[r] for r in range(hid)]
    h = [o[r] * math.tanh(c[r]) for r in range(hid)]
    return h, c


def test_forward_step_matches_scalar_oracle():
    vocab = small_vocab(4)
    model = init_model(vocab, embed_dim=3, hidden_dim=2, num_layers=2, seed=7)
    rng = np.random.default_rng(3)
    state = RnnState(h=rng.normal(size=(2, 2)), c=rng.normal(size=(2, 2)))

    word = vocab.encode("w2")
    out = forward_step(model, word, state)

    x = [float(v) for v in model.input_embed[word]]
    hs, cs = [], []
    for l, layer in enumerate(model.layers):
        h, c = scalar_lstm_step(layer.w_in, layer.w_rec, layer.bias, x, state.h[l], state.c[l])
        hs.append(h)
        cs.append(c)
        x = h
    logits = [
        sum(float(a) * b for a, b in zip(model.output_embed[r], x)) + float(model.output_bias[r])
        for r in range(len(vocab))
    ]
    np.testing.assert_allclose(out.state.h, np.array(hs), rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(out.state.c, np.array(cs), rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(out.logits, np.array(logits), rtol=1e-12, atol=1e-14)


def test_zero_weights_give_zero_hidden_and_logits():
    vocab = small_vocab(3)
    model = init_model(vocab, embed_dim=4, hidden_dim=3, num_layers=2, seed=0)
    for _, arr in named_parameters(model):
        arr[...] = 0.0
    out = forward_step(model, BOS_ID, zero_state(model))
    # gates sit at 0.5 but the candidate is tanh(0) = 0, so nothing moves
    np.testing.assert_array_equal(out.state.h, 0.0)
    np.testing.assert_array_equal(out.state.c, 0.0)
    np.testing.assert_array_equal(out.logits, 0.0)


def masked_sigmoid(x):
    """The split formula evaluated on each sign's elements separately."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_is_bitwise_the_masked_formula():
    rng = np.random.default_rng(4)
    special = np.array(
        [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324, 709.8, -709.8, 745.2, -745.2]
    )
    for x in (
        special,
        np.linspace(-800.0, 800.0, 16001),
        rng.normal(scale=30.0, size=(32, 96)),
        rng.normal(size=96),
    ):
        with np.errstate(all="ignore"):
            expected = masked_sigmoid(x)
        assert _sigmoid(x).tobytes() == expected.tobytes()


def test_forward_step_rejects_out_of_range_ids():
    vocab = small_vocab(3)
    model = init_model(vocab, 3, 2, 1)
    with pytest.raises(IndexError):
        forward_step(model, len(vocab), zero_state(model))
    with pytest.raises(IndexError):
        forward_step(model, -1, zero_state(model))


def test_tail_ids_are_rejected_when_shortlist_limited():
    vocab = small_vocab(5, shortlist=6)  # ids 6, 7 exist but are implicit
    model = init_model(vocab, 3, 2, 1)
    with pytest.raises(IndexError):
        forward_step(model, 6, zero_state(model))


# ------------------------------------------------------------ distributions


def test_softmax_sums_to_one_under_extreme_logits():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        x = rng.uniform(-1e4, 1e4, size=int(rng.integers(2, 40)))
        p = softmax(x)
        assert abs(p.sum() - 1.0) < 1e-12
        assert np.all(p >= 0.0)
        assert np.all(np.isfinite(log_softmax(x)))


def test_log_softmax_agrees_with_softmax():
    x = np.array([3.0, -2.0, 0.5, 11.0])
    np.testing.assert_allclose(np.exp(log_softmax(x)), softmax(x), rtol=1e-13)


def test_score_ids_matches_stepwise_chain():
    vocab = small_vocab(6)
    model = init_model(vocab, 4, 3, 2, seed=5)
    ids = [vocab.encode(w) for w in ["w3", "w0", "w0", "w5"]]
    got = score_ids(model, ids)

    state = zero_state(model)
    expected = []
    for w_in, w_next in zip([BOS_ID] + ids, ids + [EOS_ID]):
        step = forward_step(model, w_in, state)
        shifted = step.logits - step.logits.max()
        p = math.exp(shifted[w_next]) / np.exp(shifted).sum()
        expected.append(math.log(p))
        state = step.state
    assert len(got) == len(ids) + 1
    np.testing.assert_allclose(got, expected, rtol=1e-10)


def test_score_ids_of_empty_sentence_is_sentence_end():
    model = init_model(small_vocab(), 4, 5, 1, seed=0)
    step = forward_step(model, BOS_ID, zero_state(model))
    np.testing.assert_array_equal(score_ids(model, []), [log_softmax(step.logits)[EOS_ID]])


def sharp_model(num_layers, seed):
    """A model with order-one logits, where summation-order slips show;
    w28 and w29 are outside its shortlist."""
    model = init_model(small_vocab(30, shortlist=31), 6, 8, num_layers, seed=seed)
    for layer in model.layers:
        layer.w_in *= 30.0
        layer.w_rec *= 30.0
    model.output_embed *= 60.0
    return model


BATCH_MODELS = [sharp_model(1, 1), sharp_model(2, 2)]
BATCH_MODELS.append(
    expand_model(BATCH_MODELS[1], {"w28": [(5, 1.0), (9, 2.0)], "w29": [(12, 1.0)]})[0]
)


@st.composite
def sentence_sets(draw):
    """Sentences that share prefixes, repeat, and may be empty."""
    word = st.integers(0, 32)
    roots = draw(st.lists(st.lists(word, max_size=6), min_size=1, max_size=4))
    out = []
    for _ in range(draw(st.integers(1, 12))):
        root = draw(st.sampled_from(roots))
        cut = draw(st.integers(0, len(root)))
        out.append(root[:cut] + draw(st.lists(word, max_size=3)))
    return out + draw(st.lists(st.sampled_from(out), max_size=3))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(range(len(BATCH_MODELS))), sentence_sets())
def test_score_batch_is_bitwise_score_ids(which, sentences):
    model = BATCH_MODELS[which]
    sentences = [[w % model.n_explicit for w in s] for s in sentences]
    got = score_batch(model, sentences)
    assert len(got) == len(sentences)
    for ids, scores in zip(sentences, got):
        assert scores.tobytes() == score_ids(model, ids).tobytes()


def test_score_batch_crosses_row_blocks_bitwise():
    # more distinct prefixes per depth than one block holds
    model = BATCH_MODELS[2]
    rng = np.random.default_rng(3)
    sentences = [
        [int(w) for w in rng.integers(0, model.n_explicit, size=rng.integers(2, 6))]
        for _ in range(3 * _BLOCK_ROWS)
    ]
    sentences += [[], sentences[5][:1], sentences[7]]
    assert len({tuple(s[:2]) for s in sentences}) > 2 * _BLOCK_ROWS
    for ids, scores in zip(sentences, score_batch(model, sentences)):
        assert scores.tobytes() == score_ids(model, ids).tobytes()


@st.composite
def projections(draw):
    """A weight table w, a batch x, and appended rows for w."""
    k = draw(st.integers(1, 130))
    v = draw(st.integers(1, 400))
    m = draw(st.integers(1, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    # order-one products of mixed magnitude, where summation order shows
    w = rng.standard_normal((v, k)) * rng.choice([1e-3, 1.0, 1e3], size=(v, 1))
    x = rng.standard_normal((m, k))
    extra = rng.standard_normal((draw(st.integers(1, 70)), k))
    return x, w, extra


@settings(max_examples=80, deadline=None)
@given(projections(), st.data())
def test_project_rows_and_columns_are_position_independent(case, data):
    x, w, extra = case
    got = _project(x, w)
    assert got.shape == (len(x), len(w))
    np.testing.assert_allclose(got, x @ w.T, rtol=1e-9, atol=1e-9 * np.abs(w).max())
    row = data.draw(st.integers(0, len(x) - 1))
    alone = _project(x[row], w)
    assert alone.shape == (len(w),)
    assert alone.tobytes() == got[row].tobytes()
    # the same row at another position of another batch size
    size = data.draw(st.integers(1, 3 * len(x) + 9))
    at = data.draw(st.integers(0, size - 1))
    batch = np.random.default_rng(size).standard_normal((size, x.shape[1]))
    batch[at] = x[row]
    assert _project(batch, w)[at].tobytes() == got[row].tobytes()
    # appended rows of w leave the earlier columns bit-identical
    grown = _project(x, np.vstack([w, extra]))
    assert grown[:, : len(w)].tobytes() == np.ascontiguousarray(got).tobytes()


def test_score_batch_edges():
    model = BATCH_MODELS[0]
    assert score_batch(model, []) == []
    assert score_batch(model, [[]])[0].tobytes() == score_ids(model, []).tobytes()
    with pytest.raises(IndexError):
        score_batch(model, [[1], [model.n_explicit]])
    with pytest.raises(IndexError):
        score_batch(model, [[-1]])


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(range(2)),
    st.lists(
        st.lists(st.sampled_from(BATCH_MODELS[0].vocab.words[3:] + ["zz", "<unk>"]), max_size=6),
        min_size=1,
        max_size=10,
    ),
)
def test_corpus_perplexity_is_bitwise_the_per_sentence_reference(which, corpus):
    """One and two layers; empty sentences; tail words (w28, w29) and
    unknown words collapse to <unk>."""
    model = BATCH_MODELS[which]
    vocab = model.vocab
    ids = [[vocab.encode(t) if vocab.is_shortlist(t) else UNK_ID for t in s] for s in corpus]
    want = perplexity(np.concatenate([score_ids(model, s) for s in ids]))
    assert corpus_perplexity(model, corpus) == want


def test_corpus_perplexity_scores_an_empty_sentence_as_sentence_end():
    model = init_model(small_vocab(3), 3, 2, 1)
    assert corpus_perplexity(model, [[]]) == perplexity(score_ids(model, []))


def test_perplexity_frozen_value():
    # two events with probabilities 1/2 and 1/4: ppl = sqrt(8)
    assert perplexity(np.log([0.5, 0.25])) == pytest.approx(math.sqrt(8.0))
    with pytest.raises(ValueError):
        perplexity(np.array([]))


def test_corpus_perplexity_of_empty_corpus():
    model = init_model(small_vocab(), 3, 2, 1)
    with pytest.raises(ValueError, match="no scoreable tokens"):
        corpus_perplexity(model, [])


def test_corpus_perplexity_collapses_tail_to_unk():
    vocab = small_vocab(5, shortlist=6)  # w3, w4 outside the shortlist
    model = init_model(vocab, 3, 2, 1, seed=1)
    direct = corpus_perplexity(model, [["w0", "w4"]])
    swapped = corpus_perplexity(model, [["w0", "<unk>"]])
    assert direct == pytest.approx(swapped, rel=1e-12)


# ------------------------------------------------------------------ grads


def test_gradients_match_central_differences():
    vocab = small_vocab(5)
    model = init_model(vocab, embed_dim=5, hidden_dim=4, num_layers=2, seed=9)
    rng = np.random.default_rng(4)
    T, B = 4, 2
    inputs = rng.integers(0, len(vocab), size=(T, B))
    targets = rng.integers(0, len(vocab), size=(T, B))
    h0 = rng.normal(scale=0.3, size=(2, B, 4))
    c0 = rng.normal(scale=0.3, size=(2, B, 4))

    _, grads, _, _ = loss_and_grads(model, inputs, targets, h0, c0, None)

    def loss_only():
        l, _, _, _ = loss_and_grads(model, inputs, targets, h0, c0, None)
        return l

    eps = 1e-5
    worst = 0.0
    for name, arr in named_parameters(model):
        g = grads[name]
        assert g.shape == arr.shape
        for idx in np.ndindex(arr.shape):
            orig = arr[idx]
            arr[idx] = orig + eps
            lp = loss_only()
            arr[idx] = orig - eps
            lm = loss_only()
            arr[idx] = orig
            numeric = (lp - lm) / (2 * eps)
            denom = max(abs(g[idx]), abs(numeric), 1e-3)
            worst = max(worst, abs(g[idx] - numeric) / denom)
    assert worst < 1e-4


def test_all_ones_masks_change_nothing():
    vocab = small_vocab(4)
    model = init_model(vocab, 3, 3, 2, seed=2)
    rng = np.random.default_rng(8)
    T, B = 3, 2
    inputs = rng.integers(0, len(vocab), size=(T, B))
    targets = rng.integers(0, len(vocab), size=(T, B))
    h0 = np.zeros((2, B, 3))
    c0 = np.zeros((2, B, 3))
    ones = [
        [np.ones((B, 3))] + [np.ones((B, 3)) for _ in range(2)] for _ in range(T)
    ]
    bare = loss_and_grads(model, inputs, targets, h0, c0, None)
    masked = loss_and_grads(model, inputs, targets, h0, c0, ones)
    assert bare[0] == masked[0]
    for name in bare[1]:
        np.testing.assert_array_equal(bare[1][name], masked[1][name])


def test_final_state_matches_stepwise_forward():
    vocab = small_vocab(4)
    model = init_model(vocab, 3, 2, 1, seed=6)
    seq = [1, 3, 2, 4]
    inputs = np.array(seq).reshape(-1, 1)
    targets = np.roll(inputs, -1, axis=0)
    _, _, h_t, c_t = loss_and_grads(
        model, inputs, targets, np.zeros((1, 1, 2)), np.zeros((1, 1, 2)), None
    )
    state = zero_state(model)
    for w in seq:
        state = forward_step(model, w, state).state
    np.testing.assert_allclose(h_t[:, 0, :], state.h, rtol=1e-12)
    np.testing.assert_allclose(c_t[:, 0, :], state.c, rtol=1e-12)


@pytest.mark.parametrize(
    "corpus, message",
    [
        ([["w0", "</s>", "w1"], ["w1", "w0"]], "sentence 0: reserved token </s> inside"),
        ([["w0", "w1"], ["w1", "<s>", "w0"]], "sentence 1: reserved token <s> inside"),
    ],
)
def test_train_bptt_rejects_boundary_tokens_inside_a_sentence(corpus, message):
    model = init_model(small_vocab(2), 2, 2, 1, seed=0)
    config = TrainConfig(unroll=2, dropout=0.0, epochs=1, batch=1)
    with pytest.raises(ValueError, match=message):
        train_bptt(model, corpus, config)
    # <unk> stays legal
    _, history = train_bptt(model, [["w0", "<unk>", "w1"]], config)
    assert len(history) == 1 and math.isfinite(history[0])


@pytest.mark.parametrize("field", ["embed_dim", "hidden_dim", "num_layers"])
def test_init_model_rejects_zero_sizes(field):
    sizes = {"embed_dim": 3, "hidden_dim": 2, "num_layers": 1, field: 0}
    with pytest.raises(ValueError, match=f"{field} must be >= 1, got 0"):
        init_model(small_vocab(3), **sizes)


# ------------------------------------------------------------- checkpoints


def checkpoint_model(seed=0):
    corpus = [["w0", "w1", "w2"], ["w1", "w0"]]
    vocab = build_vocabulary(corpus, shortlist_size=5, full_size=6)
    return init_model(vocab, embed_dim=3, hidden_dim=4, num_layers=2, seed=seed)


def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    model = checkpoint_model()
    path = tmp_path / "model.bin"
    save_checkpoint(model, path)
    again = load_checkpoint(path)
    assert again.vocab == model.vocab
    assert again.vocab.shortlist_size == model.vocab.shortlist_size
    for (name, a), (_, b) in zip(named_parameters(model), named_parameters(again)):
        assert a.dtype == b.dtype == np.float64, name
        assert a.tobytes() == b.tobytes(), name
        assert b.flags.c_contiguous, name
    # weights scaled to give order-one logits, as after training: there a
    # matrix reloaded in another memory layout changes BLAS summation order
    # and with it the last bits of the scores
    wide = init_model(model.vocab, embed_dim=16, hidden_dim=32, num_layers=2, seed=0)
    for _, arr in named_parameters(wide):
        arr *= 20.0
    save_checkpoint(wide, path)
    again = load_checkpoint(path)
    corpus = [["w0", "w1", "w2"], ["w2", "w0", "w1", "w1"]]
    for sentence in corpus:
        ids = [wide.vocab.encode(t, shortlist_only=True) for t in sentence]
        np.testing.assert_array_equal(score_ids(again, ids), score_ids(wide, ids))
    assert corpus_perplexity(again, corpus) == corpus_perplexity(wide, corpus)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 9),  # embed_dim
    st.integers(1, 9),  # hidden_dim
    st.integers(1, 3),  # layers
    st.integers(3, 12),  # shortlist size
    st.integers(0, 4),  # tail size
    st.integers(0, 2**32 - 1),
    st.data(),
)
def test_checkpoint_round_trip_property(embed, hidden, layers, shortlist, tail, seed, data):
    model = init_model(small_vocab(shortlist + tail - 3, shortlist), embed, hidden, layers, seed)
    for _, arr in named_parameters(model):
        arr *= 20.0  # order-one logits, where a changed summation order shows
    word = st.integers(0, model.n_explicit - 1)
    sentences = data.draw(st.lists(st.lists(word, max_size=5), min_size=1, max_size=6))
    with tempfile.TemporaryDirectory() as tmp:
        path, copy = Path(tmp) / "m.bin", Path(tmp) / "again.bin"
        save_checkpoint(model, path)
        again = load_checkpoint(path)
        save_checkpoint(again, copy)
        assert copy.read_bytes() == path.read_bytes()
    assert again.vocab == model.vocab
    for (name, a), (_, b) in zip(named_parameters(model), named_parameters(again)):
        assert a.tobytes() == b.tobytes(), name
    for got, want in zip(score_batch(again, sentences), score_batch(model, sentences)):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("block", ["layers.0.w_rec", "layers.1.bias", "output_embed"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_checkpoint_rejects_non_finite_weights(tmp_path, block, bad):
    model = checkpoint_model()
    dict(named_parameters(model))[block].flat[1] = bad
    path = tmp_path / "model.bin"
    save_checkpoint(model, path)
    with pytest.raises(ValueError, match=f"non-finite value in checkpoint block {block}"):
        load_checkpoint(path)


@pytest.mark.parametrize("slot, field", [(0, "embed_dim"), (1, "hidden_dim"), (2, "num_layers")])
def test_checkpoint_rejects_zero_sizes(tmp_path, slot, field):
    path = tmp_path / "model.bin"
    save_checkpoint(checkpoint_model(), path)
    raw = bytearray(path.read_bytes())
    header = len(MAGIC) + 4 * slot
    raw[header : header + 4] = bytes(4)
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match=f"bad checkpoint header: {field} must be >= 1, got 0"):
        load_checkpoint(path)


def test_checkpoint_rejects_wrong_magic(tmp_path):
    model = checkpoint_model()
    path = tmp_path / "model.bin"
    save_checkpoint(model, path)
    raw = bytearray(path.read_bytes())
    assert raw[: len(MAGIC)] == MAGIC
    raw[0] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="magic"):
        load_checkpoint(path)


def test_checkpoint_rejects_truncation(tmp_path):
    model = checkpoint_model()
    path = tmp_path / "model.bin"
    save_checkpoint(model, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-10])
    with pytest.raises(ValueError, match="truncat"):
        load_checkpoint(path)


def test_checkpoint_rejects_trailing_garbage(tmp_path):
    model = checkpoint_model()
    path = tmp_path / "model.bin"
    save_checkpoint(model, path)
    path.write_bytes(path.read_bytes() + b"xx")
    with pytest.raises(ValueError, match="trailing"):
        load_checkpoint(path)


# ---------------------------------------------------------------- training


def pattern_corpus(n=60, seed=0):
    """Sentences with a learnable rule: w_k is always followed by w_{k+1 mod 4}."""
    rng = np.random.default_rng(seed)
    corpus = []
    for _ in range(n):
        start = int(rng.integers(0, 4))
        length = int(rng.integers(3, 7))
        corpus.append([f"w{(start + j) % 4}" for j in range(length)])
    return corpus


def test_training_reduces_perplexity():
    corpus = pattern_corpus()
    vocab = build_vocabulary(corpus, 7, 7)
    model = init_model(vocab, embed_dim=8, hidden_dim=12, num_layers=1, seed=0)
    before = corpus_perplexity(model, corpus)
    cfg = TrainConfig(unroll=8, dropout=0.0, lr=0.5, epochs=4, batch=4, seed=0)
    model, history = train_bptt(model, corpus, cfg)
    after = corpus_perplexity(model, corpus)
    assert after < before * 0.8
    assert len(history) >= 1
    assert history[-1] == pytest.approx(min(history), rel=1e-9)


def test_training_is_deterministic(tmp_path):
    corpus = pattern_corpus(30)
    vocab = build_vocabulary(corpus, 7, 7)
    paths = []
    for run in range(2):
        model = init_model(vocab, 6, 8, 2, seed=3)
        cfg = TrainConfig(unroll=5, dropout=0.3, lr=0.4, epochs=2, batch=3, seed=11)
        model, _ = train_bptt(model, corpus, cfg)
        p = tmp_path / f"run{run}.bin"
        save_checkpoint(model, p)
        paths.append(p)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_validation_corpus_drives_history():
    corpus = pattern_corpus(40)
    val = pattern_corpus(10, seed=99)
    vocab = build_vocabulary(corpus, 7, 7)
    model = init_model(vocab, 6, 8, 1, seed=0)
    cfg = TrainConfig(unroll=6, dropout=0.0, lr=0.5, epochs=2, batch=4, seed=0)
    model, history = train_bptt(model, corpus, cfg, val_corpus=val)
    assert history and all(np.isfinite(h) for h in history)
    assert history[-1] == pytest.approx(corpus_perplexity(model, val), rel=1e-9)


def test_validated_training_run_is_pinned(tmp_path):
    """History (one halving, then the early stop) and checkpoint bytes of
    a run whose validation corpus has tail, unknown and empty sentences."""
    corpus = pattern_corpus(40) + [["w0", "w9", "w1"], ["w2", "w8", "w3"], ["w9"]]
    val = pattern_corpus(12, seed=5) + [["w1", "w9", "zz"], [], ["w8"]]
    vocab = build_vocabulary(corpus, 7, 9)  # w9 and w8 are outside the shortlist
    model = init_model(vocab, 6, 8, 2, seed=4)
    cfg = TrainConfig(unroll=6, dropout=0.2, lr=3.0, epochs=5, batch=4, seed=2)
    model, history = train_bptt(model, corpus, cfg, val_corpus=val)
    assert repr(history) == (
        "[5.846596785813687, 5.822621678086635, 5.727360166893797, 5.727731842286881]"
    )
    save_checkpoint(model, tmp_path / "m.bin")
    assert hashlib.sha256((tmp_path / "m.bin").read_bytes()).hexdigest() == (
        "3a4b5eb28db7e114b8b8d81c26dbf6147624f563bffc4b0281cac54b55ced610"
    )


def test_non_finite_loss_raises():
    corpus = pattern_corpus(10)
    vocab = build_vocabulary(corpus, 7, 7)
    model = init_model(vocab, 5, 6, 1, seed=0)
    model.output_bias[:] = np.nan
    with pytest.raises(TrainingDivergedError):
        train_bptt(model, corpus, TrainConfig(epochs=1, dropout=0.0, batch=2))


def test_empty_validation_corpus_is_rejected():
    corpus = pattern_corpus(10)
    model = init_model(build_vocabulary(corpus, 7, 7), 3, 2, 1)
    with pytest.raises(ValueError, match="no scoreable tokens"):
        train_bptt(model, corpus, TrainConfig(epochs=1, dropout=0.0, batch=2), val_corpus=[])


@pytest.mark.parametrize("setting, value", [("unroll", 0), ("unroll", -1), ("batch", 0)])
def test_out_of_range_settings_are_named(setting, value):
    corpus = pattern_corpus(10)
    model = init_model(build_vocabulary(corpus, 7, 7), 3, 2, 1)
    cfg = TrainConfig(epochs=1, dropout=0.0, **{setting: value})
    with pytest.raises(ValueError, match=f"{setting} must be >= 1, got {value}"):
        train_bptt(model, corpus, cfg)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_training_perplexity_raises():
    # a huge but finite loss: math.exp of the mean overflows
    corpus = [["a", "b", "c"], ["b", "c", "a", "a"], ["c", "a"]]
    model = init_model(build_vocabulary(corpus, 6, 6), 2, 2, 1, seed=0)
    cfg = TrainConfig(lr=1e300, clip=1e300, dropout=0.0, epochs=3, batch=2, unroll=3)
    with pytest.raises(TrainingDivergedError, match="overflows"):
        train_bptt(model, corpus, cfg)
