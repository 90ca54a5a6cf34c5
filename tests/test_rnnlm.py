"""LSTM language model: cell math, scoring, gradients, checkpoints, training.

The cell oracle is pure Python floats so a numpy indexing or transpose slip
in the implementation cannot cancel out in the test.  Gate rows are packed
[input; forget; output; candidate].
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import io
import math
import os
import re
import struct
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lmexpand
from lmexpand import rnnlm
from lmexpand.cli import main
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


def softmax(x: np.ndarray) -> np.ndarray:
    """Probabilities over the last axis, shifted by the maximum: the plain
    formula that ``log_softmax`` is checked against."""
    shifted = x - np.max(x, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


def score_ids(model, ids) -> np.ndarray:
    """The stepwise reference for ``score_batch``: one sentence, one
    ``forward_step`` and one ``log_softmax`` per position, from <s> through
    the sentence-end event."""
    inputs = [BOS_ID] + list(ids)
    targets = list(ids) + [EOS_ID]
    state = zero_state(model)
    out = np.empty(len(targets))
    for pos, (w_in, w_next) in enumerate(zip(inputs, targets)):
        step = forward_step(model, w_in, state)
        out[pos] = log_softmax(step.logits)[w_next]
        state = step.state
    return out


def test_softmax_sums_to_one_under_extreme_logits():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        x = rng.uniform(-1e4, 1e4, size=int(rng.integers(2, 40)))
        p = np.exp(log_softmax(x))
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
    [got] = score_batch(model, [ids])

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
    np.testing.assert_array_equal(score_batch(model, [[]])[0], [log_softmax(step.logits)[EOS_ID]])


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
BATCH_MODELS.append(sharp_model(3, 3))


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


def test_score_batch_two_lanes_are_one_lane_bitwise(monkeypatch):
    """Blocks of 3 rows, so most depths split across both lanes and cross
    block edges, at mixed widths: every entry is the stepwise reference's,
    both threads step, and the worker is gone when the call returns."""
    monkeypatch.setattr(rnnlm, "_BLOCK_ROWS", 3)
    stepped_on = set()

    def step(*args):
        stepped_on.add(threading.get_ident())
        return rnnlm_step(*args)

    rnnlm_step = rnnlm._step
    monkeypatch.setattr(rnnlm, "_step", step)
    model = BATCH_MODELS[2]
    rng = np.random.default_rng(12)
    widths = rng.integers(4, model.n_explicit + 1, size=200)
    sentences = [rng.integers(0, w, size=rng.integers(0, 7)).tolist() for w in widths]
    assert len({tuple(s[:2]) for s in sentences if len(s) >= 2}) > 4 * rnnlm._TILE_ROWS
    threads = threading.active_count()
    got = score_batch(model, sentences, widths)
    assert threading.active_count() == threads
    assert len(stepped_on) == 2
    for ids, width, scores in zip(sentences, widths, got):
        # a model cut to the sentence's width: its logits are the first columns
        cut = dataclasses.replace(
            model, output_embed=model.output_embed[:width], output_bias=model.output_bias[:width]
        )
        assert scores.tobytes() == score_ids(cut, ids).tobytes()


def test_each_lane_normalises_the_blocks_it_steps(monkeypatch):
    """Both threads take ln probabilities, and each takes them only from the
    logits of blocks that it stepped itself."""
    monkeypatch.setattr(rnnlm, "_BLOCK_ROWS", 3)
    made, picked = {}, []
    rnnlm_step, rnnlm_pick = rnnlm._step, rnnlm._pick_log_softmax

    def step(*args):
        out = rnnlm_step(*args)
        made[id(out[0])] = threading.get_ident(), out[0]  # kept alive: ids stay unique
        return out

    def pick(logits, *args):
        picked.append((threading.get_ident(), id(logits)))
        return rnnlm_pick(logits, *args)

    monkeypatch.setattr(rnnlm, "_step", step)
    monkeypatch.setattr(rnnlm, "_pick_log_softmax", pick)
    model = BATCH_MODELS[1]
    rng = np.random.default_rng(14)
    sentences = [rng.integers(0, model.n_explicit, size=5).tolist() for _ in range(120)]
    got = score_batch(model, sentences)
    assert len({thread for thread, _ in picked}) == 2
    assert all(made[logits][0] == thread for thread, logits in picked)
    for ids, scores in zip(sentences, got):
        assert scores.tobytes() == score_ids(model, ids).tobytes()


def test_concurrent_calls_keep_every_lane_write(monkeypatch):
    """Four calls at once, each with its own worker (eight threads), under a
    short switch interval: a lost or crossed write of a state or score row
    would leave an entry unlike the call made alone."""
    monkeypatch.setattr(rnnlm, "_BLOCK_ROWS", 3)
    model = BATCH_MODELS[2]
    rng = np.random.default_rng(15)
    batches = [
        [rng.integers(0, model.n_explicit, size=rng.integers(0, 6)).tolist() for _ in range(80)]
        for _ in range(4)
    ]
    want = [[s.tobytes() for s in score_batch(model, batch)] for batch in batches]
    got = [None] * len(batches)

    def run(i):
        got[i] = [s.tobytes() for s in score_batch(model, batches[i])]

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(batches))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == want


class LaneFailure(RuntimeError):
    pass


def test_a_failure_on_the_second_lane_is_raised_and_leaves_no_thread(monkeypatch):
    caller, rnnlm_step = threading.get_ident(), rnnlm._step

    def step(*args):
        if threading.get_ident() != caller:
            raise LaneFailure("a block of the second half")
        return rnnlm_step(*args)

    monkeypatch.setattr(rnnlm, "_step", step)
    model = BATCH_MODELS[0]
    rng = np.random.default_rng(13)
    sentences = [rng.integers(0, model.n_explicit, size=4).tolist() for _ in range(60)]
    threads = threading.active_count()
    with pytest.raises(LaneFailure, match="second half"):
        score_batch(model, sentences)
    assert threading.active_count() == threads


_SCORE_DIGEST = """
import hashlib
import numpy as np
from lmexpand.rnnlm import init_model, score_batch
from lmexpand.vocab import RESERVED, Vocabulary

words = list(RESERVED) + [f"w{i}" for i in range(297)]
model = init_model(Vocabulary(words, len(words)), 48, 96, 2, seed=4)
for layer in model.layers:
    layer.w_in *= 30.0
    layer.w_rec *= 30.0
model.output_embed *= 60.0
rng = np.random.default_rng(4)
sentences = [rng.integers(0, 300, size=rng.integers(0, 12)).tolist() for _ in range(400)]
print(hashlib.sha256(np.concatenate(score_batch(model, sentences)).tobytes()).hexdigest())
"""


def test_inference_bits_do_not_depend_on_blas_threads():
    """The two lanes of ``score_batch`` rely on every product of the step
    running single-threaded in the lane that calls it: the same batch scores
    to the same bytes with one BLAS thread and with the library's default."""
    src = str(Path(lmexpand.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    digests = []
    for threads in [{"OPENBLAS_NUM_THREADS": "1"}, {}]:
        done = subprocess.run(
            [sys.executable, "-c", _SCORE_DIGEST],
            env={**env, **threads},
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert done.returncode == 0, done.stderr
        digests.append(done.stdout)
    assert len(digests[0]) == 65 and digests[0] == digests[1]


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


@pytest.mark.parametrize("which", [1, 3])  # 2 and 3 layers
def test_layer0_input_products_come_from_one_table_per_call(which, monkeypatch):
    """``score_batch`` projects each distinct input word of the call once, by
    layer 0's ``w_in``, and gathers the rows: on a call that reads only a few
    words and on a one-sentence call, every entry is the stepwise reference's."""
    model = BATCH_MODELS[which]
    w_in, tables = model.layers[0].w_in, []
    rnnlm_project = rnnlm._project

    def project(x, w):
        if w is w_in:
            tables.append(len(x))
        return rnnlm_project(x, w)

    monkeypatch.setattr(rnnlm, "_project", project)
    few = [[5], [5, 5, 7], [7, 5, 5, 5], [], [7]]
    one = [[4, 9, 9, 2, 30, 4]]
    for sentences, read in [(few, {5, 7}), (one, {4, 9, 2, 30})]:
        tables.clear()
        got = score_batch(model, sentences)
        # <s> and </s> have rows too
        assert tables == [len(read) + 2]
        monkeypatch.setattr(rnnlm, "_project", rnnlm_project)
        for ids, scores in zip(sentences, got):
            assert scores.tobytes() == score_ids(model, ids).tobytes()
        monkeypatch.setattr(rnnlm, "_project", project)


def pick_log_softmax(logits, rows, targets, widths) -> np.ndarray:
    """The per-width reference for ``rnnlm._pick_log_softmax``: for each
    distinct width, one max-shift, exponential and sum over every row."""
    out = np.empty(len(rows))
    for width in np.unique(widths):
        mine = widths == width
        shifted = logits[:, :width] - np.max(logits[:, :width], axis=-1, keepdims=True)
        log_norm = np.log(np.sum(np.exp(shifted), axis=-1))
        out[mine] = shifted[rows[mine], targets[mine]] - log_norm[rows[mine]]
    return out


_EXTREMES = [np.inf, -np.inf, 1e308, -1e308, 0.0, -0.0, 700.0, -745.0]


@st.composite
def pick_cases(draw):
    """A block of logits (some entries infinite or huge), 1-3 widths, and
    picks; in about half of the rows a column beyond the narrowest width
    holds the row maximum, so the narrow maximum differs from the widest."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_rows, top = draw(st.integers(1, 12)), draw(st.integers(1, 150))
    spread = draw(st.sampled_from([1e-3, 1.0, 30.0, 1e3]))
    logits = rng.standard_normal((n_rows, top + draw(st.integers(0, 70)))) * spread
    special = rng.random(logits.shape) < draw(st.sampled_from([0.0, 0.02, 0.3]))
    logits[special] = rng.choice(_EXTREMES, size=int(special.sum()))
    widths = sorted(draw(st.sets(st.integers(1, top - 1), max_size=2)) if top > 1 else [])
    widths.append(top)
    if widths[0] < top:
        lifted = rng.random(n_rows) < 0.5
        cols = rng.integers(widths[0], top, size=n_rows)
        logits[lifted, cols[lifted]] = np.max(logits[lifted, :top], axis=-1) + spread
    n = draw(st.integers(1, 20))
    width = rng.choice(widths, size=n)
    rows = rng.integers(0, n_rows, size=n)
    targets = (rng.random(n) * width).astype(np.int64)
    return logits, rows, targets, width


@settings(max_examples=300, deadline=None)
@given(pick_cases())
@example(
    (np.array([[1.0, -np.inf, 5.0], [-0.0, 0.0, -np.inf]]), np.array([0, 1, 1]),
     np.array([0, 0, 1]), np.array([1, 1, 3]))
)
def test_one_exponential_pass_is_the_per_width_reference(case):
    logits, rows, targets, widths = case
    with np.errstate(all="ignore"):  # inf - inf and exp overflow are part of the case
        want = pick_log_softmax(logits, rows, targets, widths)
        got = rnnlm._pick_log_softmax(logits, rows, targets, widths)
    assert got.tobytes() == want.tobytes()


def test_score_batch_edges():
    model = BATCH_MODELS[0]
    assert score_batch(model, []) == []
    assert score_batch(model, [[]])[0].tobytes() == score_ids(model, []).tobytes()
    with pytest.raises(IndexError):
        score_batch(model, [[1], [model.n_explicit]])
    with pytest.raises(IndexError):
        score_batch(model, [[-1]])


@st.composite
def width_cases(draw):
    """A sharp model of 1 or 2 layers, a random expansion of it, and
    sentences of base ids and of expanded ids.  Besides hypothesis' own
    sentences (empty ones included) there are enough random ones that some
    depth holds more than ``_BLOCK_ROWS`` trie nodes."""
    # shortlists on both sides of a 64-column tile edge
    n_base = draw(st.one_of(st.integers(5, 9), st.integers(60, 66)))
    n_tail, layers = draw(st.integers(1, 6)), draw(st.integers(1, 2))
    seed = draw(st.integers(0, 2**32 - 1))
    vocab = small_vocab(n_base - 3 + n_tail, shortlist=n_base)
    model = init_model(vocab, 3, 5, layers, seed=seed % 1000)
    for layer in model.layers:
        layer.w_in *= 30.0
        layer.w_rec *= 30.0
    model.output_embed *= 60.0
    candidate = st.tuples(st.integers(0, n_base - 1), st.floats(0.1, 4.0))
    new_words = draw(st.lists(st.sampled_from(vocab.tail_words), min_size=1, unique=True))
    plan = {word: draw(st.lists(candidate, min_size=1, max_size=3)) for word in new_words}
    expanded, _ = expand_model(model, plan)
    rng = np.random.default_rng(seed)

    def sentences(n_ids):
        drawn = draw(st.lists(st.lists(st.integers(0, n_ids - 1), max_size=7), max_size=6))
        bulk = [rng.integers(0, n_ids, size=rng.integers(4, 8)).tolist() for _ in range(400)]
        return [[], *drawn, *bulk]

    return model, expanded, sentences(n_base), sentences(expanded.n_explicit)


@settings(max_examples=20, deadline=None)
@given(width_cases())
def test_score_batch_at_the_base_width_is_the_base_model_bit_for_bit(case):
    model, expanded, base_ids, grown_ids = case
    assert len({tuple(s[:4]) for s in base_ids if len(s) >= 4}) > _BLOCK_ROWS
    n_base = model.n_explicit
    want = score_batch(model, base_ids)
    got = score_batch(expanded, base_ids, widths=[n_base] * len(base_ids))
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
    # one mixed-width call is the two separate calls
    widths = [n_base] * len(base_ids) + [expanded.n_explicit] * len(grown_ids)
    mixed = score_batch(expanded, base_ids + grown_ids, widths)
    alone = got + score_batch(expanded, grown_ids)
    assert [m.tobytes() for m in mixed] == [a.tobytes() for a in alone]


def test_score_batch_is_bitwise_score_ids_at_a_wide_embedding():
    """At 48 embedding dimensions a plain product rounds differently from
    the tiles; at the few dimensions of the other models here it does not,
    so only a wide embedding shows whether batched steps keep the tiles'
    bits in the layer-0 input product."""
    model = init_model(small_vocab(37), 48, 16, 2, seed=6)
    model.input_embed *= 30.0
    for layer in model.layers:
        layer.w_in *= 30.0
    rng = np.random.default_rng(6)
    sentences = [rng.integers(0, 40, size=rng.integers(0, 6)).tolist() for _ in range(50)]
    for ids, scores in zip(sentences, score_batch(model, sentences)):
        assert scores.tobytes() == score_ids(model, ids).tobytes()


def test_mixed_widths_normalise_each_width_by_its_own_maximum():
    """A grown column that holds the row maximum in some states, which
    expansion itself hardly makes (a new word's logit is a weighted mean of
    its candidates'): a mixed-width call must still normalise each width by
    its own maximum, and equal the separate calls and ``score_ids`` byte for
    byte."""
    model = BATCH_MODELS[1]
    n_base = model.n_explicit
    expanded, _ = expand_model(model, {"w28": [(5, 1.0)], "w29": [(12, 1.0)]})
    # w28's logit is 20 times w9's: far above every base logit where that is
    # positive, far below where it is negative
    expanded.output_embed[n_base] = 20.0 * expanded.output_embed[9]
    rng = np.random.default_rng(8)
    base = [rng.integers(0, n_base, size=rng.integers(0, 6)).tolist() for _ in range(60)]
    grown = base + [rng.integers(0, n_base + 2, size=5).tolist() for _ in range(20)]
    tops = set()
    for ids in base:
        state = zero_state(expanded)
        for w in [BOS_ID] + ids:
            step = forward_step(expanded, w, state)
            tops.add(int(np.argmax(step.logits)) >= n_base)
            state = step.state
    assert tops == {False, True}
    widths = [n_base] * len(base) + [expanded.n_explicit] * len(grown)
    mixed = score_batch(expanded, base + grown, widths)
    alone = score_batch(expanded, base, [n_base] * len(base)) + score_batch(expanded, grown)
    assert [m.tobytes() for m in mixed] == [a.tobytes() for a in alone]
    reference = [score_ids(model, ids) for ids in base]
    reference += [score_ids(expanded, ids) for ids in grown]
    assert [m.tobytes() for m in mixed] == [r.tobytes() for r in reference]


def test_score_batch_rejects_bad_widths():
    model = BATCH_MODELS[0]
    with pytest.raises(ValueError, match="softmax width"):
        score_batch(model, [[3]], widths=[model.n_explicit + 1])
    with pytest.raises(IndexError):
        score_batch(model, [[3], [5]], widths=[4, 5])


@pytest.mark.parametrize(
    "widths, message",
    [
        ([5.5, 6], "softmax widths: 2 float64, not 2 integers"),
        ([6.5, 6], "softmax widths: 2 float64, not 2 integers"),
        ([6], "softmax widths: 1 int64, not 2 integers"),
        ([6, 6, 6], "softmax widths: 3 int64, not 2 integers"),
        (6, "softmax widths: 1 int64, not 2 integers"),
        ([0, 6], "softmax width outside the model's 31 output columns"),
        ([6, 32], "softmax width outside the model's 31 output columns"),
    ],
)
def test_score_batch_checks_widths_up_front(widths, message):
    """One integer width per sentence, each within the model's columns, or
    one ``ValueError`` that names the problem, before any step is taken."""
    model = BATCH_MODELS[0]
    assert model.n_explicit == 31
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        score_batch(model, [[3, 4], [5]], widths)


def test_score_events_is_score_batch_flat():
    """The engine takes each sentence's ids and </s> as one flat run of
    events; lengths that do not cut them into sentences are refused."""
    model = BATCH_MODELS[1]
    sentences = [[4, 9], [], [4, 9, 9, 30]]
    events = [4, 9, EOS_ID, EOS_ID, 4, 9, 9, 30, EOS_ID]
    got = rnnlm.score_events(model, events, [3, 1, 5], [20, 31, 31])
    assert got.tobytes() == np.concatenate(score_batch(model, sentences, [20, 31, 31])).tobytes()
    assert score_batch(model, [], []) == [] and rnnlm.score_events(model, [], []).size == 0
    for lengths in ([3, 0, 1, 5], [3, 1, 4], [3, 1, 6]):
        with pytest.raises(ValueError, match="events do not split into sentences"):
            rnnlm.score_events(model, events, lengths)


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


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 2), st.integers(0, 2**32 - 1), st.lists(st.integers(0, 12), max_size=9))
def test_training_forward_pass_is_the_inference_pass(L, seed, words):
    """A sentence fed to ``loss_and_grads`` as a (T, 1) window from a zero
    state, without dropout, has the loss ``-mean(score_ids)`` and ends in the
    state that the ``forward_step`` chain reaches."""
    rng = np.random.default_rng(seed)
    embed, hidden, n_words = (int(d) for d in rng.integers(1, 8, size=3))
    model = init_model(small_vocab(n_words), embed, hidden, L, seed=seed % 1000)
    ids = [w % model.n_explicit for w in words]
    inputs = np.array([BOS_ID] + ids)[:, None]
    targets = np.array(ids + [EOS_ID])[:, None]
    zeros = np.zeros((L, 1, hidden))
    loss, _, h, c = loss_and_grads(model, inputs, targets, zeros, zeros, None)
    assert loss == pytest.approx(-np.mean(score_ids(model, ids)), rel=1e-12, abs=0)
    state = zero_state(model)
    for w in inputs[:, 0]:
        state = forward_step(model, int(w), state).state
    np.testing.assert_allclose(h[:, 0], state.h, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(c[:, 0], state.c, rtol=1e-12, atol=1e-15)


def reference_loss_and_grads(model, inputs, targets, h0, c0, masks):
    """One step at a time, as ``loss_and_grads`` was first written: the
    reference its window-wide passes must reproduce bit for bit, as
    ``score_ids`` is for ``score_batch``."""
    T, B = inputs.shape
    L, hdim = model.num_layers, model.hidden_dim
    if masks is None:
        masks = [[1.0] * (L + 1)] * T
    h_prev, c_prev = h0.copy(), c0.copy()
    caches, tops, logps = [], [], []
    loss = 0.0
    for t in range(T):
        x = model.input_embed[inputs[t]] * masks[t][0]
        layer_caches = []
        for l, layer in enumerate(model.layers):
            z = x @ layer.w_in.T + h_prev[l] @ layer.w_rec.T + layer.bias
            ifo = _sigmoid(z[:, : 3 * hdim])
            i, f, o = ifo[:, :hdim], ifo[:, hdim : 2 * hdim], ifo[:, 2 * hdim :]
            g = np.tanh(z[:, 3 * hdim :])
            c_new = f * c_prev[l] + i * g
            tc = np.tanh(c_new)
            h_new = o * tc
            layer_caches.append((x, h_prev[l].copy(), c_prev[l].copy(), i, f, o, g, tc))
            h_prev[l] = h_new
            c_prev[l] = c_new
            x = h_new * masks[t][l + 1]
        caches.append(layer_caches)
        tops.append(x)
        logp = log_softmax(x @ model.output_embed.T + model.output_bias)
        logps.append(logp)
        loss -= logp[np.arange(B), targets[t]].sum()
    denom = T * B
    loss /= denom
    grads = {name: np.zeros_like(arr) for name, arr in named_parameters(model)}
    dh_time = np.zeros((L, B, hdim))
    dc_time = np.zeros((L, B, hdim))
    for t in range(T - 1, -1, -1):
        dlogits = np.exp(logps[t])
        dlogits[np.arange(B), targets[t]] -= 1.0
        dlogits /= denom
        grads["output_embed"] += dlogits.T @ tops[t]
        grads["output_bias"] += dlogits.sum(axis=0)
        pending = (dlogits @ model.output_embed) * masks[t][L]
        for l in range(L - 1, -1, -1):
            x_l, h_l_prev, c_l_prev, i, f, o, g, tc = caches[t][l]
            layer = model.layers[l]
            dh = pending + dh_time[l]
            dc = dh * o * (1.0 - tc * tc) + dc_time[l]
            dz = np.concatenate(
                [
                    dc * g * i * (1.0 - i),
                    dc * c_l_prev * f * (1.0 - f),
                    dh * tc * o * (1.0 - o),
                    dc * i * (1.0 - g * g),
                ],
                axis=1,
            )
            grads[f"layers.{l}.w_in"] += dz.T @ x_l
            grads[f"layers.{l}.w_rec"] += dz.T @ h_l_prev
            grads[f"layers.{l}.bias"] += dz.sum(axis=0)
            dh_time[l] = dz @ layer.w_rec
            dc_time[l] = dc * f
            dxin = dz @ layer.w_in
            if l > 0:
                pending = dxin * masks[t][l]
            else:
                np.add.at(grads["input_embed"], inputs[t], dxin * masks[t][0])
    return float(loss), grads, h_prev, c_prev


@settings(max_examples=120, deadline=None)
# windows of 8 rows or more, where numpy's pairwise sums change their grouping
@example(T=16, B=32, L=1, dropout=0.0, scale=1.0, seed=7)
@example(T=3, B=12, L=2, dropout=0.5, scale=30.0, seed=1)
@given(
    st.integers(1, 6),
    st.integers(1, 5),
    st.integers(1, 2),
    st.sampled_from([0.0, 0.5]),
    st.sampled_from([1.0, 30.0]),
    st.integers(0, 2**32 - 1),
)
def test_loss_and_grads_is_bitwise_the_stepwise_reference(T, B, L, dropout, scale, seed):
    rng = np.random.default_rng(seed)
    embed, hidden = (int(d) for d in rng.integers(1, 7, size=2))
    model = init_model(small_vocab(int(rng.integers(1, 9))), embed, hidden, L, seed=seed % 1000)
    for layer in model.layers:  # order-one pre-activations, where order slips show
        layer.w_in *= scale
        layer.w_rec *= scale
    model.output_embed *= 2.0 * scale
    n = model.n_explicit
    inputs = rng.integers(0, n, size=(T, B))
    targets = rng.integers(0, n, size=(T, B))
    h0 = rng.normal(size=(L, B, hidden))
    c0 = rng.normal(size=(L, B, hidden))
    masks = None
    if dropout:
        masks = [
            [(rng.random((B, d)) < 0.5) / 0.5 for d in [embed] + [hidden] * L]
            for _ in range(T)
        ]
    start = h0.tobytes() + c0.tobytes()
    want = reference_loss_and_grads(model, inputs, targets, h0, c0, masks)
    got = loss_and_grads(model, inputs, targets, h0, c0, masks)
    assert h0.tobytes() + c0.tobytes() == start  # the caller's state is not written
    assert repr(got[0]) == repr(want[0])
    assert list(got[1]) == list(want[1])
    for name, grad in want[1].items():
        assert got[1][name].tobytes() == grad.tobytes(), name
    assert got[2].tobytes() == want[2].tobytes()
    assert got[3].tobytes() == want[3].tobytes()


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


def test_train_bptt_rejects_boundary_tokens_inside_a_validation_sentence():
    """Validation sentences obey the training corpus's rule, and the error
    says which corpus holds the bad sentence."""
    model = init_model(small_vocab(2), 2, 2, 1, seed=0)
    config = TrainConfig(unroll=2, dropout=0.0, epochs=1, batch=1)
    message = "validation sentence 1: reserved token </s> inside a sentence"
    with pytest.raises(ValueError, match=f"^{message}$"):
        train_bptt(model, [["w0", "w1"]], config, val_corpus=[["w1"], ["w0", "</s>", "w1"]])


@pytest.mark.parametrize("field", ["embed_dim", "hidden_dim", "num_layers"])
def test_init_model_rejects_zero_sizes(field):
    sizes = {"embed_dim": 3, "hidden_dim": 2, "num_layers": 1, field: 0}
    with pytest.raises(ValueError, match=f"{field} must be >= 1, got 0"):
        init_model(small_vocab(3), **sizes)


def test_init_model_rejects_a_negative_seed():
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        init_model(small_vocab(3), 3, 2, 1, seed=-1)


# ------------------------------------------------------------- checkpoints


def checkpoint_model(seed=0, num_layers=2):
    corpus = [["w0", "w1", "w2"], ["w1", "w0"]]
    vocab = build_vocabulary(corpus, shortlist_size=5, full_size=6)
    return init_model(vocab, embed_dim=3, hidden_dim=4, num_layers=num_layers, seed=seed)


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
    """``save_checkpoint`` refuses such a model, so the bad value is written
    over a marker value in the saved bytes."""
    model = checkpoint_model()
    marker, bad_bytes = struct.pack("<d", 1234.5), struct.pack("<d", bad)
    dict(named_parameters(model))[block].flat[1] = 1234.5
    path = tmp_path / "model.bin"
    save_checkpoint(model, path)
    assert path.read_bytes().count(marker) == 1
    path.write_bytes(path.read_bytes().replace(marker, bad_bytes))
    with pytest.raises(ValueError, match=f"non-finite value in checkpoint block {block}"):
        load_checkpoint(path)


@pytest.mark.parametrize("block", ["input_embed", "layers.0.w_in", "layers.1.bias", "output_bias"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_save_checkpoint_refuses_non_finite_weights(tmp_path, block, bad):
    """``load_checkpoint`` rejects a non-finite parameter, so no file with one
    is written, and the error names its block."""
    model = checkpoint_model()
    dict(named_parameters(model))[block].flat[-1] = bad
    path = tmp_path / "model.bin"
    with pytest.raises(ValueError, match=f"non-finite value in parameter block {block}: not saved"):
        save_checkpoint(model, path)
    assert not path.exists()


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


def test_checkpoint_errors_name_block_and_byte(tmp_path):
    path = tmp_path / "model.bin"
    save_checkpoint(checkpoint_model(), path)
    raw = path.read_bytes()
    # magic, 5 header fields and the vocabulary length, then the vocabulary
    vocab_at = len(MAGIC) + 5 * 4 + 8
    input_at = vocab_at + len(checkpoint_model().vocab.to_text().encode())
    cases = [
        (b"X" + raw[1:], "not a checkpoint file (bad magic): magic at byte 0"),
        (raw[:20], "truncated checkpoint: header at byte 6"),
        (raw[: vocab_at + 3], f"truncated checkpoint: vocabulary at byte {vocab_at}"),
        (raw[:-10], f"truncated checkpoint: output_bias at byte {len(raw) - 40}"),
        (
            raw + b"xx",
            f"checkpoint has 2 unexpected trailing bytes: end at byte {len(raw)}",
        ),
        (
            raw[: input_at + 16] + struct.pack("<d", math.nan) + raw[input_at + 24 :],
            "non-finite value in checkpoint block input_embed: input_embed at byte"
            f" {input_at + 16}",
        ),
        (
            raw[: len(MAGIC) + 12] + struct.pack("<I", 99) + raw[len(MAGIC) + 16 :],
            "checkpoint header disagrees with embedded vocabulary:"
            f" vocabulary at byte {vocab_at}",
        ),
    ]
    for blob, message in cases:
        path.write_bytes(blob)
        with pytest.raises(ValueError) as err:
            load_checkpoint(path)
        assert str(err.value) == f"{path}: {message}"


@st.composite
def mutated_checkpoint(draw):
    """save_checkpoint bytes after one mutation: a cut, a header field
    overwritten, a non-finite parameter, or bytes appended."""
    layers = draw(st.integers(1, 2))
    raw = _checkpoint_bytes(layers)
    op = draw(st.sampled_from(["truncate", "header", "non-finite", "append"]))
    if op == "truncate":
        return raw[: draw(st.integers(0, len(raw) - 1))]
    if op == "header":  # dims, layers, vocabulary length or shortlist
        at = len(MAGIC) + 4 * draw(st.integers(0, 4))
        value = draw(st.one_of(st.integers(0, 12), st.integers(0, 2**32 - 1)))
        return raw[:at] + struct.pack("<I", value) + raw[at + 4 :]
    if op == "non-finite":  # into any 8-byte value of the parameter blocks
        n_params = sum(p.size for _, p in named_parameters(checkpoint_model(num_layers=layers)))
        at = len(raw) - 8 * draw(st.integers(1, n_params))
        bad = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        return raw[:at] + struct.pack("<d", bad) + raw[at + 8 :]
    return raw + draw(st.binary(min_size=1, max_size=16))


@functools.cache
def _checkpoint_bytes(layers):
    with tempfile.TemporaryDirectory() as tmp:
        save_checkpoint(checkpoint_model(num_layers=layers), Path(tmp) / "m.bin")
        return (Path(tmp) / "m.bin").read_bytes()


@settings(max_examples=300, deadline=None)
@given(mutated_checkpoint())
def test_mutated_checkpoint_loads_or_reports_a_byte(blob):
    """A damaged checkpoint either loads or fails with a ValueError at a
    byte inside the file, which ``lmexpand ppl`` prints as one error line."""
    with tempfile.TemporaryDirectory() as tmp:
        path, text = Path(tmp) / "m.bin", Path(tmp) / "text.txt"
        path.write_bytes(blob)
        text.write_text("w0 w1\n", encoding="utf-8")
        try:
            load_checkpoint(path)
        except ValueError as err:
            found = re.fullmatch(rf"{re.escape(str(path))}: .+: \S+ at byte (\d+)", str(err))
            assert found and 0 <= int(found.group(1)) <= len(blob), err
            out, errs = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(errs):
                rc = main(["ppl", "--model", str(path), "--text", str(text)])
            assert (rc, out.getvalue(), errs.getvalue()) == (1, "", f"error: {err}\n")


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


# what each TrainConfig setting must be; a negative clip or learning rate
# would train by gradient ascent
TRAIN_BOUNDS = {
    "unroll": ">= 1",
    "batch": ">= 1",
    "dropout": "in [0, 1)",
    "lr": "finite and > 0",
    "clip": "> 0",
    "epochs": ">= 0",
    "seed": ">= 0",
}


@pytest.mark.parametrize(
    "setting, value",
    [
        ("unroll", 0),
        ("unroll", -1),
        ("batch", 0),
        ("dropout", 1.0),
        ("dropout", -0.1),
        ("lr", 0.0),
        ("lr", -0.5),
        ("lr", math.nan),
        ("lr", math.inf),
        ("clip", -5.0),
        ("clip", 0.0),
        ("clip", math.nan),
        ("epochs", -2),
        ("seed", -1),
    ],
)
def test_out_of_range_settings_are_named(setting, value):
    corpus = pattern_corpus(10)
    model = init_model(build_vocabulary(corpus, 7, 7), 3, 2, 1)
    cfg = TrainConfig(**{"epochs": 1, "dropout": 0.0, setting: value})
    message = f"{setting} must be {TRAIN_BOUNDS[setting]}, got {value}"
    with pytest.raises(ValueError, match=re.escape(message)):
        train_bptt(model, corpus, cfg)


def test_zero_epochs_trains_nothing():
    corpus = pattern_corpus(10)
    model = init_model(build_vocabulary(corpus, 7, 7), 3, 2, 1)
    before = [p.copy() for _, p in named_parameters(model)]
    _, history = train_bptt(model, corpus, TrainConfig(epochs=0))
    assert history == []
    assert all(np.array_equal(a, b) for a, (_, b) in zip(before, named_parameters(model)))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_training_perplexity_raises():
    # a huge but finite loss: math.exp of the mean overflows
    corpus = [["a", "b", "c"], ["b", "c", "a", "a"], ["c", "a"]]
    model = init_model(build_vocabulary(corpus, 6, 6), 2, 2, 1, seed=0)
    cfg = TrainConfig(lr=1e300, clip=1e300, dropout=0.0, epochs=3, batch=2, unroll=3)
    with pytest.raises(TrainingDivergedError, match="overflows"):
        train_bptt(model, corpus, cfg)
