"""Shortlist LSTM language model trained with truncated backpropagation.

The network embeds the previous word, runs it through stacked LSTM layers
(no peepholes) and projects the top hidden state onto one output column per
explicit-vocabulary word, plus a per-word output bias.  Dropout, when
enabled, is applied only to non-recurrent connections: the embedded input
of the first layer, the hidden state handed from one layer to the next, and
the top hidden state before the output projection.  The recurrent paths
h_{t-1} -> h_t and c_{t-1} -> c_t are never masked, and masks are resampled
at every timestep.  All math is float64.
"""

from __future__ import annotations

import math
import struct
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .vocab import BOS_ID, EOS_ID, Corpus, Vocabulary, check_corpus, check_setting, reading
from .vocab import sentence_sums, writing

MAGIC = b"RNNLM1"
_BLOCK_ROWS = 128  # trie nodes per batched step in score_events
_MAX_LN = math.log(sys.float_info.max)  # math.exp overflows above this


class TrainingDivergedError(RuntimeError):
    pass


@dataclass
class LstmLayer:
    """One LSTM layer; gate rows are stacked input/forget/output/candidate."""

    w_in: np.ndarray  # (4H, in_dim)
    w_rec: np.ndarray  # (4H, H)
    bias: np.ndarray  # (4H,)


@dataclass
class RnnLmModel:
    vocab: Vocabulary
    input_embed: np.ndarray  # (n_explicit, embed_dim), one row per shortlist word
    layers: list[LstmLayer]
    output_embed: np.ndarray  # (n_explicit, hidden_dim)
    output_bias: np.ndarray  # (n_explicit,)

    @property
    def embed_dim(self) -> int:
        return self.input_embed.shape[1]

    @property
    def hidden_dim(self) -> int:
        return self.output_embed.shape[1]

    @property
    def n_explicit(self) -> int:
        return self.input_embed.shape[0]

    @property
    def num_layers(self) -> int:
        return len(self.layers)


@dataclass
class RnnState:
    h: np.ndarray  # (num_layers, hidden_dim)
    c: np.ndarray


@dataclass
class StepOutput:
    logits: np.ndarray  # (n_explicit,)
    state: RnnState


def _check_positive(**settings: int) -> None:
    for name, value in settings.items():
        check_setting(name, value, value >= 1, ">= 1")


def init_model(
    vocab: Vocabulary,
    embed_dim: int,
    hidden_dim: int,
    num_layers: int,
    seed: int = 0,
) -> RnnLmModel:
    """Uniform [-0.05, 0.05] weights, zero biases except forget-gate bias 1."""
    _check_positive(embed_dim=embed_dim, hidden_dim=hidden_dim, num_layers=num_layers)
    check_setting("seed", seed, seed >= 0, ">= 0")
    rng = np.random.default_rng(seed)
    n = vocab.shortlist_size

    def uniform(shape):
        return rng.uniform(-0.05, 0.05, size=shape)

    layers = []
    for l in range(num_layers):
        bias = np.zeros(4 * hidden_dim)
        bias[hidden_dim : 2 * hidden_dim] = 1.0
        w_in = uniform((4 * hidden_dim, hidden_dim if l else embed_dim))
        layers.append(LstmLayer(w_in=w_in, w_rec=uniform((4 * hidden_dim, hidden_dim)), bias=bias))
    return RnnLmModel(
        vocab=vocab,
        input_embed=uniform((n, embed_dim)),
        layers=layers,
        output_embed=uniform((n, hidden_dim)),
        output_bias=np.zeros(n),
    )


def zero_state(model: RnnLmModel) -> RnnState:
    shape = (model.num_layers, model.hidden_dim)
    return RnnState(h=np.zeros(shape), c=np.zeros(shape))


def _sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # exp of a non-positive argument never overflows; min(x, -x) is -|x|
    # and keeps NaN's sign.  The numerator max(e, x >= 0) is 1 where x >= 0
    # (there e <= 1) and e elsewhere: the textbook split formula bit for bit.
    # 1 + e and the quotient go into arrays already made, or into ``out``
    e = np.exp(np.minimum(x, -x))
    num = np.maximum(e, x >= 0)
    return np.divide(num, np.add(e, 1.0, out=e), out=num if out is None else out)


def log_softmax(x: np.ndarray) -> np.ndarray:
    shifted = x - np.max(x, axis=-1, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))


def _lstm_cell(z, c, gates, cand, c_new, tanh_c, h_new) -> None:
    """One LSTM step from gate pre-activations z and cell state c into the
    caller's arrays: sigmoid gates i | f | o, tanh candidate g, c_new = f c + i g,
    tanh(c_new) and h_new = o tanh(c_new).  ``tanh_c`` may be ``h_new``."""
    hdim = c.shape[-1]
    # one elementwise call for the three sigmoid gates; the values are those
    # of three separate calls, with a third of the per-call overhead
    _sigmoid(z[..., : 3 * hdim], out=gates)
    i, f, o = gates[..., :hdim], gates[..., hdim : 2 * hdim], gates[..., 2 * hdim :]
    np.tanh(z[..., 3 * hdim :], out=cand)
    np.multiply(f, c, out=c_new)
    c_new += i * cand
    np.multiply(o, np.tanh(c_new, out=tanh_c), out=h_new)


_TILE_ROWS, _TILE_COLS = 8, 64  # the one gemm shape _project runs


def _project(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``x @ w.T`` built only from fixed (8, K) x (K, 64) tile products.

    BLAS rounds a product by its shape, so a plain product changes a row's
    last bits with the number of rows beside it.  Here the rows of x are
    zero-padded to whole 8-row tiles and w is cut into 64-row tiles (views
    of w; only a last partial tile is copied and zero-padded), and every
    tile pair is one gemm of that one shape.  A row's result therefore does
    not depend on the batch it is in, and rows appended to w never move the
    tile of an earlier column, so its values stay bit-identical.  Every
    product of the inference step runs here, layer 0's input products too:
    ``score_events`` takes them once per distinct word and gathers the rows.
    """
    k = x.shape[-1]
    rows = x.reshape(-1, k)
    m, v = rows.shape[0], w.shape[0]
    row_tiles = -(-m // _TILE_ROWS)
    full, rest = divmod(v, _TILE_COLS)
    padded = np.zeros((row_tiles * _TILE_ROWS, k))
    padded[:m] = rows
    x_tiles = padded.reshape(row_tiles, 1, _TILE_ROWS, k)
    out = np.empty((row_tiles * _TILE_ROWS, (full + (rest > 0)) * _TILE_COLS))
    # out viewed as (row tile, column tile, 8, 64): matmul writes in place
    out_tiles = out.reshape(row_tiles, _TILE_ROWS, -1, _TILE_COLS).transpose(0, 2, 1, 3)
    if full:
        w_tiles = w[: full * _TILE_COLS].reshape(full, _TILE_COLS, k).transpose(0, 2, 1)
        np.matmul(x_tiles, w_tiles, out=out_tiles[:, :full])
    if rest:
        last = np.zeros((_TILE_COLS, k))
        last[:rest] = w[full * _TILE_COLS :]
        np.matmul(x_tiles, last.T, out=out_tiles[:, full:])
    return out[:m, :v].reshape(*x.shape[:-1], v)


def _step(model: RnnLmModel, z: np.ndarray, h: np.ndarray, c: np.ndarray):
    """Inference step for one word (z: (4H,), h, c: (L, H)) or a row of words
    (z: (B, 4H), h, c: (L, B, H)) from layer 0's input products z, which it
    overwrites; returns the logits and the new h and c.  Every product runs
    on ``_project``, so a batched row equals the single step bit for bit.
    """
    hdim = model.hidden_dim
    h_out = np.empty_like(h)
    c_out = np.empty_like(c)
    for l, layer in enumerate(model.layers):
        if l:
            z = _project(h_out[l - 1], layer.w_in)
        z += _project(h[l], layer.w_rec)  # (input + recurrent) + bias, in place
        z += layer.bias
        # the gates and candidate overwrite z, and tanh(c) is h_out[l] until o scales it
        _lstm_cell(z, c[l], z[..., : 3 * hdim], z[..., 3 * hdim :], c_out[l], h_out[l], h_out[l])
    logits = _project(h_out[-1], model.output_embed)
    logits += model.output_bias
    return logits, h_out, c_out


def forward_step(model: RnnLmModel, word: int, state: RnnState) -> StepOutput:
    """Advance one timestep and return logits over the explicit vocabulary."""
    if not 0 <= word < model.n_explicit:
        raise IndexError(f"word id {word} outside explicit range [0, {model.n_explicit})")
    z = _project(model.input_embed[word], model.layers[0].w_in)
    logits, h, c = _step(model, z, state.h, state.c)
    return StepOutput(logits=logits, state=RnnState(h=h, c=c))


def _pick_log_softmax(logits, rows, targets, widths) -> np.ndarray:
    """``log_softmax(logits[r, :w])[t]`` for each (r, t, w), bit for bit, as
    ``(logits[r, t] - m) - log s`` with m and s the row's maximum and sum of
    exp(x - m) over w columns.  exp is taken once at the widest width; a width
    whose row maximum differs from the widest takes its own pass there."""
    top = widths.max()
    peak = np.max(logits[:, :top], axis=-1, keepdims=True)
    exps = np.exp(logits[:, :top] - peak)
    out = np.empty(len(rows))
    for width in np.unique(widths):
        mine = widths == width
        m = np.max(logits[:, :width], axis=-1, keepdims=True) if width < top else peak
        s = np.sum(exps[:, :width], axis=-1)
        own = m[:, 0] != peak[:, 0]
        if own.any():
            s[own] = np.sum(np.exp(logits[own, :width] - m[own]), axis=-1)
        r = rows[mine]
        out[mine] = (logits[r, targets[mine]] - m[r, 0]) - np.log(s[r])
    return out


def score_batch(
    model: RnnLmModel, sentences: Sequence[Sequence[int]], widths: Sequence[int] | None = None
) -> list[np.ndarray]:
    """``score_events`` of shortlist-encoded sentences, one array per sentence:
    sentence w1 .. wn gets n + 1 entries, ln p(w_{d+1} | <s> w1 .. wd) at d and </s> at n."""
    lengths = [len(ids) + 1 for ids in sentences]
    events = np.array([w for ids in sentences for w in (*ids, EOS_ID)], dtype=np.int64)
    return np.split(score_events(model, events, lengths, widths), np.cumsum(lengths))[:-1]


def score_events(
    model: RnnLmModel, events: np.ndarray, lengths: np.ndarray, widths: Sequence[int] | None = None
) -> np.ndarray:
    """ln p of every event of shortlist-encoded sentences, in one flat array:
    sentence k is the next ``lengths[k]`` ``events``, its word ids, then </s>.
    An event's entry is ln p of it after <s> and the sentence's events before
    it over the first ``widths[k]`` output columns (default: all of them), bit
    for bit ``log_softmax`` of the logits ``forward_step`` chains.  At the width
    of the model that an expanded model grew from, ids score bit for bit as
    under that model (see ``_project``).

    The sentences form a prefix trie: its nodes at depth d are the distinct
    inputs <s> w1 .. wd, and each depth is stepped in batches of up to
    ``_BLOCK_ROWS`` nodes, whose states are gathered from their parents at
    depth d - 1 and whose layer-0 input products come from one table of the
    call's distinct words.  A worker thread that the call owns steps and
    normalises the second half of each depth's nodes while this thread does
    the first; they meet once per depth.  Only the ln probabilities the
    sentences need are kept from each block, so memory stays flat however
    many sentences share the call.
    """
    events, lengths = np.asarray(events, dtype=np.int64), np.asarray(lengths, dtype=np.int64)
    if (lengths < 1).any() or lengths.sum() != len(events):
        raise ValueError(f"{len(events)} events do not split into sentences of lengths >= 1")
    width = np.full(len(lengths), model.n_explicit) if widths is None else np.asarray(widths)
    if width.shape != lengths.shape or width.size and width.dtype.kind not in "iu":
        raise ValueError(f"softmax widths: {width.size} {width.dtype}, not {len(lengths)} integers")
    if ((width < 1) | (width > model.n_explicit)).any():
        raise ValueError(f"softmax width outside the model's {model.n_explicit} output columns")
    if ((events < 0) | (events >= np.repeat(width, lengths))).any():
        raise IndexError(f"word id outside its sentence's softmax width (<= {model.n_explicit})")
    starts = np.cumsum(lengths) - lengths  # sentence k predicts events[starts[k] + depth]
    # layer 0's input products of every word the call reads, and each word's row
    seen = np.zeros(model.n_explicit, dtype=bool)
    seen[events] = seen[BOS_ID] = True
    table = _project(model.input_embed[seen], model.layers[0].w_in)
    slot = np.cumsum(seen) - 1
    scores = np.empty(len(events))
    active = np.arange(len(lengths))  # sentences still predicting
    rows = np.zeros(len(lengths), dtype=np.int64)  # their trie node at this depth
    parents, words = np.array([0]), slot[[BOS_ID]]  # this depth's nodes; words by table row
    h = np.zeros((model.num_layers, 1, model.hidden_dim))
    c = np.zeros_like(h)

    def finish(stepped) -> None:  # keep each block's states and needed ln probabilities
        for block, (logits, h_block, c_block) in stepped:
            h_next[:, block], c_next[:, block] = h_block, c_block
            mine = (rows >= block.start) & (rows < block.stop)
            k = active[mine]
            at = starts[k] + depth
            scores[at] = _pick_log_softmax(logits, rows[mine] - block.start, events[at], width[k])

    with ThreadPoolExecutor(1) as lane:
        for depth in range(lengths.max(initial=0)):
            h_next = np.empty((model.num_layers, len(words), model.hidden_dim))
            c_next = np.empty_like(h_next)
            # the lane takes the nodes from ``half`` on (whole 8-row tiles split
            # evenly), and each generator steps in the thread that reads it; a
            # row's bits do not depend on the block or the thread
            half = min(len(words), -(-len(words) // (2 * _TILE_ROWS)) * _TILE_ROWS)
            near = [slice(s, min(s + _BLOCK_ROWS, half)) for s in range(0, half, _BLOCK_ROWS)]
            far = [slice(s, s + _BLOCK_ROWS) for s in range(half, len(words), _BLOCK_ROWS)]
            own, theirs = [
                ((b, _step(model, table[words[b]], h[:, parents[b]], c[:, parents[b]])) for b in part)
                for part in (near, far)
            ]
            ahead = lane.submit(finish, theirs)
            finish(own)
            ahead.result()
            h, c = h_next, c_next
            going = lengths[active] > depth + 1
            active, rows = active[going], rows[going]
            keys, rows = np.unique(
                rows * len(table) + slot[events[starts[active] + depth]], return_inverse=True
            )
            parents, words = np.divmod(keys, len(table))
    return scores


def perplexity(logprobs: np.ndarray) -> float:
    logprobs = np.asarray(logprobs, dtype=float)
    if logprobs.size == 0:
        raise ValueError("no scoreable tokens")
    return float(np.exp(-np.mean(logprobs)))


def corpus_perplexity(model: RnnLmModel, corpus: Corpus) -> float:
    """Shortlist perplexity: tail and unknown tokens collapse to <unk>.  One
    ``score_events`` call scores the whole corpus."""
    ids = [[*(model.vocab.encode(t, shortlist_only=True) for t in s), EOS_ID] for s in corpus]
    return perplexity(score_events(model, [w for s in ids for w in s], list(map(len, ids))))


def named_parameters(model: RnnLmModel) -> list[tuple[str, np.ndarray]]:
    layers = [(f"layers.{i}.{name}", getattr(layer, name))
              for i, layer in enumerate(model.layers) for name in ("w_in", "w_rec", "bias")]
    return [("input_embed", model.input_embed), *layers,
            ("output_embed", model.output_embed), ("output_bias", model.output_bias)]


def loss_and_grads(
    model: RnnLmModel,
    inputs: np.ndarray,  # (T, B) int ids
    targets: np.ndarray,  # (T, B)
    h0: np.ndarray,  # (num_layers, B, hidden_dim)
    c0: np.ndarray,
    masks: list[list[np.ndarray]] | None = None,  # masks[t][level], level 0..L
) -> tuple[float, dict[str, np.ndarray], np.ndarray, np.ndarray]:
    """Mean cross-entropy over a BPTT window plus exact analytic gradients.

    The initial state is treated as a constant (gradients are truncated at
    the window boundary).  Returns the loss, a gradient dict keyed like
    ``named_parameters``, and the final (detached) state arrays.  Caches
    are window arrays, and the softmax gradients are one pass over the
    window; every product keeps its one-step shape and every sum its order.
    """
    T, B = inputs.shape
    L, hdim = model.num_layers, model.hidden_dim
    if masks is None:
        masks = [[1.0] * (L + 1)] * T
    steps, rows = np.arange(T)[:, None], np.arange(B)
    # xs[l][t]: layer l's input at step t (xs[L]: the top output); hs[l, t], cs[l, t]:
    # layer l's state before step t; gates[l, t]: its sigmoid gates i | f | o
    xs = [model.input_embed[inputs]] + [np.empty((T, B, hdim)) for _ in range(L)]
    hs, cs = np.empty((2, L, T + 1, B, hdim))
    hs[:, 0], cs[:, 0] = h0, c0
    gates = np.empty((L, T, B, 3 * hdim))
    cands, tanh_cs = np.empty((2, L, T, B, hdim))
    logp = np.empty((T, B, model.n_explicit))
    scratch = np.empty((B, model.n_explicit))
    for t in range(T):
        xs[0][t] *= masks[t][0]
        for l, layer in enumerate(model.layers):
            z = xs[l][t] @ layer.w_in.T
            z += hs[l, t] @ layer.w_rec.T
            z += layer.bias
            _lstm_cell(
                z, cs[l, t], gates[l, t], cands[l, t], cs[l, t + 1], tanh_cs[l, t], hs[l, t + 1]
            )
            np.multiply(hs[l, t + 1], masks[t][l + 1], out=xs[l + 1][t])
        np.matmul(xs[L][t], model.output_embed.T, out=scratch)
        scratch += model.output_bias
        np.subtract(scratch, np.max(scratch, axis=-1, keepdims=True), out=logp[t])
        logp[t] -= np.log(np.sum(np.exp(logp[t], out=scratch), axis=-1, keepdims=True))
    # each step's sum over the batch, then the steps in order; a zero loss is +0.0
    loss = 0.0 - sentence_sums(logp[steps, rows, targets].sum(axis=1), [T], in_order=True)[0]
    denom = T * B
    loss /= denom

    grads = {name: np.zeros_like(arr) for name, arr in named_parameters(model)}
    dlogits = np.exp(logp, out=logp)
    dlogits[steps, rows, targets] -= 1.0
    dlogits /= denom
    # summed last step first, as the backward pass meets them
    grads["output_bias"] = np.add.accumulate(dlogits.sum(axis=1)[::-1], axis=0)[-1]
    dh_time = np.zeros((L, B, hdim))
    dc_time = np.zeros((L, B, hdim))
    dz = np.empty((B, 4 * hdim))
    d_embed = np.empty((T, B, model.embed_dim))  # last step first
    for t in range(T - 1, -1, -1):
        grads["output_embed"] += dlogits[t].T @ xs[L][t]
        pending = dlogits[t] @ model.output_embed
        pending *= masks[t][L]
        for l in range(L - 1, -1, -1):
            layer = model.layers[l]
            ifo, g, tc = gates[l, t], cands[l, t], tanh_cs[l, t]
            i, f, o = ifo[:, :hdim], ifo[:, hdim : 2 * hdim], ifo[:, 2 * hdim :]
            dh = pending + dh_time[l]
            dc = dh * o
            dc *= 1.0 - tc * tc
            dc += dc_time[l]
            np.multiply(dc, g, out=dz[:, :hdim])
            np.multiply(dc, cs[l, t], out=dz[:, hdim : 2 * hdim])
            np.multiply(dh, tc, out=dz[:, 2 * hdim : 3 * hdim])
            dz[:, : 3 * hdim] *= ifo
            dz[:, : 3 * hdim] *= 1.0 - ifo
            np.multiply(dc, i, out=dz[:, 3 * hdim :])
            dz[:, 3 * hdim :] *= 1.0 - g * g
            grads[f"layers.{l}.w_in"] += dz.T @ xs[l][t]
            grads[f"layers.{l}.w_rec"] += dz.T @ hs[l, t]
            grads[f"layers.{l}.bias"] += dz.sum(axis=0)
            np.matmul(dz, layer.w_rec, out=dh_time[l])
            np.multiply(dc, f, out=dc_time[l])
            pending = dz @ layer.w_in
            pending *= masks[t][l]
        d_embed[T - 1 - t] = pending
    np.add.at(grads["input_embed"], inputs[::-1].ravel(), d_embed.reshape(T * B, -1))
    return float(loss), grads, hs[:, T].copy(), cs[:, T].copy()


@dataclass
class TrainConfig:
    """Knobs for truncated-BPTT SGD training.

    The learning rate halves when validation perplexity stops improving by
    at least 1% relative, and training stops early once it rises outright.
    """

    unroll: int = 10
    dropout: float = 0.5
    lr: float = 1.0
    clip: float = 5.0
    epochs: int = 5
    batch: int = 16
    seed: int = 0


def _training_stream(corpus: Corpus, vocab: Vocabulary) -> tuple[np.ndarray, np.ndarray]:
    inputs: list[int] = []
    targets: list[int] = []
    for sentence in corpus:
        ids = [vocab.encode(t, shortlist_only=True) for t in sentence]
        inputs.extend([BOS_ID] + ids)
        targets.extend(ids + [EOS_ID])
    return np.array(inputs, dtype=np.int64), np.array(targets, dtype=np.int64)


def train_bptt(
    model: RnnLmModel,
    corpus: Corpus,
    config: TrainConfig,
    val_corpus: Corpus | None = None,
) -> tuple[RnnLmModel, list[float]]:
    """Train in place; returns the model and per-epoch validation perplexity.

    Sentences are concatenated into one stream, split across ``batch``
    parallel sub-streams; hidden state is carried across window boundaries
    within an epoch.  Without a validation corpus the history holds training
    perplexity instead.  Both corpora are checked by ``check_corpus``.
    """
    check_corpus(corpus)
    if val_corpus is not None:
        if not val_corpus:
            raise ValueError("empty validation corpus: no scoreable tokens")
        check_corpus(val_corpus, "validation sentence")
    for name, ok, bound in [
        ("unroll", config.unroll >= 1, ">= 1"),
        ("batch", config.batch >= 1, ">= 1"),
        ("dropout", 0 <= config.dropout < 1, "in [0, 1)"),
        ("lr", 0 < config.lr < math.inf, "finite and > 0"),
        ("clip", config.clip > 0, "> 0"),
        ("epochs", config.epochs >= 0, ">= 0"),
        ("seed", config.seed >= 0, ">= 0"),
    ]:
        check_setting(name, getattr(config, name), ok, bound)
    rng = np.random.default_rng(config.seed)
    inp, tgt = _training_stream(corpus, model.vocab)
    batch = max(1, min(config.batch, inp.size // config.unroll))
    cols = inp.size // batch
    X = inp[: batch * cols].reshape(batch, cols)
    Y = tgt[: batch * cols].reshape(batch, cols)
    L, hdim = model.num_layers, model.hidden_dim
    keep = 1.0 - config.dropout
    dims = [model.embed_dim] + [hdim] * L  # of each dropout mask of a step
    params = named_parameters(model)
    lr = config.lr
    history: list[float] = []
    best = prev = math.inf

    for epoch in range(config.epochs):
        h, c = np.zeros((2, L, batch, hdim))
        total_nll, total_tok = 0.0, 0
        for start in range(0, cols, config.unroll):
            xw = X[:, start : start + config.unroll].T.copy()
            yw = Y[:, start : start + config.unroll].T.copy()
            T = xw.shape[0]
            masks = None
            if config.dropout > 0.0:
                masks = [[(rng.random((batch, d)) < keep) / keep for d in dims] for _ in range(T)]
            loss, grads, h, c = loss_and_grads(model, xw, yw, h, c, masks)
            if not math.isfinite(loss):
                raise TrainingDivergedError(
                    f"non-finite loss {loss} at epoch {epoch} window {start // config.unroll}"
                )
            squares = np.array([np.sum(g * g) for g in grads.values()])
            gnorm = math.sqrt(sentence_sums(squares, [len(squares)], in_order=True)[0])
            scale = lr if gnorm <= config.clip else lr * config.clip / gnorm
            for name, arr in params:
                arr -= scale * grads[name]
            total_nll += loss * xw.size
            total_tok += xw.size
        if val_corpus is not None:
            score = corpus_perplexity(model, val_corpus)
        else:
            mean_nll = total_nll / total_tok
            if not mean_nll < _MAX_LN:
                raise TrainingDivergedError(
                    f"training perplexity overflows at epoch {epoch}: mean loss {mean_nll:g}"
                )
            score = math.exp(mean_nll)
        history.append(score)
        if score > prev:
            break
        if score > best * 0.99:
            lr *= 0.5
        best = min(best, score)
        prev = score
    return model, history


def save_checkpoint(model: RnnLmModel, path: str) -> None:
    """Binary checkpoint: magic, dims, embedded vocabulary, parameter blocks.

    Matrices are serialized column-major in their word-per-column shapes
    (embed_dim x n_explicit for the input embedding, hidden_dim x n_explicit
    for the output embedding, 4*hidden x fan-in for LSTM blocks) as
    little-endian float64, so round-trips are bit-exact.  A non-finite
    parameter, which ``load_checkpoint`` rejects, is refused before writing.
    """
    blocks = []
    for name, arr in named_parameters(model):  # LSTM blocks column-major
        if not np.isfinite(arr).all():
            raise ValueError(f"non-finite value in parameter block {name}: not saved")
        blocks.append(np.asarray(arr, dtype="<f8").tobytes(order="F" if "layers." in name else "C"))
    vocab_blob = model.vocab.to_text().encode("utf-8")
    dims = model.embed_dim, model.hidden_dim, model.num_layers, len(model.vocab)
    header = struct.pack("<IIIIIQ", *dims, model.vocab.shortlist_size, len(vocab_blob))
    writing(path, b"".join([MAGIC, header, vocab_blob, *blocks]))


def load_checkpoint(path: str) -> RnnLmModel:
    """Read a ``save_checkpoint`` file.  Every error names the block being
    read and the byte offset where reading stopped, after the file's path."""
    with reading(path) as blob:
        return _parse_checkpoint(blob)


def _parse_checkpoint(blob: bytes) -> RnnLmModel:
    """``load_checkpoint`` of a file's bytes."""
    block, off = "magic", 0

    def error(message: str) -> ValueError:
        return ValueError(f"{message}: {block} at byte {off}")

    if blob[: len(MAGIC)] != MAGIC:
        raise error("not a checkpoint file (bad magic)")
    block, off = "header", len(MAGIC)
    try:
        embed_dim, hidden_dim, num_layers, total_words, shortlist, vlen = struct.unpack_from(
            "<IIIIIQ", blob, off
        )
        _check_positive(embed_dim=embed_dim, hidden_dim=hidden_dim, num_layers=num_layers)
    except struct.error:
        raise error("truncated checkpoint") from None
    except ValueError as err:
        raise error(f"bad checkpoint header: {err}") from None
    block, off = "vocabulary", off + struct.calcsize("<IIIIIQ")
    vocab_blob = blob[off : off + vlen]
    if len(vocab_blob) != vlen:
        raise error("truncated checkpoint")
    try:
        vocab = Vocabulary.from_text(vocab_blob)
    except ValueError as err:
        raise error(str(err)) from err
    if len(vocab) != total_words or vocab.shortlist_size != shortlist:
        raise error("checkpoint header disagrees with embedded vocabulary")
    off += vlen

    def take(name: str, shape: tuple[int, ...], order: str = "C") -> np.ndarray:
        nonlocal block, off
        block, count = name, math.prod(shape)
        if off + count * 8 > len(blob):
            raise error("truncated checkpoint")
        stored = np.frombuffer(blob, dtype="<f8", count=count, offset=off)
        finite = np.isfinite(stored)
        if not finite.all():
            off += 8 * int(finite.argmin())  # stop at the first non-finite value
            raise error(f"non-finite value in checkpoint block {name}")
        off += count * 8
        # the copy is C-ordered whatever the stored order, so BLAS sums a
        # reloaded model in the same order as the one that was saved
        return stored.reshape(shape, order=order).copy()

    input_embed = take("input_embed", (shortlist, embed_dim))
    layers = []
    for i in range(num_layers):
        w_in = take(f"layers.{i}.w_in", (4 * hidden_dim, hidden_dim if i else embed_dim), order="F")
        w_rec = take(f"layers.{i}.w_rec", (4 * hidden_dim, hidden_dim), order="F")
        bias = take(f"layers.{i}.bias", (4 * hidden_dim,))
        layers.append(LstmLayer(w_in=w_in, w_rec=w_rec, bias=bias))
    output_embed = take("output_embed", (shortlist, hidden_dim))
    output_bias = take("output_bias", (shortlist,))
    block = "end"
    if off != len(blob):
        raise error(f"checkpoint has {len(blob) - off} unexpected trailing bytes")
    return RnnLmModel(vocab, input_embed, layers, output_embed, output_bias)
