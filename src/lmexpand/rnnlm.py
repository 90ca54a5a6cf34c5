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
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .vocab import BOS_ID, EOS_ID, Corpus, Vocabulary, check_sentence

MAGIC = b"RNNLM1"
_BLOCK_ROWS = 128  # trie nodes per batched step in score_batch
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
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")


def init_model(
    vocab: Vocabulary,
    embed_dim: int,
    hidden_dim: int,
    num_layers: int,
    seed: int = 0,
) -> RnnLmModel:
    """Uniform [-0.05, 0.05] weights, zero biases except forget-gate bias 1."""
    _check_positive(embed_dim=embed_dim, hidden_dim=hidden_dim, num_layers=num_layers)
    rng = np.random.default_rng(seed)
    n = vocab.shortlist_size

    def uniform(shape):
        return rng.uniform(-0.05, 0.05, size=shape)

    layers = []
    in_dim = embed_dim
    for _ in range(num_layers):
        bias = np.zeros(4 * hidden_dim)
        bias[hidden_dim : 2 * hidden_dim] = 1.0
        layers.append(
            LstmLayer(
                w_in=uniform((4 * hidden_dim, in_dim)),
                w_rec=uniform((4 * hidden_dim, hidden_dim)),
                bias=bias,
            )
        )
        in_dim = hidden_dim
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


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp of a non-positive argument never overflows; min(x, -x) is -|x|
    # and passes NaN through with its sign, so both branches match the
    # textbook split formula bit for bit
    e = np.exp(np.minimum(x, -x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def softmax(x: np.ndarray) -> np.ndarray:
    shifted = x - np.max(x, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


def log_softmax(x: np.ndarray) -> np.ndarray:
    shifted = x - np.max(x, axis=-1, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))


def _lstm_cell(z: np.ndarray, c: np.ndarray):
    """One LSTM step from the stacked gate pre-activations z."""
    hdim = c.shape[-1]
    # one elementwise call for the three sigmoid gates; the values are those
    # of three separate calls, with a third of the per-call overhead
    ifo = _sigmoid(z[..., : 3 * hdim])
    i, f, o = ifo[..., :hdim], ifo[..., hdim : 2 * hdim], ifo[..., 2 * hdim :]
    g = np.tanh(z[..., 3 * hdim :])
    c_new = f * c + i * g
    tc = np.tanh(c_new)
    h_new = o * tc
    return i, f, o, g, c_new, tc, h_new


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
    product of the inference step runs here.
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


def _step(model: RnnLmModel, words, h: np.ndarray, c: np.ndarray):
    """Inference step for one word (h, c: (L, H)) or a row of words (h, c:
    (L, B, H)); returns the logits and the new h and c.  Every product runs
    on ``_project``, so a batched row equals the single step bit for bit.
    """
    x = model.input_embed[words]
    h_out = np.empty_like(h)
    c_out = np.empty_like(c)
    for l, layer in enumerate(model.layers):
        z = _project(x, layer.w_in) + _project(h[l], layer.w_rec) + layer.bias
        *_, c_out[l], _, h_out[l] = _lstm_cell(z, c[l])
        x = h_out[l]
    logits = _project(x, model.output_embed) + model.output_bias
    return logits, h_out, c_out


def forward_step(model: RnnLmModel, word: int, state: RnnState) -> StepOutput:
    """Advance one timestep and return logits over the explicit vocabulary."""
    if not 0 <= word < model.n_explicit:
        raise IndexError(f"word id {word} outside explicit range [0, {model.n_explicit})")
    logits, h, c = _step(model, word, state.h, state.c)
    return StepOutput(logits=logits, state=RnnState(h=h, c=c))


def score_ids(model: RnnLmModel, ids: list[int]) -> np.ndarray:
    """Per-position ln probabilities for a shortlist-encoded sentence.

    The model is fed the begin token followed by the sentence; the returned
    array has len(ids) + 1 entries, the last one for the end-of-sentence
    event.  An empty sentence scores the end-of-sentence event alone.  This
    one-sentence loop is the reference that ``score_batch`` reproduces.
    """
    inputs = [BOS_ID] + list(ids)
    targets = list(ids) + [EOS_ID]
    state = zero_state(model)
    out = np.empty(len(targets))
    for pos, (w_in, w_next) in enumerate(zip(inputs, targets)):
        step = forward_step(model, w_in, state)
        out[pos] = log_softmax(step.logits)[w_next]
        state = step.state
    return out


def score_batch(model: RnnLmModel, sentences: Sequence[Sequence[int]]) -> list[np.ndarray]:
    """``score_ids`` of every sentence, bit for bit, sharing common prefixes.

    The sentences form a prefix trie: its nodes at depth d are the distinct
    inputs <s> w1 .. wd, and each depth is stepped in batches of up to
    ``_BLOCK_ROWS`` nodes, whose states are gathered from their parents at
    depth d - 1.  Only the ln probabilities the sentences need are kept from
    each block, so memory stays flat however many sentences share the call.
    """
    if not sentences:
        return []
    lengths = np.array([len(s) for s in sentences], dtype=np.int64)
    # targets[k, d]: the word sentence k predicts at depth d, </s> at its end
    targets = np.full((len(sentences), int(lengths.max()) + 1), EOS_ID, dtype=np.int64)
    for k, ids in enumerate(sentences):
        targets[k, : len(ids)] = ids
    if targets.min() < 0 or targets.max() >= model.n_explicit:
        raise IndexError(f"word id outside explicit range [0, {model.n_explicit})")
    scores = np.empty(targets.shape)
    active = np.arange(len(sentences))  # sentences still predicting
    rows = np.zeros(len(sentences), dtype=np.int64)  # their trie node at this depth
    parents, words = np.array([0]), np.array([BOS_ID])  # this depth's nodes
    h = np.zeros((model.num_layers, 1, model.hidden_dim))
    c = np.zeros_like(h)
    for depth in range(targets.shape[1]):
        h_next = np.empty((model.num_layers, len(words), model.hidden_dim))
        c_next = np.empty_like(h_next)
        for start in range(0, len(words), _BLOCK_ROWS):
            block = slice(start, start + _BLOCK_ROWS)
            up = parents[block]
            logits, h_next[:, block], c_next[:, block] = _step(
                model, words[block], h[:, up], c[:, up]
            )
            mine = (rows >= start) & (rows < start + _BLOCK_ROWS)
            k = active[mine]
            scores[k, depth] = log_softmax(logits)[rows[mine] - start, targets[k, depth]]
        h, c = h_next, c_next
        going = lengths[active] > depth
        active, rows = active[going], rows[going]
        keys, rows = np.unique(
            rows * model.n_explicit + targets[active, depth], return_inverse=True
        )
        parents, words = np.divmod(keys, model.n_explicit)
    return [scores[k, : n + 1] for k, n in enumerate(lengths)]


def perplexity(logprobs: np.ndarray) -> float:
    logprobs = np.asarray(logprobs, dtype=float)
    if logprobs.size == 0:
        raise ValueError("no scoreable tokens")
    return float(np.exp(-np.mean(logprobs)))


def corpus_perplexity(model: RnnLmModel, corpus: Corpus) -> float:
    """Shortlist perplexity: tail and unknown tokens collapse to <unk>.  One
    ``score_batch`` call scores the whole corpus."""
    encoded = [[model.vocab.encode(t, shortlist_only=True) for t in s] for s in corpus]
    return perplexity(np.concatenate(score_batch(model, encoded)) if encoded else [])


def named_parameters(model: RnnLmModel) -> list[tuple[str, np.ndarray]]:
    params = [("input_embed", model.input_embed)]
    for i, layer in enumerate(model.layers):
        params.append((f"layers.{i}.w_in", layer.w_in))
        params.append((f"layers.{i}.w_rec", layer.w_rec))
        params.append((f"layers.{i}.bias", layer.bias))
    params.append(("output_embed", model.output_embed))
    params.append(("output_bias", model.output_bias))
    return params


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
    ``named_parameters``, and the final (detached) state arrays.
    """
    T, B = inputs.shape
    L = model.num_layers
    hdim = model.hidden_dim
    if masks is None:
        masks = [[1.0] * (L + 1)] * T

    h_prev = h0.copy()
    c_prev = c0.copy()
    caches: list[list[tuple]] = []
    tops = []
    logps = []
    loss = 0.0
    for t in range(T):
        x = model.input_embed[inputs[t]] * masks[t][0]
        layer_caches = []
        for l, layer in enumerate(model.layers):
            z = x @ layer.w_in.T + h_prev[l] @ layer.w_rec.T + layer.bias
            i, f, o, g, c_new, tc, h_new = _lstm_cell(z, c_prev[l])
            layer_caches.append((x, h_prev[l].copy(), c_prev[l].copy(), i, f, o, g, tc))
            h_prev[l] = h_new
            c_prev[l] = c_new
            x = h_new * masks[t][l + 1]
        caches.append(layer_caches)
        tops.append(x)
        logits = x @ model.output_embed.T + model.output_bias
        logp = log_softmax(logits)
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
        dx = dlogits @ model.output_embed
        pending = dx * masks[t][L]
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
    for index, sentence in enumerate(corpus):
        check_sentence(sentence, f"sentence {index}")
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
    perplexity instead.  A literal <s> or </s> inside a training sentence is
    rejected with the sentence index.
    """
    if not corpus:
        raise ValueError("empty corpus")
    if val_corpus is not None and not val_corpus:
        raise ValueError("empty validation corpus: no scoreable tokens")
    _check_positive(unroll=config.unroll, batch=config.batch)
    rng = np.random.default_rng(config.seed)
    inp, tgt = _training_stream(corpus, model.vocab)
    batch = max(1, min(config.batch, inp.size // config.unroll))
    cols = inp.size // batch
    X = inp[: batch * cols].reshape(batch, cols)
    Y = tgt[: batch * cols].reshape(batch, cols)
    L, hdim = model.num_layers, model.hidden_dim
    keep = 1.0 - config.dropout
    if not 0.0 < keep <= 1.0:
        raise ValueError("dropout must lie in [0, 1)")
    params = named_parameters(model)
    lr = config.lr
    history: list[float] = []
    best = math.inf
    prev = math.inf

    for epoch in range(config.epochs):
        h = np.zeros((L, batch, hdim))
        c = np.zeros((L, batch, hdim))
        total_nll = 0.0
        total_tok = 0
        for start in range(0, cols, config.unroll):
            xw = X[:, start : start + config.unroll].T.copy()
            yw = Y[:, start : start + config.unroll].T.copy()
            T = xw.shape[0]
            masks = None
            if config.dropout > 0.0:
                masks = [
                    [
                        (rng.random((batch, dim)) < keep) / keep
                        for dim in [model.embed_dim] + [hdim] * L
                    ]
                    for _ in range(T)
                ]
            loss, grads, h, c = loss_and_grads(model, xw, yw, h, c, masks)
            if not math.isfinite(loss):
                raise TrainingDivergedError(
                    f"non-finite loss {loss} at epoch {epoch} window {start // config.unroll}"
                )
            gnorm = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
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
    little-endian float64, so round-trips are bit-exact.
    """
    vocab_blob = model.vocab.to_text().encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(
            struct.pack(
                "<IIIII",
                model.embed_dim,
                model.hidden_dim,
                model.num_layers,
                len(model.vocab),
                model.vocab.shortlist_size,
            )
        )
        fh.write(struct.pack("<Q", len(vocab_blob)))
        fh.write(vocab_blob)
        fh.write(np.ascontiguousarray(model.input_embed, dtype="<f8").tobytes())
        for layer in model.layers:
            fh.write(np.asarray(layer.w_in, dtype="<f8").tobytes(order="F"))
            fh.write(np.asarray(layer.w_rec, dtype="<f8").tobytes(order="F"))
            fh.write(np.asarray(layer.bias, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(model.output_embed, dtype="<f8").tobytes())
        fh.write(np.asarray(model.output_bias, dtype="<f8").tobytes())


def load_checkpoint(path: str) -> RnnLmModel:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[: len(MAGIC)] != MAGIC:
        raise ValueError(f"not a checkpoint file (bad magic): {path}")
    off = len(MAGIC)
    try:
        embed_dim, hidden_dim, num_layers, total_words, shortlist = struct.unpack_from(
            "<IIIII", blob, off
        )
        off += struct.calcsize("<IIIII")
        (vlen,) = struct.unpack_from("<Q", blob, off)
        off += struct.calcsize("<Q")
        vocab_blob = blob[off : off + vlen]
        if len(vocab_blob) != vlen:
            raise struct.error("vocabulary block truncated")
        off += vlen
    except struct.error as err:
        raise ValueError(f"truncated checkpoint: {path}") from err
    try:
        _check_positive(embed_dim=embed_dim, hidden_dim=hidden_dim, num_layers=num_layers)
    except ValueError as err:
        raise ValueError(f"bad checkpoint header: {err}: {path}") from None
    vocab = Vocabulary.from_text(vocab_blob.decode("utf-8"))
    if len(vocab) != total_words or vocab.shortlist_size != shortlist:
        raise ValueError("checkpoint header disagrees with embedded vocabulary")

    def take(name: str, shape: tuple[int, ...], order: str = "C") -> np.ndarray:
        nonlocal off
        count = math.prod(shape)
        nbytes = count * 8
        if off + nbytes > len(blob):
            raise ValueError(f"truncated checkpoint: {path}")
        # the copy is C-ordered whatever the stored order, so BLAS sums a
        # reloaded model in the same order as the one that was saved
        arr = np.frombuffer(blob, dtype="<f8", count=count, offset=off)
        arr = arr.reshape(shape, order=order).copy()
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"non-finite value in checkpoint block {name}: {path}")
        off += nbytes
        return arr

    input_embed = take("input_embed", (shortlist, embed_dim))
    layers = []
    in_dim = embed_dim
    for i in range(num_layers):
        w_in = take(f"layers.{i}.w_in", (4 * hidden_dim, in_dim), order="F")
        w_rec = take(f"layers.{i}.w_rec", (4 * hidden_dim, hidden_dim), order="F")
        bias = take(f"layers.{i}.bias", (4 * hidden_dim,))
        layers.append(LstmLayer(w_in=w_in, w_rec=w_rec, bias=bias))
        in_dim = hidden_dim
    output_embed = take("output_embed", (shortlist, hidden_dim))
    output_bias = take("output_bias", (shortlist,))
    if off != len(blob):
        raise ValueError(f"checkpoint has {len(blob) - off} unexpected trailing bytes")
    return RnnLmModel(
        vocab=vocab,
        input_embed=input_embed,
        layers=layers,
        output_embed=output_embed,
        output_bias=output_bias,
    )
