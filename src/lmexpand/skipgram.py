"""Skip-gram word embeddings trained with negative sampling.

Single-threaded and fully deterministic for a given seed.  Defaults follow
the common word2vec settings: dimension 100, window 5, five negative
samples, subsampling threshold 1e-3, five epochs, starting learning rate
0.025 decaying linearly per sentence, minimum count 1.  Noise words are
drawn from the unigram distribution raised to the 3/4 power.

Updates are chunked (Ji et al., arXiv:1604.04661): the (centre, context)
pairs of successive sentences are gathered into chunks of exactly
``_CHUNK_PAIRS`` pairs (the last chunk may be shorter, and a long sentence
spans several), and each chunk is one vectorised SGD step whose gradients
are all taken at the chunk's starting weights.  The budget is fixed in
pairs, not sentences, because staleness grows with the chunk: the more
often a word repeats within one chunk, the larger its combined step.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .rnnlm import _sigmoid
from .vocab import Corpus, Vocabulary, VocabularyError, check_sentence

# Floor of the linearly decaying learning rate.
MIN_LR = 1e-4
# (centre, context) pairs per update; larger chunks train on staler weights
_CHUNK_PAIRS = 256


class UnknownTargetError(KeyError):
    """Raised when a nearest-neighbor query names a word with no vector."""


@dataclass
class SkipgramConfig:
    dim: int = 100
    window: int = 5
    negatives: int = 5
    subsample: float = 1e-3
    epochs: int = 5
    lr: float = 0.025
    min_count: int = 1
    seed: int = 0


class WordEmbeddings:
    """Immutable word -> vector table."""

    def __init__(self, words: list[str], vectors: np.ndarray):
        if len(words) != vectors.shape[0]:
            raise ValueError("word count disagrees with vector rows")
        self.words = list(words)
        self.vectors = np.asarray(vectors, dtype=float)
        self.index: dict[str, int] = {}
        for i, w in enumerate(self.words):
            if self.index.setdefault(w, i) != i:
                raise VocabularyError(f"duplicate word {w!r} at rows {self.index[w]} and {i}", i)

    def __contains__(self, word: str) -> bool:
        return word in self.index

    def __len__(self) -> int:
        return len(self.words)

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def vector(self, word: str) -> np.ndarray:
        if word not in self.index:
            raise UnknownTargetError(word)
        return self.vectors[self.index[word]]


def train_skipgram(corpus: Corpus, config: SkipgramConfig = SkipgramConfig()) -> WordEmbeddings:
    """Train embeddings covering every corpus word with count >= min_count.
    A literal <s> or </s> inside a sentence is rejected with its index."""
    if not corpus:
        raise ValueError("empty corpus")
    for name in ("dim", "window"):
        if getattr(config, name) < 1:
            raise ValueError(f"{name} must be >= 1, got {getattr(config, name)}")
    counts = Counter()
    for index, sentence in enumerate(corpus):
        check_sentence(sentence, f"sentence {index}")
        counts.update(sentence)
    vocab_items = sorted(
        ((w, c) for w, c in counts.items() if c >= config.min_count),
        key=lambda item: (-item[1], item[0]),
    )
    if not vocab_items:
        raise ValueError("no words meet min_count")
    words = [w for w, _ in vocab_items]
    freqs = np.array([c for _, c in vocab_items], dtype=float)
    index = {w: i for i, w in enumerate(words)}
    total = freqs.sum()
    encoded = [np.array([index[t] for t in s if t in index], dtype=np.int64) for s in corpus]

    # Noise distribution: unigram^(3/4), sampled via the cumulative table.
    cum = np.cumsum(freqs**0.75)

    keep_prob = np.ones(len(words))
    if config.subsample > 0:
        rel = freqs / total
        with np.errstate(invalid="ignore"):
            keep = (np.sqrt(rel / config.subsample) + 1.0) * config.subsample / rel
        keep_prob = np.minimum(keep, 1.0)

    rng = np.random.default_rng(config.seed)
    w_in = (rng.random((len(words), config.dim)) - 0.5) / config.dim
    w_out = np.zeros((len(words), config.dim))
    # context offsets -window .. -1, 1 .. window, farthest left first
    offsets = np.concatenate([np.arange(-config.window, 0), np.arange(1, config.window + 1)])

    planned = max(1, config.epochs * int(total))
    seen = 0
    pending: list[tuple[np.ndarray, ...]] = []  # (centre, context, lr) per sentence
    n_pending = 0
    for _ in range(config.epochs):
        for sentence, ids in zip(corpus, encoded):
            seen += len(sentence)
            if config.subsample > 0:
                ids = ids[rng.random(len(ids)) < keep_prob[ids]]
            reduced = rng.integers(1, config.window + 1, size=len(ids))
            pos = np.arange(len(ids))[:, None] + offsets
            centre, slot = np.nonzero(
                (np.abs(offsets) <= reduced[:, None]) & (pos >= 0) & (pos < len(ids))
            )
            lr = max(MIN_LR, config.lr * (1.0 - seen / planned))
            pending.append((ids[centre], ids[pos[centre, slot]], np.full(len(centre), lr)))
            n_pending += len(centre)
            if n_pending >= _CHUNK_PAIRS:
                pairs = [np.concatenate(part) for part in zip(*pending)]
                full = n_pending - n_pending % _CHUNK_PAIRS
                for start in range(0, full, _CHUNK_PAIRS):
                    chunk = (a[start : start + _CHUNK_PAIRS] for a in pairs)
                    _update(w_in, w_out, *chunk, cum, config.negatives, rng)
                pending = [tuple(a[full:] for a in pairs)]
                n_pending -= full
    if n_pending:
        pairs = (np.concatenate(part) for part in zip(*pending))
        _update(w_in, w_out, *pairs, cum, config.negatives, rng)
    return WordEmbeddings(words, w_in)


def _update(
    w_in: np.ndarray,
    w_out: np.ndarray,
    centre: np.ndarray,
    context: np.ndarray,
    lr: np.ndarray,
    cum: np.ndarray,
    negatives: int,
    rng: np.random.Generator,
) -> None:
    """One SGD step on a chunk of (centre, context) pairs, each with its own
    learning rate and ``negatives`` noise words drawn from the cumulative
    table ``cum``.  Every gradient is taken at the chunk's starting weights."""
    neg = cum.searchsorted(rng.random((len(centre), negatives)) * cum[-1])
    # Resample negatives that collide with their centre word; after a few
    # rounds drop survivors (degenerate one-word corpora).
    for _attempt in range(16):
        bad = neg == centre[:, None]
        if not bad.any():
            break
        neg[bad] = cum.searchsorted(rng.random(int(bad.sum())) * cum[-1])
    targets = np.concatenate([context[:, None], neg], axis=1)
    labels = np.zeros(targets.shape)
    labels[:, 0] = 1.0
    l1 = w_in[centre]
    out_rows = w_out[targets]
    act = _sigmoid(np.einsum("pd,ptd->pt", l1, out_rows))
    g = (labels - act) * lr[:, None]
    g[:, 1:][neg == centre[:, None]] = 0.0
    # the w_out rows g[p, t] * l1[p] are formed already grouped by target
    rows, order, starts = _segments(targets.ravel())
    pair = order // targets.shape[1]
    w_out[rows] += np.add.reduceat(g.ravel()[order, None] * l1[pair], starts, axis=0)
    rows, order, starts = _segments(centre)
    w_in[rows] += np.add.reduceat(np.einsum("pt,ptd->pd", g, out_rows)[order], starts, axis=0)


def _segments(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group equal ids for a segment sum: the distinct ids in ascending
    order, the stable order that sorts ``ids``, and where each group starts
    in it.  ``np.add.at(table, ids, values)`` is then
    ``table[rows] += np.add.reduceat(values[order], starts, axis=0)``."""
    order = np.argsort(ids, kind="stable")
    ids = ids[order]
    starts = np.flatnonzero(np.concatenate([[True], ids[1:] != ids[:-1]]))
    return ids[starts], order, starts


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(a, b) / (na * nb))


def nearest_in_shortlist(
    embeddings: WordEmbeddings,
    target: str,
    vocab: Vocabulary,
    k: int = 8,
) -> list[tuple[int, float]]:
    """Top-k shortlist content words by cosine similarity to ``target``.

    Reserved tokens and the target itself are excluded; shortlist words with
    no embedding vector are skipped.  Ties break toward the smaller word id.
    Returns (word id, similarity) pairs, best first.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    tvec = embeddings.vector(target)
    ids = [
        wid
        for wid, word in enumerate(vocab.shortlist_words[3:], start=3)
        if word != target and word in embeddings
    ]
    rows = embeddings.vectors[[embeddings.index[vocab.words[wid]] for wid in ids]][:, None, :]
    # One dot product per row, each exactly as ``cosine_similarity`` computes
    # it: a plain gemv rounds equal rows differently by position, breaking ties.
    dots = (rows @ tvec)[:, 0]
    norms = np.sqrt((rows @ rows.transpose(0, 2, 1))[:, 0, 0])
    tnorm = float(np.linalg.norm(tvec))
    with np.errstate(divide="ignore", invalid="ignore"):
        sims = np.where((norms == 0.0) | (tnorm == 0.0), 0.0, dots / (tnorm * norms))
    return [(ids[i], float(sims[i])) for i in np.argsort(-sims, kind="stable")[:k]]


def save_w2v_text(embeddings: WordEmbeddings, path: str | Path) -> None:
    """Text format: "<count> <dim>" header, then one word and vector per line."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(embeddings)} {embeddings.dim}\n")
        for word, row in zip(embeddings.words, embeddings.vectors):
            fh.write(word + " " + " ".join(format(v, ".9g") for v in row) + "\n")


def load_w2v_text(path: str | Path) -> WordEmbeddings:
    """Read the text format; rows are gathered as read, so the header only
    bounds the file, never an allocation."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ValueError("line 1: expected '<count> <dim>' header")
        try:
            count, dim = int(header[0]), int(header[1])
        except ValueError as err:
            raise ValueError("line 1: non-integer header fields") from err
        if count < 0 or dim < 1:
            raise ValueError(f"line 1: need count >= 0 and dim >= 1, got {count} {dim}")
        words: list[str] = []
        line_nos: list[int] = []
        rows: list[list[float]] = []
        for line_no, line in enumerate(fh, start=2):
            fields = line.split()
            if not fields:
                continue
            if len(words) >= count:
                raise ValueError(f"line {line_no}: more vectors than the header declares")
            if len(fields) != dim + 1:
                raise ValueError(
                    f"line {line_no}: expected {dim} values, found {len(fields) - 1}"
                )
            words.append(fields[0])
            line_nos.append(line_no)
            try:
                rows.append([float(v) for v in fields[1:]])
            except ValueError as err:
                raise ValueError(f"line {line_no}: non-numeric vector value") from err
            if not all(map(math.isfinite, rows[-1])):
                raise ValueError(f"line {line_no}: non-finite vector value")
    if len(words) != count:
        raise ValueError(f"header declares {count} vectors, file has {len(words)}")
    try:
        return WordEmbeddings(words, np.array(rows, dtype=float).reshape(count, dim))
    except VocabularyError as err:  # report the line of the repeated word
        raise ValueError(f"line {line_nos[err.word_id]}: {err}") from err
