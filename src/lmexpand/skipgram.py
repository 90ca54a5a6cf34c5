"""Skip-gram word embeddings trained with negative sampling.

Single-threaded and fully deterministic for a given seed.  Defaults follow
the common word2vec settings: dimension 100, window 5, five negative
samples, subsampling threshold 1e-3, five epochs, starting learning rate
0.025 decaying linearly, minimum count 1.  Noise words are drawn from the
unigram distribution raised to the 3/4 power.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .vocab import Corpus, Vocabulary, VocabularyError, check_sentence

# Floor of the linearly decaying learning rate.
MIN_LR = 1e-4


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

    # Noise distribution: unigram^(3/4), sampled via the cumulative table.
    noise = freqs**0.75
    cum = np.cumsum(noise)
    cum_total = cum[-1]

    keep_prob = np.ones(len(words))
    if config.subsample > 0:
        rel = freqs / total
        with np.errstate(invalid="ignore"):
            keep = (np.sqrt(rel / config.subsample) + 1.0) * config.subsample / rel
        keep_prob = np.minimum(keep, 1.0)

    rng = np.random.default_rng(config.seed)
    w_in = (rng.random((len(words), config.dim)) - 0.5) / config.dim
    w_out = np.zeros((len(words), config.dim))

    planned = max(1, config.epochs * int(total))
    seen = 0

    for _ in range(config.epochs):
        for sentence in corpus:
            ids = [index[t] for t in sentence if t in index]
            seen += len(sentence)
            if config.subsample > 0:
                ids = [i for i in ids if rng.random() < keep_prob[i]]
            n = len(ids)
            for pos, center in enumerate(ids):
                reduced = int(rng.integers(1, config.window + 1))
                ctx = ids[max(0, pos - reduced) : pos] + ids[pos + 1 : pos + reduced + 1]
                if not ctx:
                    continue
                lr = max(MIN_LR, config.lr * (1.0 - seen / planned))
                ctx_arr = np.array(ctx, dtype=np.int64)
                n_neg = len(ctx) * config.negatives
                neg = cum.searchsorted(rng.random(n_neg) * cum_total)
                # Resample negatives that collide with the center word; after
                # a few rounds drop survivors (degenerate one-word corpora).
                for _attempt in range(16):
                    bad = neg == center
                    if not bad.any():
                        break
                    neg[bad] = cum.searchsorted(rng.random(int(bad.sum())) * cum_total)
                neg = neg[neg != center]
                targets = np.concatenate([ctx_arr, neg])
                lbl = np.zeros(len(targets))
                lbl[: len(ctx)] = 1.0
                l1 = w_in[center]
                out_rows = w_out[targets]  # copy (fancy index)
                act = 1.0 / (1.0 + np.exp(-(out_rows @ l1)))
                g = (lbl - act) * lr
                np.add.at(w_out, targets, np.outer(g, l1))
                w_in[center] = l1 + g @ out_rows
    return WordEmbeddings(words, w_in)


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
