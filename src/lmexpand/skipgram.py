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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .rnnlm import _sigmoid
from .vocab import Corpus, ParseError, Vocabulary, VocabularyError, check_setting, ranked_words
from .vocab import reading, text_lines, word_index, writing

# Floor of the linearly decaying learning rate.
MIN_LR = 1e-4
# (centre, context) pairs per update; larger chunks train on staler weights
_CHUNK_PAIRS = 256
# targets per neighbour search pass: its arrays hold one entry per (target, shortlist row)
_TARGET_BLOCK = 256


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
        self.index = word_index(self.words, "row")

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
    """Train embeddings covering every corpus word with count >= min_count,
    ranked by ``ranked_words`` (which checks the corpus)."""
    ranked = ranked_words(corpus)
    for name, ok, bound in [
        ("dim", config.dim >= 1, ">= 1"),
        ("window", config.window >= 1, ">= 1"),
        ("negatives", config.negatives >= 0, ">= 0"),
        ("subsample", 0 <= config.subsample < math.inf, "finite and >= 0"),
        ("epochs", config.epochs >= 0, ">= 0"),
        ("lr", 0 < config.lr < math.inf, "finite and > 0"),
        ("seed", config.seed >= 0, ">= 0"),
    ]:
        check_setting(name, getattr(config, name), ok, bound)
    words = [w for w, c in ranked if c >= config.min_count]  # a prefix of the ranking
    if not words:
        raise ValueError("no words meet min_count")
    freqs = np.array([c for _, c in ranked[: len(words)]], dtype=float)
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
    # what _update gathers per pair: its w_in row, the w_out rows of its targets
    # (the context word, then the noise words) and their products with that row
    width = config.negatives + 1
    buffers = [np.empty((_CHUNK_PAIRS, k, config.dim)) for k in (1, width, width)]

    planned = max(1, config.epochs * int(total))
    seen = 0
    pending: list[tuple] = []  # (kept ids, reduced windows, lr, pair count) per sentence
    pairs = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), np.empty(0))
    n_pending = 0
    for _ in range(config.epochs):
        for sentence, ids in zip(corpus, encoded):
            seen += len(sentence)
            if config.subsample > 0:
                ids = ids[rng.random(len(ids)) < keep_prob[ids]]
            reduced = rng.integers(1, config.window + 1, size=len(ids))
            # each word's contexts within its reduced window and its sentence
            at = np.arange(len(ids))
            count = int((np.minimum(reduced, at) + np.minimum(reduced, at[::-1])).sum())
            pending.append((ids, reduced, max(MIN_LR, config.lr * (1.0 - seen / planned)), count))
            n_pending += count
            if n_pending >= _CHUNK_PAIRS:
                pairs = _pairs(pending, offsets, pairs)
                full = n_pending - n_pending % _CHUNK_PAIRS
                for start in range(0, full, _CHUNK_PAIRS):
                    chunk = (a[start : start + _CHUNK_PAIRS] for a in pairs)
                    _update(w_in, w_out, *chunk, cum, config.negatives, rng, buffers)
                pairs = tuple(a[full:] for a in pairs)
                pending = []
                n_pending -= full
    if n_pending:
        pairs = _pairs(pending, offsets, pairs) if pending else pairs
        _update(w_in, w_out, *pairs, cum, config.negatives, rng, buffers)
    return WordEmbeddings(words, w_in)


def _pairs(pending: list[tuple], offsets: np.ndarray, carried: tuple) -> tuple:
    """The (centre, context, lr) pairs of the ``pending`` sentences, after the
    ``carried`` ones: centres in order, each one's contexts in ``offsets``
    order, kept within its reduced window and its sentence."""
    ids, reduced, lrs, counts = zip(*pending)
    lengths = np.array([len(a) for a in ids])
    ids, reduced = np.concatenate(ids), np.concatenate(reduced)
    # each word's position in its sentence, and that sentence's length
    at = np.arange(len(ids)) - (lengths.cumsum() - lengths).repeat(lengths)
    n = lengths.repeat(lengths)[:, None]
    pos = at[:, None] + offsets
    centre, slot = np.nonzero((np.abs(offsets) <= reduced[:, None]) & (pos >= 0) & (pos < n))
    new = (ids[centre], ids[centre + offsets[slot]], np.array(lrs).repeat(counts))
    return tuple(np.concatenate(part) for part in zip(carried, new))


def _update(
    w_in: np.ndarray,
    w_out: np.ndarray,
    centre: np.ndarray,
    context: np.ndarray,
    lr: np.ndarray,
    cum: np.ndarray,
    negatives: int,
    rng: np.random.Generator,
    buffers: list[np.ndarray],
) -> None:
    """One SGD step on a chunk of (centre, context) pairs, each with its own
    learning rate and ``negatives`` noise words drawn from the cumulative
    table ``cum``.  Every gradient is taken at the chunk's starting weights.
    ``buffers`` hold what is gathered per pair, for up to ``_CHUNK_PAIRS``."""
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
    # mode "clip" (the ids are in range) lets take write straight into out
    n = len(centre)
    l1 = np.take(w_in, centre, axis=0, out=buffers[0][:n, 0], mode="clip")
    out_rows = np.take(w_out, targets, axis=0, out=buffers[1][:n], mode="clip")
    act = _sigmoid(np.einsum("pd,ptd->pt", l1, out_rows))
    g = (labels - act) * lr[:, None]
    g[:, 1:][neg == centre[:, None]] = 0.0
    # the w_out rows g[p, t] * l1[p] are formed already grouped by target
    rows, order, starts = _segments(targets.ravel())
    pair = order // targets.shape[1]
    grouped = np.take(l1, pair, axis=0, out=buffers[2][:n].reshape(len(pair), -1), mode="clip")
    grouped *= g.ravel()[order, None]
    w_out[rows] += np.add.reduceat(grouped, starts, axis=0)
    rows, order, starts = _segments(centre)
    w_in[rows] += np.add.reduceat(np.einsum("pt,ptd->pd", g, out_rows)[order], starts, axis=0)


def _segments(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group equal ids for a segment sum: the distinct ids in ascending
    order, the stable order that sorts ``ids``, and where each group starts
    in it.  ``table[rows] += np.add.reduceat(values[order], starts, axis=0)``
    is then ``np.add.at(table, ids, values)`` within rounding: reduceat sums
    a segment as its first row plus numpy's pairwise sum of the rest (numpy
    2.4), not left to right, and the pinned skip-gram vectors hold that order."""
    order = np.argsort(ids, kind="stable")
    ids = ids[order]
    starts = np.flatnonzero(np.concatenate([[True], ids[1:] != ids[:-1]]))
    return ids[starts], order, starts


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
    return _neighbor_search(embeddings, vocab, [target], k)[0]


def _neighbor_search(embeddings: WordEmbeddings, vocab: Vocabulary, targets: list[str], k: int):
    """``nearest_in_shortlist`` of every target, in one pass: ``k`` is checked,
    and the embedded shortlist content words, their rows and norms gathered, once."""
    check_setting("k", k, k >= 1, ">= 1")
    if len(targets) > _TARGET_BLOCK:
        blocks = (targets[at : at + _TARGET_BLOCK] for at in range(0, len(targets), _TARGET_BLOCK))
        return [near for block in blocks for near in _neighbor_search(embeddings, vocab, block, k)]
    ids = [wid for wid, word in enumerate(vocab.shortlist_words[3:], start=3) if word in embeddings]
    rows = embeddings.vectors[[embeddings.index[vocab.words[wid]] for wid in ids]][:, None, :]
    tvecs = np.reshape([embeddings.vector(t) for t in targets], (len(targets), 1, embeddings.dim))
    # One dot product per row for the norms and per (target, row) pair for the
    # dots, each exactly as ``np.dot`` of the pair computes it: a plain gemm or
    # gemv rounds equal rows differently by position, breaking ties.
    norms = np.sqrt((rows @ rows.transpose(0, 2, 1))[:, 0, 0])
    tnorms = np.sqrt((tvecs @ tvecs.transpose(0, 2, 1))[:, :, 0])
    dots = (rows[None] @ tvecs[:, :, :, None])[:, :, 0, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        sims = np.where((norms == 0.0) | (tnorms == 0.0), 0.0, dots / (tnorms * norms))
    # the k + 1 best of each target in stable-sort order; a target inside the
    # shortlist is left out of its own list, which keeps the others in the same order
    order = _top_columns(sims, k + 1)
    found = zip(np.array(ids, np.intp)[order].tolist(), np.take_along_axis(sims, order, 1).tolist())
    own = map(vocab.encode, targets)
    return [[pair for pair in zip(*row) if pair[0] != wid][:k] for row, wid in zip(found, own)]


def _top_columns(sims: np.ndarray, n: int) -> np.ndarray:
    """``np.argsort(-sims, axis=1, kind="stable")[:, :n]`` without sorting a row:
    n ``argmax`` passes, each masking its picks with -inf.  ``argmax`` takes the
    first of equal maxima (0.0 and -0.0 are equal), as the stable sort keeps
    equal values in column order.  Rows are sorted when n reaches their width
    or a value is not finite (the sort puts NaN last, ``argmax`` first)."""
    if n >= sims.shape[1] or not np.isfinite(sims).all():
        return np.argsort(-sims, axis=1, kind="stable")[:, :n]
    work, rows = sims.copy(), np.arange(len(sims))
    picks = np.empty((len(sims), n), np.intp)
    for at in range(n):
        picks[:, at] = work.argmax(axis=1)
        work[rows, picks[:, at]] = -np.inf
    return picks


def save_w2v_text(embeddings: WordEmbeddings, path: str | Path) -> None:
    """Text format: "<count> <dim>" header, then one word and vector per line.
    A non-finite value, which ``load_w2v_text`` rejects, is refused before writing."""
    finite = np.isfinite(embeddings.vectors).all(axis=1)
    if not finite.all():
        raise ValueError(f"non-finite vector value for word {embeddings.words[finite.argmin()]!r}")
    row_format = "%s" + " %.9g" * embeddings.dim + "\n"
    rows = zip(embeddings.words, embeddings.vectors)
    body = "".join(row_format % (word, *row.tolist()) for word, row in rows)
    writing(path, f"{len(embeddings)} {embeddings.dim}\n" + body)


def load_w2v_text(path: str | Path) -> WordEmbeddings:
    """Read the text format; rows are gathered as read, so the header only
    bounds the file, never an allocation."""
    with reading(path) as blob:
        return _parse_w2v_text(blob)


def _parse_w2v_text(blob: bytes) -> WordEmbeddings:
    """``load_w2v_text`` of a file's bytes."""
    lines = text_lines(blob)
    try:
        count, dim = map(int, lines[0].split() if lines else ())
    except ValueError as err:  # too few or too many fields, or not integers
        raise ParseError("expected a '<count> <dim>' header of two integers", 1) from err
    if count < 0 or dim < 1:
        raise ParseError(f"need count >= 0 and dim >= 1, got {count} {dim}", 1)
    words: list[str] = []
    rows: list[list[float]] = []
    for line_no, line in enumerate(lines[1:], start=2):
        fields = line.split()
        if not fields:
            continue
        if len(words) >= count:
            raise ParseError("more vectors than the header declares", line_no)
        if len(fields) != dim + 1:
            raise ParseError(f"expected {dim} values, found {len(fields) - 1}", line_no)
        words.append(fields[0])
        try:
            rows.append([float(v) for v in fields[1:]])
        except ValueError as err:
            raise ParseError("non-numeric vector value", line_no) from err
        if not all(map(math.isfinite, rows[-1])):
            raise ParseError("non-finite vector value", line_no)
    if len(words) != count:  # reported on the last line, where the file ends
        raise ParseError(f"header declares {count} vectors, file has {len(words)}", len(lines))
    try:
        return WordEmbeddings(words, np.array(rows, dtype=float).reshape(count, dim))
    except VocabularyError as err:  # report the line of the repeated word's row
        row_lines = [no for no, line in enumerate(lines[1:], start=2) if line.split()]
        raise ParseError(str(err), row_lines[err.word_id]) from err
