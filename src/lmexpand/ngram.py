"""Count-based n-gram language model with modified Kneser-Ney smoothing.

The estimator is the interpolated variant with three count-dependent
discounts per order.  Discounts come from counts-of-counts:

    Y  = n1 / (n1 + 2 n2)
    D1 = 1 - 2 Y n2 / n1
    D2 = 2 - 3 Y n3 / n2
    D3 = 3 - 4 Y n4 / n3          (applied to counts >= 3)

Lower orders are estimated from continuation counts (number of distinct
left extensions), except that n-grams starting with the sentence-begin
token keep their raw counts because nothing can ever precede them.  The
unigram level interpolates with a uniform distribution over the predictable
vocabulary, so every word in the vocabulary gets strictly positive
probability.  The sentence-begin token is never predicted.

Probabilities are held as natural logs; the ARPA text format uses log10.

Every lookup reads one index, built from the tables on the first lookup, so
the tables must not change after that.  Per order it holds sorted n-gram
keys, as KenLM's sorted arrays do, with each n-gram's ln p and ln backoff.
A j-gram's id is its rank at order j; its key is the id of its first j - 1
words times (vocabulary size + 1), plus its last word.  Every prefix of a
stored n-gram has an id, so no key reaches (stored n-grams and contexts + 1)
* (vocabulary size + 1), whatever the order.  ``NgramModel.table_events``
scores every event of many sentences in one backoff walk, and
``context_logprobs`` many words under many contexts, whose followers are one
slice of the next order's keys.  Both add the backoff weights longest
context first, as a walk over the tables one word at a time does, so each
score is that walk's bit for bit.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from itertools import chain
from pathlib import Path
from typing import Callable

import numpy as np

from .vocab import BOS_ID, EOS_ID, RESERVED, UNK_ID, Corpus, ParseError, TokenTable, Vocabulary
from .vocab import check_corpus, check_setting, reading, sentence_sums, text_lines, writing

LN10 = math.log(10.0)
# Conventional placeholder for the never-predicted sentence-begin unigram.
LOG10_TINY = -99.0


class NgramModel:
    """Backoff tables over word-id tuples.

    ``probs[k]`` maps (k+1)-gram tuples to ln conditional probability of the
    last word given the first k.  ``backoffs[k]`` maps k-gram contexts to the
    ln backoff weight applied when a (k+1)-gram lookup misses.  A context
    that is not stored backs off with weight 1.
    """

    def __init__(
        self,
        order: int,
        vocab: Vocabulary,
        probs: list[dict[tuple[int, ...], float]],
        backoffs: list[dict[tuple[int, ...], float]],
    ):
        check_setting("order", order, order >= 1, ">= 1")
        self.order = order
        self.vocab = vocab
        self.probs = probs
        self.backoffs = backoffs
        self._index: tuple | None = None  # built by ``_lookup`` on first use

    def _lookup(self) -> tuple:
        """(per order j = 1..N: the sorted keys of its ids then a sentinel key,
        ln p by id (NaN: only a prefix is stored) and ln backoff by id (0: none);
        ln p of <unk>, NaN if there is none).  The sentinel id, one past the
        last, stands for every n-gram an order does not hold.  A unigram's id
        is its word's, so the order-1 keys are every word id."""
        if self._index is None:
            n, stride = self.order, len(self.vocab) + 1
            tables = [(self.probs[k], self.backoffs[k] if k < n - 1 else {}) for k in range(n)]
            # rows[2k], rows[2k + 1]: the stored (k+1)-grams and backoff contexts
            rows = [_gram_rows(table, k + 1) for k, pair in enumerate(tables) for table in pair]
            ids = [r[:, 0] for r in rows]  # the id of each row's first words so far
            keys, levels = np.arange(stride - 1), []
            for j, (scores, bows) in enumerate(tables):
                if j:  # the first j + 1 words of every row that long
                    longer = range(2 * j, len(rows))
                    keys, inverse = np.unique(
                        np.concatenate([ids[i] * stride + rows[i][:, j] for i in longer]),
                        return_inverse=True,
                    )
                    ids[2 * j :] = np.split(inverse, np.cumsum([len(rows[i]) for i in longer])[:-1])
                lps, bow = np.full(len(keys) + 1, np.nan), np.zeros(len(keys) + 1)
                lps[ids[2 * j]] = np.fromiter(scores.values(), float, len(scores))
                bow[ids[2 * j + 1]] = np.fromiter(bows.values(), float, len(bows))
                levels.append((np.append(keys, np.iinfo(np.int64).max), lps, bow))
            self._index = (levels, self.probs[0].get((UNK_ID,), math.nan))
        return self._index

    def _grams(self, seq: np.ndarray, depth: int) -> list[np.ndarray]:
        """Item j - 1: the id of the j-gram of ``seq`` starting at each position,
        for j = 1..depth.  An id outside the vocabulary, such as -1, is in none."""
        levels, _ = self._lookup()
        n_words = len(self.vocab)
        seq = np.where((seq >= 0) & (seq < n_words), seq, n_words)
        nodes = [seq]  # a unigram's id is its word's, and the no-word's the sentinel
        for j in range(1, depth):
            nodes.append(_find(levels[j][0], nodes[-1][: len(seq) - j] * (n_words + 1) + seq[j:]))
        return nodes[:depth]

    def table_events(self, table: TokenTable) -> tuple[np.ndarray, np.ndarray]:
        """(ln P of every event of ``table``, NaN where the model cannot score
        it; each event's context, the order - 1 ids before it, -1 before <s>),
        from one backoff walk the first time a table is asked."""
        if self not in table.results:
            pad, lengths = self.order - 1, table.lengths
            block = lengths + pad + 1  # -1s, <s> and the events of one sentence
            seq = np.full(int(block.sum()), -1, np.int64)
            first = np.cumsum(block) - lengths
            seq[first - 1] = BOS_ID
            events = np.repeat(first - np.cumsum(lengths) + lengths, lengths)
            events += np.arange(len(events))
            seq[events] = table.gather(self.vocab.encode)
            levels, unk = self._lookup()
            grams = self._grams(seq, self.order)
            out, acc = np.full(len(events), np.nan), np.zeros(len(events))
            for j in range(pad, -1, -1):  # context length, longest first
                lps = levels[j][1][grams[j][events - j]]
                hit = np.isnan(out) & ~np.isnan(lps)
                out[hit] = acc[hit] + lps[hit]
                if j:  # a miss backs off by the context's weight, 0 if it has none
                    acc += levels[j - 1][2][grams[j - 1][events - j]]
            out = np.where(np.isnan(out), acc + unk, out)
            table.results[self] = (out, seq[events[:, None] + np.arange(-pad, 0)])
        return table.results[self]

    def context_logprobs(self, contexts: np.ndarray, ids) -> np.ndarray:
        """ln P(w | h) for each row h of ``contexts`` (the order - 1 ids before
        the word, -1 on the left of a shorter context) and each id w of ``ids``,
        one row per context: NaN where the model cannot score w.  Each row
        starts at the unigrams plus every backoff weight of its context; the
        followers of each longer suffix, one slice of the next order's keys,
        overwrite theirs."""
        n, stride = self.order, len(self.vocab) + 1
        if np.shape(contexts)[1:] != (n - 1,):
            raise ValueError(f"context rows must hold order - 1 = {n - 1} ids each")
        levels, unk = self._lookup()
        rows = len(contexts)
        grams = self._grams(np.hstack([np.full((rows, 1), -1), contexts]).ravel(), n - 1)
        # suffix[j]: the id of each context's last j words; acc[j]: the backoff
        # weights a walk adds before it reaches them
        suffix = [None] + [grams[j - 1][np.arange(1, rows + 1) * n - j] for j in range(1, n)]
        acc = [np.zeros(rows)]
        for j in range(n - 1, 0, -1):
            acc.insert(0, acc[0] + levels[j - 1][2][suffix[j]])
        ids = np.asarray(ids, np.int64)
        words, column = np.unique(np.where((ids >= 0) & (ids < stride), ids, stride - 1),
                                  return_inverse=True)
        unigrams = levels[0][1][words]
        out = acc[0][:, None] + np.where(np.isnan(unigrams), unk, unigrams)
        col = np.full(stride, -1)
        col[words] = np.arange(len(words))
        for j in range(1, n):
            keys, lps, _ = levels[j]
            lo = np.searchsorted(keys, suffix[j] * stride)
            count = np.searchsorted(keys, (suffix[j] + 1) * stride) - lo
            row = np.repeat(np.arange(rows), count)
            at = np.repeat(lo - np.cumsum(count) + count, count) + np.arange(len(row))
            c = col[keys[at] % stride]
            keep = (c >= 0) & ~np.isnan(lps[at])
            out[row[keep], c[keep]] = acc[j][row[keep]] + lps[at[keep]]
        return out[:, column]

    def logprobs(self, ids, context: tuple[int, ...] = ()) -> np.ndarray:
        """ln P(w | context) for each vocabulary id w in ``ids``: one row of
        ``context_logprobs``.  A word the model cannot score raises ``ValueError``."""
        h = list(context[max(0, len(context) - self.order + 1) :])
        row = np.array([-1] * (self.order - 1 - len(h)) + h, np.int64).reshape(1, -1)
        [out] = self.context_logprobs(row, ids)
        if failed := first_unscorable(out, lambda i: self.vocab.decode(int(np.asarray(ids)[i]))):
            raise failed[1]
        return out

    def conditional_logprob(self, word: int, context: tuple[int, ...] = ()) -> float:
        """ln P(word | context), backing off through shorter contexts."""
        return float(self.logprobs([word], context)[0])

    def _scored(self, sentences) -> tuple[TokenTable, np.ndarray]:
        """The tokenized sentences' table and ln P of its events.  A word the
        model cannot score raises ``ValueError``."""
        table = TokenTable(sentences)
        scores, _ = self.table_events(table)
        if failed := first_unscorable(scores, lambda i: table.tokens[table.rows[i]]):
            raise failed[1]
        return table, scores

    def score_sentences(self, sentences) -> list[np.ndarray]:
        """ln P of the events of each tokenized sentence: its tokens, then </s>."""
        table, scores = self._scored(sentences)
        return table.split(scores)

    def batch_logprob(self, sentences) -> list[float]:
        """ln P of each tokenized sentence: the LM contract of ``rescoring.rescore``."""
        table, scores = self._scored(sentences)
        return sentence_sums(scores, table.lengths, in_order=True).tolist()

    def sentence_logprob(self, tokens: list[str]) -> float:
        """ln P of a tokenized sentence, including the end-of-sentence event."""
        return self.batch_logprob([tokens])[0]


def first_unscorable(
    scores: np.ndarray, word: Callable[[int], str]
) -> tuple[int, ValueError] | None:
    """The position of the first NaN among ``scores``, which the lookups give
    for a word the model cannot score, and the error naming ``word(position)``;
    None if there is none.  Every check of a closed model goes through here."""
    failed = np.flatnonzero(np.isnan(scores))
    if not failed.size:
        return None
    at = int(failed[0])
    return at, ValueError(
        f"word {word(at)!r} has no unigram in the n-gram model, which has no <unk> either"
    )


def _find(keys: np.ndarray, key: np.ndarray) -> np.ndarray:
    """Where each key is in the sorted ``keys``, or their last (sentinel) position."""
    at = np.searchsorted(keys, key)
    return np.where(keys[at] == key, at, len(keys) - 1)


def _gram_rows(table: dict[tuple[int, ...], float], k: int) -> np.ndarray:
    return np.fromiter(chain.from_iterable(table), np.int64, k * len(table)).reshape(-1, k)


def _estimate_discounts(values, order_k: int) -> tuple[float, float, float]:
    """Discounts for one order from its counts-of-counts.

    Degenerate statistics (any of n1..n4 zero, or a non-positive discount)
    fall back to a single absolute discount of 0.5 with a warning.
    """
    n = Counter(values)
    n1, n2, n3, n4 = n[1], n[2], n[3], n[4]
    if min(n1, n2, n3, n4) > 0:
        y = n1 / (n1 + 2.0 * n2)
        d = (1.0 - 2.0 * y * n2 / n1, 2.0 - 3.0 * y * n3 / n2, 3.0 - 4.0 * y * n4 / n3)
        if min(d) > 0.0:
            return d
    warnings.warn(
        f"degenerate counts-of-counts or non-positive discount at order {order_k}; "
        "falling back to absolute discount 0.5",
        RuntimeWarning,
        stacklevel=3,
    )
    return 0.5, 0.5, 0.5


def train_kn(corpus: Corpus, vocab: Vocabulary, order: int = 5) -> NgramModel:
    """Estimate a modified Kneser-Ney model of the given order.

    Counts run over the full vocabulary: tail words keep their own ids and
    only true out-of-vocabulary tokens collapse to the unknown id.  The
    corpus is checked by ``check_corpus``.
    """
    check_setting("order", order, order >= 1, ">= 1")
    check_corpus(corpus)

    raw: list[Counter] = [Counter() for _ in range(order + 1)]  # raw[k], k in 1..order
    for sentence in corpus:
        padded = [BOS_ID] + [vocab.encode(t) for t in sentence] + [EOS_ID]
        for k in range(1, order + 1):  # the k-grams in order, counted in C
            raw[k].update(zip(*(padded[j:] for j in range(k))))

    # Adjusted counts: raw at the top order, continuation counts below,
    # except that <s>-initial grams keep raw counts (no left extension exists).
    adjusted: list[dict[tuple[int, ...], int]] = list(raw)
    for k in range(order - 1, 0, -1):
        cont = Counter(gram[1:] for gram in raw[k + 1])
        adjusted[k] = {
            gram: (c if gram[0] == BOS_ID else cont.get(gram, 0))
            for gram, c in raw[k].items()
        }
    # Every predictable word follows the empty context, with count 0 when
    # unseen, so it keeps the uniform share; <s> is context only.
    adjusted[1] = {(w,): adjusted[1].get((w,), 0) for w in range(len(vocab)) if w != BOS_ID}
    uniform = 1.0 / (len(vocab) - 1)

    probs: list[dict[tuple[int, ...], float]] = [dict() for _ in range(order)]
    backoffs: list[dict[tuple[int, ...], float]] = [dict() for _ in range(order - 1)]
    for k in range(1, order + 1):
        # the discount of a count, indexed by min(count, 3): none for count 0
        discount = (0.0, *_estimate_discounts(adjusted[k].values(), k))
        by_context: dict[tuple[int, ...], list[tuple[int, int]]] = {}
        for gram, a in adjusted[k].items():
            by_context.setdefault(gram[:-1], []).append((gram[-1], a))
        for h, followers in by_context.items():
            total, n = 0, [0, 0, 0, 0]  # n[j]: followers with min(count, 3) == j
            for _, a in followers:
                total += a
                n[min(a, 3)] += 1
            gamma = (discount[1] * n[1] + discount[2] * n[2] + discount[3] * n[3]) / total
            if h:
                backoffs[k - 2][h] = math.log(gamma)
            for w, a in followers:
                # every k-gram's suffix was counted one order down, so its
                # lower-order probability is one lookup; below the unigrams, uniform
                lower = math.exp(probs[k - 2][h[1:] + (w,)]) if h else uniform
                p = max(a - discount[min(a, 3)], 0.0) / total + gamma * lower
                probs[k - 1][h + (w,)] = math.log(p)
    probs[0][(BOS_ID,)] = LOG10_TINY * LN10
    return NgramModel(order, vocab, probs, backoffs)


def ngram_perplexity(model: NgramModel, corpus: Corpus) -> float:
    """Perplexity over a corpus; end-of-sentence events count as predictions."""
    return sentence_perplexity(model.batch_logprob(corpus), sum(len(s) + 1 for s in corpus))


def sentence_perplexity(sums, events: int) -> float:
    """Perplexity of ``events`` events from their ln P summed sentence by sentence."""
    if events == 0:
        raise ValueError("no scoreable tokens")
    [total] = sentence_sums(np.asarray(sums, float), [len(sums)], in_order=True)
    return math.exp(-float(total) / events)


def export_arpa(model: NgramModel, path: str | Path) -> None:
    """Write the model in the ARPA text format (log10 scores).

    Orders above the highest non-empty table are left out: their contexts
    carry no backoff weight, so leaving them out changes no score, and every
    declared count is positive.  A non-finite score, which ``import_arpa``
    rejects, is refused before writing.
    """
    tables = model.probs[: max(k for k, table in enumerate(model.probs, start=1) if table)]
    out = ["\\data\\\n", *(f"ngram {k}={len(table)}\n" for k, table in enumerate(tables, 1))]
    for k, table in enumerate(tables, start=1):
        bows = model.backoffs[k - 1] if k < len(tables) else {}
        for kind, scores in [("score", table), ("backoff weight", bows)]:
            finite = np.isfinite(np.fromiter(scores.values(), float, len(scores)))
            if not finite.all():  # refuse what import_arpa rejects
                gram = list(scores)[finite.argmin()]
                words = " ".join(model.vocab.decode(i) for i in gram)
                raise ValueError(f"non-finite {kind} {scores[gram]} for {k}-gram {words!r}")
        out.append(f"\n\\{k}-grams:\n")
        for gram in sorted(table):
            words = " ".join(model.vocab.decode(i) for i in gram)
            bow = f"\t{bows.get(gram, 0.0) / LN10:.6f}" if k < len(tables) else ""
            out.append(f"{table[gram] / LN10:.6f}\t{words}{bow}\n")
    writing(path, "".join(out) + "\n\\end\\\n")


def import_arpa(path: str | Path) -> NgramModel:
    """Read an ARPA file back into an NgramModel.

    The vocabulary is reconstructed from the unigram section; reserved
    tokens are prepended when the file does not carry them.  Declared counts
    must be positive, and the unigrams must include </s> or <unk>, so that
    every sentence can be scored.  Parse errors report 1-based line numbers.
    """
    with reading(path) as blob:
        return _parse_arpa(blob)


def _parse_arpa(blob: bytes) -> NgramModel:
    """``import_arpa`` of a file's bytes."""
    raw_lines = text_lines(blob)
    n_lines = max(len(raw_lines), 1)  # an empty file ends on its line 1
    content = ((line, no) for no, raw in enumerate(raw_lines, start=1) if (line := raw.strip()))
    end = ("", n_lines)  # what ``content`` yields past the last line

    line, line_no = next(content, end)
    if line != "\\data\\":
        raise ParseError("expected \\data\\ header", line_no)
    declared: list[int] = []
    for line, line_no in content:
        if not line.startswith("ngram "):
            break
        try:
            k_str, count_str = line[len("ngram ") :].split("=")
            k, count = int(k_str), int(count_str)
        except ValueError as err:
            raise ParseError(f"bad count line: {line!r}", line_no) from err
        if k != len(declared) + 1:
            raise ParseError(f"out-of-order count line: {line!r}", line_no)
        if count < 1:
            raise ParseError(f"count must be positive: {line!r}", line_no)
        declared.append(count)
    else:
        raise ParseError("unexpected end of file in \\data\\ section", n_lines)
    if not declared:
        raise ParseError("no ngram counts declared", line_no)

    order = len(declared)
    # Word ids in file order after the reserved tokens; the unigram section
    # assigns them, so every longer n-gram is encoded as it is read.
    index = {w: i for i, w in enumerate(RESERVED)}
    probs: list[dict[tuple[int, ...], float]] = [dict() for _ in range(order)]
    backoffs: list[dict[tuple[int, ...], float]] = [dict() for _ in range(order - 1)]
    lookup = index.__getitem__
    for k in range(1, order + 1):
        expected = f"\\{k}-grams:"
        if line != expected:
            raise ParseError(f"expected {expected}, found {line!r}", line_no)
        table = probs[k - 1]
        bows = backoffs[k - 1] if k < order else None
        width = k + 1  # the score and k words
        bow_width = k + 2 if k < order else -1  # and a backoff weight, below the top order
        for _ in range(declared[k - 1]):
            line, line_no = next(content, end)
            if not line:
                raise ParseError(f"unexpected end of file in {expected}", n_lines)
            fields = line.split()
            has_bow = len(fields) == bow_width
            if not has_bow and len(fields) != width:
                raise ParseError(f"malformed {k}-gram entry: {line!r}", line_no)
            try:
                log10p = float(fields[0])
                bow = float(fields[-1]) if has_bow else 0.0
            except ValueError as err:
                raise ParseError(f"bad score in entry: {line!r}", line_no) from err
            if not (math.isfinite(log10p) and math.isfinite(bow)):
                raise ParseError(f"non-finite score in entry: {line!r}", line_no)
            if k == 1:
                gram = (index.setdefault(fields[1], len(index)),)
            else:
                try:  # the unigram section precedes every longer n-gram
                    gram = tuple(map(lookup, fields[1:width]))
                except KeyError as err:
                    raise ParseError(
                        f"{k}-gram uses word {err.args[0]!r} with no unigram entry", line_no
                    ) from None
            if gram in table:
                raise ParseError(f"duplicate {k}-gram: {line!r}", line_no)
            table[gram] = log10p * LN10
            if has_bow:
                bows[gram] = bow * LN10
        if k == 1 and (EOS_ID,) not in probs[0] and (UNK_ID,) not in probs[0]:
            # every sentence ends with a </s> event, scored by </s> or <unk>
            raise ParseError("unigram section has neither </s> nor <unk>", line_no)
        line, line_no = next(content, end)
        if not line:
            raise ParseError("missing \\end\\ marker", n_lines)

    if line != "\\end\\":
        raise ParseError(f"expected \\end\\, found {line!r}", line_no)
    return NgramModel(order, Vocabulary(list(index), len(index)), probs, backoffs)
