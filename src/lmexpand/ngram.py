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

``NgramModel.logprobs`` scores many words under one context from a follower
index (context -> follower ids and ln p, per order, as in KenLM's sorted
per-context arrays).  The index is built from the tables on the first call,
so the tables must not change after that.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from itertools import chain
from pathlib import Path

import numpy as np

from .vocab import BOS_ID, EOS_ID, RESERVED, UNK_ID, Corpus, ParseError, Vocabulary
from .vocab import check_corpus, check_setting, reading, text_lines, writing

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
        self._index: tuple | None = None  # built by ``_follower_index`` on first use

    def conditional_logprob(self, word: int, context: tuple[int, ...] = ()) -> float:
        """ln P(word | context), backing off through shorter contexts."""
        h = tuple(context)[-(self.order - 1) :] if self.order > 1 else ()
        acc = 0.0
        while True:
            entry = self.probs[len(h)].get(h + (word,))
            if entry is not None:
                return acc + entry
            if not h:
                unk = self.probs[0].get((UNK_ID,))
                if unk is None:
                    raise KeyError(f"word id {word} has no unigram probability")
                return acc + unk
            acc += self.backoffs[len(h) - 1].get(h, 0.0)
            h = h[1:]

    def _follower_index(self) -> tuple:
        """(unigram ln p by word id, per context length k >= 1:
        (context -> slice, follower ids, ln p)).

        Each longer order's n-grams are sorted by context, so the followers
        of one context are one slice of the two arrays.  An id without a
        unigram takes the <unk> score, or NaN when there is no <unk>: the
        tables themselves hold only finite scores.
        """
        if self._index is None:
            unk = self.probs[0].get((UNK_ID,))
            unigrams = np.full(len(self.vocab), math.nan if unk is None else unk)
            for (word,), lp in self.probs[0].items():
                unigrams[word] = lp
            levels = []
            for n, table in enumerate(self.probs[1:], start=2):
                grams = list(table)
                flat = np.fromiter(chain.from_iterable(grams), np.intp, n * len(grams))
                flat = flat.reshape(-1, n)
                by_context = np.lexsort(flat[:, -2::-1].T)  # stable, first word major
                flat = flat[by_context]
                first = np.ones(len(grams), dtype=bool)
                first[1:] = (flat[1:, :-1] != flat[:-1, :-1]).any(axis=1)
                starts = np.flatnonzero(first)
                bounds = [*starts.tolist(), len(grams)]
                spans = {
                    grams[i][:-1]: slice(lo, hi)
                    for i, lo, hi in zip(by_context[starts].tolist(), bounds, bounds[1:])
                }
                lps = np.fromiter(table.values(), float, len(grams))[by_context]
                levels.append((spans, flat[:, -1].copy(), lps))
            self._index = (unigrams, levels)
        return self._index

    def logprobs(self, ids, context: tuple[int, ...] = ()) -> np.ndarray:
        """ln P(w | context) for each vocabulary id w in ``ids``, bit for bit
        ``conditional_logprob(w, context)``.

        One vector over the vocabulary starts at the unigram level; the
        followers of each longer context suffix overwrite it.  The backoff
        weights are summed longest context first, as the scalar walk adds
        them, so each score is the same two-term sum.
        """
        unigrams, levels = self._follower_index()
        h = tuple(context)[-(self.order - 1) :] if self.order > 1 else ()
        # acc[j]: backoff weights added before a walk from h reaches level j
        acc = [0.0] * (len(h) + 1)
        for j in range(len(h), 0, -1):
            acc[j - 1] = acc[j] + self.backoffs[j - 1].get(h[-j:], 0.0)
        scores = acc[0] + unigrams
        for j, (spans, followers, lps) in enumerate(levels[: len(h)], start=1):
            span = spans.get(h[-j:])
            if span is not None:
                scores[followers[span]] = acc[j] + lps[span]
        ids = np.asarray(ids, dtype=np.intp)
        out = scores[ids]
        fell_through = np.isnan(out)  # reached the unigram level, which lacks them
        if fell_through.any():
            raise KeyError(f"word id {int(ids[fell_through][0])} has no unigram probability")
        return out

    def conditional_prob(self, word: int, context: tuple[int, ...] = ()) -> float:
        return math.exp(self.conditional_logprob(word, context))

    def sentence_logprob(self, tokens: list[str]) -> float:
        """ln P of a tokenized sentence, including the end-of-sentence event."""
        return float(sum(self.sentence_logprobs(tokens)))

    def sentence_logprobs(self, tokens: list[str]) -> list[float]:
        ids = [self.vocab.encode(t) for t in tokens]
        seq = [BOS_ID] + ids + [EOS_ID]
        return [self.conditional_logprob(seq[i], tuple(seq[:i])) for i in range(1, len(seq))]


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
    total = 0.0
    n = 0
    for sentence in corpus:
        lps = model.sentence_logprobs(sentence)
        total += sum(lps)
        n += len(lps)
    if n == 0:
        raise ValueError("no scoreable tokens")
    return math.exp(-total / n)


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
