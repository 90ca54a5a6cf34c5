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
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from pathlib import Path

from .vocab import BOS, BOS_ID, EOS_ID, RESERVED, UNK_ID, Corpus, Vocabulary

LN10 = math.log(10.0)
# Conventional placeholder for the never-predicted sentence-begin unigram.
LOG10_TINY = -99.0


class ArpaParseError(ValueError):
    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


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
        if order < 1:
            raise ValueError("order must be >= 1")
        self.order = order
        self.vocab = vocab
        self.probs = probs
        self.backoffs = backoffs

    def conditional_logprob(self, word: int, context: tuple[int, ...] = ()) -> float:
        """ln P(word | context), backing off through shorter contexts."""
        if self.order > 1:
            h = tuple(context)[-(self.order - 1) :]
        else:
            h = ()
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

    def conditional_prob(self, word: int, context: tuple[int, ...] = ()) -> float:
        return math.exp(self.conditional_logprob(word, context))

    def sentence_logprob(self, tokens: list[str]) -> float:
        """ln P of a tokenized sentence, including the end-of-sentence event."""
        logprobs = self.sentence_logprobs(tokens)
        return float(sum(logprobs))

    def sentence_logprobs(self, tokens: list[str]) -> list[float]:
        ids = [self.vocab.encode(t) for t in tokens]
        seq = [BOS_ID] + ids + [EOS_ID]
        out = []
        for i in range(1, len(seq)):
            out.append(self.conditional_logprob(seq[i], tuple(seq[:i])))
        return out


def _estimate_discounts(values, order_k: int) -> tuple[float, float, float]:
    """Discounts for one order from its counts-of-counts.

    Degenerate statistics (any of n1..n4 zero, or a non-positive discount)
    fall back to a single absolute discount of 0.5 with a warning.
    """
    n = Counter()
    for v in values:
        if 1 <= v <= 4:
            n[v] += 1
    n1, n2, n3, n4 = n[1], n[2], n[3], n[4]
    if min(n1, n2, n3, n4) == 0:
        warnings.warn(
            f"degenerate counts-of-counts at order {order_k}; "
            "falling back to absolute discount 0.5",
            RuntimeWarning,
            stacklevel=3,
        )
        return 0.5, 0.5, 0.5
    y = n1 / (n1 + 2.0 * n2)
    d1 = 1.0 - 2.0 * y * n2 / n1
    d2 = 2.0 - 3.0 * y * n3 / n2
    d3 = 3.0 - 4.0 * y * n4 / n3
    if d1 <= 0.0 or d2 <= 0.0 or d3 <= 0.0:
        warnings.warn(
            f"non-positive estimated discount at order {order_k}; "
            "falling back to absolute discount 0.5",
            RuntimeWarning,
            stacklevel=3,
        )
        return 0.5, 0.5, 0.5
    return d1, d2, d3


def _discount_for(count: int, d: tuple[float, float, float]) -> float:
    if count <= 0:
        return 0.0
    if count == 1:
        return d[0]
    if count == 2:
        return d[1]
    return d[2]


def train_kn(corpus: Corpus, vocab: Vocabulary, order: int = 5) -> NgramModel:
    """Estimate a modified Kneser-Ney model of the given order.

    Counts run over the full vocabulary: tail words keep their own ids and
    only true out-of-vocabulary tokens collapse to the unknown id.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if not corpus:
        raise ValueError("empty corpus")

    raw: list[Counter] = [Counter() for _ in range(order + 1)]  # raw[k], k in 1..order
    for sentence in corpus:
        padded = [BOS_ID] + [vocab.encode(t) for t in sentence] + [EOS_ID]
        for k in range(1, order + 1):
            for i in range(len(padded) - k + 1):
                raw[k][tuple(padded[i : i + k])] += 1

    # Adjusted counts: raw at the top order, continuation counts below,
    # except that <s>-initial grams keep raw counts (no left extension exists).
    adjusted: list[dict[tuple[int, ...], int]] = [dict() for _ in range(order + 1)]
    adjusted[order] = dict(raw[order])
    for k in range(order - 1, 0, -1):
        cont: Counter = Counter()
        for gram in raw[k + 1]:
            cont[gram[1:]] += 1
        adjusted[k] = {
            gram: (c if gram[0] == BOS_ID else cont.get(gram, 0))
            for gram, c in raw[k].items()
        }
    # The sentence-begin token is context-only; drop its unigram.
    adjusted[1].pop((BOS_ID,), None)

    discounts = [
        _estimate_discounts(adjusted[k].values(), k) for k in range(1, order + 1)
    ]

    n_predictable = len(vocab) - 1  # everything but <s>
    uniform = 1.0 / n_predictable

    probs: list[dict[tuple[int, ...], float]] = [dict() for _ in range(order)]
    backoffs: list[dict[tuple[int, ...], float]] = [dict() for _ in range(max(order - 1, 0))]
    model = NgramModel(order, vocab, probs, backoffs)

    # Unigrams: every predictable word is stored so unseen words keep the
    # uniform-interpolated share.
    d1 = discounts[0]
    total1 = sum(adjusted[1].values())
    if total1 <= 0:
        raise ValueError("corpus produced no countable unigrams")
    gamma1 = (
        d1[0] * sum(1 for v in adjusted[1].values() if v == 1)
        + d1[1] * sum(1 for v in adjusted[1].values() if v == 2)
        + d1[2] * sum(1 for v in adjusted[1].values() if v >= 3)
    ) / total1
    for wid in range(len(vocab)):
        if wid == BOS_ID:
            continue
        a = adjusted[1].get((wid,), 0)
        p = max(a - _discount_for(a, d1), 0.0) / total1 + gamma1 * uniform
        probs[0][(wid,)] = math.log(p)
    probs[0][(BOS_ID,)] = LOG10_TINY * LN10

    for k in range(2, order + 1):
        dk = discounts[k - 1]
        by_context: dict[tuple[int, ...], list[tuple[int, int]]] = {}
        for gram, a in adjusted[k].items():
            by_context.setdefault(gram[:-1], []).append((gram[-1], a))
        for h, followers in by_context.items():
            total = sum(a for _, a in followers)
            n1c = sum(1 for _, a in followers if a == 1)
            n2c = sum(1 for _, a in followers if a == 2)
            n3c = sum(1 for _, a in followers if a >= 3)
            gamma = (dk[0] * n1c + dk[1] * n2c + dk[2] * n3c) / total
            backoffs[k - 2][h] = math.log(gamma)
            lower_ctx = h[1:]
            for w, a in followers:
                lower = math.exp(model.conditional_logprob(w, lower_ctx))
                p = max(a - _discount_for(a, dk), 0.0) / total + gamma * lower
                probs[k - 1][h + (w,)] = math.log(p)

    return model


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
    """Write the model in the ARPA text format (log10 scores)."""
    sections: list[list[str]] = []
    counts: list[int] = []
    for k in range(1, model.order + 1):
        entries = sorted(model.probs[k - 1].keys())
        counts.append(len(entries))
        lines = []
        for gram in entries:
            log10p = model.probs[k - 1][gram] / LN10
            words = " ".join(model.vocab.decode(i) for i in gram)
            if k < model.order:
                bow = model.backoffs[k - 1].get(gram, 0.0) / LN10
                lines.append(f"{log10p:.6f}\t{words}\t{bow:.6f}")
            else:
                lines.append(f"{log10p:.6f}\t{words}")
        sections.append(lines)

    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\\data\\\n")
        for k, c in enumerate(counts, start=1):
            fh.write(f"ngram {k}={c}\n")
        for k, lines in enumerate(sections, start=1):
            fh.write(f"\n\\{k}-grams:\n")
            for line in lines:
                fh.write(line + "\n")
        fh.write("\n\\end\\\n")


def import_arpa(path: str | Path) -> NgramModel:
    """Read an ARPA file back into an NgramModel.

    The vocabulary is reconstructed from the unigram section; reserved
    tokens are prepended when the file does not carry them.  Parse errors
    report 1-based line numbers.
    """
    with open(path, encoding="utf-8") as fh:
        raw_lines = fh.read().splitlines()

    i = 0
    n_lines = len(raw_lines)

    def next_content() -> tuple[str, int] | None:
        nonlocal i
        while i < n_lines:
            line = raw_lines[i].strip()
            i += 1
            if line:
                return line, i
        return None

    item = next_content()
    if item is None or item[0] != "\\data\\":
        raise ArpaParseError("expected \\data\\ header", item[1] if item else n_lines)
    declared: list[int] = []
    while True:
        item = next_content()
        if item is None:
            raise ArpaParseError("unexpected end of file in \\data\\ section", n_lines)
        line, line_no = item
        if line.startswith("ngram "):
            try:
                k_str, count_str = line[len("ngram ") :].split("=")
                k, count = int(k_str), int(count_str)
            except ValueError as err:
                raise ArpaParseError(f"bad count line: {line!r}", line_no) from err
            if k != len(declared) + 1:
                raise ArpaParseError(f"out-of-order count line: {line!r}", line_no)
            declared.append(count)
            continue
        break
    if not declared:
        raise ArpaParseError("no ngram counts declared", item[1])

    order = len(declared)
    str_probs: list[dict[tuple[str, ...], float]] = [dict() for _ in range(order)]
    str_bows: list[dict[tuple[str, ...], float]] = [dict() for _ in range(max(order - 1, 0))]

    for k in range(1, order + 1):
        expected = f"\\{k}-grams:"
        line, line_no = item
        if line != expected:
            raise ArpaParseError(f"expected {expected}, found {line!r}", line_no)
        for _ in range(declared[k - 1]):
            entry = next_content()
            if entry is None:
                raise ArpaParseError(f"unexpected end of file in {expected}", n_lines)
            line, line_no = entry
            fields = line.split()
            if len(fields) == k + 1:
                has_bow = False
            elif len(fields) == k + 2 and k < order:
                has_bow = True
            else:
                raise ArpaParseError(f"malformed {k}-gram entry: {line!r}", line_no)
            try:
                log10p = float(fields[0])
                bow = float(fields[-1]) if has_bow else 0.0
            except ValueError as err:
                raise ArpaParseError(f"bad score in entry: {line!r}", line_no) from err
            if not (math.isfinite(log10p) and math.isfinite(bow)):
                raise ArpaParseError(f"non-finite score in entry: {line!r}", line_no)
            words = tuple(fields[1 : k + 1])
            if words in str_probs[k - 1]:
                raise ArpaParseError(f"duplicate {k}-gram: {line!r}", line_no)
            unknown = [w for w in words if (w,) not in str_probs[0] and w not in RESERVED]
            if k > 1 and unknown:  # the unigram section precedes every longer n-gram
                raise ArpaParseError(
                    f"{k}-gram uses word {unknown[0]!r} with no unigram entry", line_no
                )
            str_probs[k - 1][words] = log10p * LN10
            if has_bow:
                str_bows[k - 1][words] = bow * LN10
        item = next_content()
        if item is None:
            raise ArpaParseError("missing \\end\\ marker", n_lines)

    line, line_no = item
    if line != "\\end\\":
        raise ArpaParseError(f"expected \\end\\, found {line!r}", line_no)

    words = list(RESERVED) + [w for (w,) in str_probs[0] if w not in RESERVED]
    vocab = Vocabulary(words, len(words))

    probs = [
        {tuple(vocab.encode(w) for w in gram): lp for gram, lp in str_probs[k].items()}
        for k in range(order)
    ]
    backoffs = [
        {tuple(vocab.encode(w) for w in gram): b for gram, b in str_bows[k].items()}
        for k in range(max(order - 1, 0))
    ]
    return NgramModel(order, vocab, probs, backoffs)
