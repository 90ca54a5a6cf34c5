"""
Vocabulary construction and a smoothed n-gram model
===================================================

Builds a frequency-ranked vocabulary with a shortlist boundary, trains a
trigram model with modified Kneser-Ney smoothing, and round-trips it
through the standard text format.
"""

from __future__ import annotations

import tempfile
import warnings
from pathlib import Path

import numpy as np

from lmexpand.datagen import make_template_grammar, sample_corpus
from lmexpand.ngram import export_arpa, import_arpa, ngram_perplexity, train_kn
from lmexpand.vocab import build_vocabulary

# a deterministic synthetic corpus: 500 words in 10 classes, sampled from
# probabilistic sentence templates
grammar = make_template_grammar(seed=0)
corpus = sample_corpus(grammar, target_tokens=8_000, seed=1)
print(f"corpus: {len(corpus)} sentences, {sum(len(s) for s in corpus)} tokens")

# the shortlist holds the most frequent words (reserved tokens included);
# everything between shortlist_size and full_size is the tail
vocab = build_vocabulary(corpus, shortlist_size=200, full_size=450)
print(f"vocabulary: {len(vocab)} words, shortlist {vocab.shortlist_size}")
print("most frequent content words:", vocab.shortlist_words[3:8])
print("first tail words:", vocab.tail_words[:5])

# template text is so regular that no word has exactly one distinct
# predecessor, so the order-1 discount statistics are degenerate and the
# estimator warns and falls back to a flat 0.5 discount for that order
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    ngram = train_kn(corpus, vocab, order=3)
for w in caught:
    print(f"note: {w.message}")

# conditional probabilities come from the interpolated backoff recursion,
# looked up for every predictable word of one context at once
w0 = vocab.shortlist_words[3]
w1 = vocab.shortlist_words[4]
ctx = (vocab.encode(w0),)
probs = np.exp(ngram.logprobs(np.arange(1, len(vocab)), ctx))  # ids 1.. (no <s>)
print(f"P({w1} | {w0}) = {probs[vocab.encode(w1) - 1]:.6f}")

# sums over the whole vocabulary stay normalized in every context
print(f"sum over vocabulary in that context: {probs.sum():.9f}")

ppl = ngram_perplexity(ngram, sample_corpus(grammar, 3_000, seed=2))
print(f"held-out perplexity: {ppl:.2f}")

# ARPA text round trip preserves the model
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "model.arpa"
    export_arpa(ngram, path)
    size = path.stat().st_size
    again = import_arpa(path)
[p_again] = np.exp(again.logprobs([vocab.encode(w1)], ctx))
print(f"ARPA file: {size} bytes; round-trip P = {p_again:.6f}")
