"""
Skip-gram embeddings and shortlist neighbor queries
===================================================

Trains skip-gram vectors with negative sampling on the synthetic corpus
and asks for the nearest in-shortlist words of tail words. Words from the
same template class land near each other because they share contexts.
"""

from __future__ import annotations

import numpy as np

from lmexpand.datagen import make_template_grammar, sample_corpus
from lmexpand.skipgram import SkipgramConfig, nearest_in_shortlist, train_skipgram
from lmexpand.vocab import build_vocabulary

grammar = make_template_grammar(seed=0)
corpus = sample_corpus(grammar, target_tokens=80_000, seed=1)
vocab = build_vocabulary(corpus, shortlist_size=200, full_size=450)

emb = train_skipgram(corpus, SkipgramConfig(dim=32, window=2, epochs=10, seed=0))
print(f"trained {len(emb)} vectors of dimension {emb.dim}")

# pick tail words (outside the shortlist) that still have embeddings
targets = [w for w in vocab.tail_words if w in emb][:4]
for word in targets:
    cls, rank = grammar.word_class[word]
    neighbors = nearest_in_shortlist(emb, word, vocab, k=3)
    shown = ", ".join(
        f"{vocab.decode(wid)} ({sim:.2f}, class {grammar.word_class[vocab.decode(wid)][0]})"
        for wid, sim in neighbors
    )
    print(f"{word} (class {cls}): {shown}")

# cosine similarity is higher within a class than across classes
def cosine(u: str, v: str) -> float:
    x, y = emb.vector(u), emb.vector(v)
    return float(x @ y / (np.linalg.norm(x) * np.linalg.norm(y)))


a, b = [w for w in vocab.shortlist_words[3:] if grammar.word_class[w][0] == 0][:2]
c = next(w for w in vocab.shortlist_words[3:] if grammar.word_class[w][0] == 5)
print(f"cos({a}, {b}) same class  = {cosine(a, b):.3f}")
print(f"cos({a}, {c}) other class = {cosine(a, c):.3f}")
