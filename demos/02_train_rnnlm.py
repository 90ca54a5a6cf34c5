"""
Training the shortlist LSTM language model
==========================================

Trains a small recurrent LM with truncated backpropagation through time,
tracks validation perplexity per epoch, and shows the checkpoint format
restoring the model bit for bit.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from lmexpand.datagen import make_template_grammar, sample_corpus
from lmexpand.rnnlm import (
    TrainConfig,
    corpus_perplexity,
    init_model,
    load_checkpoint,
    save_checkpoint,
    score_batch,
    train_bptt,
)
from lmexpand.vocab import build_vocabulary

grammar = make_template_grammar(seed=0)
train = sample_corpus(grammar, target_tokens=20_000, seed=1)
val = sample_corpus(grammar, target_tokens=2_000, seed=2)

# words outside the shortlist share the unknown node during training
vocab = build_vocabulary(train, shortlist_size=150, full_size=400)
model = init_model(vocab, embed_dim=24, hidden_dim=48, num_layers=1, seed=0)

config = TrainConfig(unroll=16, dropout=0.0, lr=0.5, clip=5.0, epochs=3, batch=16, seed=0)
model, history = train_bptt(model, train, config, val_corpus=val)
for epoch, ppl in enumerate(history, start=1):
    print(f"epoch {epoch}: validation perplexity {ppl:.2f}")

# score one sentence token by token
sentence = val[0]
ids = [vocab.encode(t, shortlist_only=True) for t in sentence]
logps = score_batch(model, [ids])[0]
print("sample sentence:", " ".join(sentence[:6]), "...")
print("per-token ln P:", [round(float(x), 3) for x in logps[:6]])

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "model.bin"
    save_checkpoint(model, path)
    restored = load_checkpoint(path)
    same = corpus_perplexity(restored, val) == corpus_perplexity(model, val)
    print(f"checkpoint: {path.stat().st_size} bytes, restored perplexity identical: {same}")
