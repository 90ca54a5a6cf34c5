"""
End-to-end n-best rescoring pipeline
====================================

Generates a small bundled fixture (corpora, vocabulary, noised n-best
lists, reference transcripts), trains all three models, and runs the
pipeline, once with the uniform and once with the ngram policy for words
outside the shortlist, that compares

    ngram            full-vocabulary trigram rescoring
    rnnlm            shortlist LSTM rescoring
    rnnlm-expanded   the same LSTM after vocabulary expansion

on perplexity and word error rate. Everything here is also reachable
through the command line:

    lmexpand make-fixture --out-dir work ...
    lmexpand pipeline --config work/uniform.cfg work/ngram.cfg
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from lmexpand.cli import main

with tempfile.TemporaryDirectory() as tmp:
    work = Path(tmp)

    # the fixture: a 120-word grammar, 8k training tokens, 20-deep n-best
    # lists over 60 test utterances; seeds make it reproducible
    rc = main([
        "make-fixture", "--out-dir", str(work),
        "--classes", "6", "--words-per-class", "20",
        "--train-tokens", "8000", "--val-tokens", "1000", "--test-tokens", "600",
        "--shortlist", "60", "--full", "140", "--depth", "20", "--seed", "0",
    ])
    assert rc == 0
    print("fixture files:", sorted(p.name for p in work.iterdir()))

    main(["build-ngram", "--order", "3", "--corpus", str(work / "train.txt"),
          "--vocab", str(work / "vocab.txt"), "--out", str(work / "model.arpa")])
    main(["train-lm", "--corpus", str(work / "train.txt"), "--vocab", str(work / "vocab.txt"),
          "--val-corpus", str(work / "val.txt"), "--embed-dim", "24", "--hidden-dim", "48",
          "--layers", "1", "--unroll", "16", "--dropout", "0.0", "--lr", "0.5",
          "--epochs", "2", "--batch", "16", "--seed", "0", "--out", str(work / "model.bin")])
    main(["train-skipgram", "--corpus", str(work / "train.txt"), "--dim", "24",
          "--window", "4", "--epochs", "3", "--seed", "0", "--out", str(work / "vectors.txt")])

    # one pipeline per policy for words outside the shortlist, both in one
    # process: the second config names the same model files, so it reuses
    # the checkpoint, vectors and n-gram model the first one parsed
    configs = []
    for policy in ("uniform", "ngram"):
        configs.append(work / f"{policy}.cfg")
        configs[-1].write_text(
            f"nbest = {work / 'test.nbest'}\n"
            f"refs = {work / 'test.refs'}\n"
            f"model = {work / 'model.bin'}\n"
            f"vectors = {work / 'vectors.txt'}\n"
            f"arpa = {work / 'model.arpa'}\n"
            f"policy = {policy}\n"
            "lm_scale = 8\n"
        )
    print()
    assert main(["pipeline", "--config", *map(str, configs)]) == 0
