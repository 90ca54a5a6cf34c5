"""Every out-of-range setting is reported by ``vocab.check_setting`` in one
wording, ``<name> must be <bound>, got <value>``, and no other function of
the package words a range error itself (``build_vocabulary`` keeps its two
older texts).
"""

from __future__ import annotations

import ast
import math
from pathlib import Path

import numpy as np
import pytest

import lmexpand
from lmexpand import datagen, expansion, ngram, rnnlm, skipgram
from lmexpand.rescoring import RescoreConfig
from lmexpand.vocab import RESERVED, Hypothesis, Vocabulary

VOCAB = Vocabulary([*RESERVED, "a", "b", "zz"], shortlist_size=5)
MODEL = rnnlm.init_model(VOCAB, 2, 3, 1, seed=0)
EMB = skipgram.WordEmbeddings(["a", "b"], np.eye(2))  # zz has no vector
GRAMMAR = datagen.make_template_grammar(num_classes=2, words_per_class=4, seed=0)

# entry point -> (the call, the one message it must raise)
ENTRY_POINTS = {
    "init_model dims": (
        lambda: rnnlm.init_model(VOCAB, 0, 3, 1), "embed_dim must be >= 1, got 0"
    ),
    "init_model seed": (
        lambda: rnnlm.init_model(VOCAB, 2, 3, 1, seed=-1), "seed must be >= 0, got -1"
    ),
    "train_bptt unroll": (
        lambda: rnnlm.train_bptt(MODEL, [["a"]], rnnlm.TrainConfig(unroll=0)),
        "unroll must be >= 1, got 0",
    ),
    "train_bptt clip": (
        lambda: rnnlm.train_bptt(MODEL, [["a"]], rnnlm.TrainConfig(clip=-1.0)),
        "clip must be > 0, got -1.0",
    ),
    "train_skipgram": (
        lambda: skipgram.train_skipgram([["a"]], skipgram.SkipgramConfig(window=0)),
        "window must be >= 1, got 0",
    ),
    "make_template_grammar num_classes": (
        lambda: datagen.make_template_grammar(num_classes=0), "num_classes must be >= 1, got 0"
    ),
    "make_template_grammar words_per_class": (
        lambda: datagen.make_template_grammar(words_per_class=0),
        "words_per_class must be >= 1, got 0",
    ),
    "sample_corpus target_tokens": (
        lambda: datagen.sample_corpus(GRAMMAR, 0), "target_tokens must be >= 1, got 0"
    ),
    "sample_corpus seed": (
        lambda: datagen.sample_corpus(GRAMMAR, 10, seed=-2), "seed must be >= 0, got -2"
    ),
    "make_nbest_fixture depth": (
        lambda: datagen.make_nbest_fixture(GRAMMAR, [["c0w00"]], VOCAB, depth=0),
        "depth must be >= 1, got 0",
    ),
    "train_kn order": (
        lambda: ngram.train_kn([["a"]], VOCAB, order=0), "order must be >= 1, got 0"
    ),
    "NgramModel order": (
        lambda: ngram.NgramModel(0, VOCAB, [], []), "order must be >= 1, got 0"
    ),
    "extract_oos_words n": (
        lambda: expansion.extract_oos_words({"u": [Hypothesis(["zz"], 0.0, 0.0, 1)]}, VOCAB, n=0),
        "n must be >= 1, got 0",
    ),
    "nearest_in_shortlist k": (
        lambda: skipgram.nearest_in_shortlist(EMB, "a", VOCAB, k=0), "k must be >= 1, got 0"
    ),
    # k is checked when the search is built, so no word needs to reach it
    "expand k, word without vector": (
        lambda: expansion.expand_with_embeddings(MODEL, ["zz"], EMB, k=0),
        "k must be >= 1, got 0",
    ),
    "expand k, no words": (
        lambda: expansion.expand_with_embeddings(MODEL, [], EMB, k=-3),
        "k must be >= 1, got -3",
    ),
    "RescoreConfig": (
        lambda: RescoreConfig(word_penalty=math.inf), "word_penalty must be finite, got inf"
    ),
}


@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_every_range_error_has_one_wording(entry):
    call, message = ENTRY_POINTS[entry]
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message
    assert err.traceback[-1].name == "check_setting"


def test_no_other_function_words_a_range_error():
    """A raise whose text says ``must be`` sits in ``check_setting`` or in
    ``build_vocabulary``.  ``ParseError`` and ``VocabularyError`` describe a
    file's content at a line or word, not a setting, and are not counted."""
    sites = []
    for path in sorted(Path(lmexpand.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {}  # line -> innermost function holding it (a walk visits outer ones first)
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                owner.update(dict.fromkeys(range(node.lineno, node.end_lineno + 1), node.name))
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)):
                continue
            func = node.exc.func
            kind = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            text = "".join(
                part.value
                for part in ast.walk(node.exc)
                if isinstance(part, ast.Constant) and isinstance(part.value, str)
            )
            if "must be" in text and kind not in {"ParseError", "VocabularyError"}:
                sites.append((path.stem, owner.get(node.lineno, "<module>")))
    assert sorted(sites) == [
        ("vocab", "build_vocabulary"),
        ("vocab", "build_vocabulary"),
        ("vocab", "check_setting"),
    ], sites
