"""Synthetic grammar corpora and noised n-best fixtures: the invariants the
evaluation harness leans on."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from lmexpand.datagen import (
    make_nbest_fixture,
    make_template_grammar,
    sample_corpus,
    sample_sentence,
)
from lmexpand.vocab import build_vocabulary, write_nbest, write_transcripts


GRAMMAR = make_template_grammar(
    num_classes=6, words_per_class=10, num_templates=8, min_len=4, max_len=7, seed=3
)


def test_grammar_inventory():
    assert len(GRAMMAR.classes) == 6
    for ci, cls in enumerate(GRAMMAR.classes):
        assert cls == [f"c{ci}w{ri:02d}" for ri in range(10)]
        weights = GRAMMAR.class_weights[ci]
        assert weights.sum() == pytest.approx(1.0)
        assert all(a > b for a, b in zip(weights, weights[1:]))  # Zipf decay
    for word, (ci, ri) in GRAMMAR.word_class.items():
        assert GRAMMAR.classes[ci][ri] == word
    for template in GRAMMAR.templates:
        assert 4 <= len(template) <= 7
        assert all(0 <= ci < 6 for ci in template)


def test_grammar_rejects_a_negative_seed():
    with pytest.raises(ValueError, match="seed must be >= 0, got -5"):
        make_template_grammar(seed=-5)
    # the samplers name it too, where numpy's own message names no argument
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        sample_corpus(GRAMMAR, 10, seed=-1)
    vocab = build_vocabulary(sample_corpus(GRAMMAR, 200, seed=1), 10, 40)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        make_nbest_fixture(GRAMMAR, [["c0w00"]], vocab, seed=-1)


@pytest.mark.parametrize("depth", [0, -3])
def test_fixture_rejects_a_depth_below_one(depth):
    """A depth of 0 used to give every utterance an empty n-best list."""
    vocab = build_vocabulary(sample_corpus(GRAMMAR, 200, seed=1), 10, 40)
    with pytest.raises(ValueError, match=f"depth must be >= 1, got {depth}"):
        make_nbest_fixture(GRAMMAR, [["c0w00"]], vocab, depth=depth)


def test_sentences_follow_templates():
    rng = np.random.default_rng(0)
    template_set = {tuple(t) for t in GRAMMAR.templates}
    for _ in range(50):
        sentence = sample_sentence(GRAMMAR, rng)
        classes = tuple(GRAMMAR.word_class[w][0] for w in sentence)
        assert classes in template_set


def test_sample_corpus_token_budget_and_determinism():
    corpus = sample_corpus(GRAMMAR, 500, seed=1)
    tokens = sum(len(s) for s in corpus)
    assert 500 <= tokens < 500 + 7
    again = sample_corpus(GRAMMAR, 500, seed=1)
    assert corpus == again
    assert corpus != sample_corpus(GRAMMAR, 500, seed=2)


def choice_sentence(grammar, rng):
    """The sampler written with ``Generator.choice``."""
    t = rng.choice(len(grammar.templates), p=grammar.template_weights)
    return [
        grammar.classes[ci][rng.choice(len(grammar.classes[ci]), p=grammar.class_weights[ci])]
        for ci in grammar.templates[t]
    ]


@pytest.mark.parametrize("grammar", [GRAMMAR, make_template_grammar(seed=0)])
def test_sample_corpus_draws_as_generator_choice(grammar):
    # the precomputed tables must give rng.choice's words draw for draw
    for seed in range(1, 6):
        rng = np.random.default_rng(seed)
        want, tokens = [], 0
        while tokens < 400:
            want.append(choice_sentence(grammar, rng))
            tokens += len(want[-1])
        assert sample_corpus(grammar, 400, seed=seed) == want
    rng, again = np.random.default_rng(9), np.random.default_rng(9)
    assert [sample_sentence(grammar, rng) for _ in range(20)] == [
        choice_sentence(grammar, again) for _ in range(20)
    ]


@pytest.fixture(scope="module")
def fixture_setup():
    train = sample_corpus(GRAMMAR, 4000, seed=5)
    vocab = build_vocabulary(train, shortlist_size=40, full_size=70)
    refs_corpus = sample_corpus(GRAMMAR, 300, seed=6)
    nbest, refs = make_nbest_fixture(GRAMMAR, refs_corpus, vocab, depth=12, seed=7)
    return vocab, refs_corpus, nbest, refs


def test_fixture_refs_match_input(fixture_setup):
    _, refs_corpus, nbest, refs = fixture_setup
    assert len(nbest) == len(refs_corpus)
    for idx, ref in enumerate(refs_corpus):
        assert refs[f"utt{idx:04d}"] == ref


def test_fixture_rank_and_score_order(fixture_setup):
    _, _, nbest, _ = fixture_setup
    for hyps in nbest.values():
        assert 2 <= len(hyps) <= 12
        assert [h.rank for h in hyps] == list(range(1, len(hyps) + 1))
        scores = [h.acoustic_score for h in hyps]
        assert all(a > b for a, b in zip(scores, scores[1:]))


def test_fixture_reference_is_near_the_top(fixture_setup):
    _, _, nbest, refs = fixture_setup
    first = 0
    for utt, hyps in nbest.items():
        positions = [h.rank for h in hyps if h.words == refs[utt]]
        assert positions and positions[0] in (1, 2)
        first += positions[0] == 1
    # a genuine mixture: rescoring has both room to improve and room to break
    assert 0 < first < len(nbest)


def test_fixture_garbage_only_in_deep_ranks(fixture_setup):
    vocab, _, nbest, _ = fixture_setup
    garbage_ranks = []
    for hyps in nbest.values():
        for h in hyps:
            for w in h.words:
                if w.startswith("zq"):
                    garbage_ranks.append(h.rank)
                else:
                    assert w in GRAMMAR.word_class
    assert garbage_ranks, "depth-12 lists should contain some garbage tokens"
    assert min(garbage_ranks) >= 6


def test_fixture_variants_differ_from_reference(fixture_setup):
    _, _, nbest, refs = fixture_setup
    for utt, hyps in nbest.items():
        seen = set()
        for h in hyps:
            key = tuple(h.words)
            assert key not in seen, "duplicate hypothesis"
            seen.add(key)


def test_fixture_deterministic():
    train = sample_corpus(GRAMMAR, 2000, seed=5)
    vocab = build_vocabulary(train, 40, 70)
    refs_corpus = sample_corpus(GRAMMAR, 200, seed=6)
    a, _ = make_nbest_fixture(GRAMMAR, refs_corpus, vocab, depth=8, seed=9)
    b, _ = make_nbest_fixture(GRAMMAR, refs_corpus, vocab, depth=8, seed=9)
    assert a == b


def test_fixture_files_are_pinned(fixture_setup, tmp_path):
    """The written n-best and transcript bytes of one seed: every draw and
    every confusion list the fixture builder makes, in order."""
    _, _, nbest, refs = fixture_setup
    write_nbest(nbest, tmp_path / "nbest.txt")
    write_transcripts(refs, tmp_path / "refs.txt")
    blob = (tmp_path / "nbest.txt").read_bytes() + b"\0" + (tmp_path / "refs.txt").read_bytes()
    assert hashlib.sha256(blob).hexdigest() == (
        "5d8a47c97465ae0cb78f9edd64a0972d2ebfae8be5352ba3283ba9568251a65f"
    )
