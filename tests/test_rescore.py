"""N-best rescoring, WER, weight tuning, and the flat config format."""

from __future__ import annotations

import ast
import builtins
import functools
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lmexpand
from lmexpand import expansion, ngram, rescoring, rnnlm, skipgram, vocab
from lmexpand.datagen import make_nbest_fixture, make_template_grammar, sample_corpus
from lmexpand.ngram import export_arpa, import_arpa, train_kn
from lmexpand.rescoring import (
    DEFAULT_PENALTIES,
    DEFAULT_SCALES,
    Hypothesis,
    ParseError,
    RescoreConfig,
    RescoreError,
    combined_score,
    load_transcripts,
    one_best,
    parse_config,
    parse_nbest,
    render_report,
    rescore,
    run_pipeline,
    tune,
    wer,
    write_nbest,
    write_transcripts,
)
from lmexpand.rnnlm import TrainConfig, init_model, load_checkpoint, save_checkpoint, train_bptt
from lmexpand.skipgram import SkipgramConfig, load_w2v_text, save_w2v_text, train_skipgram
from lmexpand.vocab import TokenTable, build_vocabulary, write_report


def hyp(words, rank, ac=0.0, lm=0.0):
    return Hypothesis(words=list(words), acoustic_score=ac, lm_score=lm, rank=rank)


# -------------------------------------------------------------- file format


SAMPLE = (
    "utt1\t1\t-12.500000\t-3.250000\tthe cat sat\n"
    "utt1\t2\t-13.000000\t-3.000000\tthe cap sat\n"
    "utt2\t1\t-4.000000\t-1.000000\thello\n"
)


def test_parse_nbest_round_trip(tmp_path):
    path = tmp_path / "sample.nbest"
    path.write_text(SAMPLE)
    nbest = parse_nbest(path)
    assert set(nbest) == {"utt1", "utt2"}
    assert [h.rank for h in nbest["utt1"]] == [1, 2]
    assert nbest["utt1"][0].words == ["the", "cat", "sat"]
    assert nbest["utt1"][0].acoustic_score == -12.5
    out = tmp_path / "copy.nbest"
    write_nbest(nbest, out)
    assert out.read_text() == SAMPLE


def test_parse_nbest_sorts_by_rank(tmp_path):
    path = tmp_path / "shuffled.nbest"
    path.write_text("u\t2\t-2.0\t0.0\tb b\nu\t1\t-1.0\t0.0\ta a\n")
    nbest = parse_nbest(path)
    assert [h.rank for h in nbest["u"]] == [1, 2]
    assert nbest["u"][0].words == ["a", "a"]


def test_parse_nbest_allows_empty_hypothesis(tmp_path):
    path = tmp_path / "empty.nbest"
    path.write_text("u\t1\t-1.0\t0.0\t\n")
    assert parse_nbest(path)["u"][0].words == []


def test_parse_nbest_field_count_error(tmp_path):
    path = tmp_path / "bad.nbest"
    path.write_text("u\t1\t-1.0\twords only four\n")
    with pytest.raises(ParseError, match="line 1") as err:
        parse_nbest(path)
    assert err.value.line_no == 1


def test_parse_nbest_numeric_error(tmp_path):
    path = tmp_path / "bad.nbest"
    path.write_text("u\t1\t-1.0\t0.0\tok\nu\ttwo\t-1.0\t0.0\tbad\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_nbest(path)


@pytest.mark.parametrize("field", [2, 3])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
def test_parse_nbest_rejects_non_finite_scores(tmp_path, field, value):
    fields = ["u", "2", "-2.0", "-3.0", "b"]
    fields[field] = value
    path = tmp_path / "bad.nbest"
    path.write_text("u\t1\t-1.0\t0.0\ta\n" + "\t".join(fields) + "\n")
    with pytest.raises(ParseError, match="line 2: non-finite") as err:
        parse_nbest(path)
    assert err.value.line_no == 2


def test_parse_nbest_duplicate_rank(tmp_path):
    path = tmp_path / "bad.nbest"
    path.write_text("u\t1\t-1.0\t0.0\ta\nu\t1\t-2.0\t0.0\tb\n")
    with pytest.raises(ParseError, match="duplicate"):
        parse_nbest(path)


def test_transcripts_round_trip(tmp_path):
    refs = {"u1": ["a", "b"], "u2": ["c"]}
    path = tmp_path / "refs.txt"
    write_transcripts(refs, path)
    assert load_transcripts(path) == refs
    path.write_text("u1\ta\nu1\tb\n")
    with pytest.raises(ValueError, match="duplicate"):
        load_transcripts(path)
    path.write_text("no-tab-here\n")
    with pytest.raises(ValueError, match="line 1"):
        load_transcripts(path)


# ---------------------------------------------------------------- rescoring


def test_combined_score_formula():
    h = hyp(["a", "b", "c"], 1, ac=-10.0, lm=-2.0)
    cfg = RescoreConfig(lm_scale=8.0, word_penalty=0.5)
    assert combined_score(h, cfg) == pytest.approx(-10.0 + 8.0 * -2.0 + 0.5 * 3)


def test_rescore_reorders_by_new_lm():
    nbest = {"u": [hyp(["bad", "guess"], 1, ac=-1.0), hyp(["good", "one"], 2, ac=-1.2)]}
    table = {("bad", "guess"): -5.0, ("good", "one"): -1.0}
    lm = lambda batch: [table[tuple(w)] for w in batch]
    out = rescore(nbest, lm, RescoreConfig(lm_scale=1.0))
    assert out["u"][0].words == ["good", "one"]
    assert out["u"][0].lm_score == -1.0
    assert out["u"][0].rank == 2  # original position preserved
    # inputs untouched
    assert nbest["u"][0].lm_score == 0.0


def test_rescore_stable_on_ties():
    nbest = {"u": [hyp(["a"], 1, ac=-2.0), hyp(["b"], 2, ac=-2.0), hyp(["c"], 3, ac=-2.0)]}
    lm = lambda batch: [-1.0] * len(batch)
    out = rescore(nbest, lm, RescoreConfig(lm_scale=4.0, word_penalty=0.0))
    assert [h.words[0] for h in out["u"]] == ["a", "b", "c"]


def test_rescore_wraps_lm_failures():
    nbest = {"utt9": [hyp(["x"], 1), hyp(["boom"], 2)]}

    def lm(batch):
        if ["boom"] in batch:
            raise KeyError("no such word")
        return [-1.0] * len(batch)

    with pytest.raises(RescoreError, match="utt9.*rank 2"):
        rescore(nbest, lm, RescoreConfig())


def test_rescore_scores_the_whole_list_in_one_call():
    nbest = {
        "u": [hyp(["a", "b"], 1), hyp([], 2), hyp(["a"], 3)],
        "v": [hyp(["c"], 1)],
    }
    calls = []

    def lm(batch):
        calls.append([list(w) for w in batch])
        return [-float(len(w)) for w in batch]

    out = rescore(nbest, lm, RescoreConfig(lm_scale=1.0))
    assert calls == [[["a", "b"], [], ["a"], ["c"]]]
    assert [h.lm_score for h in out["u"]] == [0.0, -1.0, -2.0]
    assert [h.lm_score for h in out["v"]] == [-1.0]


def test_rescore_probes_each_hypothesis_when_only_the_list_fails():
    nbest = {
        "u": [hyp(["a", "b"], 1), hyp([], 2)],
        "v": [hyp(["c"], 1)],
    }
    calls = []

    def lm(batch):
        calls.append([list(w) for w in batch])
        if len(batch) > 1:
            raise RuntimeError("batch too large")
        return [-1.0]

    with pytest.raises(RescoreError, match="LM failed on the n-best list: batch too large"):
        rescore(nbest, lm, RescoreConfig())
    assert calls == [[["a", "b"], [], ["c"]], [["a", "b"]], [[]], [["c"]]]


def test_rescore_miscount_raises_after_one_call():
    nbest = {"u": [hyp(["a"], 1), hyp(["b"], 2)], "v": [hyp(["c"], 1)]}
    calls = []

    def lm(batch):
        calls.append(len(batch))
        return [-1.0] * (len(batch) + 1)

    with pytest.raises(RescoreError, match="4 scores for the 3 hypotheses of the n-best list"):
        rescore(nbest, lm, RescoreConfig())
    assert calls == [3]


def test_rescore_rejects_a_short_score_list():
    nbest = {"u": [hyp(["a"], 1), hyp(["b"], 2)]}
    with pytest.raises(RescoreError, match="1 scores for the 2 hypotheses of the n-best list"):
        rescore(nbest, lambda batch: [-1.0], RescoreConfig())


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_lm_score_is_refused_with_its_utterance_and_rank(bad):
    """A NaN LM score would break the sort: these scores would put the NaN
    hypothesis first.  Every LM path refuses a score that is not finite, as
    ``parse_nbest`` refuses one in a file."""
    nbest = {
        "u": [hyp(["z"], 1, ac=-1.0)],
        "v": [hyp(["a"], 1, ac=-1.0), hyp(["b"], 2, ac=-5.0), hyp(["c"], 3, ac=-2.0)],
    }
    scores = [0.0, bad, 0.0, 0.0]
    match = f"utterance 'v' rank 1: non-finite score {bad}"
    with pytest.raises(RescoreError, match=match):
        rescore(nbest, lambda batch: scores, RescoreConfig())
    with pytest.raises(RescoreError, match=match):
        tune(nbest, {"u": ["z"], "v": ["a"]}, lambda batch: scores)


def test_ngram_batch_logprob_sums_each_sentence_in_order(tmp_path):
    """The n-gram LM of ``rescore``: one batched walk, then each sentence's
    events summed left to right from 0; ``ngram_perplexity`` totals those
    sums left to right too, whatever the interpreter's ``sum`` does."""
    corpus = [["a", "b"], ["b", "a", "a"]]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        model = train_kn(corpus, build_vocabulary(corpus, 5, 5), order=2)
    sentences = [["a", "b"], [], ["b", "zz", "a"]]
    scored = model.score_sentences(sentences)
    want = [functools.reduce(float.__add__, lps.tolist(), 0.0) for lps in scored]
    assert model.batch_logprob(sentences) == want
    total = functools.reduce(float.__add__, want, 0.0)
    assert ngram.ngram_perplexity(model, sentences) == math.exp(-total / sum(map(len, scored)))
    assert model.batch_logprob([]) == []


def test_one_best_skips_empty_utterances():
    assert one_best({"u": [hyp(["a"], 1)], "v": []}) == {"u": ["a"]}


# scores that tie often: small integers and halves, both zeros among them
tie_scores = st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, -1.0, -2.0, 3.0])


@st.composite
def scored_lists(draw):
    """An n-best list, the scores an LM gives its hypotheses in file order,
    and a few configs: empty utterances, empty hypotheses and tied combined
    scores (``0.0`` against ``-0.0`` too) are frequent."""
    words = st.lists(st.sampled_from(["a", "b"]), max_size=3)
    utterances = draw(st.lists(st.lists(st.tuples(words, tie_scores), max_size=5), max_size=5))
    nbest = {
        f"u{u}": [hyp(ws, rank, ac=ac) for rank, (ws, ac) in enumerate(hyps, 1)]
        for u, hyps in enumerate(utterances)
    }
    n_hyps = sum(map(len, nbest.values()))
    scores = draw(st.lists(tie_scores | st.floats(-1e3, 1e3), min_size=n_hyps, max_size=n_hyps))
    cfgs = draw(st.lists(st.builds(RescoreConfig, tie_scores, tie_scores), min_size=1, max_size=3))
    return nbest, scores, cfgs


@settings(max_examples=300, deadline=None)
@given(scored_lists())
def test_the_copy_free_pick_is_the_one_best_of_rescore(case):
    nbest, scores, cfgs = case
    want = [one_best(rescore(nbest, lambda batch: scores, cfg)) for cfg in cfgs]
    assert rescoring._one_bests(nbest, [(np.array(scores), cfg) for cfg in cfgs]) == want


# ---------------------------------------------------------------------- wer


def ref_edit_distance(ref, hyp_words):
    """Plain recursive Levenshtein distance, memoized, unit costs."""

    @functools.lru_cache(maxsize=None)
    def go(i, j):
        if i == 0:
            return j
        if j == 0:
            return i
        return min(
            go(i - 1, j - 1) + (ref[i - 1] != hyp_words[j - 1]),
            go(i, j - 1) + 1,
            go(i - 1, j) + 1,
        )

    return go(len(ref), len(hyp_words))


def test_wer_zero_on_exact_match():
    result = wer({"u": ["a", "b"]}, {"u": ["a", "b"]})
    assert result.errors == 0
    assert result.wer == 0.0


def test_wer_frozen_counts():
    # one substitution, one deletion, one insertion across two utterances
    refs = {"u1": ["the", "cat", "sat"], "u2": ["hello", "there"]}
    hyps = {"u1": ["the", "cap"], "u2": ["hello", "there", "extra"]}
    result = wer(refs, hyps)
    assert (result.substitutions, result.insertions, result.deletions) == (1, 1, 1)
    assert result.ref_tokens == 5
    assert result.wer == pytest.approx(60.0)


def test_wer_prefers_substitutions_on_ties():
    result = wer({"u": ["a", "b"]}, {"u": ["b", "a"]})
    assert (result.substitutions, result.insertions, result.deletions) == (2, 0, 0)
    result = wer({"u": ["a", "b", "c"]}, {"u": ["x", "y", "z"]})
    assert (result.substitutions, result.insertions, result.deletions) == (3, 0, 0)


def test_wer_error_total_matches_reference_distance():
    rng = np.random.default_rng(12)
    alphabet = ["a", "b", "c", "d"]
    for _ in range(200):
        ref = [alphabet[i] for i in rng.integers(0, 4, int(rng.integers(0, 7)))]
        hyp_words = [alphabet[i] for i in rng.integers(0, 4, int(rng.integers(0, 7)))]
        if not ref:
            continue
        result = wer({"u": ref}, {"u": hyp_words})
        assert result.errors == ref_edit_distance(tuple(ref), tuple(hyp_words))


def test_wer_empty_hypothesis_is_all_deletions():
    result = wer({"u": ["a", "b", "c"]}, {"u": []})
    assert (result.substitutions, result.insertions, result.deletions) == (0, 0, 3)


def test_wer_counts_a_missing_hypothesis_as_empty():
    """Every reference is scored: one without a hypothesis is all deletions."""
    result = wer({"u1": ["a", "b"], "u2": ["c", "d"]}, {"u1": ["a", "b"]})
    assert (result.substitutions, result.insertions, result.deletions) == (0, 0, 2)
    assert (result.ref_tokens, result.wer) == (4, 50.0)


def test_wer_can_exceed_hundred():
    result = wer({"u": ["a"]}, {"u": ["b", "c", "d"]})
    assert result.wer > 100.0


@st.composite
def reference_and_hypothesis(draw):
    """A reference of 1-40 words over a 3-5 word alphabet, and a hypothesis:
    the reference with 0, 1 or 2 words changed, the reference shifted by one
    word (as long, with many differing words but at most 2 edits), or any
    sentence over the alphabet."""
    words = [f"w{i}" for i in range(draw(st.integers(3, 5)))]
    ref = draw(st.lists(st.sampled_from(words), min_size=1, max_size=40))
    kind = draw(st.sampled_from(["changed", "shifted", "any"]))
    if kind == "changed":
        hyp = list(ref)
        changed = st.lists(st.integers(0, len(ref) - 1), max_size=min(2, len(ref)), unique=True)
        for at in draw(changed):
            hyp[at] = draw(st.sampled_from([w for w in words if w != ref[at]]))
    elif kind == "shifted":
        hyp = ref[1:] + [draw(st.sampled_from(words))]
    else:
        hyp = draw(st.lists(st.sampled_from(words), max_size=40))
    return ref, hyp


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.tuples(
        st.lists(st.lists(st.sampled_from("abc"), max_size=4), min_size=1, max_size=5),
        st.lists(st.lists(st.lists(st.sampled_from("abc"), max_size=4), max_size=5), max_size=4),
    ),
    st.lists(reference_and_hypothesis(), min_size=1, max_size=4).map(
        lambda pairs: ([ref for ref, _ in pairs], [[hyp for _, hyp in pairs]])),
))
def test_wer_of_many_systems_is_the_sum_of_their_alignments(refs_and_systems):
    """Each system's counts are the sums of ``_align_counts`` over every
    reference, its missing hypotheses counted as empty, however many systems
    share a (reference, hypothesis) pair, and whether or not a pair is
    counted without an alignment (as long as its reference, one word off)."""
    ref_lists, system_lists = refs_and_systems
    refs = {f"u{i}": ref for i, ref in enumerate(ref_lists)}
    systems = [{f"u{i}": h for i, h in enumerate(hyps[: len(refs)])} for hyps in system_lists]
    got = rescoring._wers(refs, systems)
    for hyps, result in zip(systems, got, strict=True):
        counts = [rescoring._align_counts(ref, hyps.get(u, [])) for u, ref in refs.items()]
        s, ins, d = (sum(c[k] for c in counts) for k in range(3))
        assert result == rescoring.WerResult(s, ins, d, sum(map(len, ref_lists)))
        assert wer(refs, hyps) == result


def test_wer_missing_reference():
    with pytest.raises(ValueError, match="missing reference"):
        wer({"u": ["a"]}, {"v": ["a"]})
    with pytest.raises(ValueError, match="empty reference"):
        _ = wer({}, {}).wer


# --------------------------------------------------------------------- tune


def test_tune_searches_full_grid():
    nbest = {
        "u1": [hyp(["a", "b"], 1, ac=-1.0), hyp(["a"], 2, ac=-1.5)],
        "u2": [hyp(["c"], 1, ac=-2.0), hyp(["c", "d"], 2, ac=-1.9)],
    }
    refs = {"u1": ["a"], "u2": ["c", "d"]}
    lm = lambda batch: [-0.5 * len(words) for words in batch]
    cfg, best_wer, grid = tune(nbest, refs, lm)
    assert len(grid) == len(DEFAULT_SCALES) * len(DEFAULT_PENALTIES)
    assert best_wer == min(w for _, _, w in grid)
    # the returned config must reproduce its grid WER through plain rescore
    redone = rescore(nbest, lm, cfg)
    assert wer(refs, one_best(redone)).wer == pytest.approx(best_wer)


@pytest.mark.parametrize("seed", [None, 0, 1, 2])
def test_tune_grid_wer_is_the_wer_of_rescore(seed):
    # seed None: at scale 0.5 "a" and "b" tie on -2.0, and file order keeps "a"
    nbest = {"u": [hyp(["a"], 1, ac=-1.0), hyp(["b"], 2, ac=-2.0)]}
    refs = {"u": ["a"]}
    table = {("a",): -2.0, ("b",): 0.0}
    scales, penalties = (0.5, 1.0, 2.0), (-0.5, 0.0, 0.5)
    if seed is not None:
        rng = np.random.default_rng(seed)
        words = ["a", "b", "c"]
        nbest, refs, table = {}, {}, {}
        for u in range(6):
            hyps = []
            for rank in range(1, 5):
                ws = tuple(words[i] for i in rng.integers(0, 3, int(rng.integers(0, 4))))
                table[ws] = float(rng.integers(-4, 1))
                hyps.append(hyp(ws, rank, ac=float(rng.integers(-4, 1))))
            nbest[f"u{u}"] = hyps
            refs[f"u{u}"] = list(hyps[int(rng.integers(0, 4))].words)
    lm = lambda batch: [table[tuple(w)] for w in batch]
    _, _, grid = tune(nbest, refs, lm, scales, penalties)
    for scale, penalty, grid_wer in grid:
        redone = rescore(nbest, lm, RescoreConfig(scale, penalty))
        assert grid_wer == wer(refs, one_best(redone)).wer
    if seed is None:
        assert grid[0] == (0.5, -0.5, 0.0) and grid[1] == (0.5, 0.0, 0.0)


def test_tune_first_config_wins_ties():
    nbest = {"u": [hyp(["a"], 1, ac=-1.0)]}
    refs = {"u": ["a"]}
    lm = lambda batch: [-1.0] * len(batch)
    cfg, best_wer, grid = tune(nbest, refs, lm, scales=(2.0, 4.0), penalties=(0.0, 1.0))
    assert best_wer == 0.0
    assert (cfg.lm_scale, cfg.word_penalty) == (2.0, 0.0)
    assert len(grid) == 4


@pytest.mark.parametrize("scales, penalties", [((), (0.0,)), ((1.0,), ()), ((), ())])
def test_tune_rejects_an_empty_grid(scales, penalties):
    nbest = {"u": [hyp(["a"], 1)]}
    with pytest.raises(ValueError, match="empty tuning grid"):
        tune(nbest, {"u": ["a"]}, lambda batch: [-1.0] * len(batch), scales, penalties)


@pytest.mark.parametrize("scales, penalties", [((math.nan,), (0.0,)), ((1.0,), (math.inf,))])
def test_tune_rejects_non_finite_grid_values(scales, penalties):
    def lm(batch):
        raise AssertionError("the grid is checked before the LM runs")

    with pytest.raises(ValueError, match="must be finite"):
        tune({"u": [hyp(["a"], 1)]}, {"u": ["a"]}, lm, scales, penalties)


@pytest.mark.parametrize("field", ["lm_scale", "word_penalty"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_rescore_config_rejects_non_finite_values(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        RescoreConfig(**{field: value})


def test_tune_finds_separating_scale():
    # acoustic prefers the wrong answer, LM the right one: only large scales fix it
    nbest = {
        "u": [hyp(["wrong"], 1, ac=-1.0), hyp(["right"], 2, ac=-1.4)]
    }
    refs = {"u": ["right"]}
    lm = lambda batch: [-1.0 if words == ["right"] else -1.1 for words in batch]
    cfg, best_wer, _ = tune(nbest, refs, lm, scales=(2.0, 8.0), penalties=(0.0,))
    assert best_wer == 0.0
    assert cfg.lm_scale == 8.0


# ------------------------------------------------------------------- config


def test_parse_config_basics(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# pipeline inputs\n"
        "nbest = decode.nbest   # tab separated\n"
        "\n"
        "lm_scale=8\n"
        "policy =  uniform\n"
    )
    assert parse_config(path) == {
        "nbest": "decode.nbest",
        "lm_scale": "8",
        "policy": "uniform",
    }


def test_parse_config_errors(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("novalue\n")
    with pytest.raises(ValueError, match="line 1"):
        parse_config(path)
    path.write_text("= x\n")
    with pytest.raises(ValueError, match="empty key"):
        parse_config(path)
    path.write_text("a = 1\na = 2\n")
    with pytest.raises(ValueError, match="duplicate"):
        parse_config(path)


# a key or value as written on one "key = value" line: no line break, no
# comment mark, no surrounding whitespace; keys hold no "=" and are not empty
config_text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12).filter(
    lambda t: t == t.strip() and not any(c in t for c in "#\n\r")
)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(config_text.filter(lambda k: k and "=" not in k), config_text, max_size=8))
def test_parse_config_round_trips_written_pairs(pairs):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in pairs.items()), encoding="utf-8")
        assert parse_config(path) == pairs


def missing_inputs(tmp_path):
    """Required pipeline keys naming files that do not exist."""
    return {key: str(tmp_path / key) for key in ("nbest", "refs", "model", "vectors", "arpa")}


@pytest.mark.parametrize(
    "key, value",
    [
        ("weighted", "ture"),
        ("weighted", ""),
        ("weighted", "2"),
        ("extract_n", "one"),
        ("extract_n", "0"),
        ("candidates_k", "1.5"),
        ("candidates_k", "-3"),
        ("lm_scale", "ten"),
        ("lm_scale", "nan"),
        ("word_penalty", "inf"),
        ("policy", "magic"),
    ],
)
def test_pipeline_rejects_bad_settings_before_reading_files(tmp_path, key, value):
    config = {**missing_inputs(tmp_path), key: value}
    with pytest.raises(ValueError, match=f"config key '{key}': bad value '{value}'"):
        run_pipeline(config)


@pytest.mark.parametrize("value", ["true", "False", "YES", "no", "1", "0"])
def test_pipeline_accepts_boolean_spellings(tmp_path, value):
    # settings parse, so the run gets as far as the first missing file
    with pytest.raises(FileNotFoundError):
        run_pipeline({**missing_inputs(tmp_path), "weighted": value})


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """Small trained models and an n-best fixture, written as pipeline inputs."""
    root = tmp_path_factory.mktemp("joint")
    grammar = make_template_grammar(num_classes=4, words_per_class=8, seed=0)
    train = sample_corpus(grammar, 1500, seed=1)
    vocab = build_vocabulary(train, 20, 40)
    nbest, refs = make_nbest_fixture(grammar, sample_corpus(grammar, 120, seed=3), vocab, 6, 4)
    write_nbest(nbest, root / "test.nbest")
    write_transcripts(refs, root / "test.refs")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        export_arpa(train_kn(train, vocab, order=3), root / "model.arpa")
    save_w2v_text(train_skipgram(train, SkipgramConfig(dim=8, window=3, epochs=1)), root / "v.txt")
    model = init_model(vocab, 6, 8, 1, seed=0)
    train_bptt(model, train, TrainConfig(unroll=8, dropout=0.0, lr=0.5, epochs=1, batch=4))
    save_checkpoint(model, root / "model.bin")
    return root


@pytest.mark.parametrize("policy", ["uniform", "ngram", "shortlist"])
def test_pipeline_scores_both_lstm_systems_in_one_engine_call(pipeline_dir, policy, monkeypatch):
    root = pipeline_dir
    config = {
        "nbest": root / "test.nbest", "refs": root / "test.refs", "model": root / "model.bin",
        "vectors": root / "v.txt", "arpa": root / "model.arpa", "extract_n": "3",
        "policy": policy, "lm_scale": "8",
    }
    calls = []
    engine = expansion.score_events
    monkeypatch.setattr(expansion, "score_events", lambda *a: calls.append(a) or engine(*a))
    report = run_pipeline({key: str(value) for key, value in config.items()})
    assert len(calls) == 1
    monkeypatch.undo()

    # the joint call against separate scorers of the base and the expanded model
    model, ngram = load_checkpoint(root / "model.bin"), import_arpa(root / "model.arpa")
    nbest, refs = parse_nbest(root / "test.nbest"), load_transcripts(root / "test.refs")
    oos = expansion.extract_oos_words(nbest, model.vocab, n=3)
    expanded, _ = expansion.expand_with_embeddings(model, oos, load_w2v_text(root / "v.txt"))
    assert expanded.n_explicit > model.n_explicit
    batch = [hyp.words for hyps in nbest.values() for hyp in hyps]
    ref_corpus = [words for words in refs.values() if words]
    joint = expansion.score_jointly(
        [
            expansion.FullVocabScorer(expanded, policy, model.vocab, ngram, model.n_explicit),
            expansion.FullVocabScorer(expanded, policy, model.vocab, ngram),
        ],
        batch + ref_corpus,
    )
    cfg = RescoreConfig(lm_scale=8.0)
    for row, lm, scores in zip(report["systems"][1:], (model, expanded), joint):
        alone = expansion.FullVocabScorer(lm, policy, model.vocab, ngram)
        want = alone.score_batch(batch + ref_corpus)
        got = TokenTable(batch + ref_corpus).split(scores)
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
        assert row["perplexity"] == alone.corpus_perplexity(ref_corpus)
        result = wer(refs, one_best(rescore(nbest, alone.batch_logprob, cfg)))
        assert (row["wer"], row["substitutions"], row["insertions"], row["deletions"]) == (
            result.wer, result.substitutions, result.insertions, result.deletions
        )


_SUM_EXTREMES = [0.0, -0.0, math.inf, -math.inf, math.nan, 1e308, -1e308, 1.7976931348623157e308]


@st.composite
def sentence_layouts(draw):
    """Per-event values cut into sentences of 0-300 events, several of one
    length: the sums cross numpy's 8-way unrolled loop and its 128-element
    pairwise blocks, with ±0.0, ±inf, NaN and values near 1e308 among them."""
    pool = draw(st.lists(st.integers(0, 300), min_size=1, max_size=4))
    lengths = np.array(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.standard_normal(lengths.sum()) * draw(st.sampled_from([1e-3, 1.0, 1e3, 1e307]))
    special = rng.random(values.shape) < draw(st.sampled_from([0.0, 0.01, 0.2, 1.0]))
    values[special] = rng.choice(_SUM_EXTREMES, size=int(special.sum()))
    return values, lengths


@settings(max_examples=300, deadline=None)
@given(sentence_layouts())
@example((np.array([-0.0, -0.0, -0.0, 1.0, -0.0, math.nan, -math.inf]), np.array([2, 1, 2, 2])))
def test_grouped_sentence_sums_are_each_sentences_sum_bitwise(case):
    """Every ln-probability total, one row sum per distinct length, equals each
    sentence's own ``.sum()``, and in order its left-to-right sum from 0."""
    values, lengths = case
    sentences = np.split(values, np.cumsum(lengths)[:-1])
    with np.errstate(all="ignore"):  # inf - inf and overflow are part of the case
        pairwise = vocab.sentence_sums(values, lengths)
        in_order = vocab.sentence_sums(values, lengths, in_order=True)
        want = np.array([lps.sum() for lps in sentences])
    assert pairwise.tobytes() == want.tobytes()
    # Which NaN a sum keeps when it meets two depends on how the compiler
    # ordered the operands; a NaN sum is refused as a non-finite score anyway
    nan = np.isnan(in_order)
    left_to_right = np.array([functools.reduce(float.__add__, lps.tolist(), 0.0)
                              for lps in sentences])
    assert np.array_equal(np.isnan(left_to_right), nan)
    assert in_order[~nan].tobytes() == left_to_right[~nan].tobytes()


def compensated_sum(items, start=0):
    """``sum`` as from Python 3.12: floats are added with Neumaier's compensation."""
    items = list(items)
    if not items or not all(type(x) is float for x in items):
        return builtins.sum(items, start)
    total, lost = float(start), 0.0
    for x in items:
        t = total + x
        lost += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + lost if lost and math.isfinite(lost) else total


def test_totals_keep_their_bits_under_a_compensated_sum(monkeypatch):
    """The n-gram sentence scores, their corpus total and a training run
    whose every window is clipped by its gradient norm do not depend on how
    the interpreter's ``sum`` adds floats: each total comes from
    ``vocab.sentence_sums``."""
    grammar = make_template_grammar(seed=0)
    train, test = sample_corpus(grammar, 6000, seed=1), sample_corpus(grammar, 1500, seed=3)
    words = build_vocabulary(train, 60, 120)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        kn = train_kn(train, words, order=3)

    def totals():
        model = init_model(words, 8, 8, 4, seed=0)
        train_bptt(model, train, TrainConfig(unroll=2, dropout=0.0, clip=1e-3, epochs=1, batch=2))
        return (
            np.array(kn.batch_logprob(test)).tobytes(),
            np.array([kn.sentence_logprob(s) for s in test[:20]]).tobytes(),
            ngram.ngram_perplexity(kn, test),
            b"".join(arr.tobytes() for _, arr in rnnlm.named_parameters(model)),
        )

    want = totals()
    for module in (vocab, ngram, rnnlm, rescoring, expansion):
        monkeypatch.setattr(module, "sum", compensated_sum, raising=False)
    assert totals() == want


def per_sentence_systems(config: dict[str, str]) -> list[dict]:
    """The report's systems from per-sentence scores: each hypothesis summed
    alone (``batch_logprob``), each reference scored alone.  The pipeline
    summed this way before it kept its scores flat; it is the reference."""
    model, ngram_model = load_checkpoint(config["model"]), import_arpa(config["arpa"])
    nbest, refs = parse_nbest(config["nbest"]), load_transcripts(config["refs"])
    oos = expansion.extract_oos_words(nbest, model.vocab, n=int(config["extract_n"]))
    expanded, _ = expansion.expand_with_embeddings(model, oos, load_w2v_text(config["vectors"]))
    ref_corpus = [words for words in refs.values() if words]
    policy, cfg = config["policy"], RescoreConfig(lm_scale=float(config["lm_scale"]))
    lstm = [
        expansion.FullVocabScorer(expanded, policy, model.vocab, ngram_model, width)
        for width in (model.n_explicit, None)
    ]
    rows = []
    for name, lm in zip(("ngram", "rnnlm", "rnnlm-expanded"), [ngram_model, *lstm]):
        if lm is ngram_model:
            ppl = ngram.ngram_perplexity(lm, ref_corpus)
        else:
            ppl = rnnlm.perplexity(np.concatenate([lm.score_tokens(s) for s in ref_corpus]))
        result = wer(refs, one_best(rescore(nbest, lm.batch_logprob, cfg)))
        rows.append({
            "system": name, "perplexity": ppl, "wer": result.wer,
            "substitutions": result.substitutions, "insertions": result.insertions,
            "deletions": result.deletions,
        })
    return rows


@pytest.fixture(scope="module")
def edge_case_dir(pipeline_dir, tmp_path_factory):
    """The pipeline models with an n-best list of edge cases: a silence
    (empty) hypothesis, hypotheses of more than 128 events, an utterance
    whose reference is empty, and a reference with no hypotheses."""
    root = tmp_path_factory.mktemp("edges")
    for name in ("model.bin", "v.txt", "model.arpa"):
        shutil.copy(pipeline_dir / name, root / name)
    words = load_checkpoint(root / "model.bin").vocab.words[3:] + ["never-seen"]
    rng = np.random.default_rng(5)

    def sentence(n):
        return [words[i] for i in rng.integers(0, len(words), size=n)]

    nbest = {
        "plain": [hyp(sentence(5), rank, ac=-2.0 * rank) for rank in (1, 2, 3)],
        "silence": [hyp([], 1, ac=-1.0), hyp(sentence(2), 2, ac=-1.5)],
        "long": [hyp(sentence(140), 1, ac=-9.0), hyp(sentence(129), 2, ac=-8.0)],
        "no-reference": [hyp(sentence(4), 1, ac=-1.0), hyp(sentence(3), 2, ac=-3.0)],
    }
    refs = {
        "plain": sentence(5), "silence": sentence(1), "long": sentence(135), "no-reference": [],
        "no-hypotheses": sentence(3),
    }
    write_nbest(nbest, root / "test.nbest")
    write_transcripts(refs, root / "test.refs")
    assert max(len(h.words) for h in nbest["long"]) + 1 > 128
    return root


@pytest.mark.parametrize("policy", ["uniform", "ngram"])
def test_pipeline_edge_cases_match_the_per_sentence_path(edge_case_dir, policy):
    config = {key: str(edge_case_dir / name) for key, name in PIPELINE_FILES.items()}
    config.update(extract_n="2", policy=policy, lm_scale="8")
    report = run_pipeline(config)
    assert report["new_words"]["count"] > 0
    assert report["systems"] == per_sentence_systems(config)


@pytest.mark.parametrize("system, earlier_in_the_next", [(1, False), (0, True)],
                         ids=["expanded", "base before expanded"])
def test_a_non_finite_flat_score_names_its_utterance_and_rank(
    edge_case_dir, monkeypatch, system, earlier_in_the_next
):
    """A non-finite entry in one system's flat scores fails the pipeline with
    the utterance and rank of the hypothesis whose event it is.  Systems are
    checked in report order: a NaN in the expanded system's first hypothesis
    does not hide a non-finite score of the base system's later one."""
    config = {key: str(edge_case_dir / name) for key, name in PIPELINE_FILES.items()}
    config.update(extract_n="2", policy="uniform", lm_scale="8")
    nbest = parse_nbest(config["nbest"])
    hyps = [(utt, h) for utt, utt_hyps in nbest.items() for h in utt_hyps]
    at = [utt_hyp[0] for utt_hyp in hyps].index("long") + 1  # 'long' rank 2
    assert hyps[at][1].rank == 2
    first_event = sum(len(h.words) + 1 for _, h in hyps[:at])
    engine = expansion.score_events

    def poisoned(*args):
        scores = engine(*args)
        half = len(scores) // 2  # the base system's events, then the expanded system's
        scores[half * system + first_event + 7] = -math.inf
        if earlier_in_the_next:
            scores[half + 1] = math.nan  # in 'plain' rank 1
        return scores

    monkeypatch.setattr(expansion, "score_events", poisoned)
    with pytest.raises(RescoreError, match="utterance 'long' rank 2: non-finite score -inf"):
        run_pipeline(config)


# ------------------------------------------------- parsed model files


PIPELINE_FILES = {"nbest": "test.nbest", "refs": "test.refs", "model": "model.bin",
                  "vectors": "v.txt", "arpa": "model.arpa"}


def deep_config(root: Path, report: Path) -> dict[str, str]:
    """The ngram policy with weighted candidates: every model file shows in
    the report, and the n-gram model builds its follower index."""
    files = {key: str(root / name) for key, name in PIPELINE_FILES.items()}
    return {**files, "extract_n": "3", "weighted": "true", "policy": "ngram",
            "lm_scale": "8", "report": str(report)}


@pytest.fixture
def cache():
    """An empty model cache, which a test passes to its pipelines."""
    return {}


@pytest.fixture
def parses(monkeypatch):
    """How often each model file reader parses."""
    counts = Counter()
    for module, name in [
        (rnnlm, "_parse_checkpoint"), (skipgram, "_parse_w2v_text"), (ngram, "_parse_arpa")
    ]:
        def counted(*args, parse=getattr(module, name), name=name):
            counts[name] += 1
            return parse(*args)

        monkeypatch.setattr(module, name, counted)
    return counts


def test_pipeline_parses_each_model_file_once(pipeline_dir, tmp_path, parses, cache):
    config = deep_config(pipeline_dir, tmp_path / "report.json")
    run_pipeline(config, cache)
    first = (tmp_path / "report.json").read_bytes()
    index = cache["arpa"][1]._index
    run_pipeline(config, cache)
    assert (tmp_path / "report.json").read_bytes() == first
    assert parses == {"_parse_checkpoint": 1, "_parse_w2v_text": 1, "_parse_arpa": 1}
    assert index is not None and cache["arpa"][1]._index is index


def test_each_cache_parses_on_its_own_and_no_cache_keeps_nothing(pipeline_dir, tmp_path, parses):
    config = deep_config(pipeline_dir, tmp_path / "report.json")
    once = {"_parse_checkpoint": 1, "_parse_w2v_text": 1, "_parse_arpa": 1}
    first, second = {}, {}
    report = run_pipeline(config, first)
    assert run_pipeline(config, second) == report
    assert parses == {name: 2 for name in once}
    assert all(first[kind][1] is not second[kind][1] for kind in ("model", "vectors", "arpa"))
    assert run_pipeline(config, first) == run_pipeline(config, second) == report
    assert parses == {name: 2 for name in once}
    for calls in (3, 4):
        assert run_pipeline(config) == report
        assert parses == {name: calls for name in once}


def rewrite_keeping_size_and_mtime(path: Path, change) -> None:
    before = path.stat()
    blob = change(path.read_bytes())
    assert len(blob) == before.st_size and blob != path.read_bytes()
    path.write_bytes(blob)
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    assert (path.stat().st_size, path.stat().st_mtime_ns) == (before.st_size, before.st_mtime_ns)


def rotate_vectors(blob: bytes) -> bytes:
    """Each word takes the next word's vector: the same bytes in another order."""
    header, *rows = blob.decode().splitlines()
    words, values = zip(*(row.split(" ", 1) for row in rows))
    rows = [f"{w} {v}" for w, v in zip(words, values[1:] + values[:1])]
    return "\n".join([header, *rows, ""]).encode()


def doubled_output_embedding(blob: bytes) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.bin"
        path.write_bytes(blob)
        model = load_checkpoint(path)
        model.output_embed *= 2.0
        save_checkpoint(model, path)
        return path.read_bytes()


def test_rewritten_model_files_are_parsed_again(pipeline_dir, tmp_path, parses, cache):
    """New bytes of the same size under the old mtime: the report is a fresh
    process's, so the cache cannot be keyed by path, size or mtime."""
    for name in PIPELINE_FILES.values():
        shutil.copy(pipeline_dir / name, tmp_path / name)
    report = tmp_path / "report.json"
    config = deep_config(tmp_path, report)
    run_pipeline(config, cache)
    before = report.read_bytes()
    rewrite_keeping_size_and_mtime(tmp_path / "model.arpa", lambda b: b.replace(b"-1.", b"-2."))
    rewrite_keeping_size_and_mtime(tmp_path / "v.txt", rotate_vectors)
    rewrite_keeping_size_and_mtime(tmp_path / "model.bin", doubled_output_embedding)
    counted = Counter(parses)
    run_pipeline(config, cache)
    after = report.read_bytes()
    assert parses - counted == {"_parse_checkpoint": 1, "_parse_w2v_text": 1, "_parse_arpa": 1}

    cfg = tmp_path / "pipeline.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in config.items()), encoding="utf-8")
    src = str(Path(lmexpand.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "lmexpand.cli", "pipeline", "--config", str(cfg)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert report.read_bytes() == after != before
    new, old = json.loads(after), json.loads(before)
    for row, old_row in zip(new["systems"], old["systems"]):
        assert row["perplexity"] != old_row["perplexity"], row["system"]
    assert new["new_words"]["candidates"] != old["new_words"]["candidates"]


def test_a_malformed_arpa_is_not_remembered(pipeline_dir, tmp_path, parses, cache):
    config = deep_config(pipeline_dir, tmp_path / "report.json")
    good = run_pipeline(config, cache)
    bad = tmp_path / "bad.arpa"
    lines = (pipeline_dir / "model.arpa").read_text(encoding="utf-8").splitlines()
    at = lines.index("\\2-grams:") + 2
    lines[at] = lines[at].split("\t")[0]  # a 2-gram entry without its words
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ParseError) as want:
        import_arpa(bad)
    assert str(want.value).startswith(f"{bad}: line {at + 1}: malformed 2-gram entry")
    with pytest.raises(ParseError) as got:
        run_pipeline({**config, "arpa": str(bad)}, cache)
    assert str(got.value) == str(want.value)
    n_parses = parses["_parse_arpa"]
    assert run_pipeline(config, cache) == good
    assert parses["_parse_arpa"] == n_parses


def test_pipeline_leaves_the_parsed_models_as_loaded(pipeline_dir, tmp_path, parses, cache):
    config = deep_config(pipeline_dir, tmp_path / "report.json")
    for _ in range(2):  # the second pipeline runs on the parsed objects
        run_pipeline(config, cache)
    model, fresh = cache["model"][1], load_checkpoint(pipeline_dir / "model.bin")
    assert model.vocab == fresh.vocab
    assert [(n, p.tobytes()) for n, p in rnnlm.named_parameters(model)] == [
        (n, p.tobytes()) for n, p in rnnlm.named_parameters(fresh)
    ]
    emb, fresh = cache["vectors"][1], load_w2v_text(pipeline_dir / "v.txt")
    assert (emb.words, emb.vectors.tobytes()) == (fresh.words, fresh.vectors.tobytes())
    ng, fresh = cache["arpa"][1], import_arpa(pipeline_dir / "model.arpa")

    def tables(m):
        return [[{g: v.hex() for g, v in t.items()} for t in ts] for ts in (m.probs, m.backoffs)]

    assert (ng.order, ng.vocab, tables(ng)) == (fresh.order, fresh.vocab, tables(fresh))


@pytest.mark.parametrize("policy", ["uniform", "ngram"])
def test_compare_on_loaded_models_gives_the_pipelines_report(pipeline_dir, tmp_path, policy,
                                                             monkeypatch):
    """``compare`` on models loaded by hand reports what ``run_pipeline``
    writes, byte for byte, and opens no file while it runs."""
    config = deep_config(pipeline_dir, tmp_path / "report.json")
    if policy == "uniform":  # the default settings
        config = {key: config[key] for key in [*PIPELINE_FILES, "report"]}
    run_pipeline(config)
    inputs = (
        parse_nbest(config["nbest"]), load_transcripts(config["refs"]),
        load_checkpoint(config["model"]), load_w2v_text(config["vectors"]),
        import_arpa(config["arpa"]), rescoring.pipeline_settings(config),
    )

    def no_file(*args, **kwargs):
        raise AssertionError("compare touched a file")

    for module in (vocab, ngram, rnnlm, skipgram, expansion, rescoring):
        for name in ("reading", "writing"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, no_file)
    report, expanded = rescoring.compare(*inputs)
    monkeypatch.undo()
    write_report(report, tmp_path / "compare.json")
    assert (tmp_path / "compare.json").read_bytes() == (tmp_path / "report.json").read_bytes()
    assert expanded.n_explicit == inputs[2].n_explicit + report["new_words"]["count"]


def test_module_graph_has_no_cycles():
    """n-best and transcript I/O live in vocab, so no module below rescoring
    needs it, and the package's intra-module imports form no cycle."""
    package = Path(lmexpand.__file__).parent
    graph = {}
    for path in package.glob("*.py"):
        imports = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                imports |= {node.module} if node.module else {a.name for a in node.names}
        graph[path.stem] = imports
    del graph["__init__"]
    assert not graph["vocab"]
    assert "rescoring" not in graph["datagen"] | graph["expansion"]

    def reaches(start, goal, seen):
        return any(
            nxt == goal or (nxt not in seen and reaches(nxt, goal, seen | {nxt}))
            for nxt in graph.get(start, ())
        )

    assert not [name for name in graph if reaches(name, name, {name})]


def test_render_report_table():
    report = {
        "new_words": {"count": 2, "skipped": [["x", "reason"]]},
        "systems": [
            {
                "system": "ngram",
                "perplexity": 123.456,
                "wer": 20.5,
                "substitutions": 3,
                "insertions": 1,
                "deletions": 2,
            }
        ],
    }
    text = render_report(report)
    assert "ngram" in text and "123.46" in text and "20.50" in text
    assert text.splitlines()[0].startswith("new words expanded: 2")
