"""N-best rescoring, WER, weight tuning, and the flat config format."""

from __future__ import annotations

import functools

import numpy as np
import pytest

from lmexpand.rescoring import (
    DEFAULT_PENALTIES,
    DEFAULT_SCALES,
    Hypothesis,
    NBestParseError,
    RescoreConfig,
    RescoreError,
    combined_score,
    load_transcripts,
    one_best,
    parse_config,
    parse_nbest,
    per_sentence,
    render_report,
    rescore,
    tune,
    wer,
    write_nbest,
    write_transcripts,
)


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
    with pytest.raises(NBestParseError, match="line 1") as err:
        parse_nbest(path)
    assert err.value.line_no == 1


def test_parse_nbest_numeric_error(tmp_path):
    path = tmp_path / "bad.nbest"
    path.write_text("u\t1\t-1.0\t0.0\tok\nu\ttwo\t-1.0\t0.0\tbad\n")
    with pytest.raises(NBestParseError, match="line 2"):
        parse_nbest(path)


@pytest.mark.parametrize("field", [2, 3])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
def test_parse_nbest_rejects_non_finite_scores(tmp_path, field, value):
    fields = ["u", "2", "-2.0", "-3.0", "b"]
    fields[field] = value
    path = tmp_path / "bad.nbest"
    path.write_text("u\t1\t-1.0\t0.0\ta\n" + "\t".join(fields) + "\n")
    with pytest.raises(NBestParseError, match="line 2: non-finite") as err:
        parse_nbest(path)
    assert err.value.line_no == 2


def test_parse_nbest_duplicate_rank(tmp_path):
    path = tmp_path / "bad.nbest"
    path.write_text("u\t1\t-1.0\t0.0\ta\nu\t1\t-2.0\t0.0\tb\n")
    with pytest.raises(NBestParseError, match="duplicate"):
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


def test_rescore_scores_each_utterance_in_one_call():
    nbest = {
        "u": [hyp(["a", "b"], 1), hyp([], 2), hyp(["a"], 3)],
        "v": [hyp(["c"], 1)],
    }
    calls = []

    def lm(batch):
        calls.append([list(w) for w in batch])
        return [-float(len(w)) for w in batch]

    out = rescore(nbest, lm, RescoreConfig(lm_scale=1.0))
    assert calls == [[["a", "b"], [], ["a"]], [["c"]]]
    assert [h.lm_score for h in out["u"]] == [0.0, -1.0, -2.0]


def test_rescore_rejects_a_short_score_list():
    nbest = {"u": [hyp(["a"], 1), hyp(["b"], 2)]}
    with pytest.raises(RescoreError, match="1 scores for the 2 hypotheses of 'u'"):
        rescore(nbest, lambda batch: [-1.0], RescoreConfig())


def test_per_sentence_lifts_a_one_sentence_scorer():
    lm = per_sentence(lambda words: -0.5 * len(words))
    assert lm([["a", "b"], [], ["c"]]) == [-1.0, -0.0, -0.5]


def test_one_best_skips_empty_utterances():
    assert one_best({"u": [hyp(["a"], 1)], "v": []}) == {"u": ["a"]}


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


def test_wer_can_exceed_hundred():
    result = wer({"u": ["a"]}, {"u": ["b", "c", "d"]})
    assert result.wer > 100.0


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


def test_tune_first_config_wins_ties():
    nbest = {"u": [hyp(["a"], 1, ac=-1.0)]}
    refs = {"u": ["a"]}
    lm = lambda batch: [-1.0] * len(batch)
    cfg, best_wer, grid = tune(nbest, refs, lm, scales=(2.0, 4.0), penalties=(0.0, 1.0))
    assert best_wer == 0.0
    assert (cfg.lm_scale, cfg.word_penalty) == (2.0, 0.0)
    assert len(grid) == 4


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
