"""Vocabulary construction, encoding and file round-trips."""

from __future__ import annotations

import math
import re
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lmexpand import ngram, rnnlm, skipgram
from lmexpand.vocab import (
    BOS,
    BOS_ID,
    EOS,
    EOS_ID,
    RESERVED,
    UNK,
    UNK_ID,
    Hypothesis,
    ParseError,
    Vocabulary,
    VocabularyError,
    build_vocabulary,
    check_corpus,
    load_corpus,
    load_transcripts,
    parse_nbest,
    ranked_words,
    save_corpus,
    text_lines,
    write_nbest,
    write_transcripts,
)


class TestBuildVocabulary:
    def test_reserved_tokens_occupy_fixed_ids(self):
        v = build_vocabulary([["a", "b", "a"]], shortlist_size=4, full_size=10)
        assert v.words[:3] == [BOS, EOS, UNK]
        assert v.encode(BOS) == BOS_ID == 0
        assert v.encode(EOS) == EOS_ID == 1
        assert v.encode(UNK) == UNK_ID == 2

    def test_frequency_then_lexicographic_order(self):
        # a:3 b:2 c:1 -> shortlist of 5 keeps a and b, c goes to the tail
        v = build_vocabulary([["a", "b", "a", "c", "a", "b"]], 5, 10)
        assert v.words == [BOS, EOS, UNK, "a", "b", "c"]
        assert v.shortlist_size == 5
        assert v.shortlist_words == [BOS, EOS, UNK, "a", "b"]
        assert v.tail_words == ["c"]

    def test_tie_broken_lexicographically(self):
        # b:2 c:2 d:1, one content slot in the shortlist -> "b" wins the tie
        v = build_vocabulary([["b", "c", "b", "c", "d"]], 4, 10)
        assert v.words == [BOS, EOS, UNK, "b", "c", "d"]
        assert v.shortlist_size == 4

    def test_shortlist_shrinks_to_existing_words(self):
        v = build_vocabulary([["x", "y", "z"]], shortlist_size=100, full_size=100)
        assert len(v) == 6
        assert v.shortlist_size == 6
        assert v.tail_words == []

    def test_full_size_truncates_tail(self):
        corpus = [["a", "a", "b", "b", "c", "d"]]
        v = build_vocabulary(corpus, 4, 5)
        # full_size 5 keeps reserved + a + b; c and d fall out entirely
        assert v.words == [BOS, EOS, UNK, "a", "b"]
        assert v.encode("c") == UNK_ID

    def test_frequency_invariant_over_random_corpora(self):
        rng = np.random.default_rng(7)
        alphabet = [f"w{i}" for i in range(30)]
        for _ in range(25):
            n = int(rng.integers(5, 200))
            tokens = [alphabet[int(i)] for i in rng.integers(0, len(alphabet), n)]
            corpus = [tokens[i : i + 7] for i in range(0, n, 7)]
            shortlist = int(rng.integers(3, 20))
            full = shortlist + int(rng.integers(0, 15))
            v = build_vocabulary(corpus, shortlist, full)
            counts = Counter(t for s in corpus for t in s)
            short_min = min(
                (counts[w] for w in v.shortlist_words[3:]), default=None
            )
            tail_max = max((counts[w] for w in v.tail_words), default=None)
            if short_min is not None and tail_max is not None:
                assert short_min >= tail_max

    def test_reserved_tokens_in_corpus_are_not_duplicated(self):
        v = build_vocabulary([[UNK, "a", UNK, "a"]], 5, 10)
        assert v.words.count(UNK) == 1
        assert v.words == [BOS, EOS, UNK, "a"]

    @pytest.mark.parametrize(
        "corpus, message",
        [
            ([["a", EOS, "b"], ["b", "a"]], "sentence 0: reserved token </s> inside"),
            ([["a", "b"], ["b", BOS, "a"]], "sentence 1: reserved token <s> inside"),
        ],
    )
    def test_boundary_tokens_inside_a_sentence_are_rejected(self, corpus, message):
        with pytest.raises(ValueError, match=message):
            build_vocabulary(corpus, 5, 10)

    def test_errors(self):
        with pytest.raises(ValueError):
            build_vocabulary([], 5, 10)
        with pytest.raises(ValueError):
            build_vocabulary([["a"]], 2, 10)
        with pytest.raises(ValueError):
            build_vocabulary([["a"]], 6, 5)


class TestCorpusRules:
    def test_ranked_words_orders_by_count_then_word(self):
        corpus = [["b", "a", UNK], ["c", "a", "b"], ["d"]]
        assert ranked_words(corpus) == [("a", 2), ("b", 2), ("<unk>", 1), ("c", 1), ("d", 1)]

    @pytest.mark.parametrize(
        "corpus, message",
        [
            ([], "empty corpus"),
            ([["a"], [], ["b", EOS]], "sentence 2: reserved token </s> inside a sentence"),
            ([[BOS, EOS]], "sentence 0: reserved token <s> inside a sentence"),
            ([["a"], ["b", "c d"]], "sentence 1: word 'c d' is empty or contains whitespace"),
            ([["", "a"]], "sentence 0: word '' is empty or contains whitespace"),
            ([["a\nb"]], "sentence 0: word 'a\\nb' is empty or contains whitespace"),
        ],
    )
    def test_check_corpus_and_ranking_share_one_rule(self, corpus, message):
        for check in (check_corpus, ranked_words):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                check(corpus)

    def test_every_trainer_refuses_a_word_that_would_split(self):
        """A word that a file would read back as two words, or as none, is
        refused by every trainer in one wording, before any training."""
        corpus = [["c", "a"], ["a b", "c"]] * 5
        vocab = Vocabulary([*RESERVED, "a", "c"], 5)
        trainers = [
            lambda: build_vocabulary(corpus, 5, 10),
            lambda: ngram.train_kn(corpus, vocab),
            lambda: skipgram.train_skipgram(corpus, skipgram.SkipgramConfig(epochs=0)),
            lambda: rnnlm.train_bptt(
                rnnlm.init_model(vocab, 2, 2, 1), corpus, rnnlm.TrainConfig(epochs=0)
            ),
        ]
        for train in trainers:
            with pytest.raises(ValueError) as err:
                train()
            assert str(err.value) == "sentence 1: word 'a b' is empty or contains whitespace"

    def test_empty_sentences_and_unk_pass(self):
        check_corpus([[], [UNK, "a"]])


class TestEncodeDecode:
    def setup_method(self):
        self.v = build_vocabulary([["a", "b", "a", "c", "a", "b"]], 5, 10)

    def test_encode_absent_token_is_unk(self):
        assert self.v.encode("zzz", shortlist_only=True) == UNK_ID
        assert self.v.encode("zzz") == UNK_ID

    def test_encode_tail_token(self):
        assert self.v.encode("c") == 5
        assert self.v.encode("c", shortlist_only=True) == UNK_ID

    def test_roundtrip_all_ids(self):
        for idx, word in enumerate(self.v.words):
            assert self.v.encode(word) == idx
            assert self.v.decode(idx) == word

    def test_decode_out_of_range(self):
        with pytest.raises(IndexError):
            self.v.decode(len(self.v))
        with pytest.raises(IndexError):
            self.v.decode(-1)

    def test_is_shortlist(self):
        assert self.v.is_shortlist("a")
        assert self.v.is_shortlist(UNK)
        assert not self.v.is_shortlist("c")
        assert not self.v.is_shortlist("zzz")


class TestVocabularyFile:
    def test_round_trip(self, tmp_path):
        v = build_vocabulary([["a", "b", "a", "c"]], 4, 10)
        path = tmp_path / "vocab.txt"
        v.save(path)
        again = Vocabulary.load(path)
        assert again == v

    def test_rebuild_is_byte_identical(self, tmp_path):
        corpus = [["a", "b", "c", "a"], ["b", "a"]]
        p1, p2 = tmp_path / "v1.txt", tmp_path / "v2.txt"
        build_vocabulary(corpus, 5, 8).save(p1)
        build_vocabulary(corpus, 5, 8).save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_format(self, tmp_path):
        v = build_vocabulary([["a"]], 3, 10)
        path = tmp_path / "vocab.txt"
        v.save(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "#shortlist=3"
        assert lines[1:] == v.words

    def test_missing_header_rejected(self):
        with pytest.raises(ValueError):
            Vocabulary.from_text("<s>\n</s>\n<unk>\n")

    @pytest.mark.parametrize(
        "text",
        [
            pytest.param("", id="empty"),
            pytest.param("<s>\n</s>\n<unk>\n", id="no-header"),
            pytest.param("#shortlist=x\n<s>\n</s>\n<unk>\n", id="not-a-number"),
            pytest.param("#shortlist=9\n<s>\n</s>\n<unk>\n", id="above-the-words"),
            pytest.param("#shortlist=2\n<s>\n</s>\n<unk>\n", id="below-the-reserved"),
        ],
    )
    def test_header_errors_are_reported_at_line_1(self, text):
        with pytest.raises(ParseError, match="^line 1: ") as err:
            Vocabulary.from_text(text)
        assert err.value.line_no == 1

    def test_a_line_ends_only_at_lf_cr_lf_or_cr(self):
        """Form feed, NEL and the Unicode separators that ``str.splitlines``
        also breaks at stay inside a line, as in a text-mode read."""
        inner = "a\x0bb\x0cc\x1cd\x1de\x1ef\x85g\u2028h\u2029i"
        assert text_lines(f"{inner}\r\nj\rk\n\nl".encode()) == [inner, "j", "k", "", "l"]
        assert text_lines(b"") == [] and text_lines(b"\n") == [""] and text_lines(b"a\r") == ["a"]
        message = "line 5: word id 3 is empty or contains whitespace: 'a\\x0cb'"
        with pytest.raises(ParseError, match=re.escape(message)):
            Vocabulary.from_text("#shortlist=3\n<s>\n</s>\n<unk>\na\x0cb\n")

    def test_bad_constructions(self):
        with pytest.raises(ValueError):
            Vocabulary(["a", "b", "c"], 3)  # reserved tokens missing
        with pytest.raises(ValueError):
            Vocabulary([BOS, EOS, UNK, "a", "a"], 4)  # duplicate
        with pytest.raises(ValueError):
            Vocabulary([BOS, EOS, UNK], 2)  # boundary below reserved block


    def test_duplicate_word_is_named(self):
        with pytest.raises(ValueError, match="duplicate word 'a' at ids 3 and 5"):
            Vocabulary([BOS, EOS, UNK, "a", "b", "a"], 4)
        with pytest.raises(ValueError, match="duplicate word '<s>' at ids 0 and 4"):
            Vocabulary([BOS, EOS, UNK, "a", BOS], 4)

    @pytest.mark.parametrize("word", ["", "a b", "tab\there", " ", "x\udc80"])
    def test_empty_or_whitespace_word_is_named(self, word):
        fault = "does not encode as UTF-8" if word == "x\udc80" else "is empty or contains whitespace"
        message = f"word id 4 {fault}: {word!r}"
        with pytest.raises(VocabularyError, match=re.escape(message)):
            Vocabulary([BOS, EOS, UNK, "a", word], 4)

    def test_a_word_that_is_not_utf8_writes_no_file(self, tmp_path):
        """A lone surrogate fails when the vocabulary is built, naming its id,
        not halfway through ``save``."""
        path = tmp_path / "v.txt"
        with pytest.raises(VocabularyError, match="word id 3 does not encode as UTF-8"):
            Vocabulary([*RESERVED, "x\udc80"], 4).save(path)
        assert not path.exists()

    def test_file_errors_report_the_line(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("#shortlist=4\n<s>\n</s>\n<unk>\na\nb\na\n")
        with pytest.raises(ValueError, match="line 7: duplicate word 'a'"):
            Vocabulary.load(path)
        with pytest.raises(ValueError, match="line 6: word id 4 is empty"):
            Vocabulary.from_text("#shortlist=4\n<s>\n</s>\n<unk>\na\n\nb\n")
        with pytest.raises(ValueError, match="line 5: word id 3 .*'a b'"):
            Vocabulary.from_text("#shortlist=4\n<s>\n</s>\n<unk>\na b\n")

    @pytest.mark.parametrize(
        "body, line_no",
        [
            pytest.param("<s>\n<unk>\n</s>\n", 3, id="swapped"),
            pytest.param("</s>\n<s>\n<unk>\n", 2, id="rotated"),
            pytest.param("<s>\n</s>\na\n<unk>\n", 4, id="word-before-unk"),
            pytest.param("<s>\n</s>\n", 3, id="unk-missing"),  # on the last line
        ],
    )
    def test_misordered_reserved_tokens_report_the_line(self, body, line_no):
        message = f"line {line_no}: ids 0, 1, 2 must be <s>, </s>, <unk> in that order"
        with pytest.raises(ValueError, match=re.escape(message)):
            Vocabulary.from_text("#shortlist=3\n" + body)


class TestCorpusIO:
    def test_round_trip_skips_blank_lines(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("a b c\n\nd e\n   \n", encoding="utf-8")
        assert load_corpus(path) == [["a", "b", "c"], ["d", "e"]]

    def test_save_then_load(self, tmp_path):
        corpus = [["x", "y"], ["z"]]
        path = tmp_path / "c.txt"
        save_corpus(corpus, path)
        assert load_corpus(path) == corpus

    @pytest.mark.parametrize("token", [BOS, EOS])
    def test_boundary_tokens_are_rejected_with_the_line(self, tmp_path, token):
        path = tmp_path / "c.txt"
        path.write_text(f"a b\n\nb {token} a\n", encoding="utf-8")
        message = f"{path}: line 3: reserved token {token} inside a sentence"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_corpus(path)

    def test_unknown_token_stays_legal(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text(f"a {UNK} b\n", encoding="utf-8")
        assert load_corpus(path) == [["a", UNK, "b"]]

    def test_empty_corpus_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("\n\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_corpus(path)


class TestSentenceRuleInTabFiles:
    """Hypotheses and transcripts are sentences too: their bounds are
    implicit, so a literal <s> or </s> among their words is an error at its line."""

    @pytest.mark.parametrize("token", [BOS, EOS])
    def test_nbest_word_field_is_a_sentence(self, tmp_path, token):
        path = tmp_path / "t.nbest"
        path.write_text(f"u0\t1\t-1.0\t-2.0\ta b\nu1\t1\t-1.0\t-2.0\ta {token} b\n")
        message = f"{path}: line 2: reserved token {token} inside a sentence"
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            parse_nbest(path)

    @pytest.mark.parametrize("token", [BOS, EOS])
    def test_transcript_words_are_a_sentence(self, tmp_path, token):
        path = tmp_path / "refs.txt"
        path.write_text(f"u0\ta b\n\nu1\t{token} a\n")
        message = f"{path}: line 3: reserved token {token} inside a sentence"
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            load_transcripts(path)

    def test_unk_and_reserved_utterance_ids_stay_legal(self, tmp_path):
        path = tmp_path / "refs.txt"
        path.write_text(f"{EOS}\ta {UNK}\n")
        assert load_transcripts(path) == {EOS: ["a", UNK]}


def _hyp(words=("a",), acoustic=-1.0, lm=-2.0, rank=1):
    return Hypothesis(list(words), acoustic, lm, rank)


class TestWritersRefuseWhatReadersReject:
    """The corpus, n-best and transcript writers read their output back with
    the format's reader before the file is opened: a refusal is the reader's
    own error, after the path, and leaves no file."""

    @pytest.mark.parametrize(
        "write, data, message",
        [
            (save_corpus, [["a", BOS]], "line 1: reserved token <s> inside a sentence"),
            (save_corpus, [], "line 1: empty corpus"),
            (save_corpus, [["ok"], ["bad\ud800"]], "line 2: '\\ud800' does not encode as UTF-8"),
            (
                write_nbest,
                {"u1": [_hyp(["a", EOS])]},
                "line 1: reserved token </s> inside a sentence",
            ),
            *[
                (write_nbest, {"u1": [hyp]}, "line 1: non-finite acoustic or LM score")
                for hyp in [_hyp(acoustic=math.nan), _hyp(lm=math.inf), _hyp(lm=-math.inf)]
            ],
            (write_nbest, {"u1": [_hyp(), _hyp()]}, "line 2: duplicate hypothesis 'u1' rank 1"),
            (write_nbest, {"u\t1": [_hyp()]}, "line 1: expected 5 tab-separated fields, found 6"),
            (write_transcripts, {"u1": [BOS]}, "line 1: reserved token <s> inside a sentence"),
            (
                write_transcripts,
                {"u1": [], "u2": ["\udc80"]},
                "line 2: '\\udc80' does not encode as UTF-8",
            ),
        ],
    )
    def test_refusal_is_the_readers_error_and_writes_no_file(self, tmp_path, write, data, message):
        path = tmp_path / "out.txt"
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
            write(data, path)
        assert not path.exists()

    @pytest.mark.parametrize(
        "write, data, message",
        [
            (save_corpus, [["a b", "c"]], "line 1: word 'a b' is empty or contains whitespace"),
            (
                save_corpus,
                [["a"], [], ["c\td"]],
                "line 3: word 'c\\td' is empty or contains whitespace",
            ),
            (
                write_nbest,
                {"u1": [_hyp()], "u2": [_hyp(["x y"])]},
                "line 2: word 'x y' is empty or contains whitespace",
            ),
            (
                write_transcripts,
                {"u1": ["a"], "u2": [""]},
                "line 2: word '' is empty or contains whitespace",
            ),
        ],
    )
    def test_a_word_that_would_not_read_back_is_refused(self, tmp_path, write, data, message):
        """The readers split words at whitespace, so a writer refuses a word
        that is empty or holds whitespace, in ``check_corpus``'s words."""
        path = tmp_path / "out.txt"
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
            write(data, path)
        assert not path.exists()

    def test_refusal_leaves_an_existing_file_as_it_was(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_bytes(b"keep me\r\n")
        with pytest.raises(ParseError):
            save_corpus([["a", EOS]], path)
        assert path.read_bytes() == b"keep me\r\n"


# ------------------------------------------------------ round-trip properties

# one whitespace-free token: a vocabulary word or an utterance id; reserved
# tokens and lone surrogates (which UTF-8 cannot hold) included
tokens = st.text(st.characters(), min_size=1, max_size=8).filter(
    lambda t: t.split() == [t]
) | st.sampled_from(RESERVED)
# a word of a sentence: a token, or a word that is empty or holds whitespace
sentence_words = tokens | st.sampled_from(["", "a b", "a\tb", "a\nb"])
scores = st.floats(-1e6, 1e6) | st.sampled_from([math.nan, math.inf, -math.inf])


def _encodes(text: str) -> bool:
    return not any("\ud800" <= ch <= "\udfff" for ch in text)


def _sentence_ok(words: list[str]) -> bool:
    """Whether a sentence's words can be written: each one UTF-8, one
    whitespace-free word, and neither <s> nor </s>."""
    return all(_encodes(w) and w.split() == [w] and w not in (BOS, EOS) for w in words)


def _refused(write, data, path: Path) -> bool:
    """Whether ``write`` refused ``data``, raising ``ValueError`` and leaving no file."""
    try:
        write(data, path)
    except ValueError:
        assert not path.exists()
        return True
    return False


# every character a vocabulary word may hold: no whitespace and no lone
# surrogate (category Cs), which UTF-8 cannot hold
word_chars = st.characters(
    exclude_categories=["Cs"],
    exclude_characters=[chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()],
)


@st.composite
def vocabularies(draw):
    """A vocabulary of words drawn from ``word_chars``; only the reserved
    tokens are filtered out, so no health check is suppressed."""
    words = st.text(word_chars, min_size=1, max_size=8).filter(lambda t: t not in RESERVED)
    words = draw(st.lists(words, unique=True, max_size=30))
    shortlist = draw(st.integers(3, len(words) + 3))
    return Vocabulary([*RESERVED, *words], shortlist)


@settings(max_examples=100, deadline=None)
@given(vocabularies())
def test_vocabulary_text_round_trip(vocab):
    text = vocab.to_text()
    again = Vocabulary.from_text(text)
    assert again == vocab
    assert again.to_text() == text
    with tempfile.TemporaryDirectory() as tmp:
        vocab.save(Path(tmp) / "v.txt")
        assert Vocabulary.load(Path(tmp) / "v.txt") == vocab


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(sentence_words, max_size=6), max_size=6))
@example([["a b", "c"]])
@example([["a", ""]])
def test_corpus_round_trip(corpus):
    """A corpus reads back without its empty sentences, or is refused exactly
    when it has none, or a word that UTF-8 or a sentence cannot hold or that
    would not read back as one word."""
    writable = any(corpus) and all(map(_sentence_ok, corpus))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.txt"
        assert _refused(save_corpus, corpus, path) is not writable
        if writable:
            assert load_corpus(path) == [sentence for sentence in corpus if sentence]


@settings(max_examples=60, deadline=None)
@given(
    st.dictionaries(
        tokens,
        st.lists(st.tuples(st.lists(sentence_words, max_size=5), scores, scores), max_size=4),
        max_size=5,
    )
)
@example({"u1": [(["x y"], -1.0, -2.0)]})
@example({"u1": [(["", "x"], -1.0, -2.0)]})
def test_nbest_round_trip_at_six_decimals(lists):
    nbest = {
        utt: [Hypothesis(words, ac, lm, rank) for rank, (words, ac, lm) in enumerate(hyps, 1)]
        for utt, hyps in lists.items()
        if hyps
    }
    writable = all(
        _encodes(utt) and _sentence_ok(h.words) and math.isfinite(h.acoustic_score + h.lm_score)
        for utt, hyps in nbest.items()
        for h in hyps
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "n.nbest"
        assert _refused(write_nbest, nbest, path) is not writable
        if not writable:
            return
        again = parse_nbest(path)
        assert list(again) == list(nbest)
        for utt, hyps in nbest.items():
            assert [(h.words, h.rank) for h in again[utt]] == [(h.words, h.rank) for h in hyps]
            for got, want in zip(again[utt], hyps):
                # exactly what six decimals say, ties at the seventh included
                assert got.acoustic_score == float(f"{want.acoustic_score:.6f}")
                assert got.lm_score == float(f"{want.lm_score:.6f}")
        # what was read back is written back byte for byte
        write_nbest(again, Path(tmp) / "again.nbest")
        assert (Path(tmp) / "again.nbest").read_bytes() == path.read_bytes()


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(tokens, st.lists(sentence_words, max_size=6), max_size=6))
@example({"u1": ["a b"]})
@example({"u1": [""]})
def test_transcripts_round_trip(transcripts):
    writable = all(_encodes(utt) and _sentence_ok(w) for utt, w in transcripts.items())
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.txt"
        assert _refused(write_transcripts, transcripts, path) is not writable
        if writable:
            assert load_transcripts(path) == transcripts
