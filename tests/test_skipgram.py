"""Skip-gram embeddings: training behavior, neighbor queries, text I/O."""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmexpand.skipgram import (
    SkipgramConfig,
    UnknownTargetError,
    WordEmbeddings,
    cosine_similarity,
    load_w2v_text,
    nearest_in_shortlist,
    save_w2v_text,
    train_skipgram,
)
from lmexpand.vocab import RESERVED, Vocabulary


def cluster_corpus(n=400, seed=0):
    """Two interchangeable word families in disjoint frame sentences.

    Fruit words appear only inside the eat-frame, tool words only inside the
    fix-frame, so words in the same family share contexts.
    """
    rng = np.random.default_rng(seed)
    fruits = ["apple", "pear", "plum", "fig"]
    tools = ["hammer", "wrench", "pliers", "saw"]
    corpus = []
    for _ in range(n):
        if rng.random() < 0.5:
            w = fruits[int(rng.integers(len(fruits)))]
            corpus.append(["we", "eat", "ripe", w, "slices", "daily"])
        else:
            w = tools[int(rng.integers(len(tools)))]
            corpus.append(["he", "grabs", "the", w, "to", "fix", "it"])
    return corpus, fruits, tools


def test_embeddings_cover_every_trained_word():
    corpus, fruits, tools = cluster_corpus(50)
    emb = train_skipgram(corpus, SkipgramConfig(dim=10, epochs=1, seed=0))
    for sentence in corpus:
        for word in sentence:
            assert word in emb
    assert emb.vectors.shape == (len(emb.words), 10)


def test_min_count_filters_rare_words():
    corpus = [["common", "common", "common", "rare"]] * 3 + [["common", "once"]]
    emb = train_skipgram(corpus, SkipgramConfig(dim=4, epochs=1, min_count=2))
    assert "common" in emb and "rare" in emb
    assert "once" not in emb


def test_training_is_deterministic():
    corpus, _, _ = cluster_corpus(80)
    cfg = SkipgramConfig(dim=12, epochs=2, seed=42)
    a = train_skipgram(corpus, cfg)
    b = train_skipgram(corpus, cfg)
    assert a.words == b.words
    assert a.vectors.tobytes() == b.vectors.tobytes()


def test_seed_changes_vectors():
    corpus, _, _ = cluster_corpus(40)
    a = train_skipgram(corpus, SkipgramConfig(dim=8, epochs=1, seed=1))
    b = train_skipgram(corpus, SkipgramConfig(dim=8, epochs=1, seed=2))
    assert a.vectors.tobytes() != b.vectors.tobytes()


def test_same_context_words_cluster():
    corpus, fruits, tools = cluster_corpus(400)
    emb = train_skipgram(
        corpus, SkipgramConfig(dim=20, window=3, epochs=8, subsample=0, seed=0)
    )
    within, across = [], []
    for i, a in enumerate(fruits):
        for b in fruits[i + 1 :]:
            within.append(cosine_similarity(emb.vector(a), emb.vector(b)))
        for b in tools:
            across.append(cosine_similarity(emb.vector(a), emb.vector(b)))
    assert min(within) > max(across)


@pytest.mark.parametrize(
    "corpus, message",
    [
        ([["a", "</s>", "b"], ["b", "a"]], "sentence 0: reserved token </s> inside"),
        ([["a", "b"], ["b", "<s>", "a"]], "sentence 1: reserved token <s> inside"),
    ],
)
def test_boundary_tokens_inside_a_sentence_are_rejected(corpus, message):
    with pytest.raises(ValueError, match=message):
        train_skipgram(corpus, SkipgramConfig(dim=2, epochs=1))
    emb = train_skipgram([["a", "<unk>", "b"]], SkipgramConfig(dim=2, epochs=1))
    assert "<unk>" in emb


def test_empty_corpus_rejected():
    with pytest.raises(ValueError):
        train_skipgram([], SkipgramConfig(dim=4))


@pytest.mark.parametrize("setting, value", [("dim", 0), ("dim", -2), ("window", 0)])
def test_out_of_range_settings_are_named(setting, value):
    config = SkipgramConfig(**{"dim": 4, setting: value})
    with pytest.raises(ValueError, match=f"{setting} must be >= 1, got {value}"):
        train_skipgram([["a", "b", "c"]], config)


class TestNearestInShortlist:
    def make_fixture(self):
        # hand-placed vectors make every cosine checkable by the oracle below
        words = list(RESERVED) + ["aa", "bb", "cc", "dd", "ee", "tail1"]
        vocab = Vocabulary(words, shortlist_size=8)  # tail1 is out
        table = ["aa", "bb", "cc", "dd", "tail1", "query"]
        rng = np.random.default_rng(5)
        emb = WordEmbeddings(table, rng.normal(size=(len(table), 6)))
        return vocab, emb

    def oracle(self, emb, target, vocab, k):
        tvec = emb.vector(target)
        rows = []
        for wid in range(3, vocab.shortlist_size):
            w = vocab.decode(wid)
            if w == target or w not in emb:
                continue
            rows.append((cosine_similarity(tvec, emb.vector(w)), wid))
        rows.sort(key=lambda r: (-r[0], r[1]))
        return [(wid, sim) for sim, wid in rows[:k]]

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_exhaustive_oracle(self, data):
        """Random tables with zero vectors, unembedded words, collinear and
        duplicate rows (exact ties), and targets inside and outside."""
        dim = data.draw(st.sampled_from([1, 2, 3, 8, 16, 24]), label="dim")
        n_short = data.draw(st.integers(0, 12), label="shortlist content words")
        words = [f"s{i}" for i in range(n_short)] + ["tail", "query"]
        vocab = Vocabulary(list(RESERVED) + words[:-1], shortlist_size=3 + n_short)
        value = st.one_of(
            st.integers(-3, 3).map(float),
            st.floats(-4, 4).filter(lambda x: x == 0.0 or abs(x) > 1e-3),
        )
        # a few base directions, so equal and collinear rows (exact ties) are common
        pool = [
            np.random.default_rng(data.draw(st.integers(0, 2**32))).normal(size=dim),
            np.array(data.draw(st.lists(value, min_size=dim, max_size=dim))),
            np.zeros(dim),
        ]
        table, rows = [], []
        for word in words:
            base = data.draw(st.integers(-1, len(pool) - 1))  # -1: no vector
            if base < 0 and word != "query":
                continue
            scale = data.draw(st.sampled_from([0.25, 0.5, 1.0, 2.0, -1.0, -4.0]))
            table.append(word)
            rows.append(pool[max(base, 0)] * scale)
        emb = WordEmbeddings(table, np.array(rows).reshape(len(rows), dim))
        target = data.draw(st.sampled_from(table), label="target")
        k = data.draw(st.integers(1, n_short + 2), label="k")
        got = nearest_in_shortlist(emb, target, vocab, k=k)
        expected = self.oracle(emb, target, vocab, k)
        assert [w for w, _ in got] == [w for w, _ in expected]
        for (_, s1), (_, s2) in zip(got, expected):
            assert s1 == pytest.approx(s2, rel=1e-12)

    def test_excludes_reserved_tail_and_unembedded(self):
        vocab, emb = self.make_fixture()
        got = [w for w, _ in nearest_in_shortlist(emb, "query", vocab, k=50)]
        names = [vocab.decode(w) for w in got]
        # ee has no vector, tail1 is outside the shortlist, reserved excluded
        assert set(names) == {"aa", "bb", "cc", "dd"}

    def test_target_inside_shortlist_is_excluded(self):
        vocab, emb = self.make_fixture()
        got = nearest_in_shortlist(emb, "aa", vocab, k=50)
        assert vocab.encode("aa") not in [w for w, _ in got]

    def test_ties_break_toward_smaller_id(self):
        words = list(RESERVED) + ["x1", "x2"]
        vocab = Vocabulary(words, shortlist_size=5)
        emb = WordEmbeddings(
            ["x1", "x2", "q"],
            np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]),  # all cosine 1
        )
        got = nearest_in_shortlist(emb, "q", vocab, k=2)
        assert [w for w, _ in got] == [vocab.encode("x1"), vocab.encode("x2")]

    def test_equal_rows_tie_at_every_batch_position(self):
        """Equal rows score bit-identically wherever they sit in the shortlist;
        a plain matrix-vector product rounds some positions differently."""
        rng = np.random.default_rng(7)
        for n in range(2, 14):
            words = [f"x{i}" for i in range(n)]
            vocab = Vocabulary(list(RESERVED) + words, shortlist_size=3 + n)
            for dim in (8, 16, 24):
                table = np.vstack([np.tile(rng.normal(size=dim), (n, 1)), rng.normal(size=dim)])
                emb = WordEmbeddings(words + ["q"], table)
                got = nearest_in_shortlist(emb, "q", vocab, k=n)
                assert [w for w, _ in got] == list(range(3, 3 + n))
                assert len({s for _, s in got}) == 1

    def test_unknown_target_raises(self):
        vocab, emb = self.make_fixture()
        with pytest.raises(UnknownTargetError):
            nearest_in_shortlist(emb, "nope", vocab)
        with pytest.raises(ValueError):
            nearest_in_shortlist(emb, "query", vocab, k=0)


def test_cosine_zero_norm_is_zero():
    assert cosine_similarity(np.zeros(3), np.ones(3)) == 0.0
    assert cosine_similarity(np.ones(3), np.ones(3)) == pytest.approx(1.0)
    assert cosine_similarity(np.array([1.0, 0.0]), np.array([-1.0, 0.0])) == pytest.approx(-1.0)


class TestTextFormat:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        emb = WordEmbeddings(["alpha", "beta", "gamma"], rng.normal(size=(3, 5)))
        path = tmp_path / "vec.txt"
        save_w2v_text(emb, path)
        again = load_w2v_text(path)
        assert again.words == emb.words
        np.testing.assert_allclose(again.vectors, emb.vectors, rtol=1e-6)

    def test_header_shape(self, tmp_path):
        emb = WordEmbeddings(["a"], np.ones((1, 3)))
        path = tmp_path / "vec.txt"
        save_w2v_text(emb, path)
        assert path.read_text().splitlines()[0] == "1 3"

    def test_count_mismatch(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("2 2\na 1 2\n")
        with pytest.raises(ValueError, match="declares 2"):
            load_w2v_text(path)

    def test_blank_lines_between_vectors(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("2 2\na 1 2\n\nb 3 4\n\n")
        again = load_w2v_text(path)
        assert again.words == ["a", "b"]
        np.testing.assert_array_equal(again.vectors, [[1.0, 2.0], [3.0, 4.0]])

    def test_errors_after_blank_line_report_file_line(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("2 2\na 1 2\n\nb 3 oops\n")
        with pytest.raises(ValueError, match="line 4: non-numeric"):
            load_w2v_text(path)
        path.write_text("1 2\na 1 2\n\nb 3 4\n")
        with pytest.raises(ValueError, match="line 4: more vectors"):
            load_w2v_text(path)

    def test_bad_dim_reports_line(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("1 3\na 1 2\n")
        with pytest.raises(ValueError, match="line 2"):
            load_w2v_text(path)

    def test_non_numeric_value(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("1 2\na 1 oops\n")
        with pytest.raises(ValueError, match="line 2"):
            load_w2v_text(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_value_reports_line(self, tmp_path, value):
        path = tmp_path / "vec.txt"
        path.write_text(f"2 2\na 1 2\n\nb 3 {value}\n")
        with pytest.raises(ValueError, match="line 4: non-finite"):
            load_w2v_text(path)

    def test_duplicate_words_rejected(self):
        with pytest.raises(ValueError):
            WordEmbeddings(["a", "a"], np.ones((2, 2)))

    def test_duplicate_word_is_named_with_both_rows(self):
        with pytest.raises(ValueError, match="duplicate word 'a' at rows 0 and 2"):
            WordEmbeddings(["a", "b", "a"], np.ones((3, 2)))

    def test_duplicate_word_reports_line_of_second_occurrence(self, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text("3 2\na 1 2\nb 0 1\n\na 3 4\n")
        with pytest.raises(ValueError, match="line 5: duplicate word 'a' at rows 0 and 2"):
            load_w2v_text(path)

    @pytest.mark.parametrize("header", ["-1 2", "1 0", "0 0", "2 -3"])
    def test_header_rejects_negative_count_or_empty_vectors(self, tmp_path, header):
        path = tmp_path / "vec.txt"
        path.write_text(f"{header}\na 1 2\n")
        with pytest.raises(ValueError, match=f"line 1: need count >= 0 and dim >= 1, got {header}"):
            load_w2v_text(path)

    def test_huge_header_count_allocates_nothing(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("3000000000 1000\n")
        with pytest.raises(ValueError, match="header declares 3000000000 vectors, file has 0"):
            load_w2v_text(path)


# one whitespace-free word; surrogates cannot be written as UTF-8
w2v_words = st.text(
    st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=8
).filter(lambda t: t.split() == [t])


@settings(max_examples=60, deadline=None)
@given(st.lists(w2v_words, unique=True, max_size=8), st.integers(1, 6), st.data())
def test_w2v_round_trip_keeps_nine_digits_exactly(words, dim, data):
    values = st.floats(allow_nan=False, allow_infinity=False)
    rows = data.draw(st.lists(st.lists(values, min_size=dim, max_size=dim),
                              min_size=len(words), max_size=len(words)))
    emb = WordEmbeddings(words, np.array(rows, dtype=float).reshape(len(words), dim))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "vec.txt"
        save_w2v_text(emb, path)
        again = load_w2v_text(path)
        assert again.words == words
        want = [[float(format(v, ".9g")) for v in row] for row in emb.vectors]
        assert again.vectors.tolist() == want
        # what was read back is written back byte for byte
        save_w2v_text(again, Path(tmp) / "again.txt")
        assert (Path(tmp) / "again.txt").read_bytes() == path.read_bytes()
