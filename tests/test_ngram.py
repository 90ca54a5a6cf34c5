"""Modified Kneser-Ney estimation against a brute-force reference, plus ARPA I/O.

The reference below recomputes every quantity from raw counts on each call:
no tables, no sharing with the production code.  Formulas: three discounts
per order from counts-of-counts (fallback 0.5 when degenerate), highest
order uses raw counts, lower orders use left-extension type counts except
for begin-of-sentence-initial grams, unigram level interpolates with the
uniform distribution over all predictable words.
"""

from __future__ import annotations

import functools
import hashlib
import math
import random
import re
import tempfile
import warnings
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmexpand.datagen import make_template_grammar, sample_corpus
from mutation import mutated_lines, write_lines
from lmexpand.ngram import LN10, LOG10_TINY, NgramModel, _estimate_discounts
from lmexpand.ngram import export_arpa, import_arpa, ngram_perplexity, train_kn
from lmexpand.vocab import BOS_ID, EOS_ID, UNK_ID, ParseError, TokenTable, Vocabulary
from lmexpand.vocab import build_vocabulary


# ---------------------------------------------------------------- reference


def conditional_prob(model: NgramModel, word: int, context: tuple[int, ...] = ()) -> float:
    """P(word | context) under ``model``, to set against the reference."""
    return math.exp(model.conditional_logprob(word, context))


def _ref_raw_counts(encoded, order):
    raw = {k: Counter() for k in range(1, order + 2)}
    for ids in encoded:
        padded = [BOS_ID] + ids + [EOS_ID]
        for k in range(1, order + 1):
            for i in range(len(padded) - k + 1):
                raw[k][tuple(padded[i : i + k])] += 1
    return raw


def _ref_adjusted(raw, k, order):
    if k == order:
        out = dict(raw[k])
    else:
        out = {}
        for gram, c in raw[k].items():
            if gram[0] == BOS_ID:
                out[gram] = c
            else:
                out[gram] = sum(1 for g in raw[k + 1] if g[1:] == gram)
    if k == 1:
        # the begin token is context only, never a prediction target
        out.pop((BOS_ID,), None)
    return out


def _ref_discounts(adj_values):
    n1 = sum(1 for v in adj_values if v == 1)
    n2 = sum(1 for v in adj_values if v == 2)
    n3 = sum(1 for v in adj_values if v == 3)
    n4 = sum(1 for v in adj_values if v == 4)
    if min(n1, n2, n3, n4) == 0:
        return 0.5, 0.5, 0.5
    y = n1 / (n1 + 2 * n2)
    d1, d2, d3 = 1 - 2 * y * n2 / n1, 2 - 3 * y * n3 / n2, 3 - 4 * y * n4 / n3
    if d1 <= 0 or d2 <= 0 or d3 <= 0:
        return 0.5, 0.5, 0.5
    return d1, d2, d3


def ref_kn_prob(encoded, vocab_size, order, word, context):
    """Brute-force interpolated modified Kneser-Ney P(word | context)."""
    raw = _ref_raw_counts(encoded, order)
    n_pred = vocab_size - 1  # everything except the begin token

    def prob(w, h):
        k = len(h) + 1
        adj = _ref_adjusted(raw, k, order)
        d = _ref_discounts([v for g, v in adj.items() if v >= 1])
        followers = {g[-1]: v for g, v in adj.items() if g[:-1] == h}
        total = sum(followers.values())
        lower = prob(w, h[1:]) if k > 1 else 1.0 / n_pred
        if total == 0:
            return lower
        n1c = sum(1 for v in followers.values() if v == 1)
        n2c = sum(1 for v in followers.values() if v == 2)
        n3c = sum(1 for v in followers.values() if v >= 3)
        gamma = (d[0] * n1c + d[1] * n2c + d[2] * n3c) / total
        a = followers.get(w, 0)
        disc = 0.0 if a == 0 else d[0] if a == 1 else d[1] if a == 2 else d[2]
        return max(a - disc, 0.0) / total + gamma * lower

    h = tuple(context)[-(order - 1) :] if order > 1 else ()
    return prob(word, h)


def _encode_corpus(corpus, vocab):
    return [[vocab.encode(t) for t in s] for s in corpus]


# ------------------------------------------------------------------- tests


TOY = [["a", "b", "a", "b"], ["a", "c", "b"]]


@pytest.fixture
def toy_vocab():
    return build_vocabulary(TOY, shortlist_size=5, full_size=10)


def test_bigram_matches_reference_on_toy_corpus(toy_vocab):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        model = train_kn(TOY, toy_vocab, order=2)
    encoded = _encode_corpus(TOY, toy_vocab)
    a, b = toy_vocab.encode("a"), toy_vocab.encode("b")
    for word, ctx in [
        (b, (a,)),
        (a, (BOS_ID,)),
        (EOS_ID, (b,)),
        (toy_vocab.encode("c"), (a,)),
        (UNK_ID, (b,)),
        (a, ()),
    ]:
        expected = ref_kn_prob(encoded, len(toy_vocab), 2, word, ctx)
        got = conditional_prob(model, word, ctx)
        assert got == pytest.approx(expected, abs=1e-9), (word, ctx)


@pytest.mark.parametrize("order", [1, 2, 3, 5])
def test_all_orders_match_reference_everywhere(order):
    corpus = [
        ["d", "a", "b", "a"],
        ["a", "b", "c", "d", "a"],
        ["c", "a", "b"],
        ["b", "b", "a", "c"],
    ]
    vocab = build_vocabulary(corpus, 5, 10)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        model = train_kn(corpus, vocab, order=order)
    encoded = _encode_corpus(corpus, vocab)
    contexts = [()]
    for ids in encoded:
        padded = [BOS_ID] + ids + [EOS_ID]
        for i in range(len(padded)):
            for k in range(1, order):
                if i >= k:
                    contexts.append(tuple(padded[i - k : i]))
    for ctx in set(contexts):
        for word in range(1, len(vocab)):
            expected = ref_kn_prob(encoded, len(vocab), order, word, ctx)
            got = conditional_prob(model, word, ctx)
            assert got == pytest.approx(expected, rel=1e-9, abs=1e-12), (word, ctx)


def test_unseen_bigram_backs_off_exactly(toy_vocab):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        model = train_kn(TOY, toy_vocab, order=2)
    a = toy_vocab.encode("a")
    c = toy_vocab.encode("c")
    # (c, a) never occurs: probability must be backoff_weight(c) * P(a)
    assert (c, a) not in model.probs[1]
    expected = math.exp(model.backoffs[0][(c,)]) * conditional_prob(model, a)
    assert conditional_prob(model, a, (c,)) == pytest.approx(expected, rel=1e-12)


def test_every_vocab_word_strictly_positive(toy_vocab):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        model = train_kn(TOY, toy_vocab, order=3)
    for ctx in [(), (toy_vocab.encode("a"),), (BOS_ID, toy_vocab.encode("a"))]:
        for wid in range(1, len(toy_vocab)):
            assert conditional_prob(model, wid, ctx) > 0.0


def test_normalization_over_sampled_contexts():
    rng = np.random.default_rng(11)
    alphabet = [f"w{i}" for i in range(12)]
    corpus = [
        [alphabet[int(j)] for j in rng.integers(0, 12, int(rng.integers(2, 9)))]
        for _ in range(60)
    ]
    vocab = build_vocabulary(corpus, 8, 20)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        model = train_kn(corpus, vocab, order=4)
    encoded = _encode_corpus(corpus, vocab)
    positions = []
    for ids in encoded:
        padded = [BOS_ID] + ids + [EOS_ID]
        for i in range(1, len(padded)):
            positions.append(tuple(padded[max(0, i - 3) : i]))
    rng.shuffle(positions)
    for ctx in positions[:100]:
        total = sum(
            conditional_prob(model, wid, ctx) for wid in range(1, len(vocab))
        )
        assert total == pytest.approx(1.0, abs=1e-6), ctx


def test_unigram_model_every_word_once_is_near_uniform():
    corpus = [["a", "b"], ["c", "d"]]
    vocab = build_vocabulary(corpus, 7, 7)
    with pytest.warns(RuntimeWarning):
        model = train_kn(corpus, vocab, order=1)
    probs = [conditional_prob(model, vocab.encode(w)) for w in ["a", "b", "c", "d"]]
    assert max(probs) == pytest.approx(min(probs), rel=1e-12)
    # the unknown word receives only redistributed mass, strictly less
    assert conditional_prob(model, UNK_ID) < min(probs)


def test_more_copies_never_decrease_conditional_probability():
    base = [["a", "b", "c"], ["b", "a", "c"], ["c", "a", "b", "a"]]
    vocab = build_vocabulary(base, 6, 10)
    a, b = vocab.encode("a"), vocab.encode("b")
    last = 0.0
    for copies in range(1, 6):
        corpus = base + [["a", "b"]] * copies
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            model = train_kn(corpus, vocab, order=2)
        p = conditional_prob(model, b, (a,))
        assert p >= last - 1e-12
        last = p


# n1..n4 = 2, 1, 1, 3 at order 1, so D3 = 3 - 4 * (2 / 4) * 3 / 1 < 0.
NON_POSITIVE_DISCOUNT = [["a"] + ["b"] * 2 + ["c"] * 3 + ["d"] * 4 + ["e"] * 4 + ["f"] * 4]


def test_degenerate_counts_warn():
    with pytest.warns(RuntimeWarning, match="0.5"):
        train_kn([["a", "b"]], build_vocabulary([["a", "b"]], 5, 5), order=2)
    with pytest.warns(RuntimeWarning, match="order 1; falling back to absolute discount 0.5"):
        train_kn(NON_POSITIVE_DISCOUNT, build_vocabulary(NON_POSITIVE_DISCOUNT, 9, 9), order=1)


def _table_digest(model):
    """SHA-256 of every table entry in insertion order, values in exact hex."""
    h = hashlib.sha256()
    for table in model.probs + model.backoffs:
        for gram, value in table.items():
            h.update(f"{gram} {value.hex()}\n".encode())
        h.update(b"\n")
    return h.hexdigest()


@pytest.mark.parametrize(
    "make_corpus, sizes, order, digest",
    [
        pytest.param(
            lambda: sample_corpus(make_template_grammar(seed=0), 2_000, seed=1),
            (300, 600),
            3,
            "485b29218e0515576ecd7f30d7b401ec7822e4a42b8071a21280e55a35ed80ee",
            id="template-trigram",
        ),
        pytest.param(
            lambda: [["a", "b"]],
            (5, 5),
            2,
            "4602173db1233a25ece8d84b2c39ef60ede4c1cf4a397fab360d2a0835e9ff03",
            id="zero-count-of-counts-fallback",
        ),
        pytest.param(
            lambda: NON_POSITIVE_DISCOUNT,
            (9, 9),
            1,
            "76190bff7da3729fa33fa036b518a84548c9ac56172e0144539e414495dfc25f",
            id="non-positive-discount-fallback",
        ),
    ],
)
def test_train_kn_tables_are_pinned(make_corpus, sizes, order, digest):
    """Keys, values and insertion order of every table, bit for bit."""
    corpus = make_corpus()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        model = train_kn(corpus, build_vocabulary(corpus, *sizes), order=order)
    assert _table_digest(model) == digest


def walk_logprob(model, word, context=()):
    """ln P(word | context) by the backoff walk over the tables, one dict
    lookup at a time, as ``NgramModel`` first looked words up: the reference
    every vectorised lookup must equal bit for bit.  NaN where the walk reaches
    the unigrams and neither the word nor <unk> has one."""
    h = tuple(context)[-(model.order - 1) :] if model.order > 1 else ()
    acc = 0.0
    while True:
        entry = model.probs[len(h)].get(h + (word,))
        if entry is not None:
            return acc + entry
        if not h:
            return acc + model.probs[0].get((UNK_ID,), math.nan)
        acc += model.backoffs[len(h) - 1].get(h, 0.0)
        h = h[1:]


def per_gram_train_kn(corpus, vocab, order):
    """``train_kn`` as it was first written: every lower-order probability
    through the scalar backoff walk, every discount from ``_discount_for``.
    The reference that the table lookups must reproduce bit for bit."""
    raw = [Counter() for _ in range(order + 1)]
    for sentence in corpus:
        padded = [BOS_ID] + [vocab.encode(t) for t in sentence] + [EOS_ID]
        for k in range(1, order + 1):
            raw[k].update(zip(*(padded[j:] for j in range(k))))
    adjusted = [dict() for _ in range(order + 1)]
    adjusted[order] = dict(raw[order])
    for k in range(order - 1, 0, -1):
        cont = Counter(gram[1:] for gram in raw[k + 1])
        adjusted[k] = {
            gram: (c if gram[0] == BOS_ID else cont.get(gram, 0))
            for gram, c in raw[k].items()
        }
    adjusted[1] = {(w,): adjusted[1].get((w,), 0) for w in range(len(vocab)) if w != BOS_ID}
    uniform = 1.0 / (len(vocab) - 1)

    def _discount_for(count, d):
        return 0.0 if count <= 0 else d[min(count, 3) - 1]

    probs = [dict() for _ in range(order)]
    backoffs = [dict() for _ in range(order - 1)]
    model = NgramModel(order, vocab, probs, backoffs)
    for k in range(1, order + 1):
        dk = _estimate_discounts(adjusted[k].values(), k)
        by_context = {}
        for gram, a in adjusted[k].items():
            by_context.setdefault(gram[:-1], []).append((gram[-1], a))
        for h, followers in by_context.items():
            total = sum(a for _, a in followers)
            n1c = sum(1 for _, a in followers if a == 1)
            n2c = sum(1 for _, a in followers if a == 2)
            n3c = sum(1 for _, a in followers if a >= 3)
            gamma = (dk[0] * n1c + dk[1] * n2c + dk[2] * n3c) / total
            if h:
                backoffs[k - 2][h] = math.log(gamma)
            for w, a in followers:
                lower = math.exp(walk_logprob(model, w, h[1:])) if h else uniform
                p = max(a - _discount_for(a, dk), 0.0) / total + gamma * lower
                probs[k - 1][h + (w,)] = math.log(p)
    probs[0][(BOS_ID,)] = LOG10_TINY * LN10
    return model


# sentences over a few words and <unk>; vocabularies cut below the corpus's
# words, so true out-of-vocabulary tokens map to <unk> too
kn_corpora = st.lists(
    st.lists(st.sampled_from(["a", "b", "c", "d", "e", "<unk>"]), max_size=8),
    min_size=1,
    max_size=8,
)


@settings(max_examples=150, deadline=None)
@given(kn_corpora, st.integers(1, 4), st.data())
def test_train_kn_is_bitwise_the_per_gram_walk(corpus, order, data):
    """Every table, in insertion order, as the per-gram backoff walk makes it;
    and training scores no n-gram through ``conditional_logprob``."""
    full = data.draw(st.integers(3, 8))
    _assert_train_kn_is_the_walk(corpus, build_vocabulary(corpus, 3, full), order)


@pytest.mark.parametrize(
    "corpus, sizes, order",
    [
        pytest.param([["a", "b"]], (5, 5), 2, id="zero-count-of-counts"),
        pytest.param(NON_POSITIVE_DISCOUNT, (9, 9), 2, id="non-positive-discount-bigram"),
        pytest.param(NON_POSITIVE_DISCOUNT, (9, 9), 3, id="non-positive-discount-trigram"),
    ],
)
def test_train_kn_is_the_per_gram_walk_on_fallback_discounts(corpus, sizes, order):
    _assert_train_kn_is_the_walk(corpus, build_vocabulary(corpus, *sizes), order)


def _assert_train_kn_is_the_walk(corpus, vocab, order):
    walk = NgramModel.conditional_logprob
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        want = _table_digest(per_gram_train_kn(corpus, vocab, order))
        with mock.patch.object(NgramModel, "conditional_logprob", autospec=True, side_effect=walk):
            got = _table_digest(train_kn(corpus, vocab, order=order))
            calls = NgramModel.conditional_logprob.call_count
    assert got == want
    assert calls == 0


class TestArpa:
    def test_round_trip_within_tolerance(self, tmp_path, toy_vocab):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            model = train_kn(TOY, toy_vocab, order=3)
        path = tmp_path / "model.arpa"
        export_arpa(model, path)
        again = import_arpa(path)
        assert again.order == model.order
        assert again.vocab.words == model.vocab.words
        for k in range(model.order):
            assert set(again.probs[k]) == set(model.probs[k])
            for gram, lp in model.probs[k].items():
                # 1e-6 in log10 units
                assert abs(again.probs[k][gram] - lp) / math.log(10) < 1e-6
        for k in range(model.order - 1):
            for ctx, bow in model.backoffs[k].items():
                assert abs(again.backoffs[k].get(ctx, 0.0) - bow) / math.log(10) < 1e-6

    def test_scores_survive_round_trip(self, tmp_path, toy_vocab):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            model = train_kn(TOY, toy_vocab, order=2)
        path = tmp_path / "model.arpa"
        export_arpa(model, path)
        again = import_arpa(path)
        for sentence in TOY + [["a", "zzz", "b"]]:
            assert again.sentence_logprob(sentence) == pytest.approx(
                model.sentence_logprob(sentence), abs=1e-5
            )

    def test_hand_written_unigram_arpa(self, tmp_path):
        text = (
            "\\data\\\n"
            "ngram 1=3\n"
            "\n"
            "\\1-grams:\n"
            "-0.301030\tyes\n"
            "-0.698970\tno\n"
            "-1.000000\t</s>\n"
            "\n"
            "\\end\\\n"
        )
        path = tmp_path / "tiny.arpa"
        path.write_text(text)
        model = import_arpa(path)
        yes = model.vocab.encode("yes")
        no = model.vocab.encode("no")
        assert conditional_prob(model, yes) == pytest.approx(0.5, rel=1e-5)
        assert conditional_prob(model, no) == pytest.approx(0.2, rel=1e-4)

    @pytest.mark.parametrize("count", ["0", "-1"])
    @pytest.mark.parametrize("declared, line_no", [("ngram 1=3", 2), ("ngram 2=2", 3)])
    def test_non_positive_count_reports_its_line(self, tmp_path, count, declared, line_no):
        path = tmp_path / "bad.arpa"
        path.write_text(self.BIGRAM_ARPA.replace(declared, declared[:-1] + count))
        with pytest.raises(ParseError, match=f"line {line_no}: count must be positive") as err:
            import_arpa(path)
        assert err.value.line_no == line_no

    @pytest.mark.parametrize("keep", ["</s>", "<unk>"])
    def test_one_of_sentence_end_and_unknown_is_enough(self, tmp_path, keep):
        path = tmp_path / "ok.arpa"
        path.write_text(
            f"\\data\\\nngram 1=2\n\n\\1-grams:\n-0.3\ta\n-0.4\t{keep}\n\n\\end\\\n"
        )
        model = import_arpa(path)
        assert model.sentence_logprob(["a"]) == pytest.approx((-0.3 - 0.4) * math.log(10))

    def test_unigrams_without_sentence_end_or_unknown_are_rejected(self, tmp_path):
        path = tmp_path / "bad.arpa"
        path.write_text(
            "\\data\\\nngram 1=3\nngram 2=1\n\n\\1-grams:\n"
            "-99\t<s>\t-0.3\n-0.5\tyes\t-0.2\n-0.4\tno\n\n\\2-grams:\n-0.1\t<s> yes\n\n\\end\\\n"
        )
        with pytest.raises(ParseError, match="line 8: unigram section has neither") as err:
            import_arpa(path)
        assert err.value.line_no == 8

    def test_missing_end_marker(self, tmp_path):
        path = tmp_path / "bad.arpa"
        path.write_text("\\data\\\nngram 1=1\n\n\\1-grams:\n-0.5\tx\n")
        with pytest.raises(ParseError):
            import_arpa(path)

    def test_empty_file_reports_line_one(self, tmp_path):
        path = tmp_path / "empty.arpa"
        path.write_text("")
        with pytest.raises(ParseError, match="line 1: expected \\\\data\\\\ header") as err:
            import_arpa(path)
        assert err.value.line_no == 1

    def test_malformed_entry_reports_line(self, tmp_path):
        path = tmp_path / "bad.arpa"
        path.write_text("\\data\\\nngram 1=1\n\n\\1-grams:\nnot-a-number x y z w\n\n\\end\\\n")
        with pytest.raises(ParseError, match="line 5"):
            import_arpa(path)

    BIGRAM_ARPA = (
        "\\data\\\n"
        "ngram 1=3\n"
        "ngram 2=2\n"
        "\n"
        "\\1-grams:\n"
        "-99\t<s>\t-0.3\n"
        "-0.5\ta\t-0.2\n"
        "-0.4\t</s>\n"
        "\n"
        "\\2-grams:\n"
        "-0.1\t<s> a\n"
        "-0.2\ta </s>\n"
        "\n"
        "\\end\\\n"
    )

    def test_bigram_fixture_parses(self, tmp_path):
        path = tmp_path / "ok.arpa"
        path.write_text(self.BIGRAM_ARPA)
        model = import_arpa(path)
        assert model.order == 2 and "a" in model.vocab

    def test_unknown_word_reports_its_entry_line(self, tmp_path):
        path = tmp_path / "bad.arpa"
        path.write_text(self.BIGRAM_ARPA.replace("-0.2\ta </s>", "-0.2\ta zzz"))
        with pytest.raises(ParseError, match="line 12: 2-gram uses word 'zzz'") as err:
            import_arpa(path)
        assert err.value.line_no == 12

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
    @pytest.mark.parametrize(
        "entry, bad, line_no",
        [
            pytest.param("-0.5\ta\t-0.2", "{}\ta\t-0.2", 7, id="unigram-prob"),
            pytest.param("-0.5\ta\t-0.2", "-0.5\ta\t{}", 7, id="unigram-backoff"),
            pytest.param("-0.1\t<s> a", "{}\t<s> a", 11, id="bigram-prob"),
        ],
    )
    def test_non_finite_scores_report_line(self, tmp_path, value, entry, bad, line_no):
        path = tmp_path / "bad.arpa"
        path.write_text(self.BIGRAM_ARPA.replace(entry, bad.format(value)))
        with pytest.raises(ParseError, match=f"line {line_no}: non-finite") as err:
            import_arpa(path)
        assert err.value.line_no == line_no

    def test_count_mismatch_detected(self, tmp_path):
        path = tmp_path / "bad.arpa"
        path.write_text(
            "\\data\\\nngram 1=3\n\n\\1-grams:\n-0.5\tx\n-0.5\ty\n\n\\end\\\n"
        )
        with pytest.raises(ParseError):
            import_arpa(path)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.lists(st.sampled_from("abcdef"), min_size=1, max_size=7), min_size=1, max_size=6),
    st.integers(1, 3),
    st.data(),
)
def test_arpa_export_import_export_is_byte_identical(corpus, order, data):
    full = data.draw(st.integers(3, 9))
    vocab = build_vocabulary(corpus, data.draw(st.integers(3, full)), full)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        model = train_kn(corpus, vocab, order=order)
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "a.arpa", Path(tmp) / "b.arpa"
        export_arpa(model, first)
        export_arpa(import_arpa(first), second)
        assert second.read_bytes() == first.read_bytes()


@pytest.mark.parametrize("bad", [-math.inf, math.inf, math.nan])
@pytest.mark.parametrize(
    "kind, gram",
    [
        pytest.param("score", ("a", "b"), id="bigram-score"),
        pytest.param("backoff weight", ("a",), id="unigram-backoff"),
    ],
)
def test_export_refuses_a_score_the_reader_rejects(tmp_path, toy_vocab, kind, gram, bad):
    """``import_arpa`` rejects a non-finite score, so ``export_arpa`` writes
    no file with one and names its n-gram."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        model = train_kn(TOY, toy_vocab, order=2)
    tables = model.probs if kind == "score" else model.backoffs
    tables[len(gram) - 1][tuple(map(toy_vocab.encode, gram))] = bad
    path = tmp_path / "lm.arpa"
    named = f"non-finite {kind} {bad} for {len(gram)}-gram {' '.join(gram)!r}"
    with pytest.raises(ValueError, match=re.escape(named)):
        export_arpa(model, path)
    assert not path.exists()


# ------------------------------------------------------ ARPA reader fuzzing


@functools.cache
def _export_lines(order):
    """ARPA lines of a trained model of the given order."""
    grammar = make_template_grammar(num_classes=3, words_per_class=4, seed=0)
    corpus = sample_corpus(grammar, 120, seed=5) + [["<unk>"]]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        model = train_kn(corpus, build_vocabulary(corpus, 8, 14), order=order)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.arpa"
        export_arpa(model, path)
        return tuple(path.read_text().splitlines())


MUTANT_FIELDS = [
    "nan", "NaN", "inf", "-inf", "1e400", "x", "", "0", "-0.5", "ngram", "1=1", "ngram 1=0",
    "\\data\\", "\\end\\", "\\1-grams:", "\\2-grams:", "\\3-grams:", "<s>", "</s>", "<unk>",
]


@settings(max_examples=400, deadline=None)
@given(mutated_lines(st.integers(1, 3).map(_export_lines), MUTANT_FIELDS, "\t"))
def test_mutated_arpa_loads_or_reports_a_line(lines):
    """A train_kn export of order 1 to 3, damaged, either loads or fails with
    ParseError at a line inside the file; no other exception escapes."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.arpa"
        write_lines(path, lines)
        try:
            import_arpa(path)
        except ParseError as err:
            assert 1 <= err.line_no <= max(len(lines), 1)
            assert str(err).startswith(f"{path}: line {err.line_no}: ")


# ------------------------------------------- vector lookup against the walk


def _shuffled_arpa(model, path, seed):
    """The model's ARPA text with each section's entries in random order."""
    export_arpa(model, path)
    rng = random.Random(seed)
    sections = path.read_text().split("\n\n")
    for i, section in enumerate(sections[1:-1], start=1):
        header, *entries = section.split("\n")
        rng.shuffle(entries)
        sections[i] = "\n".join([header, *entries])
    path.write_text("\n\n".join(sections))
    return import_arpa(path)


def _assert_logprobs_match_walk(model, context):
    ids = np.arange(len(model.vocab))
    got = model.logprobs(ids, context)
    want = [walk_logprob(model, int(w), context) for w in ids]
    assert [x.hex() for x in got.tolist()] == [x.hex() for x in want], context


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.lists(st.sampled_from("abcdefg"), min_size=1, max_size=8), min_size=1, max_size=8),
    st.integers(1, 4),
    st.data(),
)
def test_logprobs_match_the_walk_bit_for_bit(corpus, order, data):
    full = data.draw(st.integers(4, 10))
    vocab = build_vocabulary(corpus, data.draw(st.integers(3, full)), full)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        model = train_kn(corpus, vocab, order=order)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.arpa"
        export_arpa(model, path)
        models = [model, import_arpa(path), _shuffled_arpa(model, path, data.draw(st.integers()))]
    for m in models:
        n = len(m.vocab)
        seen = [gram[:-1] for gram in next(table for table in m.probs[::-1] if table)]
        contexts = [
            (),
            (BOS_ID,),
            data.draw(st.sampled_from(seen)),  # a context of the highest non-empty order
            (n + 3,) * (order - 1),  # ids the model has never seen
            *data.draw(
                st.lists(st.lists(st.integers(0, n + 1), max_size=order + 1), max_size=4)
            ),
        ]
        for context in contexts:
            _assert_logprobs_match_walk(m, tuple(context))


def _hex(values):
    return [float(x).hex() for x in values]


def _assert_lookups_match_walk(model, sentences, contexts):
    """Every event of ``sentences`` from one batched walk, and every id (one
    past the vocabulary too) under each context row, NaN included, against
    ``walk_logprob``; a context row is right-aligned, -1 on its left."""
    table = TokenTable(sentences)
    scores, rows = model.table_events(table)
    want, want_rows = [], []
    for sentence in sentences:
        seq = [BOS_ID, *map(model.vocab.encode, sentence), EOS_ID]
        for i in range(1, len(seq)):
            want.append(walk_logprob(model, seq[i], seq[:i]))
            h = seq[max(0, i - model.order + 1) : i]
            want_rows.append([-1] * (model.order - 1 - len(h)) + h)
    assert _hex(scores) == _hex(want)
    assert rows.tolist() == want_rows
    ids = np.arange(len(model.vocab) + 1)
    got = model.context_logprobs(np.array(contexts, np.int64).reshape(len(contexts), -1), ids)
    for context, row in zip(contexts, got):
        assert _hex(row) == _hex(walk_logprob(model, int(w), tuple(context)) for w in ids), context


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.lists(st.sampled_from("abcdefg"), max_size=8), min_size=1, max_size=8),
    st.integers(1, 4),
    st.data(),
)
def test_batched_lookups_match_the_walk_bit_for_bit(corpus, order, data):
    """Sentences with words the model has never seen, and contexts that need
    not start at <s>, hold ids it has never seen or hold -1 on the left."""
    full = data.draw(st.integers(4, 10))
    vocab = build_vocabulary(corpus, data.draw(st.integers(3, full)), full)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        model = train_kn(corpus, vocab, order=order)
    words = st.sampled_from([*"abcdefg", "unheard-of"])
    sentences = data.draw(st.lists(st.lists(words, max_size=6), max_size=5))
    n = len(vocab)
    ids = st.integers(-1, n + 1)
    contexts = data.draw(
        st.lists(st.lists(ids, min_size=order - 1, max_size=order - 1), max_size=6)
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.arpa"
        export_arpa(model, path)
        shuffled = _shuffled_arpa(model, path, data.draw(st.integers()))
    for m in [model, shuffled]:  # the file leaves out an empty top order
        rows = [row[len(row) - m.order + 1 :] for row in [[-1] * (order - 1), *contexts]]
        _assert_lookups_match_walk(m, sentences, rows)


def test_batched_lookups_match_the_walk_on_a_hand_written_closed_model(tmp_path):
    """No <unk>; the trigram "b b a" is stored without its context "b b";
    contexts with a backoff weight ("<s> a", "a") and without ("a b", "b")."""
    path = tmp_path / "closed.arpa"
    path.write_text(
        "\\data\\\nngram 1=4\nngram 2=3\nngram 3=2\n\n"
        "\\1-grams:\n-99\t<s>\t-0.5\n-0.5\ta\t-0.25\n-0.6\tb\n-0.4\t</s>\n\n"
        "\\2-grams:\n-0.2\t<s> a\t-0.3\n-0.3\ta b\n-0.35\tb a\t-0.15\n\n"
        "\\3-grams:\n-0.05\t<s> a b\n-0.07\tb b a\n\n\\end\\\n"
    )
    model = import_arpa(path)
    a, b = model.vocab.encode("a"), model.vocab.encode("b")
    sentences = [[], ["a", "b", "b", "a"], ["b", "b", "a", "zz", "a"], ["a", "b", "a", "b"]]
    contexts = [[x, y] for x in (-1, BOS_ID, EOS_ID, UNK_ID, a, b) for y in (BOS_ID, UNK_ID, a, b)]
    _assert_lookups_match_walk(model, sentences, contexts)
    assert walk_logprob(model, a, (b, b)) == -0.07 * LN10  # the trigram, found
    # "b a" and then "a" back off with their weights, longest first
    assert walk_logprob(model, a, (b, a)) == (-0.15 * LN10 + -0.25 * LN10) + -0.5 * LN10
    with pytest.raises(ValueError, match="word 'zz' has no unigram"):
        model.score_sentences(sentences)
    with pytest.raises(ValueError, match="context rows must hold order - 1 = 2 ids each"):
        model.context_logprobs(np.array([[a, b, a]]), [a])


def test_empty_top_order_round_trips(tmp_path):
    """One-word sentences leave the 4-gram table empty; the file stops at
    the trigrams, and the empty order it leaves out changes no score."""
    corpus = [["a"]]
    vocab = build_vocabulary(corpus, 4, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        model = train_kn(corpus, vocab, order=4)
    assert [len(table) for table in model.probs] == [4, 2, 1, 0]
    export_arpa(model, tmp_path / "m.arpa")
    text = (tmp_path / "m.arpa").read_text()
    assert "ngram 3=1\n" in text and "ngram 4" not in text
    again = import_arpa(tmp_path / "m.arpa")
    assert again.order == 3 and again.vocab.words == vocab.words
    # the file's scores with the empty 4-gram order put back
    padded = NgramModel(4, again.vocab, [*again.probs, {}], [*again.backoffs, {}])
    a = vocab.encode("a")
    ids = np.arange(len(vocab))
    for context in [(), (BOS_ID,), (BOS_ID, a), (BOS_ID, a, EOS_ID), (a, a, a), (7, 7, 7)]:
        want = [walk_logprob(padded, int(w), context).hex() for w in ids]
        assert [x.hex() for x in again.logprobs(ids, context).tolist()] == want, context
        assert [again.conditional_logprob(int(w), context).hex() for w in ids] == want, context
        assert again.logprobs(ids, context) == pytest.approx(model.logprobs(ids, context), abs=1e-5)


@pytest.mark.parametrize("newline", [b"\r\n", b"\r"])
def test_arpa_reads_any_line_ending(tmp_path, newline):
    corpus = [["a", "b"], ["b", "a", "a"]]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        export_arpa(train_kn(corpus, build_vocabulary(corpus, 5, 5), order=2), tmp_path / "m.arpa")
    want = import_arpa(tmp_path / "m.arpa")
    (tmp_path / "m.arpa").write_bytes((tmp_path / "m.arpa").read_bytes().replace(b"\n", newline))
    again = import_arpa(tmp_path / "m.arpa")
    assert (again.vocab, again.probs, again.backoffs) == (want.vocab, want.probs, want.backoffs)


def test_logprobs_add_backoffs_longest_context_first():
    """(0.3 + 0.2) + 0.1 and (0.1 + 0.2) + 0.3 differ in the last bit."""
    vocab = Vocabulary(["<s>", "</s>", "<unk>", "a", "b"], 5)
    a, b = vocab.encode("a"), vocab.encode("b")
    probs = [
        {(w,): -1.0 for w in (EOS_ID, UNK_ID, a, b)},
        {(a, a): -0.5},
        {(a, a, a): -0.5},
        {(a, a, a, a): -0.5},
    ]
    backoffs = [{(a,): 0.1}, {(a, a): 0.2}, {(a, a, a): 0.3}]
    model = NgramModel(4, vocab, probs, backoffs)
    [got] = model.logprobs([b], (a, a, a)).tolist()
    assert got == model.conditional_logprob(b, (a, a, a)) == ((0.3 + 0.2) + 0.1) + -1.0
    [event] = model.score_sentences([["a", "a", "a", "b"]])[0][3:4].tolist()
    assert event == walk_logprob(model, b, (BOS_ID, a, a, a)) == ((0.3 + 0.2) + 0.1) + -1.0
    _assert_logprobs_match_walk(model, (b, a, a, a))


def test_logprobs_fall_back_and_fail_like_the_walk(tmp_path):
    """Without <unk>, an id reached only through a bigram scores there; where
    the walk would fall to the unigram level, a ValueError names the word."""
    path = tmp_path / "closed.arpa"
    path.write_text(
        "\\data\\\nngram 1=2\nngram 2=2\n\n\\1-grams:\n-0.3\ta\t-0.2\n-0.4\t</s>\n\n"
        "\\2-grams:\n-0.1\ta <unk>\n-0.2\ta </s>\n\n\\end\\\n"
    )
    model = import_arpa(path)
    a = model.vocab.encode("a")
    for context in [(), (EOS_ID,), (a,)]:
        known = [a, EOS_ID] + [UNK_ID] * (context == (a,))
        got = model.logprobs(known, context).tolist()
        assert got == [walk_logprob(model, w, context) for w in known]
        for missing in [BOS_ID, UNK_ID][: 1 + (context != (a,))]:
            assert math.isnan(walk_logprob(model, missing, context))
            word = model.vocab.decode(missing)
            with pytest.raises(ValueError, match=f"word '{word}' has no unigram"):
                model.conditional_logprob(missing, context)
            with pytest.raises(ValueError, match=f"word '{word}' has no unigram"):
                model.logprobs([a, missing, EOS_ID], context)
    seq = [BOS_ID, a, UNK_ID, EOS_ID]  # "a zz": zz is <unk>, which only "a <unk>" scores
    walk = [walk_logprob(model, seq[i], seq[:i]) for i in range(1, len(seq))]
    assert model.batch_logprob([["a", "zz"]]) == [sum(walk)]
    with pytest.raises(ValueError, match="word 'zz' has no unigram"):
        model.batch_logprob([["a"], ["zz", "a"]])


def test_perplexity_matches_manual_chain(toy_vocab):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        model = train_kn(TOY, toy_vocab, order=2)
    test = [["a", "b"], ["b"]]
    total, n = 0.0, 0
    for sent in test:
        [lps] = model.score_sentences([sent])
        lps = lps.tolist()
        assert len(lps) == len(sent) + 1  # end-of-sentence included
        total += sum(lps)
        n += len(lps)
    assert ngram_perplexity(model, test) == pytest.approx(math.exp(-total / n))


def test_order_one_errors():
    with pytest.raises(ValueError):
        train_kn([["a"]], build_vocabulary([["a"]], 4, 4), order=0)
    with pytest.raises(ValueError):
        train_kn([], build_vocabulary([["a"]], 4, 4), order=2)


@pytest.mark.parametrize("token", ["<s>", "</s>"])
def test_boundary_tokens_inside_a_sentence_are_rejected(token):
    vocab = Vocabulary(["<s>", "</s>", "<unk>", "a", "b", "c"], 6)
    with pytest.raises(ValueError, match=f"sentence 1: reserved token {token} inside"):
        train_kn([["a", "c"], ["b", token, "a", "c"]], vocab, order=2)


def test_unknown_token_in_a_sentence_stays_legal():
    vocab = Vocabulary(["<s>", "</s>", "<unk>", "a", "b", "c"], 6)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        model = train_kn([["b", "<unk>", "a", "c"], ["a", "b"]], vocab, order=2)
    b = vocab.encode("b")
    total = sum(conditional_prob(model, w, (b,)) for w in range(1, len(vocab)))
    assert total == pytest.approx(1.0, abs=1e-12)
