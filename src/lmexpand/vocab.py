"""File input and output, text lines and parse errors, corpus handling, frequency-ranked
vocabularies with a shortlist boundary, token tables that encode sentences once, and the
n-best and transcript formats.

An n-best line is "<utt-id>\t<rank>\t<acoustic>\t<lm>\t<w1> <w2> ...", with
natural-log scores printed with six decimals; the word field may be empty
(a silence hypothesis).  A transcript line is "<utt-id>\t<words>".
"""

from __future__ import annotations

import json
import math
from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

BOS = "<s>"
EOS = "</s>"
UNK = "<unk>"
RESERVED = (BOS, EOS, UNK)
BOS_ID = 0
EOS_ID = 1
UNK_ID = 2

Sentence = list[str]
Corpus = list[Sentence]


class ParseError(ValueError):
    """``message`` about line ``line_no`` (from 1) of a text file, named by ``path`` if given."""

    def __init__(self, message: str, line_no: int, path: str | Path | None = None):
        super().__init__(("" if path is None else f"{path}: ") + f"line {line_no}: {message}")
        self.message, self.line_no = message, line_no


def check_setting(name: str, value: object, ok: bool, bound: str) -> None:
    """The one range check of every setting: a ``ValueError`` unless ``ok``."""
    if not ok:
        raise ValueError(f"{name} must be {bound}, got {value}")


@contextmanager
def _naming(path: str | Path) -> Iterator[None]:
    """A ``ValueError`` raised inside the block is raised again naming the file."""
    try:
        yield
    except ParseError as err:
        raise ParseError(err.message, err.line_no, path) from err
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from err


@contextmanager
def reading(path: str | Path) -> Iterator[bytes]:
    """The bytes of the file at ``path``, the one place a reader gets its input."""
    with _naming(path):
        yield Path(path).read_bytes()


def writing(
    path: str | Path, data: str | bytes, parse: Callable[[bytes], object] | None = None
) -> None:
    """``data`` as the file at ``path``, the one place a writer puts its output.  Text is
    encoded, and read back by ``parse`` (the format's reader) if given, before the file
    is opened: output that does not encode, or that the reader rejects, leaves no file."""
    with _naming(path):
        try:
            blob = data.encode("utf-8") if isinstance(data, str) else data
        except UnicodeEncodeError as err:  # the text before the bad character encodes
            line_no = len(text_lines(data[: err.start] + "."))  # the bad character's line
            raise ParseError(f"{data[err.start]!r} does not encode as UTF-8", line_no) from None
        if parse is not None:
            parse(blob)
    Path(path).write_bytes(blob)


def write_report(report: dict, path: str | Path) -> None:
    """A report as JSON indented by two spaces, the one form of every report file."""
    writing(path, json.dumps(report, indent=2) + "\n")


def text_lines(data: bytes | str) -> list[str]:
    """The lines of a UTF-8 file's bytes, or of decoded text, split at LF, CR LF
    and a lone CR only, as a text-mode ``open`` splits them.  Every text reader
    takes its lines here; a byte that is not UTF-8 fails on its own line."""
    try:
        text = data.decode("utf-8") if isinstance(data, bytes) else data
    except UnicodeDecodeError as err:  # the bytes before the bad one decode
        line_no = len(text_lines(data[: err.start] + b"."))  # the bad byte's line
        raise ParseError(f"invalid UTF-8: {err.reason}", line_no) from None
    if "\r" in text:  # a search, much faster than a replace that finds nothing
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.removesuffix("\n").split("\n") if text else []


def _misplaced(tokens: Sentence) -> str | None:
    """The fault of a sentence's tokens, if any: its bounds are implicit."""
    for token in (BOS, EOS):
        if token in tokens:
            return f"reserved token {token} inside a sentence"


def _split_word(sentences: list[Sentence]) -> tuple[int, str] | None:
    """(index, fault) of the first sentence with a word that a reader's ``str.split`` would
    drop or split, empty or holding whitespace; each distinct word is checked once."""
    if any(w.split() != [w] for w in set(chain.from_iterable(sentences))):
        index, bad = next((i, w) for i, s in enumerate(sentences) for w in s if w.split() != [w])
        return index, f"word {bad!r} is empty or contains whitespace"


def _check_lines(path: str | Path, lines: list[Sentence]) -> None:
    """A writer's refusal of the first output line whose words would not read back."""
    if fault := _split_word(lines):
        raise ParseError(fault[1], fault[0] + 1, path)


def check_corpus(corpus: Corpus, sentence: str = "sentence") -> None:
    """The one corpus check of every trainer; a fault reads ``<sentence> <index>: ...``."""
    if not corpus:
        raise ValueError("empty corpus")
    for index, tokens in enumerate(corpus):
        if problem := _misplaced(tokens):
            raise ValueError(f"{sentence} {index}: {problem}")
    if fault := _split_word(corpus):
        raise ValueError(f"{sentence} {fault[0]}: {fault[1]}")


def ranked_words(corpus: Corpus) -> list[tuple[str, int]]:
    """The checked corpus's (word, count) pairs, most frequent first, ties in word order."""
    check_corpus(corpus)
    return sorted(Counter(chain.from_iterable(corpus)).items(), key=lambda wc: (-wc[1], wc[0]))


def load_corpus(path: str | Path) -> Corpus:
    """Read one whitespace-tokenized sentence per line.  Blank lines are
    dropped; a literal <s> or </s> is rejected with its line."""
    with reading(path) as blob:
        return _parse_corpus(blob)


def _parse_corpus(blob: bytes) -> Corpus:
    """``load_corpus`` of a file's bytes."""
    lines = text_lines(blob)
    sentences: Corpus = []
    for line_no, line in enumerate(lines, start=1):
        tokens = line.split()
        if problem := _misplaced(tokens):
            raise ParseError(problem, line_no)
        if tokens:
            sentences.append(tokens)
    if not sentences:  # reported where the file ends
        raise ParseError("empty corpus", max(len(lines), 1))
    return sentences


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    """One sentence per line; a corpus ``load_corpus`` would not read back as given is refused."""
    _check_lines(path, corpus)
    writing(path, "".join(" ".join(sentence) + "\n" for sentence in corpus), _parse_corpus)


class VocabularyError(ValueError):
    """A misplaced reserved, malformed or repeated word at position ``word_id``."""

    def __init__(self, message: str, word_id: int):
        super().__init__(message)
        self.word_id = word_id


def word_index(words: list[str], unit: str) -> dict[str, int]:
    """Each word's position in ``words``; a ``VocabularyError`` at the first empty,
    whitespace-bearing, non-UTF-8 or repeated word, naming positions as ``unit``s."""
    index: dict[str, int] = {}
    for i, w in enumerate(words):
        if not w or w.split() != [w]:
            raise VocabularyError(f"word {unit} {i} is empty or contains whitespace: {w!r}", i)
        if not w.isascii() and any("\ud800" <= ch <= "\udfff" for ch in w):  # not in UTF-8
            raise VocabularyError(f"word {unit} {i} does not encode as UTF-8: {w!r}", i)
        if index.setdefault(w, i) != i:
            raise VocabularyError(f"duplicate word {w!r} at {unit}s {index[w]} and {i}", i)
    return index


class Vocabulary:
    """Ordered word<->id map with reserved tokens and a shortlist boundary.

    Ids are contiguous from 0.  Ids 0/1/2 are the sentence-begin, sentence-end
    and unknown tokens and always sit inside the shortlist.  Words with id
    below ``shortlist_size`` are modeled with explicit embedding columns; the
    remaining ids form the tail, covered only by full-vocabulary models and
    the probability redistribution policies.
    """

    def __init__(self, words: Iterable[str], shortlist_size: int):
        self.words: list[str] = list(words)
        self.shortlist_size = int(shortlist_size)
        for i, token in enumerate(RESERVED):
            if self.words[i : i + 1] != [token]:
                raise VocabularyError("ids 0, 1, 2 must be <s>, </s>, <unk> in that order", i)
        if not 3 <= self.shortlist_size <= len(self.words):
            raise ValueError(
                f"shortlist_size {self.shortlist_size} outside [3, {len(self.words)}]"
            )
        self._ids = word_index(self.words, "id")

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, token: str) -> bool:
        return token in self._ids

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Vocabulary):
            return NotImplemented
        return self.words == other.words and self.shortlist_size == other.shortlist_size

    def encode(self, token: str, shortlist_only: bool = False) -> int:
        """Map a token to its id.

        Tokens absent from the vocabulary map to the unknown id.  With
        ``shortlist_only`` set, tail tokens also collapse to the unknown id,
        which is how training and scoring streams for the explicit-column
        model are built.
        """
        idx = self._ids.get(token, UNK_ID)
        if shortlist_only and idx >= self.shortlist_size:
            return UNK_ID
        return idx

    def decode(self, idx: int) -> str:
        if not 0 <= idx < len(self.words):
            raise IndexError(f"word id {idx} out of range [0, {len(self.words)})")
        return self.words[idx]

    def is_shortlist(self, token: str) -> bool:
        idx = self._ids.get(token)
        return idx is not None and idx < self.shortlist_size

    @property
    def shortlist_words(self) -> list[str]:
        return self.words[: self.shortlist_size]

    @property
    def tail_words(self) -> list[str]:
        return self.words[self.shortlist_size :]

    def to_text(self) -> str:
        return "\n".join([f"#shortlist={self.shortlist_size}", *self.words, ""])

    @classmethod
    def from_text(cls, text: str | bytes) -> Vocabulary:
        """``to_text`` output, or its bytes; header errors are at line 1."""
        lines = text_lines(text)
        if not lines or not lines[0].startswith("#shortlist="):
            raise ParseError("vocabulary file must start with a #shortlist=<n> header", 1)
        try:
            return cls(lines[1:], int(lines[0][len("#shortlist=") :]))
        except VocabularyError as err:  # word i sits on line i + 2; a missing one past the end
            raise ParseError(str(err), min(err.word_id + 2, len(lines))) from err
        except ValueError as err:  # a shortlist size that is no integer or out of range
            raise ParseError(f"bad shortlist header {lines[0]!r}: {err}", 1) from err

    def save(self, path: str | Path) -> None:
        writing(path, self.to_text())

    @classmethod
    def load(cls, path: str | Path) -> Vocabulary:
        with reading(path) as blob:
            return cls.from_text(blob)


class TokenTable:
    """The events of tokenized sentences, each distinct token stored once.

    A sentence's events are what a language model predicts: its tokens, then
    </s>.  ``rows`` gives every event of every sentence in turn as an index
    into ``tokens``, so ``gather`` maps each distinct token once.  ``results``
    holds what a model computed from the table, for its next caller.
    """

    def __init__(self, sentences: Iterable[Sequence[str]]):
        events = [[*sentence, EOS] for sentence in sentences]
        flat = list(chain.from_iterable(events))
        index = {token: i for i, token in enumerate(dict.fromkeys(flat))}
        self.tokens = list(index)
        self.rows = np.fromiter(map(index.__getitem__, flat), np.intp, len(flat))
        self.lengths = np.fromiter(map(len, events), np.intp, len(events))  # events per sentence
        self.results: dict = {}

    def gather(self, per_token: Callable[[str], object], dtype=np.intp) -> np.ndarray:
        """``per_token`` of every event's token, called once per distinct token."""
        return np.fromiter(map(per_token, self.tokens), dtype, len(self.tokens))[self.rows]

    def split(self, per_event: np.ndarray) -> list[np.ndarray]:
        """A per-event array cut into one view per sentence."""
        ends = np.cumsum(self.lengths).tolist()
        return [per_event[end - n : end] for end, n in zip(ends, self.lengths.tolist())]


def sentence_sums(per_event: np.ndarray, lengths, in_order=False) -> np.ndarray:
    """Each sentence's sum of its events (the next ``lengths`` entries of
    ``per_event``; 0.0 over none), the one rule of every ln-probability total,
    from one row sum per distinct length, bit for bit: ``.sum()``, as numpy sums
    a matrix row pairwise like the row alone, or, ``in_order``, left to right
    from 0 (0 + -0.0 is 0.0): a running sum + 0.0, whatever the interpreter."""
    lengths = np.asarray(lengths)
    sums = np.zeros(len(lengths))
    starts = np.cumsum(lengths) - lengths
    for n in np.unique(lengths[lengths > 0]).tolist():
        mine = lengths == n
        rows = per_event[starts[mine, None] + np.arange(n)]
        sums[mine] = np.add.accumulate(rows, axis=1)[:, -1] + 0.0 if in_order else rows.sum(axis=1)
    return sums


def build_vocabulary(corpus: Corpus, shortlist_size: int, full_size: int) -> Vocabulary:
    """Build a vocabulary from corpus frequencies.

    Words are ranked by descending frequency, ties broken lexicographically.
    The three reserved tokens always occupy ids 0..2 and count toward both
    sizes.  When the corpus has fewer unique words than requested, the
    shortlist and the full vocabulary shrink to what exists.  The corpus is
    checked by ``check_corpus``; <unk> keeps its reserved id.
    """
    ranked = ranked_words(corpus)
    if shortlist_size < 3:
        raise ValueError("shortlist_size must be at least 3 (reserved tokens)")
    if full_size < shortlist_size:
        raise ValueError("full_size must be >= shortlist_size")
    words = [*RESERVED, *[w for w, _ in ranked if w != UNK][: full_size - 3]]
    return Vocabulary(words, min(shortlist_size, len(words)))


@dataclass
class Hypothesis:
    words: list[str]
    acoustic_score: float
    lm_score: float
    rank: int  # original 1-based position


NBestList = dict[str, list[Hypothesis]]


def _tab_records(blob: bytes, n_fields: int) -> Iterator[tuple[int, list[str], Sentence]]:
    """(line number, leading fields, checked words of the last field) of each non-blank line."""
    for line_no, line in enumerate(text_lines(blob), start=1):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != n_fields:
            raise ParseError(
                f"expected {n_fields} tab-separated fields, found {len(fields)}", line_no
            )
        words = fields.pop().split()
        if problem := _misplaced(words):
            raise ParseError(problem, line_no)
        yield line_no, fields, words


def parse_nbest(path: str | Path) -> NBestList:
    with reading(path) as blob:
        return _parse_nbest(blob)


def _parse_nbest(blob: bytes) -> NBestList:
    """``parse_nbest`` of a file's bytes."""
    nbest: NBestList = {}
    seen: set[tuple[str, int]] = set()
    for line_no, (utt, rank_s, ac_s, lm_s), words in _tab_records(blob, 5):
        try:
            rank, acoustic, lm = int(rank_s), float(ac_s), float(lm_s)
        except ValueError as err:
            raise ParseError(f"bad numeric field: {err}", line_no) from err
        if not (math.isfinite(acoustic) and math.isfinite(lm)):
            raise ParseError("non-finite acoustic or LM score", line_no)
        if (utt, rank) in seen:
            raise ParseError(f"duplicate hypothesis {utt!r} rank {rank}", line_no)
        seen.add((utt, rank))
        nbest.setdefault(utt, []).append(
            Hypothesis(words=words, acoustic_score=acoustic, lm_score=lm, rank=rank)
        )
    for hyps in nbest.values():
        hyps.sort(key=lambda h: h.rank)
    return nbest


def write_nbest(nbest: NBestList, path: str | Path) -> None:
    """The n-best line format; a list ``parse_nbest`` would not read back as given is refused."""
    _check_lines(path, [hyp.words for hyps in nbest.values() for hyp in hyps])
    lines = (
        f"{utt}\t{hyp.rank}\t{hyp.acoustic_score:.6f}\t{hyp.lm_score:.6f}\t{' '.join(hyp.words)}\n"
        for utt, hyps in nbest.items() for hyp in hyps
    )
    writing(path, "".join(lines), _parse_nbest)


def load_transcripts(path: str | Path) -> dict[str, list[str]]:
    """Read "<utt-id>\t<words>" lines (references or 1-best transcripts)."""
    with reading(path) as blob:
        return _parse_transcripts(blob)


def _parse_transcripts(blob: bytes) -> dict[str, list[str]]:
    """``load_transcripts`` of a file's bytes."""
    out: dict[str, list[str]] = {}
    for line_no, (utt,), words in _tab_records(blob, 2):
        if utt in out:
            raise ParseError(f"duplicate utterance {utt!r}", line_no)
        out[utt] = words
    return out


def write_transcripts(transcripts: dict[str, list[str]], path: str | Path) -> None:
    """The transcript line format; what ``load_transcripts`` would not read back is refused."""
    _check_lines(path, list(transcripts.values()))
    lines = (f"{utt}\t{' '.join(words)}\n" for utt, words in transcripts.items())
    writing(path, "".join(lines), _parse_transcripts)
