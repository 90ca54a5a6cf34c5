"""Every reader gets its file's bytes from ``vocab.reading`` and every text
reader takes its lines from ``vocab.text_lines``, reporting a bad line with
``ParseError`` after the file's path: a byte that is not UTF-8 fails on its
own line, damaged files of every format load or fail at a line inside the
file, and no other source file reads input or decodes text.  The same AST
walk checks that ``rnnlm`` writes its LSTM cell once.
"""

from __future__ import annotations

import ast
import contextlib
import functools
import io
import re
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lmexpand
from lmexpand import ngram, rescoring, rnnlm, skipgram, vocab
from lmexpand.cli import main
from lmexpand.vocab import RESERVED, Hypothesis, ParseError, Vocabulary
from mutation import mutated_lines, write_lines

WORDS = [f"w{i}" for i in range(6)]
NBEST = {
    "u1": [Hypothesis(["w0", "w4"], -1.0, -2.0, 1), Hypothesis(["w1"], -1.5, -2.5, 2)],
    "u2": [Hypothesis([], -3.0, -1.0, 1)],
}


def run(argv) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one ``lmexpand`` command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main([str(arg) for arg in argv])
    return rc, out.getvalue(), err.getvalue()


@functools.cache
def _support() -> dict[str, bytes]:
    """Valid files for the commands that read a damaged one: a vocabulary,
    an n-best list, and a checkpoint and vectors over the same words."""
    v = Vocabulary([*RESERVED, *WORDS], 6)
    emb = skipgram.WordEmbeddings(WORDS, np.random.default_rng(0).normal(size=(len(WORDS), 2)))
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        v.save(root / "vocab.txt")
        vocab.write_nbest(NBEST, root / "test.nbest")
        rnnlm.save_checkpoint(rnnlm.init_model(v, 2, 3, 1), root / "model.bin")
        skipgram.save_w2v_text(emb, root / "vectors.txt")
        return {path.name: path.read_bytes() for path in root.iterdir()}


def _support_dir(root: Path) -> Path:
    for name, blob in _support().items():
        (root / name).write_bytes(blob)
    return root


def _expand_argv(oos: Path, root: Path) -> list:
    return ["expand", "--model", root / "model.bin", "--vectors", root / "vectors.txt",
            "--oos", oos, "--out", root / "expanded.bin"]


# ------------------------------------------------------------ fuzzing

# format: (field separator, library reader, command that reads the file); the
# OOS word list has no library reader, ``lmexpand expand`` reads it
FORMATS = {
    "nbest": ("\t", vocab.parse_nbest,
              lambda path, root: ["extract-oos", "--nbest", path, "--vocab", root / "vocab.txt"]),
    "transcripts": ("\t", vocab.load_transcripts,
                    lambda path, root: ["wer", "--refs", path, "--hyps", path]),
    "vocabulary": (" ", Vocabulary.load, lambda path, root: [
        "extract-oos", "--nbest", root / "test.nbest", "--vocab", path]),
    "corpus": (" ", vocab.load_corpus, lambda path, root: [
        "build-vocab", "--corpus", path, "--shortlist", "3", "--full", "5",
        "--out", root / "built.txt"]),
    "config": (" ", rescoring.parse_config, lambda path, root: ["pipeline", "--config", path]),
    "oos": (" ", None, _expand_argv),
}


@functools.cache
def _valid_lines(name: str) -> tuple[str, ...]:
    """The lines of a small valid file of the format, from its writer if it has one."""
    writers = {
        "nbest": lambda path: vocab.write_nbest(NBEST, path),
        "transcripts": lambda path: vocab.write_transcripts({"u1": ["w0", "w4"], "u2": []}, path),
        "vocabulary": Vocabulary([*RESERVED, *WORDS], 6).save,
        "corpus": lambda path: path.write_text("w0 w1 w2\n\nw3 w0\nw5\n"),
        "config": lambda path: path.write_text(
            "nbest = a.nbest\n# a comment\nrefs = b.refs  # trailing\n\nextract_n = 1\n"
        ),
        "oos": lambda path: path.write_text("w3\n\nw4\nw9\n"),
    }
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "file"
        writers[name](path)
        return tuple(path.read_text(encoding="utf-8").split("\n")[:-1])


# replacement fields: numbers, separators, reserved tokens, vocabulary headers,
# characters that end a line under str.splitlines only, and a byte that is not
# UTF-8 ("\udcff" is written as 0xff)
FIELDS = [
    "", "x", "-1", "0", "nan", "inf", "#", "=", "k = v", "\t", "<s>", "</s>", "<unk>",
    "#shortlist=2", "#shortlist=x", "a\x0cb", "\x85", " ", "\udcff",
]


@pytest.mark.parametrize("name", list(FORMATS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_mutated_text_loads_or_reports_a_line(name, data):
    """A damaged file of each format either loads or fails with ParseError at
    a line inside the file, after its path; the command that reads it then
    exits 1 with that error as its one line of output."""
    sep, read, argv = FORMATS[name]
    lines = data.draw(mutated_lines(st.just(_valid_lines(name)), FIELDS, sep))
    with tempfile.TemporaryDirectory() as tmp:
        root = _support_dir(Path(tmp))
        path = root / "damaged"
        write_lines(path, lines)
        if read is None:
            rc, out, errs = run(argv(path, root))
            if rc == 0:
                return
            found = re.fullmatch(rf"error: {re.escape(str(path))}: line (\d+): [^\n]*\n", errs)
            assert rc == 1 and out == "" and found, errs
            assert 1 <= int(found.group(1)) <= max(len(lines), 1), errs
            return
        try:
            read(path)
        except ParseError as err:
            assert 1 <= err.line_no <= max(len(lines), 1), err
            assert str(err).startswith(f"{path}: line {err.line_no}: "), err
            assert run(argv(path, root)) == (1, "", f"error: {err}\n")


# ------------------------------------------------- UTF-8 errors by line

_BIG = 2000  # entries per file: every file is well past 8 KiB


@functools.cache
def _big_vocabulary() -> Vocabulary:
    return Vocabulary([*RESERVED, *(f"w{i:04d}" for i in range(_BIG))], 100)


def _big_text(name: str) -> bytes:
    """A valid file of the format whose lines hold a "w" word past the header."""
    words = [f"w{i:04d}" for i in range(_BIG)]
    if name == "corpus":
        lines = [f"{w} {w}" for w in words]
    elif name == "vocabulary":
        return _big_vocabulary().to_text().encode()
    elif name == "nbest":
        lines = [f"u{i}\t1\t-1.000000\t-1.000000\t{w}" for i, w in enumerate(words)]
    elif name == "transcripts":
        lines = [f"u{i}\t{w}" for i, w in enumerate(words)]
    elif name == "config":
        lines = [f"key{i} = {w}" for i, w in enumerate(words)]
    elif name == "w2v":
        lines = [f"{_BIG} 2", *(f"{w} 0.5 -0.25" for w in words)]
    elif name == "arpa":
        unigrams = [f"-1.000000\t{w}" for w in ["</s>", *words]]
        lines = ["\\data\\", f"ngram 1={len(unigrams)}", "", "\\1-grams:", *unigrams, "", "\\end\\"]
    else:  # oos
        lines = words
    return "".join(f"{line}\n" for line in lines).encode()


def _break_line(blob: bytes, start: int, line_no: int) -> bytes:
    """``blob`` with the first "w" on line ``line_no`` of the text that starts
    at byte ``start`` overwritten by 0xff, which must lie past the first 8 KiB."""
    at = start
    for _ in range(line_no - 1):
        at = blob.index(b"\n", at) + 1
    at = blob.index(b"w", at, blob.index(b"\n", at))
    assert at > 8192
    return blob[:at] + b"\xff" + blob[at + 1 :]


def _faulty(name: str, line_no: int) -> bytes:
    if name != "checkpoint":
        return _break_line(_big_text(name), 0, line_no)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.bin"
        rnnlm.save_checkpoint(rnnlm.init_model(_big_vocabulary(), 1, 1, 1), path)
        blob = path.read_bytes()
    return _break_line(blob, len(rnnlm.MAGIC) + struct.calcsize("<IIIIIQ"), line_no)


READERS = {
    "corpus": vocab.load_corpus,
    "vocabulary": Vocabulary.load,
    "checkpoint": rnnlm.load_checkpoint,  # the vocabulary inside it
    "nbest": vocab.parse_nbest,
    "transcripts": vocab.load_transcripts,
    "config": rescoring.parse_config,
    "w2v": skipgram.load_w2v_text,
    "arpa": ngram.import_arpa,
    "oos": None,
}


@pytest.mark.parametrize("name", list(READERS))
def test_a_byte_that_is_not_utf8_fails_on_its_own_line(tmp_path, name):
    """The position is the file's line, not a position inside a read buffer,
    and the error starts with the file's path."""
    line_no = _BIG - 1
    path = tmp_path / "faulty"
    path.write_bytes(_faulty(name, line_no))
    if READERS[name] is None:
        rc, out, message = run(_expand_argv(path, _support_dir(tmp_path)))
        assert (rc, out) == (1, "") and message.startswith("error: "), message
        message = message.removeprefix("error: ")
    else:
        with pytest.raises(ValueError) as err:
            READERS[name](path)
        message = str(err.value)
    # the checkpoint's embedded vocabulary fails after its path and before its block
    assert message.startswith(f"{path}: line {line_no}: invalid UTF-8: invalid start byte"), message


# ------------------------------------------- one reader, one decoder


def _call_name(call: ast.Call) -> str:
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")


def _open_mode(call: ast.Call) -> str:
    """The mode of an ``open`` call: its second argument or ``mode``, "r" if unset."""
    mode = call.args[1] if len(call.args) > 1 else None
    mode = next((k.value for k in call.keywords if k.arg == "mode"), mode)
    return mode.value if isinstance(mode, ast.Constant) else "r"


def _reads(call: ast.Call) -> bool:
    """A call that reads a file: ``read_bytes``, ``read_text`` or ``open`` in
    a read mode (writers open in "w", "a" or "x" mode)."""
    name = _call_name(call)
    if name == "open":
        return not set(_open_mode(call)) & set("wax")
    return name in {"read_bytes", "read_text"}


def _decodes(call: ast.Call) -> bool:
    """A call that turns bytes read from a file into text: ``open`` in a text
    read mode, ``read_text``, ``TextIOWrapper``, ``splitlines`` or ``decode``
    with an encoding (``Vocabulary.decode(word_id)`` takes a name)."""
    name = _call_name(call)
    if name == "open":
        return "b" not in _open_mode(call) and _reads(call)
    if name == "decode":
        return not call.args or isinstance(call.args[0], ast.Constant)
    return name in {"read_text", "TextIOWrapper", "splitlines"}


def _callers(matches) -> list[tuple[str, str, int]]:
    """(module, innermost function, line) of every call in the package that ``matches``."""
    sites = []
    for path in sorted(Path(lmexpand.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {}  # line -> innermost function holding it (a walk visits outer ones first)
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                owner.update(dict.fromkeys(range(node.lineno, node.end_lineno + 1), node.name))
        sites += [
            (path.stem, owner.get(node.lineno, "<module>"), node.lineno)
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and matches(node)
        ]
    return sites


def test_input_is_read_in_one_place():
    """``vocab.reading`` is the one function of the package that reads an
    input file, so every reader's errors name their file the same way."""
    sites = _callers(_reads)
    assert {site[:2] for site in sites} == {("vocab", "reading")}, sites


def _writes(call: ast.Call) -> bool:
    """A call that writes a file: ``write_text``, ``write_bytes`` or ``open``
    in a write, append or exclusive-create mode."""
    name = _call_name(call)
    if name == "open":
        return bool(set(_open_mode(call)) & set("wax"))
    return name in {"write_text", "write_bytes"}


def test_output_is_written_in_one_place():
    """``vocab.writing`` is the one function of the package that writes a
    file, so every writer encodes before it opens and names its file the same way."""
    sites = _callers(_writes)
    assert {site[:2] for site in sites} == {("vocab", "writing")}, sites


def test_reports_are_serialized_in_one_place():
    """``vocab.write_report`` is the one function of the package that turns a
    report into JSON, so every report file has one form."""
    sites = _callers(lambda call: _call_name(call) in {"dumps", "dump"})
    assert {site[:2] for site in sites} == {("vocab", "write_report")}, sites


def _modules() -> dict[str, str]:
    """The source of every module of the package, by name."""
    return {p.stem: p.read_text("utf-8") for p in Path(lmexpand.__file__).parent.glob("*.py")}


def test_corpus_rules_are_worded_in_vocab_only():
    """``vocab.check_corpus`` is the one check of an in-memory corpus: no
    other module holds a string with the empty-corpus or reserved-token error."""
    found = {
        (name, node.value)
        for name, source in _modules().items()
        if name != "vocab"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and any(phrase in node.value for phrase in ("empty corpus", "reserved token"))
    }
    assert not found


def test_every_import_is_used():
    """No module but ``__init__`` imports a name it never uses, unless the
    import line says so with ``# noqa: F401``."""
    unused = []
    for name, source in _modules().items():
        if name == "__init__":
            continue
        tree = ast.parse(source)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        lines = source.splitlines()
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if getattr(node, "module", "") == "__future__" or "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    unused.append((name, node.lineno, bound))
    assert not unused


def test_lstm_cell_is_written_once():
    """``rnnlm._lstm_cell`` is the one LSTM cell step: no other function of
    ``rnnlm`` calls ``_sigmoid`` or ``np.tanh``, so training and inference
    run the same cell arithmetic."""
    sites = _callers(lambda call: _call_name(call) in {"_sigmoid", "tanh"})
    assert {site[:2] for site in sites if site[0] == "rnnlm"} == {("rnnlm", "_lstm_cell")}, sites


def test_sentences_are_scored_in_one_place():
    """``rnnlm.score_events`` is the one function of the package that scores a
    sentence: no function calls ``forward_step``, and only ``forward_step``
    and ``score_events`` call the inference step ``_step``."""
    assert not _callers(lambda call: _call_name(call) == "forward_step")
    sites = _callers(lambda call: _call_name(call) == "_step")
    assert {site[:2] for site in sites} == {
        ("rnnlm", "forward_step"),
        ("rnnlm", "score_events"),
    }, sites


def test_ngram_events_are_scored_in_one_place():
    """Outside ``ngram`` no function scores n-gram events one at a time or
    one sentence at a time: every caller takes the batched lookups."""
    wrappers = {"conditional_logprob", "sentence_logprob"}
    sites = _callers(lambda call: _call_name(call) in wrappers)
    assert {site[0] for site in sites} <= {"ngram"}, sites


def test_ngram_tables_are_read_in_ngram_only():
    """No module but ``ngram`` reads an attribute named ``probs`` or
    ``backoffs``: every other caller takes the batched lookups, whose NaNs
    mark a word a closed n-gram model cannot score."""
    found = {
        (name, node.lineno)
        for name, source in _modules().items()
        if name != "ngram"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in {"probs", "backoffs"}
    }
    assert not found


def test_text_is_decoded_in_one_place():
    """``vocab.text_lines`` is the one function of the package that decodes
    text it reads; the checkpoint's binary read decodes nothing."""
    sites = _callers(_decodes)
    assert {site[:2] for site in sites} == {("vocab", "text_lines")}, sites


def test_per_item_loops_stay_out_of_the_batched_paths():
    """Each distinct (reference, hypothesis) pair is aligned in one place,
    ``rescoring._wers``, under ``wer``, ``tune`` and ``run_pipeline`` alike.  The
    candidate plan searches every target at once and ``expand_model``
    synthesizes every row at once: only the CLI's ``neighbors`` asks for one
    target's neighbours, and no function synthesizes one vector."""
    sites = _callers(lambda call: _call_name(call) == "_align_counts")
    assert [site[:2] for site in sites] == [("rescoring", "_wers")], sites
    sites = _callers(lambda call: _call_name(call) == "nearest_in_shortlist")
    assert [site[:2] for site in sites] == [("cli", "_cmd_neighbors")], sites
    assert not _callers(lambda call: _call_name(call) == "synthesize_vector")


def _written_name(node: ast.AST) -> str | None:
    """The name under an item or attribute store, or under the object of a
    mutating method call, if that object is a plain name or a chain on one."""
    if isinstance(node, (ast.Subscript, ast.Attribute)) and isinstance(node.ctx, ast.Store):
        target = node.value
    elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and (
        node.func.attr in {"update", "setdefault", "pop", "clear", "append"}
    ):
        target = node.func.value
    else:
        return None
    while isinstance(target, (ast.Subscript, ast.Attribute)):
        target = target.value
    return target.id if isinstance(target, ast.Name) else None


def test_no_function_writes_module_state():
    """Outside the CLI, which owns its process's model cache, no function of
    the package writes into a module-level name: no ``global``, no item or
    attribute store and no mutating call, so a library call keeps nothing."""
    found = []
    for name, source in _modules().items():
        if name == "cli":
            continue
        tree = ast.parse(source)
        shared = {
            target.id
            for node in tree.body
            if isinstance(node, (ast.Assign, ast.AnnAssign))
            for target in ast.walk(node)
            if isinstance(target, ast.Name) and isinstance(target.ctx, ast.Store)
        }
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.Lambda)):
                continue
            own = {arg.arg for arg in ast.walk(func.args) if isinstance(arg, ast.arg)} | {
                node.id for node in ast.walk(func)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
            }
            for node in ast.walk(func):
                if isinstance(node, ast.Global) or _written_name(node) in shared - own:
                    found.append((name, getattr(func, "name", "<lambda>"), node.lineno))
    assert not found
