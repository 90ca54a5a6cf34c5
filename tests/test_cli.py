"""End-to-end command-line flows on a small synthetic fixture.

Every subcommand runs through main(argv) against real files; the goal is
wiring and file-format interop, not statistical quality (covered elsewhere).
"""

from __future__ import annotations

import json
import math
import warnings

import pytest

from lmexpand import rnnlm
from lmexpand.cli import main
from lmexpand.expansion import expand_with_embeddings, extract_oos_words
from lmexpand.ngram import import_arpa
from lmexpand.rnnlm import init_model, load_checkpoint, save_checkpoint
from lmexpand.skipgram import load_w2v_text
from lmexpand.vocab import Vocabulary, parse_nbest


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Fixture data plus trained artifacts shared by the flow tests."""
    root = tmp_path_factory.mktemp("cliflow")
    rc = main(
        [
            "make-fixture",
            "--out-dir", str(root),
            "--classes", "4",
            "--words-per-class", "8",
            "--train-tokens", "1500",
            "--val-tokens", "250",
            "--test-tokens", "250",
            "--shortlist", "20",
            "--full", "40",
            "--depth", "8",
            "--seed", "0",
        ]
    )
    assert rc == 0

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        rc = main(
            [
                "build-ngram",
                "--order", "3",
                "--corpus", str(root / "train.txt"),
                "--vocab", str(root / "vocab.txt"),
                "--out", str(root / "model.arpa"),
            ]
        )
    assert rc == 0

    rc = main(
        [
            "train-lm",
            "--corpus", str(root / "train.txt"),
            "--vocab", str(root / "vocab.txt"),
            "--val-corpus", str(root / "val.txt"),
            "--embed-dim", "8",
            "--hidden-dim", "12",
            "--layers", "1",
            "--unroll", "8",
            "--dropout", "0.0",
            "--lr", "0.5",
            "--epochs", "1",
            "--batch", "4",
            "--out", str(root / "model.bin"),
        ]
    )
    assert rc == 0

    rc = main(
        [
            "train-skipgram",
            "--corpus", str(root / "train.txt"),
            "--dim", "12",
            "--window", "3",
            "--epochs", "2",
            "--out", str(root / "vectors.txt"),
        ]
    )
    assert rc == 0
    return root


def test_make_fixture_outputs(workdir):
    vocab = Vocabulary.load(workdir / "vocab.txt")
    assert vocab.shortlist_size == 20
    assert len(vocab.tail_words) > 0
    assert (workdir / "train.txt").stat().st_size > 0
    assert (workdir / "test.nbest").stat().st_size > 0


def test_build_vocab_command(workdir, tmp_path, capsys):
    out = tmp_path / "v.txt"
    rc = main(
        [
            "build-vocab",
            "--corpus", str(workdir / "train.txt"),
            "--shortlist", "15",
            "--full", "30",
            "--out", str(out),
        ]
    )
    assert rc == 0
    assert "shortlist 15" in capsys.readouterr().out
    assert Vocabulary.load(out).shortlist_size == 15


def test_arpa_artifact_parses(workdir):
    model = import_arpa(workdir / "model.arpa")
    assert model.order == 3


def test_ppl_modes(workdir, capsys):
    base = [
        "ppl",
        "--model", str(workdir / "model.bin"),
        "--text", str(workdir / "val.txt"),
    ]
    values = {}
    for mode, extra in [
        ("shortlist", []),
        ("uniform", []),
        ("ngram", ["--arpa", str(workdir / "model.arpa")]),
    ]:
        rc = main(base + ["--unk-mode", mode] + extra)
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("perplexity: ")
        values[mode] = float(out.split()[1])
    # full-vocabulary modes pay for spreading the unknown mass
    assert values["uniform"] > values["shortlist"]
    assert values["ngram"] > values["shortlist"]


def test_ppl_ngram_policy_survives_underflowing_probabilities(tmp_path, capsys):
    # zz's n-gram probability (10^-400) is 0 in linear space
    vocab = Vocabulary(["<s>", "</s>", "<unk>", "a", "zz"], shortlist_size=4)
    save_checkpoint(init_model(vocab, 2, 3, 1, seed=0), tmp_path / "m.bin")
    vocab.save(tmp_path / "full.txt")
    (tmp_path / "u.arpa").write_text(
        "\\data\\\nngram 1=3\n\n\\1-grams:\n-0.3\t</s>\n-0.3\ta\n-400\tzz\n\n\\end\\\n"
    )
    (tmp_path / "t.txt").write_text("a zz\n")
    rc = main(["ppl", "--model", str(tmp_path / "m.bin"), "--text", str(tmp_path / "t.txt"),
               "--unk-mode", "ngram", "--full-vocab", str(tmp_path / "full.txt"),
               "--arpa", str(tmp_path / "u.arpa")])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("perplexity: ") and math.isfinite(float(out.split()[1]))


def test_boundary_token_in_corpus_reports_error(workdir, tmp_path, capsys):
    corpus = tmp_path / "bad.txt"
    corpus.write_text("a b\nb <s> a c\n")
    rc = main(["build-ngram", "--order", "2", "--corpus", str(corpus),
               "--vocab", str(workdir / "vocab.txt"), "--out", str(tmp_path / "never.arpa")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == f"error: {corpus}: line 2: reserved token <s> inside a sentence\n"
    assert not (tmp_path / "never.arpa").exists()


def test_neighbors_command(workdir, capsys):
    vocab = Vocabulary.load(workdir / "vocab.txt")
    emb = load_w2v_text(workdir / "vectors.txt")
    target = next(w for w in vocab.tail_words if w in emb)
    rc = main(
        [
            "neighbors",
            "--vectors", str(workdir / "vectors.txt"),
            "--vocab", str(workdir / "vocab.txt"),
            "--word", target,
            "-k", "3",
        ]
    )
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    for line in lines:
        word, sim = line.split("\t")
        assert vocab.is_shortlist(word)
        assert -1.0 <= float(sim) <= 1.0


def test_extract_expand_rescore_wer_flow(workdir, tmp_path, capsys):
    rc = main(
        [
            "extract-oos",
            "--nbest", str(workdir / "test.nbest"),
            "--vocab", str(workdir / "vocab.txt"),
            "-n", "1",
        ]
    )
    assert rc == 0
    oos_words = capsys.readouterr().out.split()
    assert oos_words, "fixture should put out-of-shortlist words in top hypotheses"

    oos_file = tmp_path / "oos.txt"
    oos_file.write_text("\n".join(oos_words) + "\n")
    expanded_path = tmp_path / "expanded.bin"
    report_path = tmp_path / "expansion.json"
    rc = main(
        [
            "expand",
            "--model", str(workdir / "model.bin"),
            "--vectors", str(workdir / "vectors.txt"),
            "--oos", str(oos_file),
            "-k", "4",
            "--out", str(expanded_path),
            "--report", str(report_path),
        ]
    )
    assert rc == 0
    before = load_checkpoint(workdir / "model.bin")
    after = load_checkpoint(expanded_path)
    report = json.loads(report_path.read_text())
    assert after.n_explicit == before.n_explicit + len(report["expanded"])
    assert report["expanded"], "at least one word must gain explicit columns"

    rescored = tmp_path / "rescored.nbest"
    hyps_path = tmp_path / "hyps.txt"
    rc = main(
        [
            "rescore",
            "--nbest", str(workdir / "test.nbest"),
            "--model", str(expanded_path),
            "--policy", "uniform",
            "--scale", "8",
            "--out", str(rescored),
            "--best-out", str(hyps_path),
        ]
    )
    assert rc == 0
    capsys.readouterr()

    # parsing re-sorts by original rank, so the rescored order lives only
    # in --best-out; it must match the argmax of the file's stored scores
    from lmexpand.rescoring import load_transcripts, parse_nbest

    best = {
        utt: max(hyps, key=lambda h: h.acoustic_score + 8.0 * h.lm_score).words
        for utt, hyps in parse_nbest(rescored).items()
    }
    assert load_transcripts(hyps_path) == best
    rc = main(["wer", "--refs", str(workdir / "test.refs"), "--hyps", str(hyps_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("wer ")


def test_rescore_with_arpa_lm(workdir, tmp_path, capsys):
    out = tmp_path / "rescored.nbest"
    rc = main(
        [
            "rescore",
            "--nbest", str(workdir / "test.nbest"),
            "--arpa", str(workdir / "model.arpa"),
            "--out", str(out),
        ]
    )
    assert rc == 0
    capsys.readouterr()
    assert out.stat().st_size > 0


def test_tune_command(workdir, capsys):
    rc = main(
        [
            "tune",
            "--nbest", str(workdir / "test.nbest"),
            "--refs", str(workdir / "test.refs"),
            "--arpa", str(workdir / "model.arpa"),
            "--scales", "4,8",
            "--penalties", "0",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("wer") >= 3  # two grid rows plus the best line
    assert "best: scale" in out


@pytest.mark.parametrize(
    "args, message",
    [
        (["tune", "--scales=,"], "error: empty tuning grid"),
        (["tune", "--penalties="], "error: empty tuning grid"),
        (["tune", "--scales=nan"], "error: lm_scale must be finite, got nan"),
        (["tune", "--penalties=1,inf"], "error: word_penalty must be finite, got inf"),
        (["rescore", "--scale", "nan"], "error: lm_scale must be finite, got nan"),
        (["rescore", "--penalty=-inf"], "error: word_penalty must be finite, got -inf"),
    ],
)
def test_bad_rescoring_settings_report_error(workdir, tmp_path, capsys, args, message):
    files = {
        "tune": ["--refs", str(workdir / "test.refs")],
        "rescore": ["--out", str(tmp_path / "never.nbest")],
    }[args[0]]
    rc = main(args + files + ["--nbest", str(workdir / "test.nbest"),
                              "--arpa", str(workdir / "model.arpa")])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(message) and captured.err.count("\n") == 1
    assert "best:" not in captured.out
    assert not (tmp_path / "never.nbest").exists()


def test_zero_layer_model_reports_error(workdir, tmp_path, capsys):
    rc = main(["train-lm", "--corpus", str(workdir / "train.txt"),
               "--vocab", str(workdir / "vocab.txt"), "--layers", "0",
               "--out", str(tmp_path / "m.bin")])
    assert rc == 1
    assert capsys.readouterr().err == "error: num_layers must be >= 1, got 0\n"
    assert not (tmp_path / "m.bin").exists()


def test_pipeline_command(workdir, tmp_path, capsys):
    report_path = tmp_path / "report.json"
    expanded_path = tmp_path / "pipeline-expanded.bin"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# desk-scale pipeline\n"
        f"nbest = {workdir / 'test.nbest'}\n"
        f"refs = {workdir / 'test.refs'}\n"
        f"model = {workdir / 'model.bin'}\n"
        f"vectors = {workdir / 'vectors.txt'}\n"
        f"arpa = {workdir / 'model.arpa'}\n"
        "policy = uniform\n"
        "lm_scale = 8\n"
        f"report = {report_path}\n"
        f"expanded_checkpoint = {expanded_path}\n"
    )
    rc = main(["pipeline", "--config", str(cfg)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "rnnlm-expanded" in out

    report = json.loads(report_path.read_text())
    assert [row["system"] for row in report["systems"]] == [
        "ngram",
        "rnnlm",
        "rnnlm-expanded",
    ]
    assert report["new_words"]["count"] >= 1
    assert report["new_words"]["count"] == len(report["new_words"]["expanded"])
    assert report["new_words"]["explicit_after"] == (
        report["new_words"]["explicit_before"] + report["new_words"]["count"]
    )
    bigger = load_checkpoint(expanded_path)
    base = load_checkpoint(workdir / "model.bin")
    assert bigger.n_explicit == base.n_explicit + report["new_words"]["count"]


@pytest.mark.parametrize("spelling, weighted", [("YES", True), ("0", False)])
def test_pipeline_weighted_spellings(workdir, tmp_path, spelling, weighted):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "".join(
            f"{key} = {workdir / name}\n"
            for key, name in [
                ("nbest", "test.nbest"),
                ("refs", "test.refs"),
                ("model", "model.bin"),
                ("vectors", "vectors.txt"),
                ("arpa", "model.arpa"),
            ]
        )
        + f"weighted = {spelling}\nreport = {tmp_path / 'report.json'}\n"
    )
    assert main(["pipeline", "--config", str(cfg)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["settings"]["weighted"] is weighted
    weights = {wt for entries in report["new_words"]["candidates"].values() for _, wt in entries}
    assert (weights == {1.0}) is not weighted


def report_fields(report):
    """The expansion report as its JSON files have always laid it out."""
    return {
        "expanded": list(report.expanded),
        "skipped": [list(pair) for pair in report.skipped],
        "candidates": {
            w: [[c, float(s)] for c, s in entries] for w, entries in report.candidates.items()
        },
        "embed_dim": report.embed_dim,
        "hidden_dim": report.hidden_dim,
        "explicit_before": report.explicit_before,
        "explicit_after": report.explicit_after,
    }


def test_report_json_is_pinned(workdir, tmp_path, capsys):
    model = load_checkpoint(workdir / "model.bin")
    oos = extract_oos_words(parse_nbest(workdir / "test.nbest"), model.vocab, n=1)
    # one word without a vector, so the skipped list is not empty
    oos_file = tmp_path / "oos.txt"
    oos_file.write_text("\n".join(oos + ["never-seen"]) + "\n")
    _, report = expand_with_embeddings(
        model, oos + ["never-seen"], load_w2v_text(workdir / "vectors.txt"), k=3
    )
    assert report.expanded and report.skipped
    assert main(["expand", "--model", str(workdir / "model.bin"),
                 "--vectors", str(workdir / "vectors.txt"), "--oos", str(oos_file), "-k", "3",
                 "--out", str(tmp_path / "e.bin"), "--report", str(tmp_path / "e.json")]) == 0
    expected = json.dumps(report_fields(report), indent=2) + "\n"
    assert (tmp_path / "e.json").read_text() == expected

    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "".join(
            f"{key} = {workdir / name}\n"
            for key, name in [("nbest", "test.nbest"), ("refs", "test.refs"),
                              ("model", "model.bin"), ("vectors", "vectors.txt"),
                              ("arpa", "model.arpa")]
        )
        + f"candidates_k = 3\nreport = {tmp_path / 'report.json'}\n"
    )
    assert main(["pipeline", "--config", str(cfg)]) == 0
    capsys.readouterr()
    _, report = expand_with_embeddings(model, oos, load_w2v_text(workdir / "vectors.txt"), k=3)
    text = (tmp_path / "report.json").read_text()
    written = json.loads(text)
    assert written["new_words"] == {"count": len(report.expanded), **report_fields(report)}
    assert list(written["new_words"]) == ["count", *report_fields(report)]
    assert text == json.dumps(written, indent=2) + "\n"


def test_pipeline_rejects_unknown_keys(workdir, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("mystery = 1\n")
    rc = main(["pipeline", "--config", str(cfg)])
    assert rc == 1
    assert "unknown config keys" in capsys.readouterr().err


def test_missing_file_reports_error(tmp_path, capsys):
    rc = main(["build-ngram", "--corpus", str(tmp_path / "nope.txt"),
               "--vocab", "x", "--out", "y"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


def test_neighbors_of_a_word_without_vector_reports_error(workdir, capsys):
    vectors = workdir / "vectors.txt"
    rc = main(["neighbors", "--vectors", str(vectors), "--vocab", str(workdir / "vocab.txt"),
               "--word", "zz"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {vectors}: no vector for word 'zz'\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "header, message",
    [
        ("-1 2", "line 1: need count >= 0 and dim >= 1, got -1 2"),
        ("1 0", "line 1: need count >= 0 and dim >= 1, got 1 0"),
        ("3000000000 1000", "header declares 3000000000 vectors, file has 0"),
    ],
)
def test_bad_w2v_header_reports_error(tmp_path, capsys, header, message):
    vectors = tmp_path / "vec.txt"
    vectors.write_text(f"{header}\n")
    rc = main(["neighbors", "--vectors", str(vectors), "--vocab", str(tmp_path / "v.txt"),
               "--word", "a"])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_rescore_error_reports_error(tmp_path, capsys):
    # without an <unk> unigram the n-gram model cannot score an unseen word
    arpa = tmp_path / "no-unk.arpa"
    arpa.write_text(
        "\\data\\\nngram 1=3\n\n\\1-grams:\n-99\t<s>\n-0.3\ta\n-0.3\t</s>\n\n\\end\\\n"
    )
    nbest = tmp_path / "t.nbest"
    nbest.write_text("u\t1\t-1.0\t0.0\ta unseen\n")
    rc = main(["rescore", "--nbest", str(nbest), "--arpa", str(arpa),
               "--out", str(tmp_path / "never.nbest")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: LM failed on utterance 'u' rank 1")
    assert err.count("\n") == 1


def test_training_divergence_reports_error(workdir, tmp_path, capsys, monkeypatch):
    def diverge(*args, **kwargs):
        raise rnnlm.TrainingDivergedError("non-finite loss nan at epoch 0 window 3")

    monkeypatch.setattr(rnnlm, "train_bptt", diverge)
    rc = main(["train-lm", "--corpus", str(workdir / "train.txt"),
               "--vocab", str(workdir / "vocab.txt"), "--embed-dim", "2",
               "--hidden-dim", "2", "--layers", "1", "--out", str(tmp_path / "m.bin")])
    assert rc == 1
    assert capsys.readouterr().err == "error: non-finite loss nan at epoch 0 window 3\n"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_training_reports_error(tmp_path, capsys):
    corpus = tmp_path / "tiny.txt"
    corpus.write_text("a b c\nb c a a\nc a\n")
    assert main(["build-vocab", "--corpus", str(corpus), "--shortlist", "6", "--full", "6",
                 "--out", str(tmp_path / "vocab.txt")]) == 0
    capsys.readouterr()
    rc = main(["train-lm", "--corpus", str(corpus), "--vocab", str(tmp_path / "vocab.txt"),
               "--lr", "1e300", "--clip", "1e300", "--embed-dim", "2", "--hidden-dim", "2",
               "--layers", "1", "--dropout", "0", "--out", str(tmp_path / "m.bin")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: training perplexity overflows") and err.count("\n") == 1


@pytest.mark.parametrize(
    "command, setting, value",
    [
        ("train-lm", "unroll", "-1"),
        ("train-lm", "unroll", "0"),
        ("train-lm", "batch", "0"),
        ("train-skipgram", "window", "0"),
        ("train-skipgram", "dim", "0"),
    ],
)
def test_out_of_range_training_settings_report_error(tmp_path, capsys, command, setting, value):
    corpus = tmp_path / "tiny.txt"
    corpus.write_text("a b c\nb c a a\nc a\n")
    assert main(["build-vocab", "--corpus", str(corpus), "--shortlist", "6", "--full", "6",
                 "--out", str(tmp_path / "vocab.txt")]) == 0
    capsys.readouterr()
    args = [command, "--corpus", str(corpus), f"--{setting}", value, "--out", str(tmp_path / "out")]
    if command == "train-lm":
        args += ["--vocab", str(tmp_path / "vocab.txt"), "--embed-dim", "2", "--hidden-dim", "2"]
    assert main(args) == 1
    assert capsys.readouterr().err == f"error: {setting} must be >= 1, got {value}\n"
    assert not (tmp_path / "out").exists()


def test_rescore_requires_exactly_one_lm(workdir, tmp_path):
    with pytest.raises(SystemExit):
        main(
            [
                "rescore",
                "--nbest", str(workdir / "test.nbest"),
                "--model", str(workdir / "model.bin"),
                "--arpa", str(workdir / "model.arpa"),
                "--out", str(tmp_path / "never.nbest"),
            ]
        )
    with pytest.raises(SystemExit):
        main(["rescore", "--nbest", str(workdir / "test.nbest"),
              "--out", str(tmp_path / "never.nbest")])
