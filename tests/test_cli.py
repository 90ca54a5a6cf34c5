"""End-to-end command-line flows on a small synthetic fixture.

Every subcommand runs through main(argv) against real files; the goal is
wiring and file-format interop, not statistical quality (covered elsewhere).
"""

from __future__ import annotations

import json
import warnings

import pytest

from lmexpand import rnnlm
from lmexpand.cli import main
from lmexpand.ngram import import_arpa
from lmexpand.rnnlm import load_checkpoint
from lmexpand.skipgram import load_w2v_text
from lmexpand.vocab import Vocabulary


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
