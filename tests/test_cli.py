"""End-to-end command-line flows on a small synthetic fixture.

Every subcommand runs through main(argv) against real files; the goal is
wiring and file-format interop, not statistical quality (covered elsewhere).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import warnings

import pytest

from lmexpand import cli, ngram, rnnlm, skipgram
from lmexpand.cli import main
from lmexpand.datagen import make_template_grammar, sample_corpus
from lmexpand.expansion import expand_with_embeddings, extract_oos_words
from lmexpand.ngram import export_arpa, import_arpa, train_kn
from lmexpand.rnnlm import init_model, load_checkpoint, save_checkpoint
from lmexpand.skipgram import SkipgramConfig, load_w2v_text, save_w2v_text, train_skipgram
from lmexpand.vocab import Vocabulary, build_vocabulary, parse_nbest, save_corpus


# Digests of the ngram-policy outputs on the ``workdir`` fixture: the policy
# denominators may be computed faster, never differently.
PPL_NGRAM_SHA256 = "859dafea7267ea66311f4fa1a5789dfc112c8e47ccfdf4d3dc3e8a385e685fac"
NGRAM_REPORT_SHA256 = "76ea915e2459a28f2f1f4d47c626e1076289321d052f6d24f7eaf41f24e192e4"


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


def test_ppl_ngram_policy_rejects_a_word_the_closed_arpa_lacks(tmp_path, capsys):
    # the ARPA has no <unk>, so qq from the full vocabulary would have no n-gram score
    vocab = Vocabulary(["<s>", "</s>", "<unk>", "a", "zz", "qq"], shortlist_size=4)
    save_checkpoint(init_model(vocab, 2, 3, 1, seed=0), tmp_path / "m.bin")
    vocab.save(tmp_path / "full.txt")
    (tmp_path / "c.arpa").write_text(
        "\\data\\\nngram 1=3\n\n\\1-grams:\n-0.3\t</s>\n-0.3\ta\n-1\tzz\n\n\\end\\\n"
    )
    (tmp_path / "t.txt").write_text("a zz\n")
    rc = main(["ppl", "--model", str(tmp_path / "m.bin"), "--text", str(tmp_path / "t.txt"),
               "--unk-mode", "ngram", "--full-vocab", str(tmp_path / "full.txt"),
               "--arpa", str(tmp_path / "c.arpa")])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
    assert "'qq'" in captured.err


def test_uniform_rescoring_ignores_a_closed_arpa_it_does_not_read(tmp_path, capsys):
    # the ARPA has no <unk> and no qq, which only the ngram policy would need
    vocab = Vocabulary(["<s>", "</s>", "<unk>", "a", "zz", "qq"], shortlist_size=4)
    save_checkpoint(init_model(vocab, 2, 3, 1, seed=0), tmp_path / "m.bin")
    (tmp_path / "c.arpa").write_text(
        "\\data\\\nngram 1=3\n\n\\1-grams:\n-0.3\t</s>\n-0.3\ta\n-1\tzz\n\n\\end\\\n"
    )
    (tmp_path / "t.nbest").write_text("u\t1\t-1.0\t0.0\ta qq\nu\t2\t-1.5\t0.0\tzz\n")
    outs = []
    for extra in (["--policy-arpa", str(tmp_path / "c.arpa")], []):
        out = tmp_path / f"out{len(outs)}.nbest"
        assert main(["rescore", "--nbest", str(tmp_path / "t.nbest"), "--policy", "uniform",
                     "--model", str(tmp_path / "m.bin"), *extra, "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    assert capsys.readouterr().err == ""


def test_ppl_ngram_policy_rejects_a_word_beyond_a_closed_arpa(tmp_path, capsys):
    # qq is in neither the full vocabulary nor the ARPA, which has no <unk>
    vocab = Vocabulary(["<s>", "</s>", "<unk>", "a", "zz"], shortlist_size=4)
    save_checkpoint(init_model(vocab, 2, 3, 1, seed=0), tmp_path / "m.bin")
    (tmp_path / "c.arpa").write_text(
        "\\data\\\nngram 1=3\n\n\\1-grams:\n-0.3\t</s>\n-0.3\ta\n-1\tzz\n\n\\end\\\n"
    )
    (tmp_path / "t.txt").write_text("a zz\na qq\n")
    rc = main(["ppl", "--model", str(tmp_path / "m.bin"), "--text", str(tmp_path / "t.txt"),
               "--unk-mode", "ngram", "--arpa", str(tmp_path / "c.arpa")])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
    assert "'qq'" in captured.err


def test_ppl_ngram_policy_output_is_pinned(workdir, capsys):
    rc = main(["ppl", "--model", str(workdir / "model.bin"), "--text", str(workdir / "val.txt"),
               "--unk-mode", "ngram", "--arpa", str(workdir / "model.arpa")])
    assert rc == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PPL_NGRAM_SHA256, out


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


def test_wer_counts_an_utterance_without_hypothesis_as_deleted(tmp_path, capsys):
    refs, hyps = tmp_path / "test.refs", tmp_path / "hyps.txt"
    refs.write_text("u1\ta b\nu2\tc d\n")
    hyps.write_text("u1\ta b\n")
    assert main(["wer", "--refs", str(refs), "--hyps", str(hyps)]) == 0
    assert capsys.readouterr().out == "wer 50.00% (0 sub, 0 ins, 2 del / 4 ref tokens)\n"


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


@pytest.mark.parametrize("flag, value", [("--scales", "a,2"), ("--penalties", "0,1e")])
def test_a_grid_value_that_is_no_number_names_its_flag(workdir, capsys, flag, value):
    """``tune`` parses its grids as every other numeric flag is parsed."""
    with pytest.raises(SystemExit) as exit_:
        main(["tune", "--nbest", str(workdir / "test.nbest"), "--refs", str(workdir / "test.refs"),
              "--arpa", str(workdir / "model.arpa"), f"{flag}={value}"])
    assert exit_.value.code == 2
    assert f"error: argument {flag}: invalid grid value: '{value}'\n" in capsys.readouterr().err


def test_tune_names_the_damaged_one_of_its_two_text_files(workdir, tmp_path, capsys):
    refs = tmp_path / "damaged.refs"
    refs.write_text("u\ta b\n\nv\n")
    rc = main(["tune", "--nbest", str(workdir / "test.nbest"), "--refs", str(refs),
               "--arpa", str(workdir / "model.arpa")])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {refs}: line 3: expected 2 tab-separated fields, found 1\n"
    assert captured.out == ""


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


def test_ngram_policy_report_is_pinned(workdir, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "".join(
            f"{key} = {workdir / name}\n"
            for key, name in [("nbest", "test.nbest"), ("refs", "test.refs"),
                              ("model", "model.bin"), ("vectors", "vectors.txt"),
                              ("arpa", "model.arpa")]
        )
        + f"policy = ngram\nweighted = true\nextract_n = 10\nreport = {tmp_path / 'r.json'}\n"
    )
    assert main(["pipeline", "--config", str(cfg)]) == 0
    capsys.readouterr()
    text = (tmp_path / "r.json").read_bytes()
    assert hashlib.sha256(text).hexdigest() == NGRAM_REPORT_SHA256, text.decode()


def test_pipeline_rejects_unknown_keys(workdir, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("mystery = 1\n")
    rc = main(["pipeline", "--config", str(cfg)])
    assert rc == 1
    assert "unknown config keys" in capsys.readouterr().err


def test_pipeline_runs_several_configs_in_one_process(workdir, tmp_path, capsys, monkeypatch):
    """Each config's report as its own run prints it, under a header naming
    the file; the model files the configs share are parsed once, in that run
    and in the process's later runs."""
    models = [("nbest", "test.nbest"), ("refs", "test.refs"), ("model", "model.bin"),
              ("vectors", "vectors.txt"), ("arpa", "model.arpa")]
    configs = []
    for policy in ("uniform", "ngram"):
        configs.append(tmp_path / f"{policy}.cfg")
        configs[-1].write_text(
            "".join(f"{key} = {workdir / name}\n" for key, name in models)
            + f"policy = {policy}\nlm_scale = 8\n"
        )
    alone = []
    for cfg in configs:
        assert main(["pipeline", "--config", str(cfg)]) == 0
        alone.append(capsys.readouterr().out)

    monkeypatch.setattr(cli, "_PIPELINE_MODELS", {})
    parses = []
    for module, name in [(rnnlm, "_parse_checkpoint"), (skipgram, "_parse_w2v_text"),
                         (ngram, "_parse_arpa")]:
        def counted(*args, parse=getattr(module, name), name=name):
            parses.append(name)
            return parse(*args)

        monkeypatch.setattr(module, name, counted)
    assert main(["pipeline", "--config", *map(str, configs)]) == 0
    assert capsys.readouterr().out == "".join(
        f"== {cfg}\n{out}" for cfg, out in zip(configs, alone)
    )
    assert sorted(parses) == ["_parse_arpa", "_parse_checkpoint", "_parse_w2v_text"]
    for cfg, out in zip(configs, alone):  # later runs of the process parse nothing
        assert main(["pipeline", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out == out
    assert len(parses) == 3


@pytest.mark.parametrize(
    "damage, message",
    [
        (lambda text: "policy uniform\n", "line 1: expected 'key = value'"),
        (lambda text: text.replace("arpa =", "# arpa ="), "missing config keys: ['arpa']"),
        (lambda text: text + "mystery = 1\n", "unknown config keys: ['mystery']"),
        (lambda text: text + "extract_n = 0\n", "config key 'extract_n': bad value '0'"),
    ],
    ids=["syntax", "missing key", "unknown key", "bad value"],
)
def test_pipeline_reads_every_config_before_running_one(
    workdir, tmp_path, capsys, damage, message
):
    """Every config's syntax, keys and settings are checked before the first
    pipeline runs, and a fault is reported after the name of its file."""
    good, bad = tmp_path / "good.cfg", tmp_path / "bad.cfg"
    for path in (good, bad):
        path.write_text(
            "".join(f"{key} = {workdir / name}\n" for key, name in [
                ("nbest", "test.nbest"), ("refs", "test.refs"), ("model", "model.bin"),
                ("vectors", "vectors.txt"), ("arpa", "model.arpa")])
            + f"report = {path.with_suffix('.json')}\n"
        )
    bad.write_text(damage(bad.read_text()))
    assert main(["pipeline", "--config", str(good), str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {bad}: {message}\n"
    assert captured.out == "" and not list(tmp_path.glob("*.json"))


@pytest.mark.parametrize(
    "key, text, message",
    [
        ("nbest", "u\t1\t0.0\n", "line 1: expected 5 tab-separated fields, found 3"),
        ("refs", "u\ta b\n\nv\n", "line 3: expected 2 tab-separated fields, found 1"),
        ("model", "RNNLM0\n", "not a checkpoint file (bad magic): magic at byte 0"),
        ("vectors", "1 2\na 0.5\n", "line 2: expected 2 values, found 1"),
        ("arpa", "\\data\\\nngram 1=x\n", "line 2: bad count line: 'ngram 1=x'"),
    ],
    ids=["nbest", "refs", "model", "vectors", "arpa"],
)
def test_pipeline_parse_error_names_the_file(workdir, tmp_path, capsys, key, text, message):
    files = {"nbest": "test.nbest", "refs": "test.refs", "model": "model.bin",
             "vectors": "vectors.txt", "arpa": "model.arpa"}
    damaged = tmp_path / f"damaged.{key}"
    damaged.write_text(text)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{k} = {workdir / name}\n" for k, name in files.items() if k != key)
                   + f"{key} = {damaged}\n")
    assert main(["pipeline", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {damaged}: {message}\n"
    assert captured.out == ""


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
        ("3000000000 1000", "line 1: header declares 3000000000 vectors, file has 0"),
    ],
)
def test_bad_w2v_header_reports_error(tmp_path, capsys, header, message):
    vectors = tmp_path / "vec.txt"
    vectors.write_text(f"{header}\n")
    rc = main(["neighbors", "--vectors", str(vectors), "--vocab", str(tmp_path / "v.txt"),
               "--word", "a"])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {vectors}: {message}\n"


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
    assert err == (
        "error: LM failed on utterance 'u' rank 1: word 'unseen' has no unigram"
        " in the n-gram model, which has no <unk> either\n"
    )


@pytest.mark.parametrize("policy", ["uniform", "ngram"])
@pytest.mark.parametrize(
    "hyps, refs, message",
    [
        ("u\t1\t-1.0\t0.0\ta unseen\n", "u\ta\n",
         "LM failed on utterance 'u' rank 1: word 'unseen'"),
        ("u\t1\t-1.0\t0.0\ta\nu\t2\t-2.0\t0.0\tunseen a\n", "u\ta\n",
         "LM failed on utterance 'u' rank 2: word 'unseen'"),
        ("u\t1\t-1.0\t0.0\ta\n", "u\ta unseen\n", "word 'unseen'"),
    ],
    ids=["rank-1", "rank-2", "reference"],
)
def test_pipeline_names_the_word_a_closed_arpa_cannot_score(
    tmp_path, capsys, hyps, refs, message, policy
):
    # without an <unk> unigram the n-gram model cannot score an unseen word; it
    # scores every word of the full vocabulary, so the ngram policy can build
    vocab = Vocabulary(["<s>", "</s>", "<unk>", "a", "b"], shortlist_size=4)
    save_checkpoint(init_model(vocab, 2, 3, 1, seed=0), tmp_path / "m.bin")
    (tmp_path / "v.txt").write_text("2 2\na 0.1 0.2\nb 0.3 0.4\n")
    (tmp_path / "no-unk.arpa").write_text(
        "\\data\\\nngram 1=4\n\n\\1-grams:\n-99\t<s>\n-0.3\ta\n-0.5\tb\n-0.3\t</s>\n\n\\end\\\n"
    )
    (tmp_path / "t.nbest").write_text(hyps)
    (tmp_path / "t.refs").write_text(refs)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"nbest = {tmp_path / 't.nbest'}\nrefs = {tmp_path / 't.refs'}\n"
        f"model = {tmp_path / 'm.bin'}\nvectors = {tmp_path / 'v.txt'}\n"
        f"arpa = {tmp_path / 'no-unk.arpa'}\nreport = {tmp_path / 'report.json'}\n"
        f"policy = {policy}\n"
    )
    assert main(["pipeline", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: {message} has no unigram in the n-gram model, which has no <unk> either\n"
    )
    assert captured.out == "" and not (tmp_path / "report.json").exists()


def test_boundary_token_in_an_nbest_hypothesis_reports_error(workdir, tmp_path, capsys):
    """A hypothesis is a sentence, so ``rescore`` refuses a literal </s> in
    one at its line instead of scoring a sentence end inside it."""
    nbest = tmp_path / "t.nbest"
    nbest.write_text("u0\t1\t-1.0\t-2.0\ta b\nu1\t1\t-1.0\t-2.0\ta </s> b\n")
    rc = main(["rescore", "--nbest", str(nbest), "--arpa", str(workdir / "model.arpa"),
               "--out", str(tmp_path / "never.nbest")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == f"error: {nbest}: line 2: reserved token </s> inside a sentence\n"
    assert not (tmp_path / "never.nbest").exists()


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


# what each training setting below must be; `lr`, `epochs` and `seed` have
# the same bound in both trainers
SETTING_BOUNDS = {
    "unroll": ">= 1",
    "batch": ">= 1",
    "window": ">= 1",
    "dim": ">= 1",
    "lr": "finite and > 0",
    "clip": "> 0",
    "epochs": ">= 0",
    "negatives": ">= 0",
    "subsample": "finite and >= 0",
    "seed": ">= 0",
}


@pytest.mark.parametrize(
    "command, setting, value",
    [
        ("train-lm", "unroll", "-1"),
        ("train-lm", "unroll", "0"),
        ("train-lm", "batch", "0"),
        ("train-lm", "lr", "-0.5"),
        ("train-lm", "lr", "nan"),
        ("train-lm", "clip", "-5.0"),
        ("train-lm", "epochs", "-2"),
        ("train-skipgram", "window", "0"),
        ("train-skipgram", "dim", "0"),
        ("train-skipgram", "negatives", "-1"),
        ("train-skipgram", "subsample", "-1.0"),
        ("train-skipgram", "lr", "-0.1"),
        ("train-skipgram", "epochs", "-2"),
        ("train-lm", "seed", "-1"),
        ("train-skipgram", "seed", "-1"),
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
    bound = SETTING_BOUNDS[setting]
    assert capsys.readouterr().err == f"error: {setting} must be {bound}, got {value}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--seed", "-5", "seed must be >= 0, got -5"),
        ("--shortlist", "2", "shortlist_size must be at least 3 (reserved tokens)"),
        ("--depth", "0", "depth must be >= 1, got 0"),
        ("--words-per-class", "0", "words_per_class must be >= 1, got 0"),
        ("--classes", "0", "num_classes must be >= 1, got 0"),
        ("--val-tokens", "0", "target_tokens must be >= 1, got 0"),
    ],
)
def test_bad_fixture_flag_reports_error_and_writes_nothing(tmp_path, capsys, flag, value, message):
    out = tmp_path / "fixture"
    assert main(["make-fixture", "--out-dir", str(out), "--train-tokens", "300", flag, value]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_training_commands_take_the_library_defaults(tmp_path, capsys):
    """Given only their required flags, build-ngram, train-skipgram and
    train-lm write what the library writes with its own defaults."""
    grammar = make_template_grammar(num_classes=3, words_per_class=5, seed=0)
    corpus = sample_corpus(grammar, 600, seed=1)
    vocab = build_vocabulary(corpus, 12, 18)
    save_corpus(corpus, tmp_path / "train.txt")
    vocab.save(tmp_path / "vocab.txt")
    given = ["--corpus", str(tmp_path / "train.txt")]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert main(["build-ngram", *given, "--vocab", str(tmp_path / "vocab.txt"),
                     "--out", str(tmp_path / "cli.arpa")]) == 0
        export_arpa(train_kn(corpus, vocab), tmp_path / "lib.arpa")
    assert capsys.readouterr().out == f"wrote order-5 model to {tmp_path / 'cli.arpa'}\n"

    assert main(["train-skipgram", *given, "--out", str(tmp_path / "cli.vec")]) == 0
    save_w2v_text(train_skipgram(corpus, SkipgramConfig()), tmp_path / "lib.vec")

    dims = ["--embed-dim", "4", "--hidden-dim", "6", "--layers", "1"]
    assert main(["train-lm", *given, "--vocab", str(tmp_path / "vocab.txt"), *dims,
                 "--out", str(tmp_path / "cli.bin")]) == 0
    model, _ = rnnlm.train_bptt(init_model(vocab, 4, 6, 1), corpus, rnnlm.TrainConfig())
    save_checkpoint(model, tmp_path / "lib.bin")

    for suffix in ("arpa", "vec", "bin"):
        cli, lib = (tmp_path / f"{who}.{suffix}" for who in ("cli", "lib"))
        assert cli.read_bytes() == lib.read_bytes(), suffix


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


COMMANDS = (
    "build-vocab", "build-ngram", "train-lm", "ppl", "train-skipgram", "neighbors",
    "extract-oos", "expand", "rescore", "wer", "tune", "pipeline", "make-fixture",
)
# First 16 hex digits of the SHA-256 of each command line's exit code, stdout
# and stderr at COLUMNS=80 (Python 3.11's argparse): how the parser is built
# may change, never what it prints.
CLI_TEXT_SHA256 = {
    "-h": "fbb0c9d882bfa710",
    "no command": "f4f962de6a8eacdc",
    "unknown command": "9800641dd1a38a09",
    "unknown flag": "6094b8e5540bb696",
    "missing flag": "bbb73cc6a550868b",
    "missing lm": "8532ab67570dc061",
    "bad type": "f67261751dae5a62",
    "bad choice": "437e8aa2e5f01994",
    "build-vocab -h": "8729df4297085b9b",
    "build-ngram -h": "322575cbebe3685a",
    "train-lm -h": "65e57e06bf8208ba",
    "ppl -h": "37364f6a256e4451",
    "train-skipgram -h": "702c769983f6d67f",
    "neighbors -h": "0d571db252dafcd0",
    "extract-oos -h": "e91830ebae8f93af",
    "expand -h": "e41ff1e561a85409",
    "rescore -h": "9e594c0546a0ce2a",
    "wer -h": "d19212d519a47398",
    "tune -h": "87accc94b69cad58",
    "pipeline -h": "bcca507fc8adb8d0",
    "make-fixture -h": "74aeb7290b3e2aa2",
}
CLI_TEXT_ARGV = {
    "-h": ["-h"],
    "no command": [],
    "unknown command": ["nonesuch"],
    "unknown flag": ["pipeline", "--config", "x", "--bogus"],
    "missing flag": ["pipeline"],
    "missing lm": ["rescore", "--nbest", "x", "--out", "y"],
    "bad type": ["neighbors", "--vec", "v", "--vocab", "w", "--word", "a", "-k", "two"],
    "bad choice": ["ppl", "--model", "m", "--text", "t", "--unk-mode", "nope"],
    **{f"{command} -h": [command, "-h"] for command in COMMANDS},
}


@pytest.mark.parametrize("case", CLI_TEXT_ARGV)
def test_cli_texts_are_pinned(case, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exited:
        main(CLI_TEXT_ARGV[case])
    captured = capsys.readouterr()
    text = f"{exited.value.code}\n{captured.out}\0{captured.err}"
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == CLI_TEXT_SHA256[case], text


def test_a_run_adds_only_its_own_subcommands_arguments(tmp_path, capsys, monkeypatch):
    """argparse makes a help formatter for each argument as it is added, so a
    run adds only the top-level ``-h`` and the arguments of the subcommand it
    names; the other twelve are listed by name and help alone."""
    added = []
    add_argument = argparse._ActionsContainer.add_argument

    def recording(container, *args, **kwargs):
        added.append((getattr(container, "prog", None), *args))
        return add_argument(container, *args, **kwargs)

    monkeypatch.setattr(argparse._ActionsContainer, "add_argument", recording)
    assert main(["pipeline", "--config", str(tmp_path / "missing.cfg")]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert added == [
        ("lmexpand", "-h", "--help"),
        ("lmexpand pipeline", "-h", "--help"),
        ("lmexpand pipeline", "--config"),
    ]
