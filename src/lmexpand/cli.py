"""Command-line front end: one subcommand per toolkit capability."""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from . import datagen, expansion, ngram, rescoring, rnnlm, skipgram, vocab


def _given(args, *names: str) -> dict:
    """The named flags that were given on the command line; an absent one
    leaves the library's own default in force."""
    return {name: getattr(args, name) for name in names if hasattr(args, name)}


def _add_config_flags(p, cls) -> None:
    """One ``--<field-name>`` flag per field of a config dataclass, typed and
    defaulted by the field's default."""
    for f in dataclasses.fields(cls):
        p.add_argument(f"--{f.name.replace('_', '-')}", type=type(f.default), default=f.default)


def _config(cls, args):
    """A config dataclass from the flags ``_add_config_flags`` declared."""
    return cls(**{f.name: getattr(args, f.name) for f in dataclasses.fields(cls)})


def _cmd_build_vocab(args) -> int:
    corpus = vocab.load_corpus(args.corpus)
    v = vocab.build_vocabulary(corpus, args.shortlist, args.full)
    v.save(args.out)
    print(f"wrote {len(v)} words (shortlist {v.shortlist_size}) to {args.out}")
    return 0


def _cmd_build_ngram(args) -> int:
    corpus = vocab.load_corpus(args.corpus)
    v = vocab.Vocabulary.load(args.vocab)
    model = ngram.train_kn(corpus, v, **_given(args, "order"))
    ngram.export_arpa(model, args.out)
    print(f"wrote order-{model.order} model to {args.out}")
    return 0


def _cmd_train_lm(args) -> int:
    corpus = vocab.load_corpus(args.corpus)
    v = vocab.Vocabulary.load(args.vocab)
    model = rnnlm.init_model(v, args.embed_dim, args.hidden_dim, args.layers, seed=args.seed)
    val = vocab.load_corpus(args.val_corpus) if args.val_corpus else None
    model, history = rnnlm.train_bptt(model, corpus, _config(rnnlm.TrainConfig, args), val)
    rnnlm.save_checkpoint(model, args.out)
    label = "val" if val is not None else "train"
    for epoch, ppl in enumerate(history, start=1):
        print(f"epoch {epoch}: {label} ppl {ppl:.3f}")
    print(f"wrote checkpoint to {args.out}")
    return 0


def _scorer(model_path, policy, full_vocab_path, arpa_path) -> expansion.FullVocabScorer:
    """A checkpoint scored over the full vocabulary; the n-gram model at
    ``arpa_path``, if given, feeds the ngram policy."""
    model = rnnlm.load_checkpoint(model_path)
    full_vocab = vocab.Vocabulary.load(full_vocab_path) if full_vocab_path else model.vocab
    ng = ngram.import_arpa(arpa_path) if arpa_path else None
    return expansion.FullVocabScorer(model, policy, full_vocab, ng)


def _cmd_ppl(args) -> int:
    scorer = _scorer(args.model, args.unk_mode, args.full_vocab, args.arpa)
    corpus = vocab.load_corpus(args.text)
    print(f"perplexity: {scorer.corpus_perplexity(corpus):.4f}")
    return 0


def _cmd_train_skipgram(args) -> int:
    corpus = vocab.load_corpus(args.corpus)
    emb = skipgram.train_skipgram(corpus, _config(skipgram.SkipgramConfig, args))
    skipgram.save_w2v_text(emb, args.out)
    print(f"wrote {len(emb)} vectors (dim {emb.dim}) to {args.out}")
    return 0


def _cmd_neighbors(args) -> int:
    emb = skipgram.load_w2v_text(args.vectors)
    if args.word not in emb:
        raise ValueError(f"{args.vectors}: no vector for word {args.word!r}")
    v = vocab.Vocabulary.load(args.vocab)
    for wid, sim in skipgram.nearest_in_shortlist(emb, args.word, v, **_given(args, "k")):
        print(f"{v.decode(wid)}\t{sim:.6f}")
    return 0


def _cmd_extract_oos(args) -> int:
    nb = rescoring.parse_nbest(args.nbest)
    v = vocab.Vocabulary.load(args.vocab)
    words = expansion.extract_oos_words(nb, v, **_given(args, "n"))
    if args.out:
        vocab.writing(args.out, "".join(w + "\n" for w in words))
    else:
        for word in words:
            print(word)
    return 0


def _cmd_expand(args) -> int:
    oos = []
    with vocab.reading(args.oos) as blob:
        for line_no, line in enumerate(vocab.text_lines(blob), start=1):
            if len(words := line.split()) > 1:
                raise vocab.ParseError(f"expected one word, found {len(words)}", line_no)
            oos += words
    model = rnnlm.load_checkpoint(args.model)
    emb = skipgram.load_w2v_text(args.vectors)
    expanded, report = expansion.expand_with_embeddings(
        model, oos, emb, **_given(args, "k", "weighted")
    )
    rnnlm.save_checkpoint(expanded, args.out)
    if args.report:
        vocab.write_report(report.to_dict(), args.report)
    print(
        f"expanded {len(report.expanded)} words, skipped {len(report.skipped)};"
        f" explicit columns {report.explicit_before} -> {report.explicit_after}"
    )
    return 0


def _cmd_make_fixture(args) -> int:
    grammar = datagen.make_template_grammar(
        seed=args.seed, **_given(args, "num_classes", "words_per_class")
    )
    train = datagen.sample_corpus(grammar, args.train_tokens, seed=args.seed + 1)
    val = datagen.sample_corpus(grammar, args.val_tokens, seed=args.seed + 2)
    test = datagen.sample_corpus(grammar, args.test_tokens, seed=args.seed + 3)
    v = vocab.build_vocabulary(train, args.shortlist, args.full)
    nb, refs = datagen.make_nbest_fixture(
        grammar, test, v, seed=args.seed + 4, **_given(args, "depth")
    )
    out = Path(args.out_dir)  # made once every input is drawn, so a bad flag leaves none
    out.mkdir(parents=True, exist_ok=True)
    vocab.save_corpus(train, out / "train.txt")
    vocab.save_corpus(val, out / "val.txt")
    v.save(out / "vocab.txt")
    rescoring.write_nbest(nb, out / "test.nbest")
    rescoring.write_transcripts(refs, out / "test.refs")
    print(
        f"wrote {len(train)} train / {len(val)} val sentences,"
        f" {len(v)} vocab words (shortlist {v.shortlist_size}),"
        f" {len(nb)} n-best utterances to {out}"
    )
    return 0


def _lm_from_args(args) -> rescoring.LmScorer:
    if args.arpa is not None:
        return ngram.import_arpa(args.arpa).batch_logprob
    return _scorer(args.model, args.policy, args.full_vocab, args.policy_arpa).batch_logprob


def _cmd_rescore(args) -> int:
    nb = rescoring.parse_nbest(args.nbest)
    lm = _lm_from_args(args)
    cfg = rescoring.RescoreConfig(**_given(args, "lm_scale", "word_penalty"))
    out = rescoring.rescore(nb, lm, cfg)
    rescoring.write_nbest(out, args.out)
    print(f"wrote rescored lists to {args.out}")
    if args.best_out:
        rescoring.write_transcripts(rescoring.one_best(out), args.best_out)
        print(f"wrote 1-best transcripts to {args.best_out}")
    return 0


def _cmd_wer(args) -> int:
    refs = rescoring.load_transcripts(args.refs)
    hyps = rescoring.load_transcripts(args.hyps)
    result = rescoring.wer(refs, hyps)
    print(
        f"wer {result.wer:.2f}% ({result.substitutions} sub, {result.insertions} ins,"
        f" {result.deletions} del / {result.ref_tokens} ref tokens)"
    )
    return 0


def _cmd_tune(args) -> int:
    nb = rescoring.parse_nbest(args.nbest)
    refs = rescoring.load_transcripts(args.refs)
    lm = _lm_from_args(args)
    cfg, best, grid = rescoring.tune(nb, refs, lm, **_given(args, "scales", "penalties"))
    for scale, penalty, w in grid:
        print(f"scale {scale:g} penalty {penalty:g}: wer {w:.2f}%")
    print(f"best: scale {cfg.lm_scale:g} penalty {cfg.word_penalty:g} wer {best:.2f}%")
    return 0


# The model files the pipelines of this process parsed, as ``run_pipeline``
# caches them: repeated pipelines on the same bytes parse them once.
_PIPELINE_MODELS: dict = {}


def _cmd_pipeline(args) -> int:
    configs = [rescoring.parse_config(path) for path in args.config]
    for path, config in zip(args.config, configs):  # every config checked before any runs
        try:
            rescoring.pipeline_settings(config)
        except ValueError as err:
            raise ValueError(f"{path}: {err}") from err
    for path, config in zip(args.config, configs):
        if len(configs) > 1:
            print(f"== {path}")
        print(rescoring.render_report(rescoring.run_pipeline(config, _PIPELINE_MODELS)))
    return 0


def build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """Every subcommand is listed by name and help, but only one that ``argv``
    names gets its arguments and its ``-h``: argparse makes a help formatter
    for each argument it adds, and a run parses one subcommand.  What the
    parser prints for ``argv`` is what a parser of every subcommand prints."""
    unset = argparse.SUPPRESS  # an unset flag leaves the library's default in force
    parser = argparse.ArgumentParser(prog="lmexpand")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, summary: str, func) -> argparse.ArgumentParser | None:
        named = name in argv
        p = sub.add_parser(name, help=summary, add_help=named)
        p.set_defaults(func=func)
        return p if named else None

    if p := command("build-vocab", "frequency-ranked vocabulary from a corpus", _cmd_build_vocab):
        p.add_argument("--corpus", required=True)
        p.add_argument("--shortlist", type=int, required=True)
        p.add_argument("--full", type=int, required=True)
        p.add_argument("--out", required=True)

    if p := command("build-ngram", "train a Kneser-Ney n-gram model", _cmd_build_ngram):
        p.add_argument("--order", type=int, default=unset)
        p.add_argument("--corpus", required=True)
        p.add_argument("--vocab", required=True)
        p.add_argument("--out", required=True)

    if p := command("train-lm", "train the shortlist LSTM language model", _cmd_train_lm):
        p.add_argument("--corpus", required=True)
        p.add_argument("--vocab", required=True)
        p.add_argument("--val-corpus")
        p.add_argument("--embed-dim", type=int, default=300)
        p.add_argument("--hidden-dim", type=int, default=1500)
        p.add_argument("--layers", type=int, default=4)
        _add_config_flags(p, rnnlm.TrainConfig)
        p.add_argument("--out", required=True)

    if p := command("ppl", "perplexity of a checkpoint on text", _cmd_ppl):
        p.add_argument("--model", required=True)
        p.add_argument("--text", required=True)
        p.add_argument("--unk-mode", choices=list(expansion.POLICIES), default="shortlist")
        p.add_argument("--full-vocab")
        p.add_argument("--arpa")

    if p := command("train-skipgram", "train skip-gram word embeddings", _cmd_train_skipgram):
        p.add_argument("--corpus", required=True)
        _add_config_flags(p, skipgram.SkipgramConfig)
        p.add_argument("--out", required=True)

    if p := command("neighbors", "nearest in-shortlist words by cosine", _cmd_neighbors):
        p.add_argument("--vectors", "--vec", required=True)
        p.add_argument("--vocab", required=True)
        p.add_argument("--word", required=True)
        p.add_argument("-k", "--k", type=int, default=unset)

    if p := command("extract-oos", "out-of-shortlist words in top-n hypotheses", _cmd_extract_oos):
        p.add_argument("--nbest", required=True)
        p.add_argument("--vocab", required=True)
        p.add_argument("-n", "--n", type=int, default=unset)
        p.add_argument("--out", help="write the word list here instead of stdout")

    if p := command("expand", "grow a checkpoint's vocabulary", _cmd_expand):
        p.add_argument("--model", required=True)
        p.add_argument("--vectors", "--vec", required=True)
        p.add_argument("--oos", required=True, help="file with one new word per line")
        p.add_argument("-k", "--k", type=int, default=unset)
        p.add_argument("--weighted", action="store_true", default=unset)
        p.add_argument("--out", required=True)
        p.add_argument("--report")

    def add_lm_args(p):
        lm = p.add_mutually_exclusive_group(required=True)
        lm.add_argument("--model")
        lm.add_argument("--arpa")
        p.add_argument("--policy", choices=list(expansion.POLICIES), default="uniform")
        p.add_argument("--full-vocab")
        p.add_argument("--policy-arpa", help="n-gram model for the ngram policy")

    if p := command("rescore", "re-rank n-best lists with a language model", _cmd_rescore):
        p.add_argument("--nbest", required=True)
        add_lm_args(p)
        p.add_argument("--scale", dest="lm_scale", metavar="SCALE", type=float, default=unset)
        p.add_argument("--penalty", dest="word_penalty", metavar="PENALTY", type=float, default=unset)
        p.add_argument("--out", required=True)
        p.add_argument("--best-out", help="also write 1-best transcripts for wer")

    if p := command("wer", "word error rate between transcripts", _cmd_wer):
        p.add_argument("--refs", required=True)
        p.add_argument("--hyps", required=True)

    def grid(text: str) -> list[float]:  # argparse names a bad value's type "grid"
        return [float(v) for v in text.split(",") if v.strip()]

    if p := command("tune", "grid-search rescoring scale and penalty", _cmd_tune):
        p.add_argument("--nbest", required=True)
        p.add_argument("--refs", required=True)
        add_lm_args(p)
        p.add_argument("--scales", type=grid, default=unset,
                       help="comma-separated, default 2..20 step 2")
        p.add_argument("--penalties", type=grid, default=unset,
                       help="comma-separated, default -1,-0.5,0,0.5,1")

    if p := command("pipeline", "extract, expand, rescore and compare", _cmd_pipeline):
        p.add_argument("--config", required=True, nargs="+", help="one pipeline per file, in turn")

    if p := command("make-fixture", "synthetic corpus and n-best lists", _cmd_make_fixture):
        p.add_argument("--out-dir", required=True)
        p.add_argument("--classes", dest="num_classes", metavar="CLASSES", type=int, default=unset)
        p.add_argument("--words-per-class", type=int, default=unset)
        p.add_argument("--train-tokens", type=int, default=20000)
        p.add_argument("--val-tokens", type=int, default=2000)
        p.add_argument("--test-tokens", type=int, default=1500)
        p.add_argument("--shortlist", type=int, default=300)
        p.add_argument("--full", type=int, default=600)
        p.add_argument("--depth", type=int, default=unset)
        p.add_argument("--seed", type=int, default=0)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    try:
        return args.func(args)
    except (
        ValueError, KeyError, OSError, rescoring.RescoreError, rnnlm.TrainingDivergedError
    ) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
