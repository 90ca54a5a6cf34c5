"""Command-line front end: one subcommand per toolkit capability."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import datagen, expansion, ngram, rescoring, rnnlm, skipgram, vocab


def _cmd_build_vocab(args) -> int:
    corpus = vocab.load_corpus(args.corpus)
    v = vocab.build_vocabulary(corpus, args.shortlist, args.full)
    v.save(args.out)
    print(f"wrote {len(v)} words (shortlist {v.shortlist_size}) to {args.out}")
    return 0


def _cmd_build_ngram(args) -> int:
    corpus = vocab.load_corpus(args.corpus)
    v = vocab.Vocabulary.load(args.vocab)
    model = ngram.train_kn(corpus, v, order=args.order)
    ngram.export_arpa(model, args.out)
    print(f"wrote order-{args.order} model to {args.out}")
    return 0


def _cmd_train_lm(args) -> int:
    corpus = vocab.load_corpus(args.corpus)
    v = vocab.Vocabulary.load(args.vocab)
    model = rnnlm.init_model(v, args.embed_dim, args.hidden_dim, args.layers, seed=args.seed)
    config = rnnlm.TrainConfig(
        unroll=args.unroll,
        dropout=args.dropout,
        lr=args.lr,
        clip=args.clip,
        epochs=args.epochs,
        batch=args.batch,
        seed=args.seed,
    )
    val = vocab.load_corpus(args.val_corpus) if args.val_corpus else None
    model, history = rnnlm.train_bptt(model, corpus, config, val)
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
    config = skipgram.SkipgramConfig(
        dim=args.dim,
        window=args.window,
        negatives=args.negatives,
        subsample=args.subsample,
        epochs=args.epochs,
        lr=args.lr,
        min_count=args.min_count,
        seed=args.seed,
    )
    emb = skipgram.train_skipgram(corpus, config)
    skipgram.save_w2v_text(emb, args.out)
    print(f"wrote {len(emb)} vectors (dim {emb.dim}) to {args.out}")
    return 0


def _cmd_neighbors(args) -> int:
    emb = skipgram.load_w2v_text(args.vectors)
    if args.word not in emb:
        raise ValueError(f"{args.vectors}: no vector for word {args.word!r}")
    v = vocab.Vocabulary.load(args.vocab)
    for wid, sim in skipgram.nearest_in_shortlist(emb, args.word, v, k=args.k):
        print(f"{v.decode(wid)}\t{sim:.6f}")
    return 0


def _cmd_extract_oos(args) -> int:
    nb = rescoring.parse_nbest(args.nbest)
    v = vocab.Vocabulary.load(args.vocab)
    words = expansion.extract_oos_words(nb, v, n=args.n)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.writelines(w + "\n" for w in words)
    else:
        for word in words:
            print(word)
    return 0


def _cmd_expand(args) -> int:
    model = rnnlm.load_checkpoint(args.model)
    emb = skipgram.load_w2v_text(args.vectors)
    with open(args.oos, encoding="utf-8") as fh:
        oos = [line.strip() for line in fh if line.strip()]
    expanded, report = expansion.expand_with_embeddings(
        model, oos, emb, k=args.k, weighted=args.weighted
    )
    rnnlm.save_checkpoint(expanded, args.out)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, indent=2)
            fh.write("\n")
    print(
        f"expanded {len(report.expanded)} words, skipped {len(report.skipped)};"
        f" explicit columns {report.explicit_before} -> {report.explicit_after}"
    )
    return 0


def _cmd_make_fixture(args) -> int:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    grammar = datagen.make_template_grammar(
        num_classes=args.classes,
        words_per_class=args.words_per_class,
        seed=args.seed,
    )
    train = datagen.sample_corpus(grammar, args.train_tokens, seed=args.seed + 1)
    val = datagen.sample_corpus(grammar, args.val_tokens, seed=args.seed + 2)
    test = datagen.sample_corpus(grammar, args.test_tokens, seed=args.seed + 3)
    vocab.save_corpus(train, out / "train.txt")
    vocab.save_corpus(val, out / "val.txt")
    v = vocab.build_vocabulary(train, args.shortlist, args.full)
    v.save(out / "vocab.txt")
    nb, refs = datagen.make_nbest_fixture(grammar, test, v, depth=args.depth, seed=args.seed + 4)
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
        return rescoring.per_sentence(ngram.import_arpa(args.arpa).sentence_logprob)
    return _scorer(args.model, args.policy, args.full_vocab, args.policy_arpa).batch_logprob


def _cmd_rescore(args) -> int:
    nb = rescoring.parse_nbest(args.nbest)
    lm = _lm_from_args(args)
    cfg = rescoring.RescoreConfig(lm_scale=args.scale, word_penalty=args.penalty)
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


def _parse_grid(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v.strip()]


def _cmd_tune(args) -> int:
    nb = rescoring.parse_nbest(args.nbest)
    refs = rescoring.load_transcripts(args.refs)
    lm = _lm_from_args(args)
    scales = rescoring.DEFAULT_SCALES if args.scales is None else _parse_grid(args.scales)
    penalties = (
        rescoring.DEFAULT_PENALTIES if args.penalties is None else _parse_grid(args.penalties)
    )
    cfg, best, grid = rescoring.tune(nb, refs, lm, scales, penalties)
    for scale, penalty, w in grid:
        print(f"scale {scale:g} penalty {penalty:g}: wer {w:.2f}%")
    print(f"best: scale {cfg.lm_scale:g} penalty {cfg.word_penalty:g} wer {best:.2f}%")
    return 0


def _cmd_pipeline(args) -> int:
    config = rescoring.parse_config(args.config)
    report = rescoring.run_pipeline(config)
    print(rescoring.render_report(report))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lmexpand")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-vocab", help="frequency-ranked vocabulary from a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--shortlist", type=int, required=True)
    p.add_argument("--full", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_build_vocab)

    p = sub.add_parser("build-ngram", help="train a Kneser-Ney n-gram model")
    p.add_argument("--order", type=int, default=5)
    p.add_argument("--corpus", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_build_ngram)

    p = sub.add_parser("train-lm", help="train the shortlist LSTM language model")
    p.add_argument("--corpus", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--val-corpus")
    p.add_argument("--embed-dim", type=int, default=300)
    p.add_argument("--hidden-dim", type=int, default=1500)
    p.add_argument("--layers", type=int, default=4)
    p.add_argument("--unroll", type=int, default=10)
    p.add_argument("--dropout", type=float, default=0.5)
    p.add_argument("--lr", type=float, default=1.0)
    p.add_argument("--clip", type=float, default=5.0)
    p.add_argument("--epochs", type=int, default=5)
    p.add_argument("--batch", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train_lm)

    p = sub.add_parser("ppl", help="perplexity of a checkpoint on text")
    p.add_argument("--model", required=True)
    p.add_argument("--text", required=True)
    p.add_argument(
        "--unk-mode", choices=list(expansion.POLICIES), default="shortlist"
    )
    p.add_argument("--full-vocab")
    p.add_argument("--arpa")
    p.set_defaults(func=_cmd_ppl)

    p = sub.add_parser("train-skipgram", help="train skip-gram word embeddings")
    p.add_argument("--corpus", required=True)
    p.add_argument("--dim", type=int, default=100)
    p.add_argument("--window", type=int, default=5)
    p.add_argument("--negatives", type=int, default=5)
    p.add_argument("--subsample", type=float, default=1e-3)
    p.add_argument("--epochs", type=int, default=5)
    p.add_argument("--lr", type=float, default=0.025)
    p.add_argument("--min-count", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train_skipgram)

    p = sub.add_parser("neighbors", help="nearest in-shortlist words by cosine")
    p.add_argument("--vectors", "--vec", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--word", required=True)
    p.add_argument("-k", "--k", type=int, default=8)
    p.set_defaults(func=_cmd_neighbors)

    p = sub.add_parser("extract-oos", help="out-of-shortlist words in top-n hypotheses")
    p.add_argument("--nbest", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("-n", "--n", type=int, default=1)
    p.add_argument("--out", help="write the word list here instead of stdout")
    p.set_defaults(func=_cmd_extract_oos)

    p = sub.add_parser("expand", help="grow a checkpoint's vocabulary")
    p.add_argument("--model", required=True)
    p.add_argument("--vectors", "--vec", required=True)
    p.add_argument("--oos", required=True, help="file with one new word per line")
    p.add_argument("-k", "--k", type=int, default=8)
    p.add_argument("--weighted", action="store_true")
    p.add_argument("--out", required=True)
    p.add_argument("--report")
    p.set_defaults(func=_cmd_expand)

    def add_lm_args(p):
        lm = p.add_mutually_exclusive_group(required=True)
        lm.add_argument("--model")
        lm.add_argument("--arpa")
        p.add_argument("--policy", choices=list(expansion.POLICIES), default="uniform")
        p.add_argument("--full-vocab")
        p.add_argument("--policy-arpa", help="n-gram model for the ngram policy")

    p = sub.add_parser("rescore", help="re-rank n-best lists with a language model")
    p.add_argument("--nbest", required=True)
    add_lm_args(p)
    p.add_argument("--scale", type=float, default=10.0)
    p.add_argument("--penalty", type=float, default=0.0)
    p.add_argument("--out", required=True)
    p.add_argument("--best-out", help="also write 1-best transcripts for wer")
    p.set_defaults(func=_cmd_rescore)

    p = sub.add_parser("wer", help="word error rate between transcripts")
    p.add_argument("--refs", required=True)
    p.add_argument("--hyps", required=True)
    p.set_defaults(func=_cmd_wer)

    p = sub.add_parser("tune", help="grid-search rescoring scale and penalty")
    p.add_argument("--nbest", required=True)
    p.add_argument("--refs", required=True)
    add_lm_args(p)
    p.add_argument("--scales", help="comma-separated, default 2..20 step 2")
    p.add_argument("--penalties", help="comma-separated, default -1,-0.5,0,0.5,1")
    p.set_defaults(func=_cmd_tune)

    p = sub.add_parser("pipeline", help="extract, expand, rescore and compare")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_pipeline)

    p = sub.add_parser("make-fixture", help="synthetic corpus and n-best lists")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--classes", type=int, default=10)
    p.add_argument("--words-per-class", type=int, default=50)
    p.add_argument("--train-tokens", type=int, default=20000)
    p.add_argument("--val-tokens", type=int, default=2000)
    p.add_argument("--test-tokens", type=int, default=1500)
    p.add_argument("--shortlist", type=int, default=300)
    p.add_argument("--full", type=int, default=600)
    p.add_argument("--depth", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_make_fixture)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (
        ValueError,
        KeyError,
        OSError,
        rescoring.RescoreError,
        rnnlm.TrainingDivergedError,
    ) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
