"""N-best list rescoring, word error rate, tuning and the full pipeline.

N-best files carry one hypothesis per line:

    <utt-id>\t<rank>\t<acoustic>\t<lm>\t<w1> <w2> ...

Scores are natural-log values printed with six decimals.  The word field
may be empty (a silence hypothesis), which rescoring treats as an
end-of-sentence-only event.  Reference files carry "<utt-id>\t<words>".
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

from . import expansion as _expansion
from . import ngram as _ngram
from . import rnnlm as _rnnlm
from . import skipgram as _skipgram


class NBestParseError(ValueError):
    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class RescoreError(RuntimeError):
    pass


@dataclass
class Hypothesis:
    words: list[str]
    acoustic_score: float
    lm_score: float
    rank: int  # original 1-based position


NBestList = dict[str, list[Hypothesis]]

# An LM scores a batch: it takes the word lists of one utterance's
# hypotheses and returns one ln probability per list, in order.
LmScorer = Callable[[list[list[str]]], Sequence[float]]


def per_sentence(score: Callable[[list[str]], float]) -> LmScorer:
    """Lift a one-sentence scorer, such as ``NgramModel.sentence_logprob``."""
    return lambda sentences: [score(words) for words in sentences]


@dataclass
class RescoreConfig:
    lm_scale: float = 10.0
    word_penalty: float = 0.0


def parse_nbest(path: str | Path) -> NBestList:
    nbest: NBestList = {}
    seen: set[tuple[str, int]] = set()
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            fields = line.rstrip("\n").split("\t")
            if len(fields) != 5:
                raise NBestParseError(
                    f"expected 5 tab-separated fields, found {len(fields)}", line_no
                )
            utt, rank_s, ac_s, lm_s, words_s = fields
            try:
                rank = int(rank_s)
                acoustic = float(ac_s)
                lm = float(lm_s)
            except ValueError as err:
                raise NBestParseError(f"bad numeric field: {err}", line_no) from err
            if not (math.isfinite(acoustic) and math.isfinite(lm)):
                raise NBestParseError("non-finite acoustic or LM score", line_no)
            if (utt, rank) in seen:
                raise NBestParseError(f"duplicate hypothesis {utt!r} rank {rank}", line_no)
            seen.add((utt, rank))
            nbest.setdefault(utt, []).append(
                Hypothesis(words=words_s.split(), acoustic_score=acoustic, lm_score=lm, rank=rank)
            )
    for hyps in nbest.values():
        hyps.sort(key=lambda h: h.rank)
    return nbest


def write_nbest(nbest: NBestList, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for utt, hyps in nbest.items():
            for hyp in hyps:
                fh.write(
                    f"{utt}\t{hyp.rank}\t{hyp.acoustic_score:.6f}"
                    f"\t{hyp.lm_score:.6f}\t{' '.join(hyp.words)}\n"
                )


def combined_score(hyp: Hypothesis, cfg: RescoreConfig) -> float:
    return (
        hyp.acoustic_score
        + cfg.lm_scale * hyp.lm_score
        + cfg.word_penalty * len(hyp.words)
    )


def _lm_scores(utt: str, hyps: list[Hypothesis], lm: LmScorer) -> list[float]:
    """One LM call for all of an utterance's hypotheses.  If it fails, the
    hypotheses are scored one at a time so the error can name the rank."""
    try:
        scores = [float(lp) for lp in lm([hyp.words for hyp in hyps])]
    except Exception as err:
        for hyp in hyps:
            try:
                lm([hyp.words])
            except Exception as one_err:
                raise RescoreError(
                    f"LM failed on utterance {utt!r} rank {hyp.rank}: {one_err}"
                ) from one_err
        raise RescoreError(f"LM failed on utterance {utt!r}: {err}") from err
    if len(scores) != len(hyps):
        raise RescoreError(
            f"LM returned {len(scores)} scores for the {len(hyps)} hypotheses of {utt!r}"
        )
    return scores


def rescore(nbest: NBestList, lm: LmScorer, cfg: RescoreConfig) -> NBestList:
    """Re-rank every utterance by acoustic + scale * lm + penalty * length.

    The LM is called once per utterance with all of its hypotheses.
    Returns a new list with lm_score replaced by the new LM's value; the
    sort is stable so equal combined scores keep their original order.
    Original rank fields are preserved for traceability.
    """
    out: NBestList = {}
    for utt, hyps in nbest.items():
        rescored = [
            Hypothesis(
                words=list(hyp.words),
                acoustic_score=hyp.acoustic_score,
                lm_score=lm_lp,
                rank=hyp.rank,
            )
            for hyp, lm_lp in zip(hyps, _lm_scores(utt, hyps, lm))
        ]
        rescored.sort(key=lambda h: -combined_score(h, cfg))
        out[utt] = rescored
    return out


def one_best(nbest: NBestList) -> dict[str, list[str]]:
    return {utt: list(hyps[0].words) for utt, hyps in nbest.items() if hyps}


@dataclass
class WerResult:
    substitutions: int
    insertions: int
    deletions: int
    ref_tokens: int

    @property
    def errors(self) -> int:
        return self.substitutions + self.insertions + self.deletions

    @property
    def wer(self) -> float:
        if self.ref_tokens == 0:
            raise ValueError("empty reference set")
        return 100.0 * self.errors / self.ref_tokens


def _align_counts(ref: list[str], hyp: list[str]) -> tuple[int, int, int]:
    """Levenshtein alignment (unit costs); ties prefer substitution over
    insertion over deletion during backtrace."""
    nr, nh = len(ref), len(hyp)
    dist = [[0] * (nh + 1) for _ in range(nr + 1)]
    for i in range(1, nr + 1):
        dist[i][0] = i
    for j in range(1, nh + 1):
        dist[0][j] = j
    for i in range(1, nr + 1):
        for j in range(1, nh + 1):
            sub = dist[i - 1][j - 1] + (ref[i - 1] != hyp[j - 1])
            ins = dist[i][j - 1] + 1
            dele = dist[i - 1][j] + 1
            dist[i][j] = min(sub, ins, dele)
    subs = ins_count = dels = 0
    i, j = nr, nh
    while i > 0 or j > 0:
        if i > 0 and j > 0 and dist[i][j] == dist[i - 1][j - 1] + (ref[i - 1] != hyp[j - 1]):
            if ref[i - 1] != hyp[j - 1]:
                subs += 1
            i -= 1
            j -= 1
        elif j > 0 and dist[i][j] == dist[i][j - 1] + 1:
            ins_count += 1
            j -= 1
        else:
            dels += 1
            i -= 1
    return subs, ins_count, dels


def wer(refs: dict[str, list[str]], hyps: dict[str, list[str]]) -> WerResult:
    """Aggregate WER over utterances; every hypothesis needs a reference."""
    total_s = total_i = total_d = total_n = 0
    for utt, hyp_words in hyps.items():
        if utt not in refs:
            raise ValueError(f"missing reference for utterance {utt!r}")
        s, ins, d = _align_counts(refs[utt], hyp_words)
        total_s += s
        total_i += ins
        total_d += d
        total_n += len(refs[utt])
    return WerResult(total_s, total_i, total_d, total_n)


def load_transcripts(path: str | Path) -> dict[str, list[str]]:
    """Read "<utt-id>\t<words>" lines (references or 1-best transcripts)."""
    out: dict[str, list[str]] = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            fields = line.rstrip("\n").split("\t")
            if len(fields) != 2:
                raise ValueError(f"line {line_no}: expected '<utt-id>\\t<words>'")
            utt, words_s = fields
            if utt in out:
                raise ValueError(f"line {line_no}: duplicate utterance {utt!r}")
            out[utt] = words_s.split()
    return out


def write_transcripts(transcripts: dict[str, list[str]], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for utt, words in transcripts.items():
            fh.write(f"{utt}\t{' '.join(words)}\n")


DEFAULT_SCALES = tuple(float(s) for s in range(2, 21, 2))
DEFAULT_PENALTIES = (-1.0, -0.5, 0.0, 0.5, 1.0)


def tune(
    nbest: NBestList,
    refs: dict[str, list[str]],
    lm: LmScorer,
    scales: Sequence[float] = DEFAULT_SCALES,
    penalties: Sequence[float] = DEFAULT_PENALTIES,
) -> tuple[RescoreConfig, float, list[tuple[float, float, float]]]:
    """Grid-search lm_scale and word penalty against reference WER.

    The LM is evaluated once per hypothesis; grid points only re-rank.
    Returns the best config (first in grid order on ties), its WER, and the
    full (scale, penalty, wer) grid.
    """
    scored = rescore(nbest, lm, RescoreConfig(lm_scale=1.0, word_penalty=0.0))
    grid: list[tuple[float, float, float]] = []
    best_cfg: RescoreConfig | None = None
    best_wer = math.inf
    for scale in scales:
        for penalty in penalties:
            cfg = RescoreConfig(lm_scale=scale, word_penalty=penalty)
            reranked: NBestList = {}
            for utt, hyps in scored.items():
                reranked[utt] = sorted(hyps, key=lambda h: -combined_score(h, cfg))
            result = wer(refs, one_best(reranked))
            grid.append((scale, penalty, result.wer))
            if result.wer < best_wer:
                best_wer = result.wer
                best_cfg = cfg
    assert best_cfg is not None
    return best_cfg, best_wer, grid


def parse_config(path: str | Path) -> dict[str, str]:
    """Flat "key = value" configuration; # starts a comment."""
    out: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ValueError(f"line {line_no}: expected 'key = value'")
            key, value = stripped.split("=", 1)
            key = key.strip()
            if not key:
                raise ValueError(f"line {line_no}: empty key")
            if key in out:
                raise ValueError(f"line {line_no}: duplicate key {key!r}")
            out[key] = value.strip()
    return out


PIPELINE_KEYS = {
    "nbest",
    "refs",
    "model",
    "vectors",
    "arpa",
    "extract_n",
    "candidates_k",
    "weighted",
    "policy",
    "lm_scale",
    "word_penalty",
    "report",
    "expanded_checkpoint",
}


def run_pipeline(config: dict[str, str]) -> dict:
    """Extract, expand, rescore and compare; returns the comparison report.

    Required keys: nbest, refs, model (checkpoint), vectors (word2vec text),
    arpa (full-vocabulary n-gram baseline).  Optional: extract_n (1),
    candidates_k (8), weighted (false), policy (uniform), lm_scale (10),
    word_penalty (0), report (JSON output path), expanded_checkpoint.
    """
    unknown = set(config) - PIPELINE_KEYS
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    missing = {"nbest", "refs", "model", "vectors", "arpa"} - set(config)
    if missing:
        raise ValueError(f"missing config keys: {sorted(missing)}")

    nbest = parse_nbest(config["nbest"])
    refs = load_transcripts(config["refs"])
    model = _rnnlm.load_checkpoint(config["model"])
    embeddings = _skipgram.load_w2v_text(config["vectors"])
    ngram_model = _ngram.import_arpa(config["arpa"])

    extract_n = int(config.get("extract_n", "1"))
    candidates_k = int(config.get("candidates_k", "8"))
    weighted = config.get("weighted", "false").lower() in ("true", "1", "yes")
    policy = config.get("policy", "uniform")
    cfg = RescoreConfig(
        lm_scale=float(config.get("lm_scale", "10")),
        word_penalty=float(config.get("word_penalty", "0")),
    )

    oos = _expansion.extract_oos_words(nbest, model.vocab, n=extract_n)
    expanded, report = _expansion.expand_with_embeddings(
        model, oos, embeddings, k=candidates_k, weighted=weighted
    )

    full_vocab = model.vocab
    ref_corpus = [words for words in refs.values() if words]

    base = _expansion.FullVocabScorer(model, policy, full_vocab, ngram_model)
    grown = _expansion.FullVocabScorer(expanded, policy, full_vocab, ngram_model)
    systems = []
    for name, lm_fn, ppl_fn in [
        (
            "ngram",
            per_sentence(ngram_model.sentence_logprob),
            lambda corpus: _ngram.ngram_perplexity(ngram_model, corpus),
        ),
        ("rnnlm", base.batch_logprob, base.corpus_perplexity),
        ("rnnlm-expanded", grown.batch_logprob, grown.corpus_perplexity),
    ]:
        reranked = rescore(nbest, lm_fn, cfg)
        result = wer(refs, one_best(reranked))
        systems.append(
            {
                "system": name,
                "perplexity": ppl_fn(ref_corpus),
                "wer": result.wer,
                "substitutions": result.substitutions,
                "insertions": result.insertions,
                "deletions": result.deletions,
            }
        )

    out_report = {
        "settings": {
            "extract_n": extract_n,
            "candidates_k": candidates_k,
            "weighted": weighted,
            "policy": policy,
            "lm_scale": cfg.lm_scale,
            "word_penalty": cfg.word_penalty,
        },
        "new_words": {"count": len(report.expanded), **report.to_dict()},
        "systems": systems,
    }
    if "report" in config:
        Path(config["report"]).write_text(
            json.dumps(out_report, indent=2, sort_keys=False) + "\n", encoding="utf-8"
        )
    if "expanded_checkpoint" in config:
        _rnnlm.save_checkpoint(expanded, config["expanded_checkpoint"])
    return out_report


def render_report(report: dict) -> str:
    """Small fixed-width comparison table for terminals."""
    lines = [
        f"new words expanded: {report['new_words']['count']}"
        f" (skipped: {len(report['new_words']['skipped'])})",
        f"{'system':<16} {'ppl':>10} {'wer%':>8} {'sub':>5} {'ins':>5} {'del':>5}",
    ]
    for row in report["systems"]:
        lines.append(
            f"{row['system']:<16} {row['perplexity']:>10.2f} {row['wer']:>8.2f}"
            f" {row['substitutions']:>5d} {row['insertions']:>5d} {row['deletions']:>5d}"
        )
    return "\n".join(lines)
