"""N-best list rescoring, word error rate, tuning and the full pipeline.

An empty hypothesis (a silence hypothesis) is scored as an
end-of-sentence-only event.  The n-best and transcript readers and writers
live in ``vocab`` and are re-exported here.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import expansion as _expansion
from . import ngram as _ngram
from . import rnnlm as _rnnlm
from . import skipgram as _skipgram
from .vocab import Hypothesis, NBestList, ParseError, TokenTable, check_setting, load_transcripts
from .vocab import parse_nbest, sentence_sums
from .vocab import reading, text_lines, write_report
from .vocab import write_nbest, write_transcripts  # noqa: F401  re-exported for callers


class RescoreError(RuntimeError):
    pass


# An LM scores a batch: it takes the word lists of every hypothesis of an
# n-best list and returns one ln probability per list, in order.  ``_lm_scores``
# checks them into one float array, the form in which ``compare`` also hands
# on each system's sums.
LmScorer = Callable[[list[list[str]]], Sequence[float]]


@dataclass
class RescoreConfig:
    lm_scale: float = 10.0
    word_penalty: float = 0.0

    def __post_init__(self):
        check_setting("lm_scale", self.lm_scale, math.isfinite(self.lm_scale), "finite")
        check_setting("word_penalty", self.word_penalty, math.isfinite(self.word_penalty), "finite")


def combined_score(hyp: Hypothesis, cfg: RescoreConfig) -> float:
    return _combined(cfg, hyp.acoustic_score, hyp.lm_score, len(hyp.words))


def _combined(cfg: RescoreConfig, acoustic, lm, length):
    """The combined score of floats, or elementwise of arrays, bit for bit."""
    return acoustic + cfg.lm_scale * lm + cfg.word_penalty * length


def _lm_scores(nbest: NBestList, lm: LmScorer) -> np.ndarray:
    """The ``lm`` score of every hypothesis, ``_checked``, from one call over
    the whole list in file order.  If the call raises, the hypotheses are
    scored one at a time, in file order, so the error names the utterance and
    rank of the first that fails alone."""
    hyps = [(utt, hyp) for utt, utt_hyps in nbest.items() for hyp in utt_hyps]
    try:
        scores = np.array([float(lp) for lp in lm([hyp.words for _, hyp in hyps])])
    except Exception as err:
        for utt, hyp in hyps:
            try:
                lm([hyp.words])
            except Exception as one_err:
                raise _lm_failed(utt, hyp, one_err) from one_err
        raise RescoreError(f"LM failed on the n-best list: {err}") from err
    return _checked(hyps, scores)


def _checked(hyps: list[tuple[str, Hypothesis]], scores: np.ndarray) -> np.ndarray:
    """``scores``, one per (utterance, hypothesis) of ``hyps``: a wrong number
    of scores, or a score that is not finite, is an error."""
    if len(scores) != len(hyps):
        raise RescoreError(
            f"LM returned {len(scores)} scores for the {len(hyps)} hypotheses"
            " of the n-best list"
        )
    if not np.isfinite(scores).all():
        at = int(np.isfinite(scores).argmin())
        raise _lm_failed(*hyps[at], ValueError(f"non-finite score {float(scores[at])}"))
    return scores


def _lm_failed(utt: str, hyp: Hypothesis, err: Exception) -> RescoreError:
    return RescoreError(f"LM failed on utterance {utt!r} rank {hyp.rank}: {err}")


def rescore(nbest: NBestList, lm: LmScorer, cfg: RescoreConfig) -> NBestList:
    """Re-rank every utterance by acoustic + scale * lm + penalty * length.

    The LM is called once with every hypothesis of the list.  Returns a new
    list with lm_score replaced by the new LM's value; equal combined scores
    keep their file order.  Original rank fields are preserved for
    traceability.
    """
    flat = iter(_lm_scores(nbest, lm).tolist())
    scored = [
        (utt, [Hypothesis(list(h.words), h.acoustic_score, next(flat), h.rank) for h in hyps])
        for utt, hyps in nbest.items()
    ]
    return {utt: sorted(hyps, key=lambda h: -combined_score(h, cfg)) for utt, hyps in scored}


def one_best(nbest: NBestList) -> dict[str, list[str]]:
    return {utt: list(hyps[0].words) for utt, hyps in nbest.items() if hyps}


def _one_bests(nbest: NBestList, runs: Sequence[tuple]) -> list[dict[str, list[str]]]:
    """``one_best(rescore(nbest, lm, cfg))`` of each run (an LM's ``_checked``
    score array, one per hypothesis in file order, and a config), without
    copying a hypothesis: each utterance's first hypothesis of highest combined
    score, which is what the stable sort puts first when no combined score is NaN."""
    hyps = [hyp for utt_hyps in nbest.values() for hyp in utt_hyps]
    acoustic, lengths = np.array([(h.acoustic_score, len(h.words)) for h in hyps]).reshape(-1, 2).T
    sizes = [len(utt_hyps) for utt_hyps in nbest.values()]
    ends = np.cumsum(sizes).tolist()
    spans = [(utt, end - n, end) for utt, n, end in zip(nbest, sizes, ends) if n]
    return [
        {utt: hyps[at + int(total[at:end].argmax())].words for utt, at, end in spans}
        for total in (_combined(cfg, acoustic, scores, lengths) for scores, cfg in runs)
    ]


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
    dist = [[i] + [0] * nh for i in range(nr + 1)]  # column 0 and row 0: distances to ""
    dist[0] = list(range(nh + 1))
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
    """Aggregate WER over every reference; every hypothesis needs a reference,
    and a reference without a hypothesis counts as the empty one (all deletions)."""
    [result] = _wers(refs, [hyps])
    return result


def _wers(refs: dict[str, list[str]], systems: Sequence[dict[str, list[str]]]) -> list[WerResult]:
    """``wer`` of each system's hypotheses.  Each distinct (reference,
    hypothesis) pair is aligned once over all the systems, but one as long as
    its reference and d <= 1 words from it counts d substitutions unaligned:
    with equal lengths an insertion needs a deletion, 2 edits."""
    missing = [utt for hyps in systems for utt in hyps if utt not in refs]
    if missing:
        raise ValueError(f"missing reference for utterance {missing[0]!r}")
    pairs = [[(tuple(r), tuple(hyps.get(utt, ()))) for utt, r in refs.items()] for hyps in systems]
    counts = {p: (d, 0, 0) if len(p[0]) == len(p[1]) and (d := sum(map(str.__ne__, *p))) < 2
              else _align_counts(*p) for p in set().union(*pairs)}
    n_tokens = sum(map(len, refs.values()))
    # each kind of error summed over a system's references, (0, 0, 0) over none
    return [WerResult(*map(sum, zip((0, 0, 0), *map(counts.get, row))), n_tokens) for row in pairs]


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

    The LM is called once for the whole list, and each grid point takes the
    1-best that ``rescore`` ranks first, without re-ranking.  Returns the best
    config (first in grid order on ties), its WER, and the full (scale,
    penalty, wer) grid.  An empty grid or a non-finite grid value raises
    ``ValueError``.
    """
    configs = [RescoreConfig(scale, penalty) for scale in scales for penalty in penalties]
    if not configs:
        raise ValueError("empty tuning grid: give at least one scale and one penalty")
    scores = _lm_scores(nbest, lm)
    results = _wers(refs, _one_bests(nbest, [(scores, cfg) for cfg in configs]))
    grid = [(cfg.lm_scale, cfg.word_penalty, result.wer) for cfg, result in zip(configs, results)]
    best = min(range(len(grid)), key=lambda i: grid[i][2])  # the first of equal WERs
    return configs[best], grid[best][2], grid


def parse_config(path: str | Path) -> dict[str, str]:
    """Flat "key = value" configuration; # starts a comment."""
    out: dict[str, str] = {}
    with reading(path) as blob:
        for line_no, line in enumerate(text_lines(blob), start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ParseError("expected 'key = value'", line_no)
            key, value = stripped.split("=", 1)
            key = key.strip()
            if not key:
                raise ParseError("empty key", line_no)
            if key in out:
                raise ParseError(f"duplicate key {key!r}", line_no)
            out[key] = value.strip()
    return out


_BOOLEANS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}
# Optional pipeline settings in report order: key -> (default, parser, check).
_SETTINGS = {
    "extract_n": ("1", int, lambda n: n >= 1),
    "candidates_k": ("8", int, lambda k: k >= 1),
    "weighted": ("false", lambda text: _BOOLEANS[text.lower()], lambda _: True),
    "policy": ("uniform", str, lambda policy: policy in _expansion.POLICIES),
    "lm_scale": ("10", float, math.isfinite),
    "word_penalty": ("0", float, math.isfinite),
}
_REQUIRED = {"nbest", "refs", "model", "vectors", "arpa"}
PIPELINE_KEYS = {*_REQUIRED, *_SETTINGS, "report", "expanded_checkpoint"}


def _parsed(cache: dict, kind: str, path: str, parse: Callable[[bytes], object]):
    """The model in the file at ``path``, from ``cache`` if it holds the last
    model of this ``kind`` parsed from the same bytes (their SHA-256); else
    parsed, and then kept there.  A failed parse stores nothing."""
    with reading(path) as blob:
        digest = hashlib.sha256(blob).digest()
        entry = cache.get(kind)
        if entry is None or entry[0] != digest:
            entry = cache[kind] = (digest, parse(blob))
    return entry[1]


def pipeline_settings(config: dict[str, str]) -> dict:
    """A pipeline config's settings, parsed after its keys are checked; reads no file."""
    unknown = set(config) - PIPELINE_KEYS
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    missing = _REQUIRED - set(config)
    if missing:
        raise ValueError(f"missing config keys: {sorted(missing)}")
    settings = {}
    for key, (default, parse, check) in _SETTINGS.items():
        text = config.get(key, default)
        try:
            settings[key] = parse(text)
            if not check(settings[key]):
                raise ValueError(text)
        except (ValueError, KeyError) as err:
            raise ValueError(f"config key {key!r}: bad value {text!r}") from err
    return settings


def run_pipeline(config: dict[str, str], cache: dict | None = None) -> dict:
    """Extract, expand, rescore and compare; returns the comparison report.

    Required keys: nbest, refs, model (checkpoint), vectors (word2vec text),
    arpa (full-vocabulary n-gram baseline).  Optional: extract_n (1),
    candidates_k (8), weighted (false; true/false, yes/no or 1/0), policy
    (uniform), lm_scale (10), word_penalty (0), report (JSON output path),
    expanded_checkpoint.  Every setting is parsed before any file is read.

    The model files are parsed through ``cache``, a dict a caller keeps to
    parse the same bytes once; without one, nothing stays resident.
    """
    settings = pipeline_settings(config)
    cache = {} if cache is None else cache
    nbest = parse_nbest(config["nbest"])
    refs = load_transcripts(config["refs"])
    model = _parsed(cache, "model", config["model"], _rnnlm._parse_checkpoint)
    embeddings = _parsed(cache, "vectors", config["vectors"], _skipgram._parse_w2v_text)
    ngram_model = _parsed(cache, "arpa", config["arpa"], _ngram._parse_arpa)
    report, expanded = compare(nbest, refs, model, embeddings, ngram_model, settings)
    if "report" in config:
        write_report(report, config["report"])
    if "expanded_checkpoint" in config:
        _rnnlm.save_checkpoint(expanded, config["expanded_checkpoint"])
    return report


def compare(
    nbest: NBestList,
    refs: dict[str, list[str]],
    model: _rnnlm.RnnLmModel,
    embeddings: _skipgram.WordEmbeddings,
    ngram_model: _ngram.NgramModel,
    settings: dict,
) -> tuple[dict, _rnnlm.RnnLmModel]:
    """The pipeline on loaded inputs and a config's ``pipeline_settings``:
    returns the comparison report and the expanded model.  Reads and writes
    no file, and leaves the models it is given as they were."""
    policy = settings["policy"]
    cfg = RescoreConfig(lm_scale=settings["lm_scale"], word_penalty=settings["word_penalty"])

    oos = _expansion.extract_oos_words(nbest, model.vocab, n=settings["extract_n"])
    expanded, report = _expansion.expand_with_embeddings(
        model, oos, embeddings, k=settings["candidates_k"], weighted=settings["weighted"]
    )

    full_vocab = model.vocab
    ref_corpus = [words for words in refs.values() if words]
    hyps = [(utt, hyp) for utt, utt_hyps in nbest.items() for hyp in utt_hyps]

    # One table holds the events of the hypotheses, then the references'; each
    # system scores it into one flat array.  The n-gram walk (also the ngram
    # policy's numerators) is checked first, so a word it cannot score is named
    # with its utterance and rank under every policy.  One engine call scores
    # both LSTM systems; the base one is the expanded model at the base width.
    table = TokenTable([hyp.words for _, hyp in hyps] + ref_corpus)
    kn, _ = ngram_model.table_events(table)
    if failed := _ngram.first_unscorable(kn, lambda i: table.tokens[table.rows[i]]):
        at, err = failed
        sentence = int(np.searchsorted(np.cumsum(table.lengths), at, side="right"))
        if sentence < len(hyps):
            raise _lm_failed(*hyps[sentence], err) from err
        raise err
    lstm = _expansion.score_jointly(
        [
            _expansion.FullVocabScorer(expanded, policy, full_vocab, ngram_model, model.n_explicit),
            _expansion.FullVocabScorer(expanded, policy, full_vocab, ngram_model),
        ],
        table,
    )
    n, tail = len(hyps), int(table.lengths[: len(hyps)].sum())  # the references' first event
    kn_sums = sentence_sums(kn, table.lengths, in_order=True)
    sums = [kn_sums[:n], *(sentence_sums(lps, table.lengths)[:n] for lps in lstm)]
    ppls = [
        partial(_ngram.sentence_perplexity, kn_sums[n:], len(kn) - tail),
        *(partial(_rnnlm.perplexity, lps[tail:]) for lps in lstm),
    ]
    results = _wers(refs, _one_bests(nbest, [(_checked(hyps, s), cfg) for s in sums]))
    systems = [
        {
            "system": name,
            "perplexity": ppl(),
            "wer": result.wer,
            "substitutions": result.substitutions,
            "insertions": result.insertions,
            "deletions": result.deletions,
        }
        for name, ppl, result in zip(("ngram", "rnnlm", "rnnlm-expanded"), ppls, results)
    ]

    return {
        "settings": settings,
        "new_words": {"count": len(report.expanded), **report.to_dict()},
        "systems": systems,
    }, expanded


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
