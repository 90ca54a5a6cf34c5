"""Post-hoc vocabulary expansion and full-vocabulary probability policies.

A trained shortlist model is grown by appending synthesized input and
output embedding columns (and an output-bias entry) for each new word.
Every synthesized column is the weighted mean of the corresponding columns
of similar in-shortlist candidate words, and the one candidate set with the
one weight vector is used for the input side, the output side and the bias,
so the new word behaves like a blend of its candidates, equal or weighted
by cosine similarity.  The recurrent layers are untouched: scores of
original words are preserved exactly.

For words that remain outside the explicit columns, three policies spread
the unknown-word probability mass over the full vocabulary:

  shortlist  every out-of-shortlist word scores as the unknown token;
  uniform    the unknown mass is split evenly over the out-of-shortlist
             words plus one residual share for truly unseen words;
  ngram      the unknown mass is shared proportionally to a full-vocabulary
             n-gram model's conditional probabilities, renormalized over
             the out-of-shortlist set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import partial
from typing import Mapping, Sequence

import numpy as np

from .ngram import NgramModel, first_unscorable
from .rnnlm import LstmLayer, RnnLmModel, log_softmax, perplexity, score_events
from .rnnlm import forward_step  # noqa: F401  unused; lmbench tests delete this name
from .skipgram import WordEmbeddings, _neighbor_search
from .vocab import Corpus, Hypothesis, TokenTable, Vocabulary, check_setting, sentence_sums

POLICIES = ("shortlist", "uniform", "ngram")

SKIP_IN_SHORTLIST = "already in shortlist"
SKIP_NO_VECTOR = "absent from embedding vocabulary"
SKIP_NO_CANDIDATES = "no candidates"

# plan: new word -> [(in-shortlist word id, weight), ...]
CandidatePlan = dict[str, list[tuple[int, float]]]


@dataclass
class ExpansionReport:
    expanded: list[str]
    skipped: list[tuple[str, str]]  # (word, reason)
    candidates: dict[str, list[tuple[str, float]]]
    embed_dim: int = 0
    hidden_dim: int = 0
    explicit_before: int = 0
    explicit_after: int = 0

    def to_dict(self) -> dict:
        """The fields by name, sharing their values (no deep copy)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


def extract_oos_words(
    nbest: Mapping[str, Sequence[Hypothesis]],
    vocab: Vocabulary,
    n: int = 1,
) -> list[str]:
    """Unique out-of-shortlist tokens in the top-n hypotheses per utterance.

    Tokens outside the shortlist are collected whether they live in the
    vocabulary tail or are absent from the vocabulary entirely; the result
    is sorted for determinism.
    """
    check_setting("n", n, n >= 1, ">= 1")
    found = {token for hyps in nbest.values() for hyp in hyps[:n] for token in hyp.words}
    return sorted(token for token in found if not vocab.is_shortlist(token))


def _weighted_means(vectors: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Each row's weighted mean of its ``vectors`` (rows, candidates, dim) under its
    ``weights`` (rows, candidates); each row's sums are those of the row alone."""
    if np.any(weights < 0):
        raise ValueError("negative candidate weight")
    wsum = weights.sum(axis=1)
    if np.any(wsum <= 0.0):
        raise ValueError("all-zero weights")
    return (weights[:, :, None] * vectors).sum(axis=1) / wsum[:, None]


def build_candidate_plan(
    oos_words: Sequence[str],
    embeddings: WordEmbeddings,
    vocab: Vocabulary,
    k: int = 8,
    weighted: bool = False,
) -> tuple[CandidatePlan, list[tuple[str, str]]]:
    """Select candidate shortlist words for each out-of-shortlist word.

    Candidates are the k nearest shortlist content words by embedding
    cosine.  Unweighted plans (the default) give every candidate weight 1 so
    synthesis is a plain mean; weighted plans use the cosine similarity,
    dropping candidates with non-positive similarity.
    """
    plan: CandidatePlan = {}
    skipped: list[tuple[str, str]] = []
    searched = [word for word in oos_words if not vocab.is_shortlist(word) and word in embeddings]
    found = dict(zip(searched, _neighbor_search(embeddings, vocab, searched, k)))
    for word in oos_words:
        if weighted:
            entries = [(wid, sim) for wid, sim in found.get(word, []) if sim > 0.0]
        else:
            entries = [(wid, 1.0) for wid, _ in found.get(word, [])]
        if vocab.is_shortlist(word):
            skipped.append((word, SKIP_IN_SHORTLIST))
        elif word not in found:
            skipped.append((word, SKIP_NO_VECTOR))
        elif entries:
            plan[word] = entries
        else:
            skipped.append((word, SKIP_NO_CANDIDATES))
    return plan, skipped


def expand_model(model: RnnLmModel, plan: CandidatePlan) -> tuple[RnnLmModel, ExpansionReport]:
    """Append synthesized columns for every plan word; pure, never mutates.

    The same candidates and weights drive the input embedding, the output
    embedding and the output bias.  New words join the shortlist right
    after the existing explicit ids; remaining tail words keep their order.
    Recurrent parameters are copied bit-identically.
    """
    vocab = model.vocab
    n_before = model.n_explicit
    for word, entries in plan.items():
        if vocab.is_shortlist(word):
            raise ValueError(f"duplicate new word (already explicit): {word}")
        if not entries:
            raise ValueError(f"empty candidate list for {word}")
        for wid, _ in entries:
            if not 0 <= wid < n_before:
                raise ValueError(
                    f"candidate id {wid} for {word} outside explicit range [0, {n_before})"
                )

    # each new [input | output | bias] row, synthesized with those of as many candidates
    table = np.hstack([model.input_embed, model.output_embed, model.output_bias[:, None]])
    chosen = list(plan.values())
    new = np.empty((len(chosen), table.shape[1]))
    for size in {len(entries) for entries in chosen}:
        rows = [i for i, entries in enumerate(chosen) if len(entries) == size]
        pairs = np.array([chosen[i] for i in rows], dtype=float)  # (rows, size, [id, weight])
        new[rows] = _weighted_means(table[pairs[..., 0].astype(np.intp)], pairs[..., 1])
    new_words = list(plan)
    words = vocab.shortlist_words + new_words + [w for w in vocab.tail_words if w not in plan]
    new_vocab = Vocabulary(words, vocab.shortlist_size + len(new_words))
    split = model.embed_dim
    expanded = RnnLmModel(
        vocab=new_vocab,
        input_embed=np.vstack([model.input_embed, new[:, :split]]),
        layers=[
            LstmLayer(w_in=layer.w_in.copy(), w_rec=layer.w_rec.copy(), bias=layer.bias.copy())
            for layer in model.layers
        ],
        output_embed=np.vstack([model.output_embed, new[:, split:-1]]),
        output_bias=np.concatenate([model.output_bias, new[:, -1]]),
    )
    report = ExpansionReport(
        expanded=new_words,
        skipped=[],
        candidates={
            w: [(vocab.decode(wid), float(wt)) for wid, wt in entries]
            for w, entries in plan.items()
        },
        embed_dim=model.embed_dim,
        hidden_dim=model.hidden_dim,
        explicit_before=n_before,
        explicit_after=expanded.n_explicit,
    )
    return expanded, report


def expand_with_embeddings(
    model: RnnLmModel,
    oos_words: Sequence[str],
    embeddings: WordEmbeddings,
    k: int = 8,
    weighted: bool = False,
) -> tuple[RnnLmModel, ExpansionReport]:
    """Plan candidates and expand in one step; the report covers every
    requested word as either expanded or skipped with a reason."""
    plan, skipped = build_candidate_plan(oos_words, embeddings, model.vocab, k, weighted)
    expanded, report = expand_model(model, plan)
    report.skipped = skipped
    return expanded, report


class FullVocabScorer:
    """Scores words over a full vocabulary under a redistribution policy.

    The model's softmax covers its first ``width`` explicit columns (all by
    default); mass assigned to the unknown token is redistributed to
    out-of-shortlist words, those in ``full_vocab`` without a column inside
    the width, according to the policy.  At the width of the model it was
    expanded from, an expanded model scores exactly as that model.
    """

    def __init__(
        self,
        model: RnnLmModel,
        policy: str,
        full_vocab: Vocabulary,
        ngram: NgramModel | None = None,
        width: int | None = None,
    ):
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r}; expected one of {POLICIES}")
        if policy == "ngram" and ngram is None:
            raise ValueError("ngram policy requires an n-gram model")
        self.model = model
        self.vocab = model.vocab if width is None else Vocabulary(model.vocab.words, width)
        self.width = self.vocab.shortlist_size
        if self.width > model.n_explicit:
            raise ValueError(f"width {width} above the model's {model.n_explicit} columns")
        self.policy = policy
        self.ngram = ngram
        self.oos_words = [w for w in full_vocab.words if not self.vocab.is_shortlist(w)]
        self.n_oos = len(self.oos_words)
        if policy == "ngram":  # only this policy reads the n-gram model
            self._oos_ngram_ids = np.array([ngram.vocab.encode(w) for w in self.oos_words], np.intp)
            self._log_denoms: dict[tuple[int, ...], float] = {}
            # a closed n-gram model names the first word it cannot score
            [row] = ngram.context_logprobs(np.full((1, ngram.order - 1), -1), self._oos_ngram_ids)
            if failed := first_unscorable(row, self.oos_words.__getitem__):
                raise failed[1]

    def _log_denominators(self, contexts: np.ndarray) -> np.ndarray:
        """The log-sum-exp of every out-of-shortlist word's ln p under each row of
        ``contexts`` (``NgramModel.context_logprobs`` rows), shifted by the
        largest, so that probabilities that underflow in linear space still give
        a share.  Each distinct context is computed once per scorer."""
        keys = list(map(tuple, contexts.tolist()))
        new = [key for key in dict.fromkeys(keys) if key not in self._log_denoms]
        if new:
            rows = np.array(new, np.int64).reshape(len(new), -1)
            lps = self.ngram.context_logprobs(rows, self._oos_ngram_ids)
            top = lps.max(axis=1)
            for key, t, shifted in zip(new, top.tolist(), (lps - top[:, None]).tolist()):
                # math.exp and a left-to-right sum, not np.exp / np.sum: same last bits
                self._log_denoms[key] = t + math.log(sum(map(math.exp, shifted)))
        return np.array([self._log_denoms[key] for key in keys])

    def _oos_shares(self, table: TokenTable, events: np.ndarray) -> np.ndarray:
        """ln share of the unknown mass that the out-of-shortlist token at each
        given event of ``table`` gets, in the context of the tokens before it in
        its sentence.  The ngram share is the n-gram model's score of the event
        minus the log-sum-exp of every out-of-shortlist word's ln p under its
        context (``_log_denominators``)."""
        if self.policy != "ngram" or self.n_oos == 0:
            # an even split, no spreading, or no out-of-shortlist words to spread over
            share = -math.log(self.n_oos + 1) if self.policy == "uniform" else 0.0
            return np.full(len(events), share)
        scores, contexts = self.ngram.table_events(table)
        lps = scores[events]
        if failed := first_unscorable(lps, lambda i: table.tokens[table.rows[events[i]]]):
            raise failed[1]
        return lps - self._log_denominators(contexts[events])

    def word_logprob(
        self,
        logits: np.ndarray,
        word: str,
        context: Sequence[str] = (),
    ) -> float:
        """ln probability of ``word`` under the policy given prediction logits,
        the network's output after ``<s>`` and ``context``, the sentence so far.
        An out-of-shortlist word's share comes from ``_oos_shares`` over the
        sentence ``[*context, word]``, so each position scores as in ``score_batch``.

        Words beyond even the full vocabulary take the unseen-word residual
        share (uniform), the unknown token's share (ngram), or the plain
        unknown score (shortlist), so arbitrary hypothesis text can be
        scored; only an ngram policy whose n-gram model has no ``<unk>``
        rejects such a word, with a ``ValueError`` naming it.
        """
        lp = float(log_softmax(logits[: self.width])[self.vocab.encode(word, shortlist_only=True)])
        if self.vocab.is_shortlist(word):
            return lp
        [share] = self._oos_shares(TokenTable([[*context, word]]), np.array([len(context)]))
        return lp + float(share)

    def score_batch(self, sentences: Sequence[Sequence[str]]) -> list[np.ndarray]:
        """Per-position ln probabilities of each token sequence plus sentence end:
        ``score_jointly`` of this one scorer, cut into one array per sentence."""
        table = TokenTable(sentences)
        return table.split(score_jointly([self], table)[0])

    def score_tokens(self, tokens: Sequence[str]) -> np.ndarray:
        """``score_batch`` of one token sequence."""
        return self.score_batch([tokens])[0]

    def corpus_perplexity(self, corpus: Corpus) -> float:
        return perplexity(score_jointly([self], corpus)[0])

    def batch_logprob(self, sentences: Sequence[Sequence[str]]) -> list[float]:
        """Sentence ln probability of each token sequence: the LM contract of
        ``rescoring.rescore``.  An empty hypothesis, legal in rescoring,
        scores the end-of-sentence event only."""
        table = TokenTable(sentences)
        return sentence_sums(score_jointly([self], table)[0], table.lengths).tolist()


def score_jointly(
    scorers: Sequence[FullVocabScorer], sentences: Sequence[Sequence[str]] | TokenTable
) -> list[np.ndarray]:
    """ln p of every event of the token sequences (each sequence's tokens,
    then sentence end, in ``TokenTable`` order) under each scorer of one model:
    one flat array per scorer, from one ``rnnlm.score_events`` call over every
    scorer's events at its width.  Out-of-shortlist words are fed back into the
    network as the unknown token; n-gram contexts use the true word identities.
    The sentences may come as a ``TokenTable``, so that other models share it.
    """
    model = scorers[0].model
    if any(scorer.model is not model for scorer in scorers):
        raise ValueError("jointly scored scorers must share one model")
    table = sentences if isinstance(sentences, TokenTable) else TokenTable(sentences)
    encode = [partial(sc.vocab.encode, shortlist_only=True) for sc in scorers]
    scores = score_events(
        model,
        np.concatenate([table.gather(e) for e in encode]),
        np.tile(table.lengths, len(scorers)),
        np.repeat([sc.width for sc in scorers], len(table.lengths)),
    )
    out = np.split(scores, len(scorers))
    for scorer, events in zip(scorers, out):
        oos = np.flatnonzero(~table.gather(scorer.vocab.is_shortlist, bool))
        if oos.size:
            events[oos] += scorer._oos_shares(table, oos)
    return out
