"""Post-hoc vocabulary expansion and full-vocabulary probability policies.

A trained shortlist model is grown by appending synthesized input and
output embedding columns (and an output-bias entry) for each new word.
Every synthesized column is the weighted mean of the corresponding columns
of similar in-shortlist candidate words, and the one candidate set with the
one weight vector is used for the input side, the output side and the bias,
so the new word behaves like a frequency-weighted blend of its candidates.
The recurrent layers are untouched: scores of original words are preserved
exactly.

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
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from .ngram import NgramModel
from .rnnlm import LstmLayer, RnnLmModel, log_softmax, perplexity, score_batch
from .rnnlm import forward_step  # noqa: F401  unused; lmbench tests delete this name
from .skipgram import WordEmbeddings, nearest_in_shortlist
from .vocab import BOS, Corpus, Vocabulary

if TYPE_CHECKING:
    from .rescoring import Hypothesis

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
        return {
            "expanded": list(self.expanded),
            "skipped": [list(pair) for pair in self.skipped],
            "candidates": {
                w: [[c, float(s)] for c, s in entries]
                for w, entries in self.candidates.items()
            },
            "embed_dim": self.embed_dim,
            "hidden_dim": self.hidden_dim,
            "explicit_before": self.explicit_before,
            "explicit_after": self.explicit_after,
        }


def extract_oos_words(
    nbest: Mapping[str, Sequence["Hypothesis"]],
    vocab: Vocabulary,
    n: int = 1,
) -> list[str]:
    """Unique out-of-shortlist tokens in the top-n hypotheses per utterance.

    Tokens outside the shortlist are collected whether they live in the
    vocabulary tail or are absent from the vocabulary entirely; the result
    is sorted for determinism.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    found: set[str] = set()
    for hyps in nbest.values():
        for hyp in list(hyps)[:n]:
            for token in hyp.words:
                if not vocab.is_shortlist(token):
                    found.add(token)
    return sorted(found)


def synthesize_vector(vectors: Sequence[np.ndarray], weights: Sequence[float]) -> np.ndarray:
    """Weighted mean of candidate columns; plain mean when weights are equal."""
    if len(vectors) == 0:
        raise ValueError("no candidate vectors")
    if len(vectors) != len(weights):
        raise ValueError("weights and vectors differ in length")
    w = np.asarray(weights, dtype=float)
    if np.any(w < 0):
        raise ValueError("negative candidate weight")
    wsum = float(w.sum())
    if wsum <= 0.0:
        raise ValueError("all-zero weights")
    arrays = [np.asarray(v, dtype=float) for v in vectors]
    if len({a.shape for a in arrays}) != 1:
        raise ValueError("candidate vectors differ in dimension")
    mat = np.stack(arrays)
    return (w[:, None] * mat).sum(axis=0) / wsum


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
    for word in oos_words:
        if vocab.is_shortlist(word):
            skipped.append((word, SKIP_IN_SHORTLIST))
            continue
        if word not in embeddings:
            skipped.append((word, SKIP_NO_VECTOR))
            continue
        neighbors = nearest_in_shortlist(embeddings, word, vocab, k)
        if weighted:
            entries = [(wid, sim) for wid, sim in neighbors if sim > 0.0]
        else:
            entries = [(wid, 1.0) for wid, _ in neighbors]
        if not entries:
            skipped.append((word, SKIP_NO_CANDIDATES))
            continue
        plan[word] = entries
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
    new_words = list(plan.keys())
    seen: set[str] = set()
    for word in new_words:
        if vocab.is_shortlist(word):
            raise ValueError(f"duplicate new word (already explicit): {word}")
        if word in seen:
            raise ValueError(f"duplicate new word in plan: {word}")
        seen.add(word)
    for word, entries in plan.items():
        if not entries:
            raise ValueError(f"empty candidate list for {word}")
        for wid, _ in entries:
            if not 0 <= wid < n_before:
                raise ValueError(
                    f"candidate id {wid} for {word} outside explicit range [0, {n_before})"
                )

    in_rows = []
    out_rows = []
    bias_entries = []
    for word, entries in plan.items():
        ids = [wid for wid, _ in entries]
        weights = [wt for _, wt in entries]
        in_rows.append(synthesize_vector([model.input_embed[i] for i in ids], weights))
        out_rows.append(synthesize_vector([model.output_embed[i] for i in ids], weights))
        bias_entries.append(
            float(synthesize_vector([model.output_bias[i : i + 1] for i in ids], weights)[0])
        )

    words = (
        vocab.shortlist_words
        + new_words
        + [w for w in vocab.tail_words if w not in seen]
    )
    new_vocab = Vocabulary(words, vocab.shortlist_size + len(new_words))
    if new_words:
        input_embed = np.vstack([model.input_embed, np.stack(in_rows)])
        output_embed = np.vstack([model.output_embed, np.stack(out_rows)])
        output_bias = np.concatenate([model.output_bias, np.array(bias_entries)])
    else:
        input_embed = model.input_embed.copy()
        output_embed = model.output_embed.copy()
        output_bias = model.output_bias.copy()
    expanded = RnnLmModel(
        vocab=new_vocab,
        input_embed=input_embed,
        layers=[
            LstmLayer(w_in=layer.w_in.copy(), w_rec=layer.w_rec.copy(), bias=layer.bias.copy())
            for layer in model.layers
        ],
        output_embed=output_embed,
        output_bias=output_bias,
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

    The model's softmax covers only its explicit columns; mass assigned to
    the unknown token is redistributed to out-of-shortlist words according
    to the policy.  Out-of-shortlist words are those present in
    ``full_vocab`` but without an explicit column in the model.
    """

    def __init__(
        self,
        model: RnnLmModel,
        policy: str,
        full_vocab: Vocabulary,
        ngram: NgramModel | None = None,
    ):
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r}; expected one of {POLICIES}")
        if policy == "ngram" and ngram is None:
            raise ValueError("ngram policy requires an n-gram model")
        self.model = model
        self.policy = policy
        self.full_vocab = full_vocab
        self.ngram = ngram
        self.oos_words = [
            w for w in full_vocab.words if not model.vocab.is_shortlist(w)
        ]
        self.n_oos = len(self.oos_words)
        if ngram is not None:
            self._oos_ngram_ids = [ngram.vocab.encode(w) for w in self.oos_words]
            self._denom_cache: dict[tuple[int, ...], float] = {}

    def _oos_share(self, word: str, context: Sequence[str]) -> float:
        """ln share of the unknown mass that an out-of-shortlist word gets."""
        if self.policy == "uniform":
            return -math.log(self.n_oos + 1)
        if self.policy == "shortlist" or self.n_oos == 0:
            # no spreading, or no out-of-shortlist words to spread over
            return 0.0
        assert self.ngram is not None
        ctx = tuple(
            self.ngram.vocab.encode(t) for t in list(context)[-(self.ngram.order - 1) :]
        )
        denom = self._denom_cache.get(ctx)
        if denom is None:
            denom = sum(
                math.exp(self.ngram.conditional_logprob(w, ctx))
                for w in self._oos_ngram_ids
            )
            self._denom_cache[ctx] = denom
        word_id = self.ngram.vocab.encode(word)
        return math.log(math.exp(self.ngram.conditional_logprob(word_id, ctx)) / denom)

    def word_logprob(
        self,
        logits: np.ndarray,
        word: str,
        context: Sequence[str] = (),
    ) -> float:
        """ln probability of ``word`` under the policy given prediction logits.

        Words beyond even the full vocabulary never fail: they take the
        unseen-word residual share (uniform), the unknown token's share
        (ngram), or the plain unknown score (shortlist), so arbitrary
        hypothesis text can always be scored.
        """
        vocab = self.model.vocab
        lp = float(log_softmax(logits)[vocab.encode(word, shortlist_only=True)])
        return lp if vocab.is_shortlist(word) else lp + self._oos_share(word, context)

    def score_batch(self, sentences: Sequence[Sequence[str]]) -> list[np.ndarray]:
        """Per-position ln probabilities of each token sequence plus sentence end.

        Out-of-shortlist words are fed back into the network as the unknown
        token; n-gram contexts use the true word identities.  One
        ``rnnlm.score_batch`` call scores every sequence.
        """
        vocab = self.model.vocab
        scores = score_batch(
            self.model, [[vocab.encode(t, shortlist_only=True) for t in s] for s in sentences]
        )
        for tokens, out in zip(sentences, scores):
            history = [BOS, *tokens]
            for pos, token in enumerate(tokens):
                if not vocab.is_shortlist(token):
                    out[pos] += self._oos_share(token, history[: pos + 1])
        return scores

    def score_tokens(self, tokens: Sequence[str]) -> np.ndarray:
        """``score_batch`` of one token sequence."""
        return self.score_batch([tokens])[0]

    def corpus_perplexity(self, corpus: Corpus) -> float:
        scores = self.score_batch(corpus)
        return perplexity(np.concatenate(scores) if scores else [])

    def batch_logprob(self, sentences: Sequence[Sequence[str]]) -> list[float]:
        """Sentence ln probability of each token sequence: the LM contract of
        ``rescoring.rescore``.  An empty hypothesis, legal in rescoring,
        scores the end-of-sentence event only."""
        return [float(out.sum()) for out in self.score_batch(sentences)]
