"""Synthetic data: template-grammar corpora and noised n-best fixtures.

The grammar draws sentences from class-sequence templates; each slot class
holds a Zipf-distributed word inventory, so a frequency-cut shortlist keeps
the head of every class and leaves the tails out-of-shortlist while the
class structure makes those tail words distributionally similar to their
in-shortlist classmates.  That is exactly the regime vocabulary expansion
targets, at desk scale.

The n-best fixture perturbs held-out reference sentences with same-class
substitutions (acoustically plausible confusions), adds garbage tokens in
deep hypotheses only, and assigns acoustic scores so that the correct
hypothesis sometimes needs the language model to win.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .vocab import Corpus, Hypothesis, NBestList, Vocabulary, check_setting


@dataclass
class TemplateGrammar:
    classes: list[list[str]]  # per class, words ordered most to least frequent
    class_weights: list[np.ndarray]
    templates: list[list[int]]
    template_weights: np.ndarray
    word_class: dict[str, tuple[int, int]]  # word -> (class index, frequency rank)


def _rng(seed: int) -> np.random.Generator:
    """The generator of a seed, which must be a non-negative integer."""
    check_setting("seed", seed, seed >= 0, ">= 0")
    return np.random.default_rng(seed)


def make_template_grammar(
    num_classes: int = 10,
    words_per_class: int = 50,
    num_templates: int = 12,
    min_len: int = 4,
    max_len: int = 8,
    zipf: float = 1.0,
    seed: int = 0,
) -> TemplateGrammar:
    check_setting("num_classes", num_classes, num_classes >= 1, ">= 1")
    check_setting("words_per_class", words_per_class, words_per_class >= 1, ">= 1")
    rng = _rng(seed)
    classes = [
        [f"c{ci}w{ri:02d}" for ri in range(words_per_class)] for ci in range(num_classes)
    ]
    ranks = np.arange(1, words_per_class + 1, dtype=float)
    weights = ranks**-zipf
    weights /= weights.sum()
    class_weights = [weights.copy() for _ in range(num_classes)]
    templates = []
    for _ in range(num_templates):
        length = int(rng.integers(min_len, max_len + 1))
        templates.append([int(c) for c in rng.integers(0, num_classes, size=length)])
    template_weights = rng.random(num_templates) + 0.5
    template_weights /= template_weights.sum()
    word_class = {
        w: (ci, ri) for ci, cls in enumerate(classes) for ri, w in enumerate(cls)
    }
    return TemplateGrammar(classes, class_weights, templates, template_weights, word_class)


def _cdf(p: np.ndarray) -> np.ndarray:
    """The table ``Generator.choice`` draws from: ``cdf.searchsorted(rng.random(),
    side="right")`` is ``rng.choice(len(p), p=p)``, draw for draw."""
    cdf = np.cumsum(p)
    return cdf / cdf[-1]


def _sentence_sampler(grammar: TemplateGrammar):
    """``sample_sentence`` for one grammar, with its tables built once."""
    template_cdf = _cdf(grammar.template_weights)
    class_cdfs = [_cdf(w) for w in grammar.class_weights]

    def sample(rng: np.random.Generator) -> list[str]:
        t = int(template_cdf.searchsorted(rng.random(), side="right"))
        return [
            grammar.classes[ci][int(class_cdfs[ci].searchsorted(rng.random(), side="right"))]
            for ci in grammar.templates[t]
        ]

    return sample


def sample_sentence(grammar: TemplateGrammar, rng: np.random.Generator) -> list[str]:
    return _sentence_sampler(grammar)(rng)


def sample_corpus(grammar: TemplateGrammar, target_tokens: int, seed: int = 0) -> Corpus:
    check_setting("target_tokens", target_tokens, target_tokens >= 1, ">= 1")
    rng = _rng(seed)
    sample = _sentence_sampler(grammar)
    corpus: Corpus = []
    tokens = 0
    while tokens < target_tokens:
        sentence = sample(rng)
        corpus.append(sentence)
        tokens += len(sentence)
    return corpus


def _other_member(members: list[str], word: str, rng: np.random.Generator, upper_half=False) -> str:
    """A random one of ``members`` other than ``word``, from the upper (less
    frequent) half of them if asked; ``word`` itself when there is none."""
    others = [w for w in members if w != word]
    if not others:
        return word
    if upper_half:
        others = others[len(others) // 2 :]
    return others[int(rng.integers(0, len(others)))]


def make_nbest_fixture(
    grammar: TemplateGrammar,
    references: Corpus,
    vocab: Vocabulary,
    depth: int = 50,
    seed: int = 0,
) -> tuple[NBestList, dict[str, list[str]]]:
    """Noised n-best lists plus the reference transcripts.

    The top five ranks contain grammar words only; garbage tokens that no
    embedding covers appear in deeper ranks.  Acoustic scores decrease
    strictly with rank, with a deliberately small top gap so language-model
    rescoring decides the borderline utterances.
    """
    check_setting("depth", depth, depth >= 1, ">= 1")
    rng = _rng(seed)
    # per class, most frequent first: its shortlist words (acoustic confusions)
    # and its out-of-shortlist vocabulary words (deep-hypothesis variety)
    confusions = [[w for w in cls if vocab.is_shortlist(w)] for cls in grammar.classes]
    tails = [
        [w for w in cls if w in vocab and not vocab.is_shortlist(w)] for cls in grammar.classes
    ]
    nbest: NBestList = {}
    refs: dict[str, list[str]] = {}
    garbage_next = 0
    for idx, ref in enumerate(references):
        utt = f"utt{idx:04d}"
        refs[utt] = list(ref)
        oos_positions = [p for p, w in enumerate(ref) if not vocab.is_shortlist(w)]

        variants: list[list[str]] = []
        seen = {tuple(ref)}

        def push(words: list[str]) -> None:
            key = tuple(words)
            if key not in seen:
                seen.add(key)
                variants.append(words)

        # The main competitor swaps an out-of-shortlist word for a less
        # frequent in-shortlist classmate when possible.
        main = list(ref)
        if oos_positions:
            p = oos_positions[int(rng.integers(0, len(oos_positions)))]
        else:
            p = int(rng.integers(0, len(main)))
        members = confusions[grammar.word_class[main[p]][0]]
        main[p] = _other_member(members, main[p], rng, upper_half=bool(oos_positions))
        push(main)

        guard = 0
        while len(variants) < depth - 1 and guard < depth * 20:
            guard += 1
            cand = list(ref)
            n_swaps = 1 + int(rng.integers(0, 3))
            for _ in range(n_swaps):
                p = int(rng.integers(0, len(cand)))
                roll = rng.random()
                members = (tails if roll < 0.15 else confusions)[grammar.word_class[cand[p]][0]]
                cand[p] = _other_member(members, cand[p], rng)
            # Garbage tokens only beyond the first few ranks.
            if len(variants) >= 4 and rng.random() < 0.3:
                p = int(rng.integers(0, len(cand)))
                cand[p] = f"zq{garbage_next:03d}"
                garbage_next += 1
            push(cand)

        ref_first = not variants or not oos_positions or rng.random() < 0.55
        ordered = [list(ref)] + variants if ref_first else [variants[0], list(ref)] + variants[1:]
        ordered = ordered[:depth]

        base = -1.6 * len(ref) - abs(rng.normal(0.0, 0.5))
        hyps = []
        am = base
        for rank, words in enumerate(ordered, start=1):
            if rank == 2:
                am -= 0.25 + 0.55 * rng.random()  # small top gap: LM decides
            elif rank > 2:
                am -= 0.3 + 1.2 * rng.random()
            hyps.append(
                Hypothesis(
                    words=words,
                    acoustic_score=round(am, 6),
                    lm_score=round(-2.0 * len(words) + 0.05 * rng.random(), 6),
                    rank=rank,
                )
            )
        nbest[utt] = hyps
    return nbest, refs
