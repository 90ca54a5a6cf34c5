"""Span tracing of lmexpand's public functions, installed from outside.

The tracer replaces each traced function with a wrapper, in the module that
defines it and in every lmexpand module that binds the same object under
its own name (``expansion`` imports ``forward_step`` by name, for example),
and on the class for methods.  Every call records one span: the function,
start and end times, the enclosing span and whether the call raised.
Spans stay in memory for one phase (the set-up or one iteration); the phase
summary turns them into per-function calls, self time (duration minus the
time covered by child spans), inclusive time, errors and probe counters.

A traced name the package no longer has is reported as missing rather than
failing the run, so the benchmark keeps working across refactors.
"""

from __future__ import annotations

import importlib
import inspect
import os
import statistics
import time
from array import array
from dataclasses import dataclass, field

# (function key "<layer>.<function>", module, attribute path inside the module)
TARGETS = [
    ("datagen.sample_corpus", "datagen", "sample_corpus"),
    ("datagen.make_nbest_fixture", "datagen", "make_nbest_fixture"),
    ("vocab.build_vocabulary", "vocab", "build_vocabulary"),
    ("vocab.load_corpus", "vocab", "load_corpus"),
    ("ngram.train_kn", "ngram", "train_kn"),
    ("ngram.export_arpa", "ngram", "export_arpa"),
    ("ngram.import_arpa", "ngram", "import_arpa"),
    ("ngram.conditional_logprob", "ngram", "NgramModel.conditional_logprob"),
    ("ngram.sentence_logprob", "ngram", "NgramModel.sentence_logprob"),
    ("rnnlm.train_bptt", "rnnlm", "train_bptt"),
    ("rnnlm.loss_and_grads", "rnnlm", "loss_and_grads"),
    ("rnnlm.corpus_perplexity", "rnnlm", "corpus_perplexity"),
    ("rnnlm.forward_step", "rnnlm", "forward_step"),
    ("rnnlm.log_softmax", "rnnlm", "log_softmax"),
    ("rnnlm.save_checkpoint", "rnnlm", "save_checkpoint"),
    ("rnnlm.load_checkpoint", "rnnlm", "load_checkpoint"),
    ("skipgram.train_skipgram", "skipgram", "train_skipgram"),
    ("skipgram.nearest_in_shortlist", "skipgram", "nearest_in_shortlist"),
    ("skipgram.save_w2v_text", "skipgram", "save_w2v_text"),
    ("skipgram.load_w2v_text", "skipgram", "load_w2v_text"),
    ("expansion.expand_with_embeddings", "expansion", "expand_with_embeddings"),
    ("expansion.score_tokens", "expansion", "FullVocabScorer.score_tokens"),
    ("expansion.word_logprob", "expansion", "FullVocabScorer.word_logprob"),
    ("rescoring.parse_nbest", "rescoring", "parse_nbest"),
    ("rescoring.rescore", "rescoring", "rescore"),
    ("rescoring.wer", "rescoring", "wer"),
    ("rescoring.run_pipeline", "rescoring", "run_pipeline"),
    ("cli.main", "cli", "main"),
]

LAYERS = ("datagen", "vocab", "ngram", "rnnlm", "skipgram", "expansion", "rescoring", "cli")


def _tokens(corpus) -> int:
    return sum(len(sentence) for sentence in corpus)


# Work counted at a span's boundary, from the call's bound arguments and
# result.  A probe that fails marks its counters missing.
PROBES = {
    "ngram.train_kn": lambda a, r: {"tokens": _tokens(a["corpus"])},
    "ngram.import_arpa": lambda a, r: {"bytes": os.path.getsize(a["path"])},
    # one step per token plus the sentence end, for every epoch that ran
    "rnnlm.train_bptt": lambda a, r: {
        "tokens": (_tokens(a["corpus"]) + len(a["corpus"])) * len(r[1])
    },
    "skipgram.train_skipgram": lambda a, r: {
        "tokens": _tokens(a["corpus"]) * a["config"].epochs
    },
    "rescoring.rescore": lambda a, r: {"hyps": sum(len(h) for h in a["nbest"].values())},
    "expansion.expand_with_embeddings": lambda a, r: {
        "new_words": len(r[1].expanded),
        "skipped_words": len(r[1].skipped),
    },
}

PREFIX_ATTR = "_lmbench_prefix"


@dataclass
class FunctionStats:
    calls: int = 0
    self_s: float = 0.0
    incl_s: float = 0.0
    errors: int = 0
    work: dict[str, float] = field(default_factory=dict)


@dataclass
class PhaseSummary:
    functions: dict[str, FunctionStats]
    failed_probes: set[str]


class Tracer:
    """Installs span-recording wrappers and summarises one phase at a time."""

    def __init__(self):
        self.keys = [key for key, _, _ in TARGETS]
        self.missing: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        # spans of the current phase, as parallel arrays
        self._name = array("H")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._error = array("b")
        self._stack: list[int] = []
        self._work: dict[str, dict[str, float]] = {}
        self._failed_probes: set[str] = set()
        self._prefixes: dict[tuple[int, int, int, int], int] = {}
        self._weights_version = 0

    # ------------------------------------------------------------ install

    def install(self) -> None:
        if self._patches:
            return
        modules = {name: importlib.import_module(f"lmexpand.{name}") for name in LAYERS}
        modules[""] = importlib.import_module("lmexpand")
        self.missing = []
        for idx, (key, mod_name, attr) in enumerate(TARGETS):
            owner = modules[mod_name]
            *path, leaf = attr.split(".")
            try:
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except AttributeError:
                self.missing.append(key)
                continue
            wrapper = self._wrap(idx, key, original)
            self._patch(owner, leaf, wrapper)
            if not path:
                # rebind copies imported by name into other modules
                for mod in modules.values():
                    if mod is not owner and getattr(mod, leaf, None) is original:
                        self._patch(mod, leaf, wrapper)

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self._patches):
            setattr(owner, leaf, original)
        self._patches = []

    def _patch(self, owner, leaf: str, wrapper) -> None:
        self._patches.append((owner, leaf, getattr(owner, leaf)))
        setattr(owner, leaf, wrapper)

    def _wrap(self, idx: int, key: str, fn):
        names, parents, starts, ends, errors = (
            self._name, self._parent, self._start, self._end, self._error
        )
        stack = self._stack
        clock = time.perf_counter
        after = self._after_call(key, fn)

        def wrapper(*args, **kwargs):
            i = len(starts)
            names.append(idx)
            parents.append(stack[-1] if stack else -1)
            errors.append(0)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[i] = 1
                raise
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", key)
        return wrapper

    def _after_call(self, key: str, fn):
        if key == "rnnlm.forward_step":
            return self._count_prefix
        if key == "rnnlm.loss_and_grads":
            return self._new_weights
        probe = PROBES.get(key)
        if probe is None:
            return None
        try:
            signature = inspect.signature(fn)
        except (TypeError, ValueError):
            signature = None

        def after(args, kwargs, result):
            if key in self._failed_probes:
                return
            try:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counts = probe(bound.arguments, result)
            except Exception:
                self._failed_probes.add(key)
                return
            work = self._work.setdefault(key, {})
            for name, value in counts.items():
                work[name] = work.get(name, 0.0) + value

        return after

    def _new_weights(self, args, kwargs, result) -> None:
        """A training step is about to change the weights in place, so no
        prefix scored before it can be shared after it."""
        self._weights_version += 1

    def _count_prefix(self, args, kwargs, result) -> None:
        """Give each returned state the id of the token prefix it encodes.

        A state the tracer has not seen (a fresh zero state) is the empty
        prefix.  Prefixes are kept per model and weights version, so the
        same words fed to the unexpanded and the expanded model, or to one
        model before and after a training step, count twice.
        """
        key = "rnnlm.forward_step"
        if key in self._failed_probes:
            return
        try:
            model, word, state = args[0], args[1], args[2]
            parent = getattr(state, PREFIX_ATTR, 0)
            node_key = (id(model), self._weights_version, parent, int(word))
            node = self._prefixes.get(node_key)
            if node is None:
                node = len(self._prefixes) + 1
                self._prefixes[node_key] = node
            setattr(result.state, PREFIX_ATTR, node)
        except Exception:
            self._failed_probes.add(key)

    # ------------------------------------------------------------- phases

    def begin_phase(self) -> None:
        for arr in (self._name, self._parent, self._start, self._end, self._error):
            del arr[:]
        self._stack.clear()
        self._work = {}
        self._failed_probes = set()
        self._prefixes = {}
        self._weights_version = 0

    def end_phase(self) -> PhaseSummary:
        n = len(self._start)
        duration = [self._end[i] - self._start[i] for i in range(n)]
        child_time = [0.0] * n
        for i in range(n):
            parent = self._parent[i]
            if parent >= 0:
                child_time[parent] += duration[i]
        functions: dict[str, FunctionStats] = {}
        for i in range(n):
            key = self.keys[self._name[i]]
            stats = functions.get(key)
            if stats is None:
                stats = functions[key] = FunctionStats()
            stats.calls += 1
            stats.self_s += duration[i] - child_time[i]
            stats.incl_s += duration[i]
            stats.errors += self._error[i]
        for key, work in self._work.items():
            functions.setdefault(key, FunctionStats()).work.update(work)
        forward = functions.get("rnnlm.forward_step")
        if forward is not None:
            forward.work["prefixes"] = float(len(self._prefixes))
        return PhaseSummary(functions, set(self._failed_probes))


# ------------------------------------------------------------ per-layer metrics


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


# quantity -> (unit, better, value of one phase's FunctionStats).  Rates divide
# the work by inclusive time; ``s`` is self time.
QUANTITIES = {
    "s": ("s", "lower", lambda f: f.self_s),
    "calls": ("count", "lower", lambda f: float(f.calls)),
    "tok_per_s": ("tok/s", "higher", lambda f: _rate(f.work["tokens"], f.incl_s)),
    "mb_per_s": ("MB/s", "higher", lambda f: _rate(f.work["bytes"] / 1e6, f.incl_s)),
    "steps_per_s": ("steps/s", "higher", lambda f: _rate(f.calls, f.self_s)),
    "hyps_per_s": ("hyps/s", "higher", lambda f: _rate(f.work["hyps"], f.incl_s)),
    "useful_ratio": ("ratio", "higher", lambda f: f.work["prefixes"] / f.calls),
    "new_words": ("count", "higher", lambda f: f.work["new_words"]),
    "skipped_words": ("count", "lower", lambda f: f.work["skipped_words"]),
}

# (metric, function key, quantity)
FUNCTION_METRICS = [
    ("datagen.sample_corpus.s", "datagen.sample_corpus", "s"),
    ("datagen.make_nbest_fixture.s", "datagen.make_nbest_fixture", "s"),
    ("vocab.build_vocabulary.s", "vocab.build_vocabulary", "s"),
    ("vocab.load_corpus.s", "vocab.load_corpus", "s"),
    ("ngram.train_kn.s", "ngram.train_kn", "s"),
    ("ngram.train_kn.tok_per_s", "ngram.train_kn", "tok_per_s"),
    ("ngram.export_arpa.s", "ngram.export_arpa", "s"),
    ("ngram.import_arpa.s", "ngram.import_arpa", "s"),
    ("ngram.import_arpa.mb_per_s", "ngram.import_arpa", "mb_per_s"),
    ("ngram.conditional_logprob.calls", "ngram.conditional_logprob", "calls"),
    ("ngram.conditional_logprob.s", "ngram.conditional_logprob", "s"),
    ("ngram.sentence_logprob.s", "ngram.sentence_logprob", "s"),
    ("rnnlm.train_bptt.s", "rnnlm.train_bptt", "s"),
    ("rnnlm.train_bptt.tok_per_s", "rnnlm.train_bptt", "tok_per_s"),
    ("rnnlm.loss_and_grads.calls", "rnnlm.loss_and_grads", "calls"),
    ("rnnlm.loss_and_grads.s", "rnnlm.loss_and_grads", "s"),
    ("rnnlm.corpus_perplexity.s", "rnnlm.corpus_perplexity", "s"),
    ("rnnlm.forward_step.calls", "rnnlm.forward_step", "calls"),
    ("rnnlm.forward_step.s", "rnnlm.forward_step", "s"),
    ("rnnlm.forward_step.steps_per_s", "rnnlm.forward_step", "steps_per_s"),
    ("rnnlm.forward_step.useful_ratio", "rnnlm.forward_step", "useful_ratio"),
    ("rnnlm.log_softmax.s", "rnnlm.log_softmax", "s"),
    ("rnnlm.save_checkpoint.s", "rnnlm.save_checkpoint", "s"),
    ("rnnlm.load_checkpoint.s", "rnnlm.load_checkpoint", "s"),
    ("skipgram.train_skipgram.s", "skipgram.train_skipgram", "s"),
    ("skipgram.train_skipgram.tok_per_s", "skipgram.train_skipgram", "tok_per_s"),
    ("skipgram.nearest_in_shortlist.calls", "skipgram.nearest_in_shortlist", "calls"),
    ("skipgram.nearest_in_shortlist.s", "skipgram.nearest_in_shortlist", "s"),
    ("skipgram.save_w2v_text.s", "skipgram.save_w2v_text", "s"),
    ("skipgram.load_w2v_text.s", "skipgram.load_w2v_text", "s"),
    ("expansion.expand_with_embeddings.s", "expansion.expand_with_embeddings", "s"),
    ("expansion.new_words", "expansion.expand_with_embeddings", "new_words"),
    ("expansion.skipped_words", "expansion.expand_with_embeddings", "skipped_words"),
    ("expansion.score_tokens.calls", "expansion.score_tokens", "calls"),
    ("expansion.score_tokens.s", "expansion.score_tokens", "s"),
    ("expansion.word_logprob.s", "expansion.word_logprob", "s"),
    ("rescoring.parse_nbest.s", "rescoring.parse_nbest", "s"),
    ("rescoring.rescore.s", "rescoring.rescore", "s"),
    ("rescoring.rescore.hyps_per_s", "rescoring.rescore", "hyps_per_s"),
    ("rescoring.wer.s", "rescoring.wer", "s"),
    ("rescoring.run_pipeline.s", "rescoring.run_pipeline", "s"),
    ("cli.main.s", "cli.main", "s"),
]

# measured by the run itself rather than at a span
RUN_METRICS = [
    ("skipgram.neighbor_precision", "ratio", "higher"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
]


def metric_specs() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    specs = [(name, *QUANTITIES[q][:2]) for name, _, q in FUNCTION_METRICS]
    specs += [(f"{layer}.errors", "count", "lower") for layer in LAYERS]
    return specs + RUN_METRICS


def layer_metrics(
    setup: PhaseSummary, iterations: list[PhaseSummary], missing: list[str]
) -> tuple[dict[str, float], list[str]]:
    """Per-layer values and the names that could not be measured.

    A function that runs in the timed iterations reports its median over
    them; one that runs only while setting up reports the set-up phase.
    A function that never runs reports zero.
    """
    values: dict[str, float] = {}
    unmeasured: list[str] = []
    for name, key, quantity in FUNCTION_METRICS:
        if key in missing:
            unmeasured.append(name)
            continue
        in_loop = any(key in phase.functions for phase in iterations)
        phases = iterations if in_loop else [setup]
        value_of = QUANTITIES[quantity][2]
        try:
            samples = [
                value_of(phase.functions[key]) if key in phase.functions else 0.0
                for phase in phases
                if key not in phase.failed_probes
            ]
        except (KeyError, ZeroDivisionError):
            samples = []
        if len(samples) != len(phases):
            unmeasured.append(name)
            continue
        values[name] = float(statistics.median(samples))
    for layer in LAYERS:
        values[f"{layer}.errors"] = float(
            sum(
                stats.errors
                for phase in [setup, *iterations]
                for key, stats in phase.functions.items()
                if key.split(".", 1)[0] == layer
            )
        )
    return values, unmeasured
