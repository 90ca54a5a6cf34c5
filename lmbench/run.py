"""lmexpand benchmark: model training and n-best rescoring, closed loop.

    python3 lmbench/run.py --workload train --seed 0 --seconds 20 --trace 0

One process runs one workload: it sets the workload's inputs up several
times (reporting the median as ``setup_s``), then repeats one iteration
through the library's public entry points until ``--seconds`` have passed,
one call after another with no concurrency.  Every iteration's outputs are
checked; a failed check or an exception counts as a failed iteration and the
run goes on.  With ``--trace 1`` the run alternates untraced and traced
iterations and reports per-layer metrics instead (see ``tracing.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print every metric by name with its unit, the check verdicts and the
machine.  ``README.md`` next to this file explains the workloads and which
layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

from tracing import Tracer, layer_metrics, metric_specs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".lmbench_work"

WORKLOADS = ("train", "rescore-uniform", "rescore-deep")

# The desk model shapes of the acceptance suite's desk experiment.
EMBED_DIM, HIDDEN_DIM, LAYERS = 48, 96, 1
UNROLL, BATCH, LSTM_LR, CLIP = 16, 32, 0.6, 5.0
SG_DIM, SG_WINDOW = 48, 5
NGRAM_ORDER = 3
SHORTLIST, FULL_VOCAB = 300, 600
LM_SCALE = 8
NEIGHBORS = 8
# relative tolerance of a reloaded checkpoint's validation perplexity
SCORE_RTOL = 1e-12


@dataclass(frozen=True)
class Scale:
    train_tokens: int
    val_tokens: int
    test_tokens: int  # per n-best fixture
    fixtures: int  # independent n-best fixtures; a rescoring iteration takes one
    depth: int  # hypotheses per utterance
    sg_epochs: int
    lstm_epochs: int
    setup_repeats: int


# Fixtures hold about 50 utterances, so that one pipeline takes about a
# second.  They must stay small anyway: the number of words 1-best
# extraction expands grows with a fixture, and at about 300 utterances the
# enlarged softmax costs the expanded model more perplexity than the new
# words gain.  Quality is pooled over all fixtures so that it varies little
# from seed to seed.
FULL = Scale(
    train_tokens=10_000,
    val_tokens=1_500,
    test_tokens=350,
    fixtures=8,
    depth=10,
    sg_epochs=3,
    lstm_epochs=2,
    setup_repeats=3,
)
SMOKE = Scale(
    train_tokens=3_000,
    val_tokens=300,
    test_tokens=120,
    fixtures=1,
    depth=6,
    sg_epochs=1,
    lstm_epochs=1,
    setup_repeats=1,
)

# name -> (unit, better); every workload reports all of them.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "val_ppl_lstm": ("ppl", "lower"),
    "val_ppl_kn": ("ppl", "lower"),
    "ppl_ngram": ("ppl", "lower"),
    "ppl_rnnlm": ("ppl", "lower"),
    "ppl_expanded": ("ppl", "lower"),
    "wer_ngram": ("%", "lower"),
    "wer_rnnlm": ("%", "lower"),
    "wer_expanded": ("%", "lower"),
}

SYSTEMS = {"ngram": "ngram", "rnnlm": "rnnlm", "rnnlm-expanded": "expanded"}


def load_package():
    """Import lmexpand from this checkout's ``src`` (it need not be installed)."""
    if not (SRC / "lmexpand" / "__init__.py").is_file():
        raise SystemExit(f"lmbench: no lmexpand package under {SRC}")
    sys.path.insert(0, str(SRC))
    import lmexpand.cli
    import lmexpand.datagen
    import lmexpand.ngram
    import lmexpand.rescoring
    import lmexpand.rnnlm
    import lmexpand.skipgram
    import lmexpand.vocab

    return lmexpand


# ------------------------------------------------------------------ inputs


@dataclass
class Inputs:
    grammar: object
    train: list
    val: list
    vocab: object
    fixtures: list[tuple[Path, Path]]  # (n-best, references) per fixture


@dataclass
class Models:
    arpa: Path
    vectors: Path
    checkpoint: Path
    history: list[float]
    ngram: object  # the imported ARPA model
    embeddings: object  # the reloaded vectors
    trained_embeddings: object
    trained_model: object
    reloaded_model: object


def seeds(seed: int, scale: Scale) -> dict:
    """Sampling seeds; seed 0 gives the desk seeds (corpora 1/2/3, fixture 4).

    The grammar is always the desk grammar (seed 0): the seed draws new text
    from the same language.
    """
    stride = 2 + 2 * scale.fixtures
    base = stride * seed
    return {
        "train": base + 1,
        "val": base + 2,
        "fixtures": [(base + 3 + 2 * j, base + 4 + 2 * j) for j in range(scale.fixtures)],
    }


def make_inputs(lm, seed: int, scale: Scale, workdir: Path) -> Inputs:
    """Sample the corpora and write them, the vocabulary and the n-best fixtures."""
    datagen, vocab, rescoring = lm.datagen, lm.vocab, lm.rescoring
    s = seeds(seed, scale)
    grammar = datagen.make_template_grammar(seed=0)
    corpora = {}
    for name in ("train", "val"):
        tokens = scale.train_tokens if name == "train" else scale.val_tokens
        path = workdir / f"{name}.txt"
        vocab.save_corpus(datagen.sample_corpus(grammar, tokens, seed=s[name]), path)
        corpora[name] = vocab.load_corpus(path)
    v = vocab.build_vocabulary(corpora["train"], SHORTLIST, FULL_VOCAB)
    fixtures = []
    for j, (test_seed, fixture_seed) in enumerate(s["fixtures"]):
        test = datagen.sample_corpus(grammar, scale.test_tokens, seed=test_seed)
        nbest, refs = datagen.make_nbest_fixture(
            grammar, test, v, depth=scale.depth, seed=fixture_seed
        )
        paths = (workdir / f"test{j}.nbest", workdir / f"test{j}.refs")
        rescoring.write_nbest(nbest, paths[0])
        rescoring.write_transcripts(refs, paths[1])
        fixtures.append(paths)
    return Inputs(grammar, corpora["train"], corpora["val"], v, fixtures)


def train_models(lm, inputs: Inputs, scale: Scale, workdir: Path):
    """corpus -> KN (ARPA round trip), skip-gram (text round trip), LSTM (checkpoint).

    A generator that pauses after each model, so that machine speed can be
    gauged there (see ``ReferenceKernel``); it returns the ``Models``.
    """
    ngram, skipgram, rnnlm = lm.ngram, lm.skipgram, lm.rnnlm
    arpa, vectors, checkpoint = (
        workdir / "model.arpa",
        workdir / "vectors.txt",
        workdir / "model.bin",
    )
    with warnings.catch_warnings():
        # degenerate counts-of-counts on small corpora warn and fall back to 0.5
        warnings.simplefilter("ignore", RuntimeWarning)
        kn = ngram.train_kn(inputs.train, inputs.vocab, order=NGRAM_ORDER)
    ngram.export_arpa(kn, arpa)
    kn_loaded = ngram.import_arpa(arpa)
    yield

    sg_config = skipgram.SkipgramConfig(
        dim=SG_DIM, window=SG_WINDOW, epochs=scale.sg_epochs, seed=0
    )
    emb = skipgram.train_skipgram(inputs.train, sg_config)
    skipgram.save_w2v_text(emb, vectors)
    emb_loaded = skipgram.load_w2v_text(vectors)
    yield

    model = rnnlm.init_model(inputs.vocab, EMBED_DIM, HIDDEN_DIM, LAYERS, seed=0)
    config = rnnlm.TrainConfig(
        unroll=UNROLL,
        dropout=0.0,
        lr=LSTM_LR,
        clip=CLIP,
        epochs=scale.lstm_epochs,
        batch=BATCH,
        seed=0,
    )
    model, history = rnnlm.train_bptt(model, inputs.train, config, inputs.val)
    rnnlm.save_checkpoint(model, str(checkpoint))
    reloaded = rnnlm.load_checkpoint(str(checkpoint))
    return Models(
        arpa, vectors, checkpoint, history, kn_loaded, emb_loaded, emb, model, reloaded
    )


def write_pipeline_config(
    models: Models, fixture: tuple[Path, Path], path: Path, deep: bool, depth: int
) -> Path:
    settings = {
        "nbest": fixture[0],
        "refs": fixture[1],
        "model": models.checkpoint,
        "vectors": models.vectors,
        "arpa": models.arpa,
        "lm_scale": LM_SCALE,
        "report": path.with_suffix(".json"),
    }
    if deep:
        settings.update(policy="ngram", extract_n=depth, weighted="true")
    else:
        settings.update(policy="uniform", extract_n=1)
    path.write_text("".join(f"{k} = {v}\n" for k, v in settings.items()), encoding="utf-8")
    return path


# ---------------------------------------------------------------- workloads


def file_digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


def prefix_profile(sentences) -> tuple[int, int]:
    """(forward steps, distinct token prefixes) to score every sentence.

    A sentence of n tokens takes n + 1 steps (begin token, then each word);
    a step whose prefix an earlier step already had could be shared.
    """
    steps = 0
    prefixes: set[tuple[str, ...]] = set()
    for words in sentences:
        words = tuple(words)
        steps += len(words) + 1
        prefixes.update(words[:i] for i in range(len(words) + 1))
    return steps, len(prefixes)


def model_bytes(rnnlm, model) -> list:
    """The vocabulary and every named parameter, in logical (C) element order."""
    params = [(name, p.dtype, p.shape, p.tobytes()) for name, p in rnnlm.named_parameters(model)]
    return [model.vocab.to_text(), *params]


def neighbor_precision(lm, models: Models, inputs: Inputs) -> float:
    """Share of top-k shortlist neighbours of out-of-shortlist grammar words
    that belong to the query word's grammar class."""
    emb, vocab, word_class = models.embeddings, inputs.vocab, inputs.grammar.word_class
    hits = total = 0
    for word, (cls, _) in word_class.items():
        if vocab.is_shortlist(word) or word not in emb:
            continue
        for wid, _ in lm.skipgram.nearest_in_shortlist(emb, word, vocab, k=NEIGHBORS):
            total += 1
            hits += word_class.get(vocab.decode(wid), (None,))[0] == cls
    return hits / total


def run_pipeline(lm, config: Path) -> bytes:
    """Run ``lmexpand pipeline`` through the CLI entry point; returns the report."""
    report = config.with_suffix(".json")
    report.unlink(missing_ok=True)
    with contextlib.redirect_stdout(io.StringIO()):
        code = lm.cli.main(["pipeline", "--config", str(config)])
    if code != 0:
        raise RuntimeError(f"lmexpand pipeline exited with {code} for {config.name}")
    return report.read_bytes()


def pooled_quality(lm, reports: dict[int, bytes], fixtures: list[tuple[Path, Path]]) -> dict:
    """Perplexity and WER of each system over the given fixtures together.

    Perplexity pools log-likelihoods weighted by the scored tokens (words
    plus one sentence end each); WER pools the errors over reference words.
    """
    loglik: dict[str, float] = {}
    errors: dict[str, int] = {}
    scored = ref_words = 0
    for j, raw in reports.items():
        refs = [w for w in lm.rescoring.load_transcripts(fixtures[j][1]).values() if w]
        n_scored = sum(len(w) + 1 for w in refs)
        scored += n_scored
        ref_words += sum(len(w) for w in refs)
        for row in json.loads(raw)["systems"]:
            name = SYSTEMS[row["system"]]
            loglik[name] = loglik.get(name, 0.0) + n_scored * math.log(row["perplexity"])
            errors[name] = (
                errors.get(name, 0) + row["substitutions"] + row["insertions"] + row["deletions"]
            )
    out = {}
    for name in SYSTEMS.values():
        out[f"ppl_{name}"] = math.exp(loglik[name] / scored)
        out[f"wer_{name}"] = 100.0 * errors[name] / ref_words
    return out


class Workload:
    """Inputs set up once, then ``iterate`` again and again.

    ``setup`` and ``iterate`` are generators like ``train_models``; ``check``
    returns one verdict per check, ``finish`` the model-quality metrics.
    """

    min_iterations = 1

    def __init__(self, lm, seed: int, scale: Scale, workdir: Path):
        self.lm, self.seed, self.scale, self.workdir = lm, seed, scale, workdir
        self.reports: dict[int, bytes] = {}  # first report of each fixture
        self.notes: dict[str, list[bool]] = {}  # observed per iteration, not checked
        self.summaries = []  # trace summaries of the traced iterations

    def pipeline_configs(self, deep: bool) -> list[Path]:
        return [
            write_pipeline_config(
                self.models, fixture, self.workdir / f"pipeline{j}.cfg", deep, self.scale.depth
            )
            for j, fixture in enumerate(self.inputs.fixtures)
        ]

    def finish(self) -> dict[str, float]:
        """End-to-end quality of the models and fixtures this run used."""
        return {
            "val_ppl_lstm": self.models.history[-1],
            "val_ppl_kn": self.lm.ngram.ngram_perplexity(self.models.ngram, self.inputs.val),
            **pooled_quality(self.lm, self.reports, self.inputs.fixtures),
        }


class TrainWorkload(Workload):
    """corpus -> models; the training kernels and the writers do the work."""

    def __init__(self, *args):
        super().__init__(*args)
        self.reference: str | None = None  # digest of the first trained models

    def setup(self):
        yield from ()  # a set-up without pauses
        self.inputs = make_inputs(self.lm, self.seed, self.scale, self.workdir)

    def prefix_property(self) -> tuple[str, int, int]:
        return ("validation corpus", *prefix_profile(self.inputs.val))

    def iterate(self, index: int):
        return (yield from train_models(self.lm, self.inputs, self.scale, self.workdir))

    def check(self, models: Models) -> dict[str, bool]:
        import numpy as np

        self.models = models
        rnnlm = self.lm.rnnlm
        trained, reloaded = models.trained_model, models.reloaded_model
        reloaded_ppl = rnnlm.corpus_perplexity(reloaded, self.inputs.val)
        # the reloaded matrices are Fortran-ordered, so BLAS may sum in another
        # order and the score may differ from the trained model's in the last bit
        self.notes.setdefault("checkpoint_score_bitwise", []).append(
            reloaded_ppl == models.history[-1]
        )
        same_parameters = model_bytes(rnnlm, trained) == model_bytes(rnnlm, reloaded)
        vectors = models.trained_embeddings
        encoded = np.array(
            [[float(format(v, ".9g")) for v in row] for row in vectors.vectors]
        )
        digest = file_digest([models.arpa, models.vectors, models.checkpoint])
        digest += repr(models.history)
        self.reference = self.reference or digest
        return {
            "checkpoint_params_bitwise": same_parameters,
            "checkpoint_reload_score": math.isclose(
                reloaded_ppl, models.history[-1], rel_tol=SCORE_RTOL, abs_tol=0.0
            ),
            "w2v_roundtrip_exact": models.embeddings.words == vectors.words
            and models.embeddings.vectors.tobytes() == encoded.tobytes(),
            "artifacts_identical": digest == self.reference,
        }

    def finish(self) -> dict[str, float]:
        # the paper's comparison on the models the last iteration trained
        self.reports = {
            j: run_pipeline(self.lm, config)
            for j, config in enumerate(self.pipeline_configs(deep=False))
        }
        return super().finish()


class RescoreWorkload(Workload):
    """One ``lmexpand pipeline`` per iteration, taking the fixtures in turn."""

    def __init__(self, *args, deep: bool):
        super().__init__(*args)
        self.deep = deep
        # a run rescores every fixture at least once
        self.min_iterations = self.scale.fixtures

    def setup(self):
        self.inputs = make_inputs(self.lm, self.seed, self.scale, self.workdir)
        yield
        self.models = yield from train_models(self.lm, self.inputs, self.scale, self.workdir)
        self.configs = self.pipeline_configs(self.deep)

    def prefix_property(self) -> tuple[str, int, int]:
        nbest = [
            hyp.words
            for nbest_path, _ in self.inputs.fixtures
            for hyps in self.lm.rescoring.parse_nbest(nbest_path).values()
            for hyp in hyps
        ]
        return ("n-best text", *prefix_profile(nbest))

    def iterate(self, index: int):
        yield from ()  # one pipeline, no pauses
        j = index % len(self.configs)
        return j, run_pipeline(self.lm, self.configs[j])

    def check(self, outcome: tuple[int, bytes]) -> dict[str, bool]:
        j, report = outcome
        first = self.reports.setdefault(j, report)
        verdicts = {"report_identical": report == first}
        if not self.deep:
            # over every fixture rescored so far
            q = pooled_quality(self.lm, self.reports, self.inputs.fixtures)
            verdicts["paper_direction"] = (
                q["ppl_expanded"] < q["ppl_rnnlm"] and q["wer_expanded"] <= q["wer_rnnlm"]
            )
        return verdicts


def make_workload(lm, name: str, seed: int, scale: Scale, workdir: Path) -> Workload:
    if name == "train":
        return TrainWorkload(lm, seed, scale, workdir)
    return RescoreWorkload(lm, seed, scale, workdir, deep=name == "rescore-deep")


# ------------------------------------------------------------- measurement

# Machine speed.  CPU time tracks wall time on the machine this benchmark was
# defined on, yet the same work takes up to twice as long from one second to
# the next, because other tenants share the physical cores.  So every timed
# interval is bracketed by a fixed reference kernel that runs no lmexpand
# code, and ``setup_s`` and ``wall_s`` are reported in seconds at reference
# speed: interval * REFERENCE_S / mean(kernel seconds before, after).  The
# raw medians are printed alongside.
REFERENCE_S = 0.07


class ReferenceKernel:
    """A fixed single-threaded mix of small numpy steps and dict work."""

    def __init__(self):
        import numpy as np

        self.np = np
        rng = np.random.default_rng(0)
        self.w = rng.standard_normal((384, 144)) * 0.05
        self.e = rng.standard_normal((300, 96)) * 0.05

    def seconds(self) -> float:
        np = self.np
        start = time.perf_counter()
        h = np.zeros(96)
        c = np.zeros(96)
        counts: dict = {}
        for i in range(1600):
            z = self.w @ np.concatenate([self.e[i % 300, :48], h])
            g = 1.0 / (1.0 + np.exp(-z[:288]))
            c = g[96:192] * c + g[:96] * np.tanh(z[288:])
            h = g[192:288] * np.tanh(c)
            best = int(np.argmax(np.einsum("vd,d->v", self.e, h)))
            counts[best] = counts.get(best, 0) + 1
            for j in range(16):
                counts[(i, j & 3)] = j
        return time.perf_counter() - start

    def timed(self, phases):
        """Run a generator to its end, gauging speed before it, at each pause
        and after it; returns (its value, raw seconds, reference seconds)."""
        raw = scaled = 0.0
        before = self.seconds()
        while True:
            start = time.perf_counter()
            try:
                next(phases)
                done, value = False, None
            except StopIteration as stop:
                done, value = True, stop.value
            elapsed = time.perf_counter() - start
            after = self.seconds()
            raw += elapsed
            scaled += elapsed * REFERENCE_S / ((before + after) / 2)
            if done:
                return value, raw, scaled
            before = after


def finite_median(values) -> float:
    """Median of the values measured; failed iterations carry NaN."""
    kept = [v for v in values if math.isfinite(v)]
    return statistics.median(kept) if kept else math.nan


def drain(phases):
    """Run a generator to its end untimed; returns its value."""
    while True:
        try:
            next(phases)
        except StopIteration as stop:
            return stop.value


@dataclass
class Iteration:
    wall_s: float
    ref_wall_s: float  # at reference speed
    ok: bool
    verdicts: dict[str, bool]
    error: str | None = None


def run_iteration(
    workload: Workload, index: int, kernel: ReferenceKernel, tracer=None
) -> Iteration:
    """Time one iteration, then check it; nothing here aborts the run.

    With a tracer, only the iteration itself is traced, not its checks.
    """
    if tracer is not None:
        tracer.install()
        tracer.begin_phase()
    try:
        outcome, wall, ref_wall = kernel.timed(workload.iterate(index))
    except Exception as err:  # a failed iteration is counted, not raised
        return Iteration(math.nan, math.nan, False, {}, f"{type(err).__name__}: {err}")
    finally:
        if tracer is not None:
            workload.summaries.append(tracer.end_phase())
            tracer.uninstall()
    try:
        verdicts = workload.check(outcome)
    except Exception as err:
        return Iteration(wall, ref_wall, False, {}, f"check raised {type(err).__name__}: {err}")
    return Iteration(wall, ref_wall, all(verdicts.values()), verdicts)


def measure(
    workload: Workload, seconds: float, kernel: ReferenceKernel, tracer=None
) -> tuple[list[Iteration], list[bool]]:
    """Iterate until ``seconds`` have passed.

    With a tracer, each input is run twice in a row, untraced and then
    traced.  Returns the iterations and which of them were traced.
    """
    iterations, traced = [], []
    deadline = time.perf_counter() + seconds
    minimum = 2 if tracer else workload.min_iterations
    while len(iterations) < minimum or time.perf_counter() < deadline:
        i = len(iterations)
        on = tracer is not None and i % 2 == 1
        index = i // 2 if tracer else i
        iterations.append(run_iteration(workload, index, kernel, tracer if on else None))
        traced.append(on)
    return iterations, traced


def blas_threads() -> str:
    """The OpenBLAS thread count numpy runs with, or ``unknown``."""
    import numpy as np

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def provenance() -> dict[str, str]:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    sha, dirty = "unknown", "unknown"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, check=True, timeout=30,
            ).stdout.strip()
            status = subprocess.run(
                ["git", "-C", str(ROOT), "status", "--porcelain", "--untracked-files=no"],
                capture_output=True, text=True, check=True, timeout=30,
            ).stdout
            dirty = str(bool(status.strip())).lower()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": str(os.cpu_count()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "git_sha": sha,
        "git_dirty": dirty,
    }


def run(args) -> dict:
    lm = load_package()
    scale = SMOKE if args.smoke else FULL
    for key, value in provenance().items():
        print(f"machine {key}: {value}")
    print(f"workload {args.workload}: seed {args.seed}, {scale}")

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return measure_workload(lm, args, scale, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


def measure_workload(lm, args, scale: Scale, workdir: Path) -> dict:
    workload = make_workload(lm, args.workload, args.seed, scale, workdir)
    tracer = None
    kernel = ReferenceKernel()
    setup_times = []  # (raw, at reference speed) per set-up
    if args.trace:
        tracer = Tracer()
        tracer.install()
        tracer.begin_phase()
        drain(workload.setup())
        setup_summary = tracer.end_phase()
        tracer.uninstall()
    else:
        for _ in range(scale.setup_repeats):
            setup_times.append(kernel.timed(workload.setup())[1:])

    source, steps, distinct = workload.prefix_property()
    print(
        f"property {source}: {steps} forward steps, {distinct} distinct prefixes,"
        f" repeat share {1 - distinct / steps:.3f}"
    )

    iterations, traced = measure(workload, args.seconds, kernel, tracer)
    summaries = workload.summaries
    attempted = len(iterations)
    failed = sum(not it.ok for it in iterations)
    names = sorted({name for it in iterations for name in it.verdicts})
    for name in names:
        passed = sum(it.verdicts.get(name, False) for it in iterations)
        print(f"check {name}: {'PASS' if passed == attempted else 'FAIL'} ({passed}/{attempted})")
    for name, seen in workload.notes.items():
        print(f"note {name}: {sum(seen)}/{len(seen)} iterations")
    for it in iterations:
        if it.error:
            print(f"error: {it.error}")
    print(f"error_rate: {failed / attempted:.4f} ratio ({failed}/{attempted} iterations)")

    if tracer is not None:
        values, unmeasured = layer_metrics(setup_summary, summaries, tracer.missing)
        plain = finite_median(it.wall_s for it, on in zip(iterations, traced) if not on)
        with_trace = finite_median(it.wall_s for it, on in zip(iterations, traced) if on)
        overhead = with_trace - plain
        values["trace.overhead_s"] = overhead
        values["trace.overhead_share"] = overhead / plain
        values["skipgram.neighbor_precision"] = neighbor_precision(
            lm, workload.models, workload.inputs
        )
        print_trace_table(summaries, with_trace)
        if unmeasured:
            print(f"missing per-layer metrics: {', '.join(unmeasured)}")
        specs = [(name, unit) for name, unit, _ in metric_specs() if name in values]
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in specs}
        correct = failed == 0
    else:
        quality = workload.finish()
        print(
            f"raw medians: setup {statistics.median(t[0] for t in setup_times):.4f} s,"
            f" iteration {finite_median(it.wall_s for it in iterations):.4f} s"
        )
        values = {
            "setup_s": statistics.median(t[1] for t in setup_times),
            "wall_s": finite_median(it.ref_wall_s for it in iterations),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            **quality,
        }
        metrics = {
            name: {"value": float(values[name]), "unit": unit}
            for name, (unit, _) in END_TO_END.items()
        }
        correct = failed == 0 and all(math.isfinite(m["value"]) for m in metrics.values())
    for name, m in metrics.items():
        print(f"metric {name}: {m['value']:.6g} {m['unit']}")
    print(f"iterations: {attempted}")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def print_trace_table(summaries, traced_wall: float) -> None:
    """Per-function calls, self and inclusive seconds per traced iteration."""
    keys = sorted({k for s in summaries for k in s.functions})
    rows = []
    for key in keys:
        stats = [s.functions.get(key) for s in summaries]
        calls = statistics.median(f.calls if f else 0 for f in stats)
        self_s = statistics.median(f.self_s if f else 0.0 for f in stats)
        incl_s = statistics.median(f.incl_s if f else 0.0 for f in stats)
        rows.append((self_s, key, calls, incl_s))
    print(f"trace: {len(summaries)} traced iterations, median {traced_wall:.3f} s")
    print(f"trace {'function':<34} {'calls':>9} {'self_s':>9} {'incl_s':>9} {'self%':>6}")
    for self_s, key, calls, incl_s in sorted(rows, reverse=True):
        share = 100.0 * self_s / traced_wall
        print(f"trace {key:<34} {calls:>9.0f} {self_s:>9.4f} {incl_s:>9.4f} {share:>6.1f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests"
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
