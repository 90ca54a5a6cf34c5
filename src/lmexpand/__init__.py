"""Shortlist LSTM language modeling with post-hoc vocabulary expansion.

The toolkit trains a shortlist-limited LSTM language model, a modified
Kneser-Ney n-gram model and skip-gram word embeddings, then grows the
trained LSTM's vocabulary by synthesizing embedding columns for new words
from their nearest in-shortlist neighbors.  Full-vocabulary probabilities,
perplexity, n-best rescoring and word error rate close the loop.
"""

from .expansion import (
    CandidatePlan,
    ExpansionReport,
    FullVocabScorer,
    build_candidate_plan,
    expand_model,
    expand_with_embeddings,
    extract_oos_words,
    synthesize_vector,
)
from .ngram import NgramModel, export_arpa, import_arpa, ngram_perplexity, train_kn
from .rescoring import (
    Hypothesis,
    NBestList,
    RescoreConfig,
    WerResult,
    parse_nbest,
    rescore,
    run_pipeline,
    tune,
    wer,
    write_nbest,
)
from .rnnlm import (
    RnnLmModel,
    RnnState,
    StepOutput,
    TrainConfig,
    forward_step,
    init_model,
    load_checkpoint,
    perplexity,
    save_checkpoint,
    score_batch,
    score_ids,
    score_sentence,
    train_bptt,
    zero_state,
)
from .skipgram import (
    SkipgramConfig,
    WordEmbeddings,
    load_w2v_text,
    nearest_in_shortlist,
    save_w2v_text,
    train_skipgram,
)
from .vocab import Corpus, Vocabulary, build_vocabulary, load_corpus, save_corpus

__version__ = "0.1.0"
