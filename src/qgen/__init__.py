"""Desk-scale question generation toolkit.

Pipeline: invert QA data into (answer * passage) -> question examples,
preprocess with indexed entity tags and WordPiece sub-words, train a small
encoder-decoder transformer, decode with beam search, and evaluate with
word-level edit distance.
"""

from .evaluation import (
    CorpusReport,
    EditAlignment,
    corpus_report,
    edit_alignment,
    first_word_frequency,
    word_count_histogram,
)
from .generation import (
    BeamHypothesis,
    GenerationConfig,
    beam_search,
    greedy_decode,
    substitute_entities,
)
from .model import ModelConfig, TransformerModel, attention, multi_head, positional_encoding
from .preprocess import (
    ENTITY_TAGS,
    EntitySpan,
    GazetteerTagger,
    TaggedPassage,
    default_data_path,
    load_stopwords,
    postprocess_question,
    preprocess_pair,
    remove_stopwords,
    replace_with_indexed_tags,
    split_words,
    tag_entities,
)
from .squad import (
    Bucket,
    InvertedExample,
    SquadRecord,
    bucket_by_length,
    invert,
    load_squad,
    select_answer,
)
from .tensor import Parameter, Tensor, backward, no_grad
from .training import TrainConfig, TrainState, train, train_step
from .wordpiece import (
    TokenSequence,
    Vocabulary,
    detokenize,
    load_vocabulary,
    tokenize,
)

__version__ = "0.1.0"
