"""notesum: data pipeline for clinical problem-list summarisation.

Builds concept-masked pre-training corpora from progress notes, generates
and filters paraphrase training pairs with self-debiased instruction
decoding, assembles fine-tuning datasets, and scores summaries with a
from-scratch ROUGE implementation.
"""

from .annotation import (
    AnnotatedSentence,
    EntitySpan,
    StandoffIndex,
    TermDictionary,
    annotate,
    annotate_sentence,
    load_dictionary,
    resolve_overlaps,
)
from .augment import (
    CueBigramLM,
    GeneratedPair,
    GenerationConfig,
    InstructionTemplate,
    LabelId,
    LanguageModel,
    TemplateSet,
    generate,
    generate_pair,
    instantiate_template,
    select_terms,
    self_debias_step,
    validate_terms,
)
from .corpus import (
    AnnotationConfig,
    CorpusStats,
    ProgressNote,
    build_pretrain_corpus,
    read_corpus,
    read_notes,
    write_corpus,
)
from .dataset import (
    CompositionMode,
    Provenance,
    TaskInstance,
    assemble_training_set,
    compose_input,
    truncate_tokens,
)
from .errors import (
    BackendError,
    ConfigurationError,
    DataError,
    InternalError,
    NotesumError,
    ParseError,
    TemplateError,
)
from .filtering import (
    EmbeddingProvider,
    FileEmbedding,
    FilterConfig,
    HashedRandomEmbedding,
    OneHotEmbedding,
    combined_score,
    filter_top_fraction,
    greedy_match_f1,
)
from .masking import (
    MaskDecision,
    MaskKind,
    MaskPolicyConfig,
    MaskedExample,
    apply_mask,
    choose_mask_source,
    reconstruct,
)
from .rouge import RougeScore, evaluate_corpus, rouge_l, rouge_n
from .text import segment_sentences, tokenize

__version__ = "0.1.0"
