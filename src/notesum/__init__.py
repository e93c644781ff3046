"""notesum: data pipeline for clinical problem-list summarisation.

Builds concept-masked pre-training corpora from progress notes, generates
and filters paraphrase training pairs with self-debiased instruction
decoding, assembles fine-tuning datasets, and scores summaries with a
from-scratch ROUGE implementation. The package root exports the names
of the library quickstart; every other name lives in its module.
"""

from .annotation import TermDictionary
from .corpus import ProgressNote, build_pretrain_corpus
from .masking import MaskPolicyConfig, reconstruct

__version__ = "0.1.0"
