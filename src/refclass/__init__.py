"""Reference-based paper-by-paper subject classification.

Classifies individual publications into a category scheme by iteratively
propagating fractional category weights from citing papers onto cited
references and back, with journal-limited (JL) and unlimited (U1) variants,
threshold pruning of multi-assignments, and the full set of structural and
comparison indicators.
"""

__version__ = "0.1.0"

from .assign import PruneConfig, prune_classification
from .corpus import Corpus, CorpusError, eligible_rows, load_corpus
from .engine import Classification, EngineConfig, run
from .scheme import (CategoryScheme, JournalAssignment, SchemeError,
                     fractionalize_journal, load_scheme, reference_scheme)

__all__ = [
    "Classification", "CategoryScheme", "Corpus", "CorpusError", "EngineConfig",
    "JournalAssignment", "PruneConfig", "SchemeError", "eligible_rows",
    "fractionalize_journal", "load_corpus", "load_scheme", "prune_classification",
    "reference_scheme", "run",
]
