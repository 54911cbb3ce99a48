"""Sentiment polarity classification on subjectivity extracts.

Reviews are first filtered sentence by sentence: a detector trained on a
separate subjective/objective sentence corpus scores each sentence, and a
minimum-cut partition over a source/sink graph (optionally with proximity
edges between nearby sentences) decides which sentences to keep. A standard
polarity classifier is then trained and evaluated on the extracts under
ten-fold cross-validation.
"""

from .classifiers import (
    IndividualScores,
    LinearMarginModel,
    NaiveBayesModel,
    TrainingError,
    VocabularyMismatchError,
    load_model,
    nb_predict_prob,
    save_model,
    svm_margin,
    svm_to_individual,
    svm_train,
)
from .corpus import (
    CorpusManifest,
    IngestionError,
    LabeledSentence,
    ReviewDocument,
    build_manifest,
    load_polarity_dataset,
    load_subjectivity_dataset,
    tokenize,
)
from .evaluation import (
    ExperimentConfig,
    ExperimentReport,
    FoldResult,
    GridSearchResult,
    GridSpec,
    TTestResult,
    add_comparison,
    detector_cv_accuracies,
    grid_search,
    make_detector,
    make_extracts,
    n_sentence_sweep,
    paired_t_test,
    run_experiment,
    score_documents,
)
from .extraction import (
    Detector,
    DetectorConfig,
    Extract,
    ProximityParams,
    association_band,
    detect_paragraph_unit,
    individual_scores,
    preservation_rate,
    select_graph,
)
from .features import EmptyVocabularyError, Vocabulary
from .mincut import cut_band

__version__ = "0.1.0"
