import bisect
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from subjcut.classifiers import IndividualScores, NaiveBayesModel
from subjcut.corpus import OBJECTIVE, SUBJECTIVE, LabeledSentence, ReviewDocument, tokenize
from subjcut.evaluation import ExperimentConfig, make_extracts
from subjcut import evaluation, extraction, features, mincut
from subjcut.extraction import (
    DECAY_NAMES,
    Detector,
    DetectorConfig,
    Extract,
    ProximityParams,
    association_band,
    detect_paragraph_unit,
    extracts_to_jsonl,
    individual_scores,
    preservation_rate,
    select_graph,
    sentence_matrix,
)
from subjcut.features import Vocabulary, join_rows, type_counts
from subjcut.mincut import band_pairs, brute_force_min, cut_band

from planted_corpus import make_objective_sentence, make_subjective_sentence, per_document
from references import count_calls, joined, presence_matrix, score_texts, select_basic


def paragraph_flags(model, vocab, documents) -> np.ndarray:
    return detect_paragraph_unit(model, vocab, documents, sentence_matrix(documents))


def pairs_of(band) -> dict:
    """A one-instance band's pairs and weights, as ``band_pairs`` lists them."""
    pairs, values = band_pairs(band)
    return dict(zip(map(tuple, pairs.tolist()), values.tolist()))


def scores_from(probs) -> IndividualScores:
    p = np.asarray(probs, dtype=float)
    return IndividualScores(class1=p, class2=1.0 - p)


def doc_of(sentences, paragraph_starts=(0,), label="positive", doc_id="d") -> ReviewDocument:
    return ReviewDocument(
        id=doc_id, label=label, sentences=tuple(sentences), paragraph_starts=paragraph_starts
    )


class TestProximityParams:
    def test_valid_grid_values(self):
        ProximityParams(threshold=3, decay="exponential", strength=0.5, cross_paragraph_weight=0.2)

    @pytest.mark.parametrize(
        "kw",
        [
            {"threshold": 0},
            {"decay": "linear"},
            {"strength": -0.1},
            {"strength": float("inf")},
            {"strength": float("nan")},
            {"cross_paragraph_weight": 1.5},
            {"cross_paragraph_weight": -0.1},
            {"threshold": 2.5},
            {"threshold": float("inf")},
            {"threshold": float("nan")},
            {"threshold": "2"},
            {"threshold": True},
            {"strength": True},
            {"strength": "0.5"},
            {"strength": None},
            {"cross_paragraph_weight": False},
        ],
    )
    def test_invalid_rejected(self, kw):
        with pytest.raises(ValueError):
            ProximityParams(**kw)

    def test_numbers_stored_as_their_kind(self):
        params = ProximityParams(threshold=np.int64(2), strength=1, cross_paragraph_weight=0)
        assert params.to_dict() == {
            "threshold": 2, "decay": "constant", "strength": 1.0, "cross_paragraph_weight": 0.0
        }
        assert [type(v) for v in params.to_dict().values()] == [int, str, float, float]

    def test_strength_beyond_the_solver_bound_rejected(self):
        # the strongest pair weighs the strength; at scale 10^6 it must round
        # to at most (2**31 - 1) // 2
        ProximityParams(strength=1073.741823)
        for strength in (1073.741824, 1e300):
            with pytest.raises(ValueError, match=r"2\*\*31 - 1"):
                ProximityParams(strength=strength)

    def test_integral_float_threshold_stored_as_int(self):
        params = ProximityParams(threshold=2.0, strength=0.5)
        assert params.threshold == 2 and type(params.threshold) is int
        assert len(pairs_of(association_band([4], [None], params))) == 5


class TestAssocScores:
    def test_within_threshold(self):
        params = ProximityParams(threshold=3, decay="constant", strength=0.5)
        a = pairs_of(association_band([6], [None], params))
        assert a.get((1, 2), 0.0) == pytest.approx(0.5)
        assert a.get((1, 4), 0.0) == pytest.approx(0.5)
        assert a.get((1, 5), 0.0) == 0.0

    def test_exponential_decay_value(self):
        params = ProximityParams(threshold=3, decay="exponential", strength=1.0)
        a = pairs_of(association_band([4], [None], params))
        assert a.get((0, 2), 0.0) == pytest.approx(math.exp(-1))
        assert a.get((0, 1), 0.0) == pytest.approx(1.0)  # e^(1-1)

    def test_inverse_square_decay_value(self):
        params = ProximityParams(threshold=3, decay="inverse_square", strength=1.0)
        a = pairs_of(association_band([4], [None], params))
        assert a.get((0, 3), 0.0) == pytest.approx(1 / 9)

    def test_cross_paragraph_attenuation(self):
        params = ProximityParams(threshold=2, decay="constant", strength=1.0,
                                 cross_paragraph_weight=0.3)
        a = pairs_of(association_band([4], [(0, 2)], params))
        assert a.get((0, 1), 0.0) == pytest.approx(1.0)  # same paragraph
        assert a.get((1, 2), 0.0) == pytest.approx(0.3)  # crosses the break
        assert a.get((2, 3), 0.0) == pytest.approx(1.0)

    def test_weight_one_ignores_paragraphs(self):
        params = ProximityParams(threshold=2, decay="constant", strength=0.7)
        with_breaks = pairs_of(association_band([5], [(0, 2)], params))
        without = pairs_of(association_band([5], [None], params))
        assert with_breaks == without

    def test_zero_strength_empty(self):
        params = ProximityParams(threshold=3, strength=0.0)
        assert len(pairs_of(association_band([8], [None], params))) == 0

    def test_counts_and_starts_refused_as_select_graph_refuses_them(self):
        params = ProximityParams(threshold=1, strength=1.0, cross_paragraph_weight=0.0)
        assert association_band([2, 2], [(0,), (0,)], params).tolist() == [[1, 0, 1, 0]]
        assert association_band([2, 2], None, params).tolist() == [[1, 0, 1, 0]]
        for starts in ([(0,)], [(0,), (0,), (0,)], []):
            with pytest.raises(ValueError, match="counts and paragraph_starts differ in length"):
                association_band([2, 2], starts, params)
        for counts in ([-1, 4], [1.5, 1.5]):
            with pytest.raises(ValueError, match="instance counts must be integers >= 0"):
                association_band(counts, None, params)

    def test_nonnegative_and_bounded_distance(self):
        params = ProximityParams(threshold=2, decay="inverse_square", strength=0.9)
        a = pairs_of(association_band([10], [None], params))
        for (i, k), value in a.items():
            assert k - i <= 2
            assert value >= 0


def reference_assoc(num_sentences, params, paragraph_starts=None) -> dict:
    """The per-document dict loop the band replaced, kept as its reference."""
    by_distance = [
        extraction._decay(params.decay, d) * params.strength
        for d in range(1, params.threshold + 1)
    ]
    paragraph_of = None
    if paragraph_starts and len(paragraph_starts) > 1:
        starts = list(paragraph_starts)
        paragraph_of = [bisect.bisect_right(starts, i) - 1 for i in range(num_sentences)]
    pairs = {}
    for i in range(num_sentences):
        for distance in range(1, params.threshold + 1):
            j = i + distance
            if j >= num_sentences:
                break
            value = by_distance[distance - 1]
            if paragraph_of is not None and paragraph_of[i] != paragraph_of[j]:
                value *= params.cross_paragraph_weight
            if value > 0.0:
                pairs[(i, j)] = value
    return pairs


@st.composite
def band_documents(draw):
    """A sentence count and paragraph starts: None, (0,), a single non-zero
    start (one paragraph), or several increasing starts, some maybe past the end."""
    n = draw(st.integers(1, 12))
    starts = draw(
        st.none()
        | st.just((0,))
        | st.integers(1, n + 1).map(lambda s: (s,))
        | st.lists(st.integers(0, n + 1), min_size=2, max_size=5, unique=True).map(
            lambda s: tuple(sorted(s))
        )
    )
    return n, starts


band_params = st.builds(
    ProximityParams,
    threshold=st.integers(1, 6),
    decay=st.sampled_from(DECAY_NAMES),
    strength=st.just(0.0) | st.floats(0, 5),
    cross_paragraph_weight=st.sampled_from([0.0, 1.0]) | st.floats(0, 1),
)


class TestBandEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(band_documents(), min_size=1, max_size=6), band_params)
    @example([(1, None)], ProximityParams(threshold=3, strength=0.5))
    @example([(2, (0,)), (1, (0,))], ProximityParams(threshold=5, decay="exponential", strength=1.0))
    @example([(6, (0, 3))], ProximityParams(threshold=3, strength=0.0))
    @example([(6, (0, 3))], ProximityParams(threshold=3, strength=0.5, cross_paragraph_weight=0.0))
    @example([(6, (0, 3))], ProximityParams(threshold=3, strength=0.5, cross_paragraph_weight=1.0))
    @example([(6, (3,))], ProximityParams(threshold=3, strength=0.5, cross_paragraph_weight=0.0))
    def test_band_equals_the_dict_loop(self, documents, params):
        pairs, values = band_pairs(association_band(
            [n for n, _ in documents], [starts for _, starts in documents], params
        ))
        want_pairs, want_values, first = [], [], 0
        for n, starts in documents:
            reference = reference_assoc(n, params, starts)
            want_pairs += [[i + first, k + first] for i, k in reference]
            want_values += reference.values()
            first += n
        assert pairs.dtype == np.int64 and pairs.shape == (len(want_pairs), 2)
        assert pairs.tolist() == want_pairs
        assert [v.hex() for v in values.tolist()] == [v.hex() for v in want_values]

    @settings(max_examples=50, deadline=None)
    @given(st.lists(band_documents(), min_size=1, max_size=8), band_params, st.integers(1, 20))
    def test_batched_cuts_equal_the_dict_path(self, documents, params, batch):
        rng = np.random.default_rng(len(documents))
        scores = [scores_from(rng.uniform(0, 1, n)) for n, _ in documents]
        starts = [s for _, s in documents]
        want = []
        for ind, p in zip(scores, starts):  # each cut alone, as its band of reach n - 1
            band = np.zeros((len(ind) - 1, len(ind)))
            for (i, k), value in reference_assoc(len(ind), params, p).items():
                band[k - i - 1, i] = value
            want.append(tuple(np.flatnonzero(cut_band(ind, [len(ind)], band)).tolist()))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(features, "CUT_BATCH_SENTENCES", batch)
            got = select_graph(*joined(scores), params, starts)
            assert per_document(got, [n for n, _ in documents]) == want


class TestBandedRoute:
    @pytest.mark.parametrize("base", ["nb", "svm"])
    def test_selections_equal_the_max_flow_route(
        self, base, request, synthetic_documents, paragraph_documents
    ):
        # the default grid's thresholds and decays, a spread of strengths, and
        # cross-paragraph weights on the reviews that have paragraphs
        detector = request.getfixturevalue(f"{base}_detector")
        for documents, weights in ((synthetic_documents, (1.0,)),
                                   (paragraph_documents, (0.0, 0.5, 1.0))):
            scores = evaluation.score_documents(detector.model, detector.vocab, documents)
            starts = [doc.paragraph_starts for doc in documents]
            grid = evaluation.GridSpec(
                strengths=(0.0, 0.1, 0.3, 0.6, 1.0), cross_paragraph_weights=weights
            )
            for params in grid.cells():
                got = select_graph(*joined(scores), params, starts)
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(mincut, "BANDED_REACH_LIMIT", -1)
                    assert got.tolist() == select_graph(*joined(scores), params, starts).tolist()


class TestIndividualScoresFromModels:
    def test_nb_scores_are_posteriors(self, detector_models):
        model, vocab = detector_models["nb"]
        texts = ["the film is excellent truly", "a detective returns to the city"]
        s = score_texts(model, vocab, texts)
        assert s.class1[0] > 0.5 > s.class1[1]
        assert np.allclose(s.class1 + s.class2, 1.0)

    def test_svm_scores_are_clamped_distances(self, detector_models):
        model, vocab = detector_models["svm"]
        s = score_texts(model, vocab, ["the film is excellent truly"])
        assert 0.0 <= s.class1[0] <= 1.0

    def test_identical_sentences_identical_scores(self, detector_models):
        model, vocab = detector_models["nb"]
        s = score_texts(model, vocab, ["something else entirely"] * 3)
        assert len(set(s.class1.tolist())) == 1


class TestSelection:
    def test_basic_thresholding(self):
        assert select_basic(scores_from([0.9, 0.3, 0.6])) == (0, 2)

    def test_all_below_half_gives_empty(self):
        assert select_basic(scores_from([0.1, 0.4, 0.49])) == ()

    def test_tie_drops_sentence(self):
        assert select_basic(scores_from([0.5, 0.7])) == (1,)

    def test_graph_keeps_pulled_neighbor(self):
        # worked 3-item configuration: the strong 0-1 edge drags item 1 along
        scores = scores_from([0.8, 0.5, 0.1])
        # the pairs (0, 1) and (1, 2) at distance 1, (0, 2) at distance 2, by hand
        band = np.array([[1.0, 0.2, 0.0], [0.1, 0.0, 0.0]])
        assert cut_band(scores, [len(scores)], band).tolist() == [True, True, False]

    def test_zero_strength_equals_basic(self):
        rng = np.random.default_rng(5)
        params = ProximityParams(threshold=3, decay="exponential", strength=0.0)
        documents = [scores_from(rng.uniform(0, 1, int(rng.integers(1, 30)))) for _ in range(100)]
        got = per_document(select_graph(*joined(documents), params), map(len, documents))
        assert got == [select_basic(s) for s in documents]

    def test_scores_counts_and_starts_must_align(self):
        scores = scores_from([0.9, 0.3, 0.6, 0.2])
        params = ProximityParams(threshold=2, strength=0.3)
        for counts in ([3], [2, 1], [5]):
            with pytest.raises(ValueError, match=f"4 scores for {sum(counts)} sentences"):
                select_graph(scores, counts, params)
        with pytest.raises(ValueError, match="counts and paragraph_starts differ in length"):
            select_graph(scores, [4], params, [None, None])
        # refused as cut_band refuses them, before any band is built
        for counts in ([-1, 4], [1.5, 1.5]):
            with pytest.raises(ValueError, match="instance counts must be integers >= 0"):
                select_graph(scores_from([0.8, 0.5, 0.1]), counts, params)

    def test_huge_strength_forces_uniform_label(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            scores = scores_from(rng.uniform(0, 1, n))
            params = ProximityParams(threshold=n, decay="constant",
                                     strength=float(n * 2 + 1))
            [selected] = per_document(select_graph(scores, [len(scores)], params), [n])
            assert selected in ((), tuple(range(n)))
            # the cheaper uniform labeling wins
            all_cost = scores.class2.sum()
            none_cost = scores.class1.sum()
            if all_cost < none_cost:
                assert selected == tuple(range(n))
            elif none_cost < all_cost:
                assert selected == ()

    def test_raising_strength_never_splits_more_pairs(self):
        rng = np.random.default_rng(13)
        threshold = 2
        for _ in range(15):
            n = int(rng.integers(3, 11))
            scores = scores_from(rng.uniform(0, 1, n))
            split_counts = []
            for c in (0.0, 0.2, 0.5, 1.0):
                params = ProximityParams(threshold=threshold, decay="constant", strength=c)
                [selected] = per_document(select_graph(scores, [len(scores)], params), [n])
                selected = set(selected)
                # verify optimality against the oracle while we are here
                band = association_band([n], [None], params)
                assert tuple(sorted(selected)) == brute_force_min(scores, band).source_side
                split = sum(
                    1
                    for i in range(n)
                    for k in range(i + 1, min(i + threshold + 1, n))
                    if (i in selected) != (k in selected)
                )
                split_counts.append(split)
            assert split_counts == sorted(split_counts, reverse=True)

    def test_batches_match_single_documents(self, monkeypatch):
        rng = np.random.default_rng(14)
        documents = [scores_from(rng.uniform(0, 1, int(rng.integers(0, 12)))) for _ in range(40)]
        starts = [(0, len(s) // 2) if len(s) > 3 else None for s in documents]
        params = ProximityParams(threshold=2, decay="exponential", strength=0.4,
                                 cross_paragraph_weight=0.5)
        alone = [
            per_document(select_graph(s, [len(s)], params, [p]), [len(s)])[0]
            for s, p in zip(documents, starts)
        ]
        monkeypatch.setattr(features, "CUT_BATCH_SENTENCES", 25)
        got = select_graph(*joined(documents), params, starts)
        assert per_document(got, map(len, documents)) == alone


class TestDetectorDispatch:
    def test_basic_and_graph_consistency(self, detector_models):
        model, vocab = detector_models["nb"]
        doc = doc_of(
            [
                "the film is excellent truly excellent",
                "a detective returns to the city",
                "simply wonderful and moving performance",
            ]
        )
        scores = score_texts(model, vocab, doc.sentences)
        zero = ProximityParams(threshold=3, strength=0.0)
        got = select_graph(scores, [len(scores)], zero, [doc.paragraph_starts])
        assert per_document(got, [len(scores)]) == [select_basic(scores)]

    def test_config_validation(self):
        assert DetectorConfig(base="svm").base == "svm"
        with pytest.raises(ValueError):
            DetectorConfig(base="tree")

    def test_base_follows_the_models_class(self, nb_detector, svm_detector):
        assert (nb_detector.base, svm_detector.base) == ("nb", "svm")
        # whatever vocabulary it is paired with, the model alone names the kind
        assert Detector(svm_detector.model, nb_detector.vocab).base == "svm"
        assert Detector(nb_detector.model, svm_detector.vocab).base == "nb"

    def test_paragraph_unit_labels_whole_paragraphs(self, detector_models):
        model, vocab = detector_models["nb"]
        doc = doc_of(
            [
                "the film is excellent truly excellent",
                "simply wonderful and moving performance",
                "a detective returns to the city",
                "his brother meets a widow in the village",
            ],
            paragraph_starts=(0, 2),
        )
        assert per_document(paragraph_flags(model, vocab, [doc]), [4]) == [(0, 1)]

    def test_single_paragraph_is_all_or_nothing(self, detector_models):
        model, vocab = detector_models["nb"]
        subj = doc_of(["the film is excellent truly", "simply wonderful performance"])
        obj = doc_of(["a detective returns to the city", "his brother meets a widow"])
        assert per_document(paragraph_flags(model, vocab, [subj]), [2]) == [(0, 1)]
        assert per_document(paragraph_flags(model, vocab, [obj]), [2]) == [()]

    def test_singleton_paragraph_matches_sentence_decision(self, detector_models):
        model, vocab = detector_models["nb"]
        doc = doc_of(
            ["the film is excellent truly", "a detective returns to the city"],
            paragraph_starts=(0, 1),
        )
        (para,) = per_document(paragraph_flags(model, vocab, [doc]), [2])
        sent = select_basic(score_texts(model, vocab, doc.sentences))
        assert para == sent


# Characters around which lowercasing or splitting is context-dependent:
# final and medial sigma, dotted capital I (two characters in lower case), and
# whitespace that str.split() breaks on but a space-only split would not.
TRICKY = ["Σ", "σ", "İ", "\xa0", "\u2028", "\x1c", "\x85", " ", "'", "a", "B", "ǅ"]
sentence_text = st.text(
    st.one_of(st.sampled_from(TRICKY), st.characters()), min_size=1, max_size=10
).filter(str.strip)
documents_strategy = st.lists(
    st.lists(sentence_text, min_size=1, max_size=5).map(
        lambda sentences: doc_of(sentences)
    ),
    max_size=6,
)
TRICKY_DOCUMENTS = [
    doc_of(["ΟΔΟΣ end", "aΣ", "Σ'\u2028b", "İx\xa0yΣ\x1cc"]),
    doc_of(["ΣΣ.Σ", "x\x85ΑΣ' z"]),
]


def group_rows(documents, groups):
    """The groups' rows of the documents' ``sentence_matrix``, one group after
    another, and each group's length: ``join_rows``' input."""
    first = np.cumsum([0] + [len(doc.sentences) for doc in documents]).tolist()
    rows = [first[d] + i for d, doc_groups in enumerate(groups) for g in doc_groups for i in g]
    lengths = [len(group) for doc_groups in groups for group in doc_groups]
    return np.array(rows, dtype=np.intp), np.array(lengths, dtype=np.int64)


def fits_one_batch(sizes, budget) -> bool:
    """Whether items of ``sizes`` make one batch: a batch closes at the item
    that reaches the budget, so it must be the last item with a size."""
    sized = [size for size in sizes if size]
    return sum(sized[:-1]) < budget


def row_tokens(matrix, r):
    return [matrix.types[i] for i in matrix.ids[matrix.offsets[r]:matrix.offsets[r + 1]]]


def assert_same_matrix(got, want):
    """Equal presence matrices, type ids and dtypes included."""
    assert got.types == want.types
    assert got.ids.tolist() == want.ids.tolist() and got.ids.dtype == np.int32
    assert got.offsets.tolist() == want.offsets.tolist() and got.offsets.dtype == np.int64


def batched_steps(documents, detector_models):
    """Each batched step's output on ``documents``, as bytes, one step at a
    time: a generator, so a caller can count each step's batches."""
    matrix = sentence_matrix(documents)
    yield "presence_matrix", (matrix.types, matrix.ids.tobytes(), matrix.offsets.tobytes())
    for base, (model, vocab) in sorted(detector_models.items()):
        scores = individual_scores(model, vocab, matrix)
        yield f"individual_scores {base}", (scores.class1.tobytes(), scores.class2.tobytes())
    counts = [len(doc.sentences) for doc in documents]
    joined = join_rows(matrix, np.arange(len(matrix)), counts)
    yield "join_rows", (joined.ids.tobytes(), joined.offsets.tobytes())
    labels = np.array([doc.label == "positive" for doc in documents], dtype=np.int64)
    stats = type_counts(joined, labels, [doc.fold for doc in documents])
    yield "type_counts", tuple(
        getattr(stats, name).tobytes() for name in ("counts", "first", "first_fold", "later")
    )
    params = ProximityParams(threshold=3, decay="exponential", strength=0.5,
                             cross_paragraph_weight=0.5)
    keep = select_graph(scores, counts, params, [doc.paragraph_starts for doc in documents])
    yield "select_graph", keep.tobytes()


# the call each batched step makes once per batch
BATCH_CALLS = ((features, "distinct_runs"), (extraction, "featurize_rows"),
               (features, "_class_counts"), (extraction, "cut_band"))


class TestBatchBudgets:
    @pytest.mark.parametrize("budget", [1, 3, 10**9])
    def test_every_step_gives_the_same_bytes_at_any_budget(
        self, monkeypatch, paragraph_documents, detector_models, budget
    ):
        want = dict(batched_steps(paragraph_documents, detector_models))
        monkeypatch.setattr(features, "BATCH_TOKENS", budget)
        monkeypatch.setattr(features, "CUT_BATCH_SENTENCES", budget)
        calls = [count_calls(monkeypatch, module, name) for module, name in BATCH_CALLS]
        for name, got in batched_steps(paragraph_documents, detector_models):
            ran = sum(map(len, calls))
            for counted in calls:
                counted.clear()
            assert got == want[name], name
            assert ran == 1 if budget == 10**9 else ran > 1, name


class TestSentenceMatrix:
    """The shared sentence matrix and its joined rows against per-text tokenizing."""

    @given(documents_strategy, st.integers(1, 8))
    @example(documents=TRICKY_DOCUMENTS, batch=1)
    @example(documents=[], batch=1)
    def test_equals_the_per_sentence_matrix(self, documents, batch):
        sentences = [s for doc in documents for s in doc.sentences]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(features, "BATCH_TOKENS", batch)
            runs = count_calls(mp, features, "distinct_runs")
            got = sentence_matrix(documents)
        assert len(runs) > 1 or fits_one_batch([doc.word_count for doc in documents], batch)
        assert_same_matrix(got, presence_matrix(tokenize(s) for s in sentences))
        for doc in documents:
            assert list(doc.sentence_word_counts) == [len(tokenize(s)) for s in doc.sentences]

    @given(st.lists(sentence_text, max_size=12), st.integers(1, 8))
    @example(texts=[s for doc in TRICKY_DOCUMENTS for s in doc.sentences], batch=2)
    @example(texts=[], batch=1)
    def test_detector_sentences_equal_the_per_sentence_matrix(self, texts, batch):
        labels = [k % 2 for k in range(len(texts))]
        sentences = [
            LabeledSentence(text=t, label=SUBJECTIVE if y else OBJECTIVE)
            for t, y in zip(texts, labels)
        ]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(features, "BATCH_TOKENS", batch)
            runs = count_calls(mp, features, "distinct_runs")
            got, got_labels = evaluation._sentence_rows(sentences)
        assert len(runs) > 1 or fits_one_batch([len(t.split()) for t in texts], batch)
        assert_same_matrix(got, presence_matrix(tokenize(t) for t in texts))
        assert got_labels.tolist() == labels

    @given(documents_strategy, st.integers(1, 8), st.data())
    @example(documents=TRICKY_DOCUMENTS, batch=2, data=None)
    def test_joined_rows_equal_the_joined_text(self, documents, batch, data):
        groups = []  # per document, a few groups of its sentences; any may be empty
        for doc in documents:
            n = len(doc.sentences)
            if data is None:
                groups.append([list(range(n)), [], [n - 1]])
            else:
                groups.append(data.draw(st.lists(
                    st.lists(st.integers(0, n - 1), max_size=n, unique=True).map(sorted),
                    max_size=3,
                )))
        matrix = sentence_matrix(documents)
        rows, lengths = group_rows(documents, groups)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(features, "BATCH_TOKENS", batch)
            runs = count_calls(mp, features, "distinct_runs")
            joined = join_rows(matrix, rows, lengths)
        sizes = [
            sum(doc.sentence_word_counts[i] for i in group)
            for doc, doc_groups in zip(documents, groups) for group in doc_groups
        ]
        assert len(runs) > 1 or fits_one_batch(sizes, batch)
        texts = [
            "\n".join(doc.sentences[i] for i in group)
            for doc, doc_groups in zip(documents, groups) for group in doc_groups
        ]
        assert len(joined) == len(texts)
        assert joined.types == matrix.types
        for r, text in enumerate(texts):
            want = presence_matrix([tokenize(text)])
            assert row_tokens(joined, r) == row_tokens(want, 0)

    def test_batched_paragraphs_equal_joined_text_scores(
        self, monkeypatch, paragraph_documents, detector_models
    ):
        model, vocab = detector_models["nb"]
        want = []
        for doc in paragraph_documents:
            starts = list(doc.paragraph_starts) + [len(doc.sentences)]
            spans = [range(a, b) for a, b in zip(starts, starts[1:])]
            texts = [" ".join(doc.sentences[i] for i in span) for span in spans]
            scores = score_texts(model, vocab, texts)
            want.append(tuple(
                i for span, keep in zip(spans, scores.class1 > scores.class2) if keep
                for i in span
            ))
        calls = []
        column_map = features.Vocabulary.column_map

        def counted(self, types):
            calls.append(len(types))
            return column_map(self, types)

        monkeypatch.setattr(features.Vocabulary, "column_map", counted)
        monkeypatch.setattr(features, "BATCH_TOKENS", 100)  # about 2 documents a batch
        joins = count_calls(monkeypatch, features, "distinct_runs")
        featurized = count_calls(monkeypatch, extraction, "featurize_rows")
        got = paragraph_flags(model, vocab, paragraph_documents)
        assert per_document(got, [len(doc.sentences) for doc in paragraph_documents]) == want
        assert len(joins) > 1 and len(featurized) > 1
        assert len(calls) == 1  # the batches share one map of the type table
        assert any(want) and not all(len(w) == 8 for w in want)


# The per-document selections ``make_extracts`` replaced with one array step
# per call, kept as references: ties go to the earlier sentence, a short
# document keeps everything, and output is in document order.


def reference_top_n(scores: IndividualScores, n: int) -> tuple[int, ...]:
    order = sorted(range(len(scores)), key=lambda i: (-scores.class1[i], i))
    return tuple(sorted(order[:n]))


def reference_least_n(scores: IndividualScores, n: int) -> tuple[int, ...]:
    order = sorted(range(len(scores)), key=lambda i: (scores.class1[i], i))
    return tuple(sorted(order[:n]))


def reference_complement(doc: ReviewDocument, selected) -> tuple[int, ...]:
    chosen = set(selected)
    return tuple(i for i in range(len(doc.sentences)) if i not in chosen)


REFERENCES = {
    "top_n": lambda doc, scores, n: reference_top_n(scores, n),
    "least_n": lambda doc, scores, n: reference_least_n(scores, n),
    "first_n": lambda doc, scores, n: tuple(range(min(n, len(doc.sentences)))),
    "last_n": lambda doc, scores, n: tuple(
        range(max(0, len(doc.sentences) - n), len(doc.sentences))
    ),
    "basic": lambda doc, scores, n: select_basic(scores),
}

# given scores leave the detector unused; a detector extractor only needs one
SCORED = Detector(
    NaiveBayesModel(log_prior=np.log([0.5, 0.5]), log_likelihood=np.zeros((2, 0)), alpha=1.0),
    Vocabulary(token_to_index={}),
)


def selections(extractor, documents, scores, n=None, flipped=False) -> list[tuple[int, ...]]:
    config = ExperimentConfig(extractor=extractor, n_sentences=n, flipped=flipped)
    return [e.selected for e in make_extracts(config, documents, SCORED, scores)]


# scores from a few values, so that exact ties (and 0.0 against -0.0) occur
score_value = st.sampled_from([0.0, -0.0, 0.25, 0.5, 0.75, 1.0])
scored_documents = st.lists(
    st.lists(st.tuples(score_value, score_value), min_size=1, max_size=8), max_size=6
)


class TestNSentenceExtracts:
    def test_top_n_with_positional_ties(self):
        doc = doc_of(["s0 a", "s1 b", "s2 c", "s3 d"])
        assert selections("top_n", [doc], [scores_from([0.2, 0.9, 0.9, 0.1])], 2) == [(1, 2)]

    def test_short_document_returns_everything(self):
        doc = doc_of(["a", "b", "c"])
        assert selections("top_n", [doc], [scores_from([0.5, 0.1, 0.9])], 5) == [(0, 1, 2)]

    def test_top_1_is_argmax(self):
        doc = doc_of(["a", "b", "c"])
        assert selections("top_n", [doc], [scores_from([0.5, 0.1, 0.9])], 1) == [(2,)]

    def test_least_is_top_of_negated(self):
        probs = [0.3, 0.8, 0.1, 0.5, 0.5]
        doc = doc_of([f"s{i}" for i in range(len(probs))])
        scores = scores_from(probs)
        negated = scores_from([1 - p for p in probs])
        for n in (1, 2, 3, 5):
            assert selections("least_n", [doc], [scores], n) == selections(
                "top_n", [doc], [negated], n
            )

    def test_first_and_last_slices(self):
        doc = doc_of([f"s{i}" for i in range(10)])

        def selected(extractor, n):
            config = ExperimentConfig(extractor=extractor, n_sentences=n)
            return make_extracts(config, [doc])[0].selected

        assert selected("first_n", 3) == (0, 1, 2)
        assert selected("last_n", 3) == (7, 8, 9)
        assert selected("first_n", 99) == tuple(range(10))

    def test_n_must_be_positive(self):
        for extractor in ("top_n", "first_n", "last_n", "least_n"):
            with pytest.raises(ValueError):
                ExperimentConfig(extractor=extractor, n_sentences=0)

    @settings(max_examples=200, deadline=None)
    @given(
        scored_documents,
        st.sampled_from(sorted(REFERENCES)),
        st.integers(1, 10),
        st.booleans(),
    )
    @example(
        documents=[[(0.0, 0.5), (-0.0, 0.5), (0.0, 0.0), (-0.0, -0.0)]],
        extractor="top_n", n=2, flipped=False,
    )
    def test_selections_equal_the_per_document_references(
        self, documents, extractor, n, flipped
    ):
        docs = [
            doc_of([f"s{i}" for i in range(len(pairs))], doc_id=f"d{k}")
            for k, pairs in enumerate(documents)
        ]
        scores = [IndividualScores(*zip(*pairs)) for pairs in documents]
        want = [REFERENCES[extractor](doc, s, n) for doc, s in zip(docs, scores)]
        if flipped:
            want = [reference_complement(doc, sel) for doc, sel in zip(docs, want)]
        n_sentences = None if extractor == "basic" else n
        assert selections(extractor, docs, scores, n_sentences, flipped) == want


class TestScoreAlignment:
    """Scores that do not match the documents' sentences are refused."""

    docs = [doc_of(["a", "b", "c"], doc_id="d0"), doc_of(["x", "y"], doc_id="d1")]
    aligned = [scores_from([0.9, 0.1, 0.9]), scores_from([0.2, 0.8])]

    @pytest.mark.parametrize("extractor", ["basic", "top_n", "graph"])
    def test_aligned_scores_are_taken(self, extractor):
        config = ExperimentConfig(
            extractor=extractor, n_sentences=1, proximity=ProximityParams()
        )
        assert len(make_extracts(config, self.docs, SCORED, self.aligned)) == 2

    @pytest.mark.parametrize("extractor", ["basic", "top_n", "graph"])
    @pytest.mark.parametrize("scores, match", [
        ([aligned[0], scores_from([0.2])], "document d1: 1 scores for 2 sentences"),
        ([aligned[0], scores_from([0.2, 0.8, 0.5])], "document d1: 3 scores for 2 sentences"),
        ([aligned[0]], "document d1: 0 scores for 2 sentences"),
        (aligned + [scores_from([0.5])], "3 score lists for 2 documents"),
    ], ids=["short_entry", "long_entry", "too_few_lists", "too_many_lists"])
    def test_misaligned_scores_are_refused_before_any_selection(
        self, monkeypatch, extractor, scores, match
    ):
        def unreachable(*args, **kwargs):
            raise AssertionError("selected from misaligned scores")

        monkeypatch.setattr(evaluation, "select_graph", unreachable)
        config = ExperimentConfig(
            extractor=extractor, n_sentences=1, proximity=ProximityParams()
        )
        with pytest.raises(ValueError, match=match):
            make_extracts(config, self.docs, SCORED, scores)


class TestExtracts:
    def test_from_flags_counts_words(self):
        doc = doc_of(["one two three", "four five", "six"])
        ex = Extract.from_flags(doc, [True, False, True])
        assert ex.selected == (0, 2)
        assert ex.text == "one two three\nsix"
        assert ex.words_kept == 4
        assert ex.words_total == 6

    def test_objective_is_complement(self):
        doc = doc_of(["a", "b", "c", "d"])
        scores = [scores_from([0.9, 0.1, 0.9, 0.1])]
        assert selections("basic", [doc], scores) == [(0, 2)]
        assert selections("basic", [doc], scores, flipped=True) == [(1, 3)]

    def test_empty_selection_flips_to_whole_document(self):
        doc = doc_of(["a", "b"])
        scores = [scores_from([0.1, 0.1])]
        assert selections("basic", [doc], scores) == [()]
        assert selections("basic", [doc], scores, flipped=True) == [(0, 1)]

    def test_partition_property(self):
        rng = np.random.default_rng(3)
        doc = doc_of([f"s{i} w" for i in range(12)])
        for _ in range(25):
            scores = [scores_from(rng.choice([0.1, 0.9], size=12))]
            (selected,) = selections("basic", [doc], scores)
            (comp,) = selections("basic", [doc], scores, flipped=True)
            assert sorted(set(selected) | set(comp)) == list(range(12))
            assert not set(selected) & set(comp)

    def test_extract_text_is_subsequence(self, detector_models, synthetic_documents):
        model, vocab = detector_models["nb"]
        doc = synthetic_documents[0]
        scores = score_texts(model, vocab, doc.sentences)
        ex = Extract.from_flags(doc, (scores.class1 > scores.class2).tolist())
        assert list(ex.selected) == sorted(ex.selected)
        for idx, line in zip(ex.selected, ex.text.split("\n") if ex.text else []):
            assert doc.sentences[idx] == line

    def test_preservation_rate_bounds(self):
        doc = doc_of(["one two", "three four"])
        full = Extract.from_flags(doc, [True, True])
        empty = Extract.from_flags(doc, [False, False])
        assert preservation_rate([full, full]) == 1.0
        assert preservation_rate([empty]) == 0.0
        with pytest.raises(ValueError):
            preservation_rate([])

    def test_jsonl_round_trip(self):
        doc = doc_of(["one two", "three"])
        ex = Extract.from_flags(doc, [False, True])
        lines = extracts_to_jsonl([ex]).splitlines()
        assert json.loads(lines[0]) == {
            "doc_id": "d",
            "selected": [1],
            "words_kept": 1,
            "words_total": 3,
        }


class TestPipelineOnPlantedSignal:
    def test_detector_separates_sentence_kinds(self, detector_models):
        rng = np.random.default_rng(20)
        model, vocab = detector_models["nb"]
        subjective = [make_subjective_sentence(rng, "positive") for _ in range(30)]
        objective = [make_objective_sentence(rng) for _ in range(30)]
        s = score_texts(model, vocab, subjective + objective)
        predictions = s.class1 > 0.5
        accuracy = (predictions[:30].sum() + (~predictions[30:]).sum()) / 60
        assert accuracy > 0.9
