"""Golden SHA-256 digests of what the program writes, on the tests' synthetic corpora.

Every digest below was taken from the implementation these tests guard. A
change that alters any byte of a report, a grid or sweep CSV, a detector's
model or vocabulary file, or a detector cross-validation accuracy fails here.
A change that means to alter one must say why and update the digest.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from subjcut.classifiers import save_model
from subjcut.corpus import OBJECTIVE, SUBJECTIVE, LabeledSentence
from subjcut.evaluation import (
    DETECTOR_EXTRACTORS,
    EXTRACTORS,
    N_EXTRACTORS,
    ExperimentConfig,
    GridSpec,
    detector_cv_accuracies,
    grid_search,
    n_sentence_sweep,
    run_experiment,
    make_detector,
    sweep_to_csv,
)
from subjcut.extraction import DetectorConfig, ProximityParams

PROXIMITY = ProximityParams(threshold=2, decay="exponential", strength=0.5)
PARAGRAPH_PROXIMITY = ProximityParams(
    threshold=2, decay="constant", strength=0.05, cross_paragraph_weight=0.5
)


def _report_cases() -> dict[str, tuple[str, ExperimentConfig]]:
    """Case name -> (documents fixture, config)."""
    cases = {}
    for extractor in EXTRACTORS:
        bases = ("nb", "svm") if extractor in DETECTOR_EXTRACTORS else ("nb",)
        for base in bases:
            for classifier in ("nb", "svm"):
                for flipped in (False, True):
                    config = ExperimentConfig(
                        extractor=extractor,
                        detector_base=base,
                        classifier=classifier,
                        n_sentences=3 if extractor in N_EXTRACTORS else None,
                        proximity=PROXIMITY if extractor == "graph" else None,
                        flipped=flipped,
                    )
                    detector = f"-{base}" if extractor in DETECTOR_EXTRACTORS else ""
                    name = f"{extractor}{detector}-{classifier}{'-flipped' if flipped else ''}"
                    cases[name] = ("synthetic_documents", config)
    for classifier in ("nb", "svm"):
        cases[f"paragraphs-graph-svm-{classifier}"] = (
            "paragraph_documents",
            ExperimentConfig(
                extractor="graph", detector_base="svm", classifier=classifier,
                proximity=PARAGRAPH_PROXIMITY,
            ),
        )
        cases[f"paragraphs-paragraph-svm-{classifier}"] = (
            "paragraph_documents",
            ExperimentConfig(extractor="paragraph", detector_base="svm", classifier=classifier),
        )
    cases["full_review-nb-min_doc_freq2"] = (
        "synthetic_documents", ExperimentConfig(min_doc_freq=2)
    )
    cases["basic-nb-svm-min_doc_freq3-seed5"] = (
        "synthetic_documents",
        ExperimentConfig(extractor="basic", classifier="svm", min_doc_freq=3, seed=5),
    )
    return cases


REPORT_CASES = _report_cases()

REPORT_DIGESTS = {
    "basic-nb-nb": "4a8d841c9c1a539287fb449c75430763e556f4917d86778635070a1723cb4632",
    "basic-nb-nb-flipped": "d4000f1d1451a71c8721752c7754fd9f794ce703177f9932fa4b4d050b1abe21",
    "basic-nb-svm": "fc989565f081b351a1223aeabf1414185b79ba217eded1403cddf88f943f72fd",
    "basic-nb-svm-flipped": "25c2ddca13514663d3d9d4bc2db13657d50c1805ed5874ee88c3af72527c265a",
    "basic-nb-svm-min_doc_freq3-seed5": "89d4d6319d83ba155ffb7beb73ae16b92ac29b95b3385fba706824797026afca",
    "basic-svm-nb": "ef9aa88700a90ed2bce08b5dad6c9eac7dbe3b61ee23eee29b2c0b053ee1032a",
    "basic-svm-nb-flipped": "4fdf8b8aa659341edde985cd6567345909e8fe02a7c1d060d53c357b3c4549a0",
    "basic-svm-svm": "ae3cacb246113fa099f075288e0a80ca0117fffdb334e1ca03ba7d9a9556a9d5",
    "basic-svm-svm-flipped": "7f520f5741e1395ed86bc69048baac424ec2f4d13fbba64b1b89080c5904adb8",
    "first_n-nb": "30650c750df2b94839bf5abffefcfcacfd090d6637982de07c78a61e4fab4118",
    "first_n-nb-flipped": "bd36ec29917ae4d35a98664223b793b1b92b2e9c78975fa61f0af30ef564dc60",
    "first_n-svm": "251a1d0ab19a332fcf204e98b3c1abe17534efaecf0cc1b2247fd601bec98c6a",
    "first_n-svm-flipped": "6c6bce9284d00a11554cbc0a44f9fcdd7a106a256ebf48d1217dbb20c266e452",
    "full_review-nb": "160d2260721b22a6a325f9bb46cd0783ddcc66c55b5e67959601a9d1fba0e642",
    "full_review-nb-flipped": "b5a09a469e06cd7d89c87e8c8acbb9e37a8f94d36a3ec7e711b811f621535854",
    "full_review-nb-min_doc_freq2": "436c7bf42ecb1506df6b36d055f6a4e9b1661d4c6853549862a89758c40b5fff",
    "full_review-svm": "ed4e97f260f969ba422feb7996804b8b54ff19502cf1bcec48955bd7451ced33",
    "full_review-svm-flipped": "900f5adb500f575214cf8e4818ee49306aebcbd5d6e050344008a2adfbb1f6a9",
    "graph-nb-nb": "53193acd81949afb8961c34f3b28520e8d402cf6b92f3f8e004383856de1c3ff",
    "graph-nb-nb-flipped": "2da85f9f19de88bbb5a4219d513c4a7ac4dff950c7e1f652ba0bb48dd7dcc6bc",
    "graph-nb-svm": "5d7433fdd300e8c59c49ba87ba2e26b4510e3b8b941b2be423b80a37cb4c63d5",
    "graph-nb-svm-flipped": "2d4d0f493f29184218b58c2d8fa5b51176c8d0cb3d7d2b75216110b92de79622",
    "graph-svm-nb": "5abec55a8ed330f89748792ec33ff7a9be8d1663d085d0ab46f4d764c4254b57",
    "graph-svm-nb-flipped": "0cfef970c72200191c324d26ee7d2e2a53992b62c30fa643130a75465b1e5822",
    "graph-svm-svm": "3dc0af48eb830841dc6eca4f02a3a51c7b1be10c49353cb17470ab230e05cde2",
    "graph-svm-svm-flipped": "5aff1e626db73b2d9187e83a2629fecd272a1aaaf2b484548fefc3635ddbba88",
    "last_n-nb": "36c8ce8f9f1c586af201ff557f236af4aee283d981164e2d25bf976d03b81e3f",
    "last_n-nb-flipped": "07589f5c3e2458b8c5390efaddd53cb2c05883504053a3ea22ba30078de5383a",
    "last_n-svm": "7872815da9b3ad45c1a9559dfadc9ae68428bf27416eaa515e985cea03a7a1a9",
    "last_n-svm-flipped": "8d19cc7c34f4f9b2e31d2a0ab4843e944d9afc401421f6dfbea59d000e30f7e1",
    "least_n-nb-nb": "52d54a0957adb2d4e165cf9089edb479a15d8793e0a57d46be6fe4b1a618f29c",
    "least_n-nb-nb-flipped": "ea454d0bb9b739747614611aca7199023d0ba436ed56c15566d2c87b91d51294",
    "least_n-nb-svm": "6a88f60aa920311e751d58d8f1e8cea5cc213f82c36ad0b52847c4f4431d31ce",
    "least_n-nb-svm-flipped": "92a58b85bcd2f903dfc5b07a00bd2f774d2ca119c98c922453566b03e14471f8",
    "least_n-svm-nb": "3510570945cf91bf5f04eee04cba470450deef35686bade4d63ecfabed31b005",
    "least_n-svm-nb-flipped": "365ecb617abcb4b0e0d8c5d0a5f5d23358d66f7e9e4b3baf6765f712e8ba5dec",
    "least_n-svm-svm": "83d828a04a604daa78d4726972823ee206f71585612e3a91a213a5a2641f0ba7",
    "least_n-svm-svm-flipped": "71a9ae92e4a16c7d08ea839ce43bd847e48fb5d6df5eaa74617b08607fccbb8a",
    "paragraph-nb-nb": "acfd7faf951db50e50e13371cfaa4d5ec55642ea3cfd413af5b761ba4c9d0dfb",
    "paragraph-nb-nb-flipped": "bc62bc060ce1e9fbcbdcfb82240fe6183c8f37e93fb9c9f7f6454f37549ebe4e",
    "paragraph-nb-svm": "6db36e8b9061455336f75e0c7bbe8410ec5c36229f87be6cc06866b20f853c06",
    "paragraph-nb-svm-flipped": "49cdae750e4e1486d8f722ef4970306c4ac82db46739d31f985753ccc5d778fc",
    "paragraph-svm-nb": "b410ed55ecab0267271b237a21a681dc1c4a83822add5b5a1252772b81f8cbc6",
    "paragraph-svm-nb-flipped": "20d4862d0ba3183f72dd2a534caf587b69f220900197073aef9b5639d7c1b452",
    "paragraph-svm-svm": "30c747b76651a12512a43f4c283564a7222eb25244e10f177f5296d6049c12ae",
    "paragraph-svm-svm-flipped": "10de93dcc90e861f00c63d674689a938aa3bacdfbddcab58b56db1ab102e37fa",
    "paragraphs-graph-svm-nb": "67f1b057c116e6f4da366106984bece47b3bbd910788d4675e4df3677a1de467",
    "paragraphs-graph-svm-svm": "8d18048e073c0e7c579d2d4e09e8419c0048d2f9323d3d7b5843045264bac0f1",
    "paragraphs-paragraph-svm-nb": "7971d4509cd0dda914ef6b778d92a9f0062c5c2e53bf1f77d756585927d1ee3c",
    "paragraphs-paragraph-svm-svm": "6af75cfa85b46fc8403a8f7a83f043bd803ec88eabe23ca5438e91fcb53589e2",
    "top_n-nb-nb": "74c8b91960dfc2f732dc1203c32a9c5dce8d2e28dc118f0eb571897811447806",
    "top_n-nb-nb-flipped": "48c8b32eb4574ee5c02556422b54e953b074c6eec8ed2e39003e752cf4f8af53",
    "top_n-nb-svm": "8b50120462d8eeba68efb27ea5691986d7bbc5424cfdf60f2c380a3239d1409b",
    "top_n-nb-svm-flipped": "16553f467eb7d65821bf883976b39c2dc4cc30248fc5b898c314675172a16da9",
    "top_n-svm-nb": "6ca67d4242a55fe7552d56658b403adfc420842be1eea0f790b5a03b5c16a631",
    "top_n-svm-nb-flipped": "a51ae9fde52d1c386cd760d75388edd6568011ce4988a7c11e19462b224070bc",
    "top_n-svm-svm": "31dbb47ea5945b46377215493707f89da0078da0c07e30ac56201545c87d3356",
    "top_n-svm-svm-flipped": "36621b0ecd46f69ab777badc2d6c66d8fed884dfa97bdd25fe6141402bcd4cb1",
}

OTHER_DIGESTS = {
    "detector-cv-nb": "9d056dfc318ee865205ca7bcf3a0313ac56d94f54b66038469fade3624634def",
    "detector-cv-svm": "9d056dfc318ee865205ca7bcf3a0313ac56d94f54b66038469fade3624634def",
    "detector-nb-min_doc_freq1.json": "0d8a385fcf9d5e1cf606ccba5d510ac3d5a1e4784cae61056bcfba9310df7f18",
    "detector-nb-min_doc_freq1.tsv": "7311a5b922bb35565f3d8d83430a42caa011f663c5f01e613e125f66bf18f767",
    "detector-nb-min_doc_freq2.json": "0d8a385fcf9d5e1cf606ccba5d510ac3d5a1e4784cae61056bcfba9310df7f18",
    "detector-nb-min_doc_freq2.tsv": "7311a5b922bb35565f3d8d83430a42caa011f663c5f01e613e125f66bf18f767",
    "detector-nb-min_doc_freq40.json": "4ab8ad8fc5216cd24b7da12308caee0f3563ab945786cfea6821086a39414a41",
    "detector-nb-min_doc_freq40.tsv": "c92d75670144f1c62e9d6774848f84f07a9e8ec03f1fe404b773e9eff661b914",
    "detector-svm-min_doc_freq1.json": "d3a7c3c24bb166c106944978b4e625ae9796ff756e104f61f720626be7a20993",
    "detector-svm-min_doc_freq1.tsv": "7311a5b922bb35565f3d8d83430a42caa011f663c5f01e613e125f66bf18f767",
    "detector-svm-min_doc_freq2.json": "d3a7c3c24bb166c106944978b4e625ae9796ff756e104f61f720626be7a20993",
    "detector-svm-min_doc_freq2.tsv": "7311a5b922bb35565f3d8d83430a42caa011f663c5f01e613e125f66bf18f767",
    "detector-svm-min_doc_freq40.json": "bf80ed6462fe5c7205f70345daf5218288488fb1b2ab250296f4ad236ef6c04c",
    "detector-svm-min_doc_freq40.tsv": "c92d75670144f1c62e9d6774848f84f07a9e8ec03f1fe404b773e9eff661b914",
    "noisy-detector-cv-nb-min_doc_freq1": "82686ea0ded5609a8cf1a08f5319450b80b217918f1b95a390bba589300309aa",
    "noisy-detector-cv-nb-min_doc_freq3": "dacc315b62344d657fd31e3dcbb0be90fac69806d87953b6d3143f1a1824de78",
    "noisy-detector-cv-svm-min_doc_freq1": "eeeb80d5f81efe1007c7b406eabb10771c20d71db6e11eb656aa0b385b8eb5dd",
    "noisy-detector-cv-svm-min_doc_freq3": "7bc778736d49f23a3655b11b019858171cd09de9be9e2f4ccadcc5d03853887c",
    "noisy-detector-nb-min_doc_freq1.json": "7c935a429673ef27b460e6c80f9bc446671661a6d34bb601f9b5648ba1f9aaa6",
    "noisy-detector-nb-min_doc_freq1.tsv": "b6c2b94d4aff5f723911f0abbbfac50fa6490db455588c24d8e74fcb72233a5f",
    "noisy-detector-nb-min_doc_freq3.json": "e4595fc767ddd20b9e70199e695f773cdaed87dd03ffdef57b22821aa4e81b14",
    "noisy-detector-nb-min_doc_freq3.tsv": "610ff8426ffac7d8adaaf40b0f0eee42efb2f704a6fb2d4e34a3c4bd18b842d1",
    "noisy-detector-svm-min_doc_freq1.json": "7b7e77d02286edd627099295830960c4d819b98fb60a3cdb9484ae178d7f9d17",
    "noisy-detector-svm-min_doc_freq1.tsv": "b6c2b94d4aff5f723911f0abbbfac50fa6490db455588c24d8e74fcb72233a5f",
    "noisy-detector-svm-min_doc_freq3.json": "425fef2ed6b956ab665a1c1831e9b40a97ea4206698c2a9cb9b9cfef25abd074",
    "noisy-detector-svm-min_doc_freq3.tsv": "610ff8426ffac7d8adaaf40b0f0eee42efb2f704a6fb2d4e34a3c4bd18b842d1",
    "grid-nb-best.json": "896ad9fc1b875469e321ee55871cce185561c397cf80992303b1fd11f8dc4eea",
    "grid-nb.csv": "cf35786c64d22fec91bf504b0612776637966134aa732b1600198cc118598126",
    "grid-svm-best.json": "6ecc2b8b4cc6021434c324ce348cd79b35c860a89ee47ff7e4437e2983cef3b1",
    "grid-svm.csv": "c7d97a54a0922619f950ebd91bb5ef861c8b78e9ddf7ccbd19b66582c5b0a698",
    "sweep.csv": "cf16ff23c871bf9cb391d84c8dcafb31256146f73ccff9bfb6e070c715d3d8a6",
}


def sha256(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def test_every_case_is_pinned():
    assert sorted(REPORT_DIGESTS) == sorted(REPORT_CASES)


@pytest.mark.parametrize("case", sorted(REPORT_CASES))
def test_report_digest(case, request, nb_detector, svm_detector):
    fixture, config = REPORT_CASES[case]
    documents = request.getfixturevalue(fixture)
    detector = None
    if config.extractor in DETECTOR_EXTRACTORS:
        detector = {"nb": nb_detector, "svm": svm_detector}[config.detector_base]
    report = run_experiment(config, documents, detector)
    assert sha256(report.to_json()) == REPORT_DIGESTS[case]


def test_grid_digest(synthetic_documents, nb_detector):
    grid = GridSpec(thresholds=(1, 2), decays=("exponential",), strengths=(0.0, 0.5))
    for classifier in ("nb", "svm"):
        base = ExperimentConfig(
            extractor="graph", classifier=classifier, proximity=ProximityParams()
        )
        result = grid_search(base, synthetic_documents, nb_detector, grid)
        assert sha256(result.to_csv()) == OTHER_DIGESTS[f"grid-{classifier}.csv"]
        assert sha256(result.best.to_json()) == OTHER_DIGESTS[f"grid-{classifier}-best.json"]


def test_sweep_digest(synthetic_documents, svm_detector):
    results = n_sentence_sweep(
        synthetic_documents, svm_detector, n_values=(1, 3), classifiers=("nb", "svm")
    )
    assert sha256(sweep_to_csv(results)) == OTHER_DIGESTS["sweep.csv"]


def noisy_sentences(n: int = 80, seed: int = 3) -> list[LabeledSentence]:
    """Sentences of 1-6 words drawn Zipf-weighted from 40, each label leaning a word over.

    Unlike the planted corpus, a few words occur in one or two sentences
    only, so small frequency cutoffs drop types, and the two detector bases
    reach different cross-validated accuracies below 1.
    """
    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(40)]
    weights = 1.0 / np.arange(1, 41)
    sentences = []
    for k in range(n):
        label = SUBJECTIVE if k % 2 == 0 else OBJECTIVE
        lean = np.roll(weights, 0 if label == SUBJECTIVE else 1)
        tokens = rng.choice(words, size=rng.integers(1, 7), p=lean / lean.sum())
        sentences.append(LabeledSentence(text=" ".join(tokens), label=label))
    return sentences


def detector_file_digests(sentences, base, min_doc_freq, tmp_path) -> tuple[str, str]:
    """SHA-256 of the vocabulary and model files of a detector trained on ``sentences``."""
    detector = make_detector(sentences, DetectorConfig(base=base), min_doc_freq=min_doc_freq)
    detector.vocab.save(tmp_path / "vocab.tsv")
    save_model(detector.model, tmp_path / "model.json")
    return sha256((tmp_path / "vocab.tsv").read_bytes()), sha256(
        (tmp_path / "model.json").read_bytes()
    )


@pytest.mark.parametrize("base", ["nb", "svm"])
@pytest.mark.parametrize("min_doc_freq", [1, 2, 40])  # 40 drops 22 of the 52 types
def test_detector_file_digests(base, min_doc_freq, synthetic_sentences, tmp_path):
    name = f"detector-{base}-min_doc_freq{min_doc_freq}"
    assert detector_file_digests(synthetic_sentences, base, min_doc_freq, tmp_path) == (
        OTHER_DIGESTS[f"{name}.tsv"], OTHER_DIGESTS[f"{name}.json"]
    )


@pytest.mark.parametrize("base", ["nb", "svm"])
@pytest.mark.parametrize("min_doc_freq", [1, 3])  # 3 drops 15 of the 37 types
def test_noisy_detector_file_digests(base, min_doc_freq, tmp_path):
    name = f"noisy-detector-{base}-min_doc_freq{min_doc_freq}"
    assert detector_file_digests(noisy_sentences(), base, min_doc_freq, tmp_path) == (
        OTHER_DIGESTS[f"{name}.tsv"], OTHER_DIGESTS[f"{name}.json"]
    )


@pytest.mark.parametrize("base", ["nb", "svm"])
def test_detector_cv_digest(base, synthetic_sentences):
    accuracies = detector_cv_accuracies(synthetic_sentences, base=base, folds=5)
    assert sha256(repr(accuracies)) == OTHER_DIGESTS[f"detector-cv-{base}"]


@pytest.mark.parametrize("base", ["nb", "svm"])
@pytest.mark.parametrize("min_doc_freq", [1, 3])
def test_noisy_detector_cv_digest(base, min_doc_freq):
    accuracies = detector_cv_accuracies(
        noisy_sentences(), base=base, folds=5, min_doc_freq=min_doc_freq
    )
    name = f"noisy-detector-cv-{base}-min_doc_freq{min_doc_freq}"
    assert sha256(repr(accuracies)) == OTHER_DIGESTS[name]
