"""Command-line interface.

Subcommands: verify-data, train-detector, extract, run, grid, sweep, oracle,
report. The data root can come from ``--data-root`` or the
``SUBJCUT_DATA_ROOT`` environment variable. Exit codes: 0 success, 1 check or
experiment failure, 2 usage error.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import click
import numpy as np

from . import corpus, evaluation, extraction, mincut
from .classifiers import (
    IndividualScores, NaiveBayesModel, TrainingError, VocabularyMismatchError, load_model,
    save_model,
)
from .extraction import Detector, DetectorConfig, ProximityParams
from .features import EmptyVocabularyError, Vocabulary

EXPECTED_COUNTS = {
    "positive_count": 1000,
    "negative_count": 1000,
    "subjective_count": 5000,
    "objective_count": 5000,
}

QUOTE_NAMES = ("quote.tok.gt9.5000", "subjective.txt")
PLOT_NAMES = ("plot.tok.gt9.5000", "objective.txt")
REVIEW_FOLDS = 10  # the folds the reviews are loaded into


def fail(message: str, code: int = 1) -> None:
    click.echo(f"subjcut: error: {message}", err=True)
    sys.exit(code)


def resolve_polarity_root(data_root: Path) -> Path:
    """Find the directory holding pos/ and neg/ under a dataset root."""
    for candidate in (data_root, data_root / "txt_sentoken", data_root / "polarity"):
        if (candidate / "pos").is_dir() and (candidate / "neg").is_dir():
            return candidate
    raise corpus.IngestionError(f"no pos/ and neg/ directories under {data_root}")


def resolve_subjectivity_files(data_root: Path) -> tuple[Path, Path]:
    """Find the subjective-snippet and objective-plot files under a root."""
    search_dirs = (data_root, data_root / "rotten_imdb", data_root / "subjectivity")
    quote = plot = None
    for d in search_dirs:
        for name in QUOTE_NAMES:
            if quote is None and (d / name).is_file():
                quote = d / name
        for name in PLOT_NAMES:
            if plot is None and (d / name).is_file():
                plot = d / name
    if quote is None or plot is None:
        raise corpus.IngestionError(f"no sentence corpus files under {data_root}")
    return quote, plot


def _data_root(value: str | None) -> Path:
    if value is None:
        raise click.UsageError("no data root: pass --data-root or set SUBJCUT_DATA_ROOT")
    root = Path(value)
    if not root.is_dir():
        raise click.UsageError(f"data root is not a directory: {root}")
    return root


data_root_option = click.option(
    "--data-root", envvar="SUBJCUT_DATA_ROOT", default=None, help="Dataset root directory."
)
output_dir_option = click.option(
    "--output-dir", default="out", show_default=True, help="Directory for result files."
)


def _ensure_outdir(path: str) -> Path:
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise click.UsageError(f"cannot create --output-dir: {exc}")
    return out


@click.group()
def main() -> None:
    """Polarity classification on min-cut subjectivity extracts."""


@main.command("verify-data")
@data_root_option
@output_dir_option
def cmd_verify_data(data_root: str | None, output_dir: str) -> None:
    """Check dataset layout and counts; write a manifest."""
    root = _data_root(data_root)
    try:
        pol_root = resolve_polarity_root(root)
        quote, plot = resolve_subjectivity_files(root)
        manifest = corpus.build_manifest(pol_root, quote, plot)
    except corpus.IngestionError as exc:
        raise click.UsageError(str(exc))
    out = _ensure_outdir(output_dir)
    (out / "manifest.json").write_text(manifest.to_json(), encoding="utf-8")
    problems = []
    for field, expected in EXPECTED_COUNTS.items():
        got = getattr(manifest, field)
        if got != expected:
            problems.append(f"{field}: expected {expected}, found {got}")
    for name in manifest.skipped:
        problems.append(f"skipped empty file: {name}")
    if problems:
        for p in problems:
            click.echo(p, err=True)
        fail(f"{len(problems)} dataset problem(s); see above")
    click.echo(f"ok: counts match, manifest written to {out / 'manifest.json'}")


def _load_datasets(root: Path):
    try:
        pol_root = resolve_polarity_root(root)
        quote, plot = resolve_subjectivity_files(root)
        documents = corpus.load_polarity_dataset(pol_root, REVIEW_FOLDS)
        return documents, corpus.load_subjectivity_dataset(quote, plot)
    except corpus.IngestionError as exc:
        raise click.UsageError(str(exc))


def _train_detector(sentences, base: str, **options) -> Detector:
    """A detector of ``base`` trained on ``sentences``; a corpus or setting it
    cannot be trained on is a usage error."""
    try:
        return evaluation.make_detector(sentences, DetectorConfig(base=base), **options)
    except (ValueError, TrainingError, EmptyVocabularyError) as exc:
        raise click.UsageError(str(exc))


@main.command("train-detector")
@data_root_option
@output_dir_option
@click.option("--base", type=click.Choice(["nb", "svm", "both"]), default="both", show_default=True)
@click.option("--alpha", default=1.0, show_default=True, help="NB smoothing.")
@click.option("--regularization", default=1.0, show_default=True, help="SVM penalty C.")
@click.option("--seed", default=0, show_default=True, type=click.IntRange(min=0))
@click.option("--min-doc-freq", default=1, show_default=True)
def cmd_train_detector(
    data_root, output_dir, base, alpha, regularization, seed, min_doc_freq
) -> None:
    """Train subjectivity detector model(s) on the sentence corpus."""
    root = _data_root(data_root)
    try:
        quote, plot = resolve_subjectivity_files(root)
        sentences = corpus.load_subjectivity_dataset(quote, plot)
    except corpus.IngestionError as exc:
        raise click.UsageError(str(exc))
    detectors = [  # every detector is trained before any is written
        _train_detector(
            sentences, b, alpha=alpha, regularization=regularization,
            seed=seed, min_doc_freq=min_doc_freq,
        )
        for b in (["nb", "svm"] if base == "both" else [base])
    ]
    out = _ensure_outdir(output_dir)
    for detector in detectors:
        b = detector.config.base
        detector.vocab.save(out / "detector_vocab.tsv")
        save_model(detector.model, out / f"detector_{b}.json")
        click.echo(f"trained {b} detector on {len(sentences)} sentences -> detector_{b}.json")


@main.command("extract")
@data_root_option
@output_dir_option
@click.option("--model-dir", default="out", show_default=True, help="Where trained detectors live.")
@click.option("--base", type=click.Choice(["nb", "svm"]), default="nb", show_default=True)
@click.option("--mode", type=click.Choice(["basic", "graph"]), default="basic", show_default=True)
@click.option("--threshold", default=1, show_default=True, help="Max proximal distance.")
@click.option(
    "--decay",
    type=click.Choice(list(extraction.DECAY_NAMES)),
    default="constant",
    show_default=True,
)
@click.option("--strength", default=0.0, show_default=True, help="Association weight.")
@click.option("--cross-paragraph-weight", default=1.0, show_default=True)
@click.option("--flipped", is_flag=True, help="Emit the objective complement instead.")
def cmd_extract(
    data_root, output_dir, model_dir, base, mode,
    threshold, decay, strength, cross_paragraph_weight, flipped,
) -> None:
    """Write extracts (JSONL plus a mirrored text tree) for every review."""
    root = _data_root(data_root)
    try:
        pol_root = resolve_polarity_root(root)
        documents = corpus.load_polarity_dataset(pol_root)
        proximity = None
        if mode == "graph":
            proximity = ProximityParams(threshold, decay, strength, cross_paragraph_weight)
        config = evaluation.ExperimentConfig(
            extractor=mode, detector_base=base, proximity=proximity, flipped=flipped
        )
        vocab = Vocabulary.load(Path(model_dir) / "detector_vocab.tsv")
        model_path = Path(model_dir) / f"detector_{base}.json"
        model = load_model(model_path, vocab)
        kind = "nb" if isinstance(model, NaiveBayesModel) else "svm"
        if kind != base:
            raise ValueError(f"{model_path}: holds an {kind} model, not the --base {base} one")
    except (corpus.IngestionError, OSError, ValueError, VocabularyMismatchError) as exc:
        raise click.UsageError(str(exc))
    out = _ensure_outdir(output_dir)
    detector = Detector(model=model, vocab=vocab, config=DetectorConfig(base=base))
    extracts = evaluation.make_extracts(config, documents, detector)
    (out / "extracts.jsonl").write_text(
        extraction.extracts_to_jsonl(extracts), encoding="utf-8"
    )
    by_label = {"positive": "pos", "negative": "neg"}
    for doc, ex in zip(documents, extracts):
        d = out / "extract_text" / by_label[doc.label]
        d.mkdir(parents=True, exist_ok=True)
        (d / f"{doc.id}.txt").write_text(ex.text + "\n", encoding="utf-8")
    rate = extraction.preservation_rate(extracts)
    click.echo(f"wrote {len(extracts)} extracts, mean word preservation {rate:.3f}")


def _config_from_spec(spec_path: str) -> evaluation.ExperimentConfig:
    try:
        spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    except ValueError as exc:  # a JSONDecodeError or UnicodeDecodeError
        raise click.UsageError(f"bad experiment spec: {spec_path} is not JSON ({exc})")
    if not isinstance(spec, dict):
        raise click.UsageError(
            f"bad experiment spec: a JSON object is required, got {type(spec).__name__}"
        )
    try:
        config = evaluation.ExperimentConfig.from_dict(spec)
    except (TypeError, ValueError, OverflowError) as exc:  # an int too large for a float
        raise click.UsageError(
            f"bad experiment spec ({exc}); valid extractors: {', '.join(evaluation.EXTRACTORS)}"
        )
    if config.folds != REVIEW_FOLDS:
        raise click.UsageError(
            f"bad experiment spec: folds must be the reviews' {REVIEW_FOLDS}, got {config.folds}"
        )
    return config


@main.command("run")
@click.option("--spec", "spec_path", required=True, type=click.Path(exists=True, dir_okay=False))
@data_root_option
@output_dir_option
@click.option("--seed", default=None, type=click.IntRange(min=0),
              help="Override the spec's seed.")
@click.option("--threads", default=None, type=click.IntRange(min=1),
              help="Parallel SVM folds; defaults to the core count, capped at the folds.")
def cmd_run(spec_path, data_root, output_dir, seed, threads) -> None:
    """Run one experiment from a JSON spec file; write report.json and report.txt."""
    root = _data_root(data_root)
    config = _config_from_spec(spec_path)
    if seed is not None:
        config = replace(config, seed=seed)
    documents, sentences = _load_datasets(root)
    detector = None
    if config.extractor in evaluation.DETECTOR_EXTRACTORS:
        detector = _train_detector(sentences, config.detector_base, seed=config.seed)
    out = _ensure_outdir(output_dir)
    report = evaluation.run_experiment(config, documents, detector, max_workers=threads)
    (out / "report.json").write_text(report.to_json(), encoding="utf-8")
    (out / "report.txt").write_text(report.render_text(), encoding="utf-8")
    click.echo(report.render_text(), nl=False)


@main.command("grid")
@data_root_option
@output_dir_option
@click.option("--base", type=click.Choice(["nb", "svm"]), default="nb", show_default=True)
@click.option("--classifier", type=click.Choice(["nb", "svm"]), default="nb", show_default=True)
@click.option("--thresholds", default="1,2,3", show_default=True)
@click.option("--decays", default="constant,exponential,inverse_square", show_default=True)
@click.option("--strengths", default="", help="Comma floats; default 0.0..1.0 step 0.1.")
@click.option("--weights", default="1.0", show_default=True, help="Cross-paragraph weights.")
@click.option("--seed", default=0, show_default=True, type=click.IntRange(min=0))
@click.option("--threads", default=None, type=click.IntRange(min=1),
              help="Parallel grid cells; defaults to the core count, capped at the cells.")
def cmd_grid(
    data_root, output_dir, base, classifier, thresholds, decays, strengths, weights, seed, threads
) -> None:
    """Grid-search proximity parameters; write grid.csv and best_report.json."""
    try:
        grid = evaluation.GridSpec(
            thresholds=tuple(int(x) for x in thresholds.split(",")),
            decays=tuple(decays.split(",")),
            strengths=tuple(float(x) for x in strengths.split(",")) if strengths else (),
            cross_paragraph_weights=tuple(float(x) for x in weights.split(",")),
        )
    except ValueError as exc:
        raise click.UsageError(f"bad grid axes: {exc}")
    root = _data_root(data_root)
    documents, sentences = _load_datasets(root)
    detector = _train_detector(sentences, base, seed=seed)
    out = _ensure_outdir(output_dir)
    base_config = evaluation.ExperimentConfig(
        extractor="graph", detector_base=base, classifier=classifier, seed=seed,
        proximity=ProximityParams(strength=0.0),
    )
    result = evaluation.grid_search(base_config, documents, detector, grid, max_workers=threads)
    (out / "grid.csv").write_text(result.to_csv(), encoding="utf-8")
    (out / "best_report.json").write_text(result.best.to_json(), encoding="utf-8")
    click.echo(f"best mean accuracy {result.best.mean_accuracy:.4f} "
               f"(oracle-selected over {len(result.cells)} settings)")
    click.echo(result.best.render_text(), nl=False)


@main.command("sweep")
@data_root_option
@output_dir_option
@click.option("--methods", default="top_n,first_n,last_n,least_n", show_default=True)
@click.option("--n-values", default="1,5,10,15,20,30,40", show_default=True)
@click.option("--classifier", type=click.Choice(["nb", "svm", "both"]), default="nb",
              show_default=True)
@click.option("--base", type=click.Choice(["nb", "svm"]), default="nb", show_default=True,
              help="Detector base used for scoring sentences.")
@click.option("--seed", default=0, show_default=True, type=click.IntRange(min=0))
def cmd_sweep(data_root, output_dir, methods, n_values, classifier, base, seed) -> None:
    """Accuracy of N-sentence extraction baselines over a range of N."""
    method_list = tuple(methods.split(","))
    for m in method_list:
        if m not in evaluation.N_EXTRACTORS:
            raise click.UsageError(
                f"unknown method {m!r}; valid: {', '.join(evaluation.N_EXTRACTORS)}"
            )
    try:
        n_list = tuple(int(x) for x in n_values.split(","))
    except ValueError:
        raise click.UsageError(f"--n-values must be comma-separated integers, got {n_values!r}")
    if min(n_list) < 1:
        raise click.UsageError(f"--n-values must all be >= 1, got {n_values!r}")
    root = _data_root(data_root)
    documents, sentences = _load_datasets(root)
    detector = _train_detector(sentences, base, seed=seed)
    out = _ensure_outdir(output_dir)
    classifiers = ("nb", "svm") if classifier == "both" else (classifier,)
    results = evaluation.n_sentence_sweep(
        documents,
        detector,
        methods=method_list,
        n_values=n_list,
        classifiers=classifiers,
        base_config=evaluation.ExperimentConfig(seed=seed),
    )
    (out / "sweep.csv").write_text(evaluation.sweep_to_csv(results), encoding="utf-8")
    click.echo(f"wrote {len(results)} sweep cells to {out / 'sweep.csv'}")


def _random_band(rng: np.random.Generator, n_max: int):
    """An instance of up to ``n_max`` items as its band, of a random reach from
    1 to n - 1; half of them have quarter scores, so ties abound."""
    n = int(rng.integers(1, n_max + 1))
    reach = int(rng.integers(1, max(n - 1, 1) + 1))
    scores = rng.uniform(0, 1, (2, n))
    if rng.random() < 0.5:
        scores = np.round(scores * 4) / 4
    weights = rng.uniform(0, 1, (2, reach, n))
    distance = np.arange(1, reach + 1)[:, None]
    weights[0, (weights[1] < 0.4) | (distance >= n - np.arange(n))] = 0.0
    return IndividualScores(class1=scores[0], class2=scores[1]), weights[0]


def _both_routes(ind: IndividualScores, band: np.ndarray) -> list[tuple[int, ...]]:
    """The source sides of ``ind`` cut as ``band`` and as ``band`` widened with
    zero rows past ``BANDED_REACH_LIMIT``, which only max-flow cuts."""
    wide = np.vstack([band, np.zeros((mincut.BANDED_REACH_LIMIT + 1, len(ind)))])
    sides = (mincut.cut_band(ind, [len(ind)], w) for w in (band, wide))
    return [tuple(np.flatnonzero(side).tolist()) for side in sides]


WORKED_EXAMPLE_IND = IndividualScores(
    class1=np.array([0.8, 0.5, 0.1]), class2=np.array([0.2, 0.5, 0.9])
)
# the pairs (0, 1), (1, 2) at distance 1 and (0, 2) at distance 2
WORKED_EXAMPLE_BAND = np.array([[1.0, 0.2, 0.0], [0.1, 0.0, 0.0]])


@main.command("oracle")
@click.option(
    "--n-max", default=mincut.BRUTE_FORCE_LIMIT, show_default=True,
    type=click.IntRange(min=1, max=mincut.BRUTE_FORCE_LIMIT),
)
@click.option("--trials", default=200, show_default=True, type=click.IntRange(min=0))
@click.option("--seed", default=0, show_default=True, type=click.IntRange(min=0))
def cmd_oracle(n_max, trials, seed) -> None:
    """Check cut_band against brute-force enumeration on random banded
    instances, each cut by the banded solver where its band is narrow and by
    max-flow once widened."""
    if trials == 0:
        click.echo("warning: 0 trials requested; vacuous pass", err=True)
        click.echo("oracle: pass (0 trials)")
        return
    rng = np.random.default_rng(seed)
    for trial in range(trials):
        ind, band = _random_band(rng, n_max)
        scaled = mincut.scale_instance(ind, mincut.AssociationScores.from_band(band))
        # compare at the scaled-integer level, where equality is exact
        want = mincut.brute_force_min(*scaled)
        sides = _both_routes(ind, band)
        costs = [mincut.partition_cost(*scaled, side) for side in sides]
        if costs != [want.cost] * 2 or sides[0] != sides[1]:
            click.echo(f"counterexample at trial {trial}:", err=True)
            click.echo(f"  class1={ind.class1.tolist()}", err=True)
            click.echo(f"  class2={ind.class2.tolist()}", err=True)
            click.echo(f"  band={band.tolist()}", err=True)
            for name, side, cost in zip(("cut", "widened cut"), sides, costs):
                click.echo(f"  {name} cost={int(cost)} side={side}", err=True)
            click.echo(f"  brute force cost={int(want.cost)} side={want.source_side}", err=True)
            fail("cut_band disagrees with brute force")
    sides = _both_routes(WORKED_EXAMPLE_IND, WORKED_EXAMPLE_BAND)
    assoc = mincut.AssociationScores.from_band(WORKED_EXAMPLE_BAND)
    costs = [mincut.partition_cost(WORKED_EXAMPLE_IND, assoc, side) for side in sides]
    if sides != [(0, 1)] * 2 or max(abs(cost - 1.1) for cost in costs) > 1e-9:
        fail(f"worked example failed: sides={sides} costs={costs}")
    click.echo(
        f"oracle: pass ({trials} trials on both routes, n <= {n_max}, worked example cost 1.1)"
    )


@main.command("report")
@click.argument("report_file", type=click.Path(exists=True, dir_okay=False))
def cmd_report(report_file) -> None:
    """Render a stored JSON report as aligned text."""
    try:
        report = evaluation.ExperimentReport.from_json(
            Path(report_file).read_text(encoding="utf-8")
        )
        text = report.render_text()
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise click.UsageError(f"{report_file}: not an experiment report ({exc!r})")
    click.echo(text, nl=False)


if __name__ == "__main__":
    main()
