import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import subjcut
from subjcut.cli import main

from planted_corpus import write_polarity_tree, make_sentence_corpus


@pytest.fixture()
def runner():
    return CliRunner()


def write_dataset_root(root, n_pos=20, n_neg=20, n_subj=30, n_obj=30):
    write_polarity_tree(root, n_pos=n_pos, n_neg=n_neg)
    sentences = make_sentence_corpus(n_each=max(n_subj, n_obj))
    subjective = [s.text for s in sentences if s.label == "subjective"][:n_subj]
    objective = [s.text for s in sentences if s.label == "objective"][:n_obj]
    (root / "quote.tok.gt9.5000").write_text("\n".join(subjective) + "\n")
    (root / "plot.tok.gt9.5000").write_text("\n".join(objective) + "\n")


@pytest.fixture()
def small_data_root(tmp_path):
    root = tmp_path / "data"
    root.mkdir()
    write_dataset_root(root)
    return root


class TestVerifyData:
    def test_published_counts_pass(self, runner, tmp_path):
        root = tmp_path / "data"
        root.mkdir()
        write_dataset_root(root, n_pos=1000, n_neg=1000, n_subj=5000, n_obj=5000)
        result = runner.invoke(
            main, ["verify-data", "--data-root", str(root), "--output-dir", str(tmp_path / "out")]
        )
        assert result.exit_code == 0, result.output
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["positive_count"] == 1000
        assert manifest["subjective_count"] == 5000

    def test_count_mismatch_fails_with_detail(self, runner, small_data_root, tmp_path):
        result = runner.invoke(
            main,
            ["verify-data", "--data-root", str(small_data_root),
             "--output-dir", str(tmp_path / "out")],
        )
        assert result.exit_code == 1
        assert "positive_count: expected 1000, found 20" in result.output

    def test_wrong_root_is_usage_error(self, runner, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        result = runner.invoke(main, ["verify-data", "--data-root", str(empty)])
        assert result.exit_code == 2

    def test_missing_root_is_usage_error(self, runner):
        result = runner.invoke(main, ["verify-data"], env={"SUBJCUT_DATA_ROOT": None})
        assert result.exit_code == 2


class TestTrainAndExtract:
    @pytest.mark.parametrize(
        "args, message",
        [
            (["--min-doc-freq", "0"], "min_doc_freq must be >= 1"),
            (["--alpha", "0", "--base", "nb"], "alpha must be > 0"),
            (["--regularization", "0", "--base", "svm"], "regularization must be > 0"),
            (["--regularization", "0"], "regularization must be > 0"),
            (["--alpha", "nan", "--base", "nb"], "alpha must be > 0 and finite, got nan"),
            (["--regularization", "nan"], "regularization must be > 0 and finite, got nan"),
        ],
    )
    def test_invalid_hyperparameters_are_usage_errors(
        self, runner, small_data_root, tmp_path, args, message
    ):
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            ["train-detector", "--data-root", str(small_data_root), "--output-dir", str(out)]
            + args,
        )
        assert result.exit_code == 2, result.output
        assert message in result.output
        assert not list(out.glob("detector_*"))  # nothing written, not even the valid base

    def test_train_then_extract(self, runner, small_data_root, tmp_path):
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            ["train-detector", "--data-root", str(small_data_root),
             "--output-dir", str(out), "--base", "nb"],
        )
        assert result.exit_code == 0, result.output
        assert (out / "detector_nb.json").exists()
        assert (out / "detector_vocab.tsv").exists()

        result = runner.invoke(
            main,
            ["extract", "--data-root", str(small_data_root), "--model-dir", str(out),
             "--output-dir", str(out), "--base", "nb", "--mode", "basic"],
        )
        assert result.exit_code == 0, result.output
        lines = (out / "extracts.jsonl").read_text().splitlines()
        assert len(lines) == 40
        assert (out / "extract_text" / "pos").is_dir()

    def test_graph_mode_flags(self, runner, small_data_root, tmp_path):
        out = tmp_path / "out"
        runner.invoke(
            main,
            ["train-detector", "--data-root", str(small_data_root),
             "--output-dir", str(out), "--base", "nb"],
        )
        result = runner.invoke(
            main,
            ["extract", "--data-root", str(small_data_root), "--model-dir", str(out),
             "--output-dir", str(out), "--base", "nb", "--mode", "graph",
             "--threshold", "2", "--decay", "exponential", "--strength", "0.2"],
        )
        assert result.exit_code == 0, result.output

    def test_mismatched_vocabulary_is_usage_error(self, runner, small_data_root, tmp_path):
        out = tmp_path / "out"
        runner.invoke(
            main,
            ["train-detector", "--data-root", str(small_data_root),
             "--output-dir", str(out), "--base", "nb"],
        )
        vocab_file = out / "detector_vocab.tsv"
        size = len(vocab_file.read_text(encoding="utf-8").splitlines())
        with vocab_file.open("a", encoding="utf-8") as f:
            f.write(f"zzzunseen\t{size}\n")
        result = runner.invoke(
            main,
            ["extract", "--data-root", str(small_data_root), "--model-dir", str(out),
             "--output-dir", str(out), "--base", "nb"],
        )
        assert result.exit_code == 2, result.output
        assert "different vocabulary" in result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)

    def test_malformed_vocabulary_is_usage_error(self, runner, small_data_root, tmp_path):
        out = tmp_path / "out"
        runner.invoke(
            main,
            ["train-detector", "--data-root", str(small_data_root),
             "--output-dir", str(out), "--base", "nb"],
        )
        vocab_file = out / "detector_vocab.tsv"
        with vocab_file.open("a", encoding="utf-8") as f:
            f.write("zzzunseen\tx\n")
        size = len(vocab_file.read_text(encoding="utf-8").splitlines())
        result = runner.invoke(
            main,
            ["extract", "--data-root", str(small_data_root), "--model-dir", str(out),
             "--output-dir", str(out), "--base", "nb"],
        )
        assert result.exit_code == 2, result.output
        assert f"line {size}: index 'x' is not an integer >= 0" in result.output
        assert "detector_vocab.tsv" in result.output

    @pytest.mark.parametrize(
        "payload, problem",
        [('{"format": "subjcut-model/1"}', "model lacks kind, vocab_digest"),
         ("[1, 2]", "a model is a JSON object, got list"),
         ('{"format": "subjcut-model/1", "kind": "nb", "vocab_digest": "DIGEST",'
          ' "hyperparameters": {"alpha": 1.0}, "parameters": {}}',
          "model lacks log_prior"),
         ('{"format": "subjcut-model/1", "kind": "svm", "vocab_digest": "DIGEST",'
          ' "hyperparameters": {"regularization": 1.0},'
          ' "parameters": {"weights": [], "bias": 0}}',
          "model lacks seed"),
         ('{"format": "subjcut-model/1", "kind": "nb", "vocab_digest": "DIGEST",'
          ' "hyperparameters": {"alpha": 1.0}, "parameters": []}',
          "model's parameters is not an object"),
         ('{"format": "subjcut-model/1", "kind": "nb", "vocab_digest": "DIGEST",'
          ' "hyperparameters": {"alpha": 1.0},'
          ' "parameters": {"log_prior": [-0.7, -0.7], "log_likelihood": "abc"}}',
          "model's log_likelihood is not a (2, ")],
    )
    def test_malformed_model_file_is_usage_error(
        self, runner, small_data_root, tmp_path, payload, problem
    ):
        # "DIGEST" stands for the trained detector's vocabulary digest, so the
        # file gets past the vocabulary check to its inner keys
        out = tmp_path / "out"
        runner.invoke(
            main,
            ["train-detector", "--data-root", str(small_data_root),
             "--output-dir", str(out), "--base", "nb"],
        )
        model_file = out / "detector_nb.json"
        digest = json.loads(model_file.read_text(encoding="utf-8"))["vocab_digest"]
        model_file.write_text(payload.replace("DIGEST", digest), encoding="utf-8")
        result = runner.invoke(
            main,
            ["extract", "--data-root", str(small_data_root), "--model-dir", str(out),
             "--output-dir", str(out), "--base", "nb"],
        )
        assert result.exit_code == 2, result.output
        assert "detector_nb.json" in result.output and problem in result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)

    def test_model_of_the_other_base_is_usage_error(self, runner, small_data_root, tmp_path):
        models = tmp_path / "models"
        runner.invoke(
            main,
            ["train-detector", "--data-root", str(small_data_root),
             "--output-dir", str(models), "--base", "nb"],
        )
        (models / "detector_svm.json").write_bytes((models / "detector_nb.json").read_bytes())
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            ["extract", "--data-root", str(small_data_root), "--model-dir", str(models),
             "--output-dir", str(out), "--base", "svm"],
        )
        assert result.exit_code == 2, result.output
        assert "detector_svm.json: holds an nb model, not the --base svm one" in result.output
        assert not out.exists()

    def test_invalid_proximity_flag_is_usage_error(self, runner, small_data_root, tmp_path):
        out = tmp_path / "out"
        runner.invoke(
            main,
            ["train-detector", "--data-root", str(small_data_root),
             "--output-dir", str(out), "--base", "nb"],
        )
        result = runner.invoke(
            main,
            ["extract", "--data-root", str(small_data_root), "--model-dir", str(out),
             "--output-dir", str(out), "--mode", "graph", "--threshold", "0"],
        )
        assert result.exit_code == 2, result.output
        assert "threshold must be a positive integer" in result.output


    def test_strength_beyond_the_solver_bound_is_usage_error(
        self, runner, small_data_root, tmp_path
    ):
        out = tmp_path / "out"
        runner.invoke(
            main,
            ["train-detector", "--data-root", str(small_data_root),
             "--output-dir", str(out), "--base", "nb"],
        )
        result = runner.invoke(
            main,
            ["extract", "--data-root", str(small_data_root), "--model-dir", str(out),
             "--output-dir", str(out), "--mode", "graph", "--strength", "1e300"],
        )
        assert result.exit_code == 2, result.output
        assert "2**31 - 1" in result.output
        assert not (out / "extracts.jsonl").exists()

    @pytest.mark.parametrize(
        "vocab, problem",
        [(None, "Not a directory"), ("dir", "Is a directory")],
    )
    def test_unreadable_model_dir_is_usage_error(
        self, runner, small_data_root, tmp_path, vocab, problem
    ):
        # a --model-dir that is a file, or whose vocabulary path is a directory
        model_dir = tmp_path / "models"
        if vocab is None:
            model_dir.write_text("")
        else:
            (model_dir / "detector_vocab.tsv").mkdir(parents=True)
        result = runner.invoke(
            main,
            ["extract", "--data-root", str(small_data_root), "--model-dir", str(model_dir),
             "--output-dir", str(tmp_path / "out"), "--base", "nb"],
        )
        assert result.exit_code == 2, result.output
        assert problem in result.output and "detector_vocab.tsv" in result.output
        assert not (tmp_path / "out" / "extracts.jsonl").exists()


OUTPUT_COMMANDS = ["verify-data", "train-detector", "extract", "run", "grid", "sweep"]


def command_inputs(runner, command, data_root, tmp_path) -> list[str]:
    """The options besides the data root and output directory that ``command``
    needs: a spec for ``run``, and for ``extract`` a model directory, trained
    on ``data_root`` when one is given."""
    if command == "run":
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"extractor": "full_review"}))
        return ["--spec", str(spec)]
    if command == "extract":
        models = tmp_path / "models"
        if data_root is not None:
            result = runner.invoke(
                main,
                ["train-detector", "--data-root", str(data_root),
                 "--output-dir", str(models), "--base", "nb"],
            )
            assert result.exit_code == 0, result.output
        return ["--model-dir", str(models)]
    return []


@pytest.mark.parametrize("below", ["", "sub"])
@pytest.mark.parametrize("command", OUTPUT_COMMANDS)
def test_output_dir_that_cannot_be_made_is_usage_error(
    runner, small_data_root, tmp_path, command, below
):
    # --output-dir names an existing file, or a directory below one; the
    # inputs are good, since a command checks them before it makes the directory
    taken = tmp_path / "taken"
    taken.write_text("kept")
    args = command_inputs(runner, command, small_data_root, tmp_path)
    result = runner.invoke(
        main,
        [command, *args, "--data-root", str(small_data_root),
         "--output-dir", str(taken / below)],
    )
    assert result.exit_code == 2, result.output
    assert "cannot create --output-dir" in result.output and str(taken) in result.output
    assert taken.read_text() == "kept"


@pytest.mark.parametrize("command", OUTPUT_COMMANDS)
def test_refused_command_makes_no_output_dir(runner, tmp_path, command):
    # a data root with neither reviews nor sentence files
    empty_root = tmp_path / "empty"
    empty_root.mkdir()
    args = command_inputs(runner, command, None, tmp_path)
    out = tmp_path / "out"
    result = runner.invoke(
        main, [command, *args, "--data-root", str(empty_root), "--output-dir", str(out)]
    )
    assert result.exit_code == 2, result.output
    assert "under" in result.output and str(empty_root) in result.output
    assert not out.exists()


@pytest.mark.parametrize("command", ["train-detector", "run", "grid", "sweep"])
def test_untrainable_sentence_corpus_is_usage_error(runner, small_data_root, tmp_path, command):
    # a blank quote file leaves the detector only objective sentences to learn from
    (small_data_root / "quote.tok.gt9.5000").write_text("\n")
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"extractor": "basic"}))
    args = ["--spec", str(spec)] if command == "run" else []
    out = tmp_path / "out"
    result = runner.invoke(
        main, [command, *args, "--data-root", str(small_data_root), "--output-dir", str(out)]
    )
    assert result.exit_code == 2, result.output
    assert "training data must contain both classes" in result.output
    assert not out.exists()


@pytest.mark.parametrize("command", ["extract", "run", "grid", "sweep"])
def test_review_id_repeated_in_one_directory_is_usage_error(
    runner, small_data_root, tmp_path, command
):
    # two files of pos/ whose stem is one review id: extract would write one
    # extract_text file over the other
    args = command_inputs(runner, command, small_data_root, tmp_path)
    pos = small_data_root / "pos"
    first = sorted(pos.iterdir())[0]
    twin = first.with_suffix(".md")
    twin.write_text("another review\n")
    out = tmp_path / "out"
    result = runner.invoke(
        main, [command, *args, "--data-root", str(small_data_root), "--output-dir", str(out)]
    )
    assert result.exit_code == 2, result.output
    assert str(first) in result.output and str(twin) in result.output
    assert not out.exists()


class TestRun:
    def test_run_writes_identical_reports(self, runner, small_data_root, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"extractor": "basic", "classifier": "nb", "seed": 5}))
        outputs = []
        for out_name in ("out1", "out2"):
            out = tmp_path / out_name
            result = runner.invoke(
                main,
                ["run", "--spec", str(spec), "--data-root", str(small_data_root),
                 "--output-dir", str(out)],
            )
            assert result.exit_code == 0, result.output
            outputs.append((out / "report.json").read_bytes())
        assert outputs[0] == outputs[1]
        report = json.loads(outputs[0])
        assert "mean_accuracy" in report

    def test_unknown_extractor_lists_valid_names(self, runner, small_data_root, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"extractor": "middle_half"}))
        result = runner.invoke(
            main, ["run", "--spec", str(spec), "--data-root", str(small_data_root)]
        )
        assert result.exit_code == 2
        assert "full_review" in result.output

    def test_invalid_min_doc_freq_is_refused_before_running(
        self, runner, small_data_root, tmp_path
    ):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"extractor": "full_review", "min_doc_freq": 0}))
        out = tmp_path / "o"
        result = runner.invoke(
            main,
            ["run", "--spec", str(spec), "--data-root", str(small_data_root),
             "--output-dir", str(out)],
        )
        assert result.exit_code == 2, result.output
        assert "min_doc_freq must be >= 1" in result.output
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize(
        "spec, message",
        [
            ({"folds": 2.5}, "folds must be an integer, got 2.5"),
            ({"folds": True}, "folds must be an integer, got True"),
            ({"classifier": "svm", "seed": 0.5}, "seed must be an integer, got 0.5"),
            ({"seed": -1}, "seed must be >= 0, got -1"),
            ({"extractor": "first_n", "n_sentences": 2.5}, "n_sentences must be an integer"),
            ({"flipped": "no"}, "flipped must be true or false, got 'no'"),
            ({"min_doc_freq": 1.5}, "min_doc_freq must be an integer, got 1.5"),
            ({"extractor": "graph", "proximity": {}}, "proximity must be ProximityParams, got {}"),
            ({"extractor": "graph", "proximity": 0}, "proximity must be ProximityParams, got 0"),
            ({"extractor": "graph", "proximity": []}, "proximity must be ProximityParams, got []"),
            ({"folds": 5}, "folds must be the reviews' 10, got 5"),
            ({"folds": 20}, "folds must be the reviews' 10, got 20"),
        ],
    )
    def test_malformed_spec_is_refused_before_running(
        self, runner, small_data_root, tmp_path, spec, message
    ):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / "o"
        result = runner.invoke(
            main,
            ["run", "--spec", str(path), "--data-root", str(small_data_root),
             "--output-dir", str(out)],
        )
        assert result.exit_code == 2, result.output
        assert "bad experiment spec" in result.output and message in result.output
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize(
        "proximity, message",
        [
            ({"strength": True}, "strength must be a number, got True"),
            ({"threshold": True, "strength": 0.5}, "threshold must be a number, got True"),
            ({"strength": 0.5, "cross_paragraph_weight": False},
             "cross_paragraph_weight must be a number, got False"),
            ({"threshold": "3"}, "threshold must be a number, got '3'"),
            ({"strength": "0.5"}, "strength must be a number, got '0.5'"),
            ({"threshold": float("inf")}, "threshold must be a positive integer, got inf"),
        ],
    )
    def test_malformed_proximity_is_refused_before_running(
        self, runner, small_data_root, tmp_path, proximity, message
    ):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"extractor": "graph", "proximity": proximity}))
        out = tmp_path / "o"
        result = runner.invoke(
            main,
            ["run", "--spec", str(path), "--data-root", str(small_data_root),
             "--output-dir", str(out)],
        )
        assert result.exit_code == 2, result.output
        assert "bad experiment spec" in result.output and message in result.output
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("command", ["run", "grid", "sweep", "train-detector", "oracle"])
    def test_negative_seed_flag_is_usage_error(self, runner, small_data_root, tmp_path, command):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"extractor": "full_review"}))
        args = {"run": ["--spec", str(spec)], "oracle": []}.get(
            command, ["--data-root", str(small_data_root)]
        )
        result = runner.invoke(main, [command, *args, "--seed", "-1"])
        assert result.exit_code == 2, result.output
        assert "-1 is not in the range" in result.output

    @pytest.mark.parametrize("text", ["{not json", "[]", '[["extractor", "basic"]]'])
    def test_spec_that_is_not_a_json_object_is_usage_error(
        self, runner, small_data_root, tmp_path, text
    ):
        spec = tmp_path / "spec.json"
        spec.write_text(text)
        result = runner.invoke(
            main, ["run", "--spec", str(spec), "--data-root", str(small_data_root)]
        )
        assert result.exit_code == 2, result.output
        assert "bad experiment spec" in result.output

    @pytest.mark.parametrize(
        "strength, message",
        [(1e300, "2**31 - 1"), (10**400, "too large to convert to float")],
        ids=["float", "int"],
    )
    def test_strength_beyond_the_solver_bound_is_usage_error(
        self, runner, small_data_root, tmp_path, strength, message
    ):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"extractor": "graph", "proximity": {"strength": strength}}))
        out = tmp_path / "o"
        result = runner.invoke(
            main,
            ["run", "--spec", str(spec), "--data-root", str(small_data_root),
             "--output-dir", str(out)],
        )
        assert result.exit_code == 2, result.output
        assert message in result.output
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_below_one_are_usage_errors(self, runner, small_data_root, tmp_path, threads):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"extractor": "full_review", "classifier": "svm"}))
        out = tmp_path / "o"
        result = runner.invoke(
            main,
            ["run", "--spec", str(spec), "--data-root", str(small_data_root),
             "--output-dir", str(out), "--threads", threads],
        )
        assert result.exit_code == 2, result.output
        assert "--threads" in result.output
        assert not out.exists()

    def test_seed_flag_overrides_spec(self, runner, small_data_root, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"extractor": "full_review", "seed": 1}))
        out = tmp_path / "o"
        result = runner.invoke(
            main,
            ["run", "--spec", str(spec), "--data-root", str(small_data_root),
             "--output-dir", str(out), "--seed", "9"],
        )
        assert result.exit_code == 0
        assert json.loads((out / "report.json").read_text())["config"]["seed"] == 9


class TestSweepAndGrid:
    def test_sweep_writes_csv(self, runner, small_data_root, tmp_path):
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            ["sweep", "--data-root", str(small_data_root), "--output-dir", str(out),
             "--methods", "top_n,first_n", "--n-values", "1,3", "--classifier", "nb"],
        )
        assert result.exit_code == 0, result.output
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "method,N,classifier,fold,accuracy,preservation"
        assert len(lines) == 1 + 2 * 2 * 10

    def test_sweep_rejects_unknown_method(self, runner, small_data_root, tmp_path):
        result = runner.invoke(
            main,
            ["sweep", "--data-root", str(small_data_root),
             "--output-dir", str(tmp_path / "o"), "--methods", "middle_n"],
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "args, message",
        [
            (["grid", "--thresholds", "0"], "bad grid axes"),
            (["grid", "--thresholds", "x"], "bad grid axes"),
            (["grid", "--strengths", "-0.5"], "bad grid axes"),
            (["sweep", "--n-values", "0"], "--n-values"),
            (["sweep", "--n-values", "1,x"], "--n-values"),
            (["grid", "--strengths", "0.5,1e300"], "2**31 - 1"),
            (["grid", "--strengths", "inf"], "must be finite"),
        ],
    )
    def test_bad_axis_values_are_usage_errors(
        self, runner, small_data_root, tmp_path, args, message
    ):
        result = runner.invoke(
            main, args + ["--data-root", str(small_data_root), "--output-dir", str(tmp_path / "o")]
        )
        assert result.exit_code == 2, result.output
        assert message in result.output
        assert not (tmp_path / "o").exists()  # refused before any data was read

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_below_one_are_usage_errors(self, runner, small_data_root, tmp_path, threads):
        result = runner.invoke(
            main,
            ["grid", "--data-root", str(small_data_root), "--output-dir", str(tmp_path / "o"),
             "--thresholds", "1", "--decays", "constant", "--strengths", "0.0",
             "--threads", threads],
        )
        assert result.exit_code == 2, result.output
        assert "--threads" in result.output
        assert not (tmp_path / "o").exists()

    def test_grid_writes_csv_and_best(self, runner, small_data_root, tmp_path):
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            ["grid", "--data-root", str(small_data_root), "--output-dir", str(out),
             "--thresholds", "1", "--decays", "constant", "--strengths", "0.0,0.1"],
        )
        assert result.exit_code == 0, result.output
        assert (out / "grid.csv").exists()
        assert (out / "best_report.json").exists()
        assert "oracle-selected" in result.output


class TestOracle:
    def test_default_fixture_and_trials_pass(self, runner):
        result = runner.invoke(main, ["oracle", "--trials", "40"])
        assert result.exit_code == 0
        assert "pass (40 trials on both routes" in result.output
        assert "cost 1.1" in result.output

    def test_banded_disagreement_prints_a_counterexample(self, runner, monkeypatch):
        solve = subjcut.mincut._min_marginals
        monkeypatch.setattr(subjcut.mincut, "_min_marginals", lambda *args: ~solve(*args))
        result = runner.invoke(main, ["oracle", "--trials", "5"])
        assert result.exit_code == 1
        assert "counterexample at trial " in result.output
        assert "band=" in result.output and "widened cut cost=" in result.output
        assert "cut_band disagrees with brute force" in result.output
        assert "pass" not in result.output

    def test_max_flow_disagreement_prints_a_counterexample(self, runner, monkeypatch):
        solve = subjcut.mincut._source_side
        monkeypatch.setattr(subjcut.mincut, "_source_side", lambda *args: ~solve(*args))
        result = runner.invoke(main, ["oracle", "--trials", "5"])
        assert result.exit_code == 1
        assert "counterexample at trial " in result.output
        assert "brute force cost=" in result.output
        assert "cut_band disagrees with brute force" in result.output
        assert "pass" not in result.output

    def test_minimal_side_that_is_not_canonical_prints_a_counterexample(
        self, runner, monkeypatch
    ):
        # without a pair arc, keeping the tied items still gives a minimum cut,
        # but not the canonical side, which drops them
        cut_band = subjcut.mincut.cut_band

        def keeps_ties(scores, counts, weights):
            class1, class2, caps = subjcut.mincut.integer_instance(scores, weights)
            return cut_band(scores, counts, weights) if caps.any() else class1 >= class2

        monkeypatch.setattr(subjcut.mincut, "cut_band", keeps_ties)
        result = runner.invoke(main, ["oracle", "--trials", "40"])
        assert result.exit_code == 1
        assert "counterexample at trial 20:" in result.output
        assert "  cut cost=1250000 side=(1,)" in result.output
        assert "  brute force cost=1250000 side=()" in result.output
        assert "cut_band disagrees with brute force" in result.output
        assert "pass" not in result.output

    def test_n_max_beyond_brute_force_is_usage_error(self, runner):
        result = runner.invoke(main, ["oracle", "--n-max", "21", "--trials", "5"])
        assert result.exit_code == 2
        assert "21 is not in the range 1<=x<=20" in result.output

    def test_zero_trials_vacuous_with_warning(self, runner):
        result = runner.invoke(main, ["oracle", "--trials", "0"])
        assert result.exit_code == 0
        assert "vacuous" in result.output

    def test_negative_trials_are_usage_error(self, runner):
        result = runner.invoke(main, ["oracle", "--trials", "-3"])
        assert result.exit_code == 2
        assert "pass" not in result.output

    def test_nonpositive_n_max_is_usage_error(self, runner):
        result = runner.invoke(main, ["oracle", "--n-max", "0", "--trials", "5"])
        assert result.exit_code == 2
        assert "--n-max" in result.output


class TestReport:
    def test_renders_stored_report(self, runner, small_data_root, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"extractor": "full_review"}))
        out = tmp_path / "out"
        runner.invoke(
            main,
            ["run", "--spec", str(spec), "--data-root", str(small_data_root),
             "--output-dir", str(out)],
        )
        result = runner.invoke(main, ["report", str(out / "report.json")])
        assert result.exit_code == 0
        assert "mean accuracy" in result.output

    @pytest.mark.parametrize("text", ['{"x": 1}', "{not json", "[1]"])
    def test_file_that_is_not_a_report_is_usage_error(self, runner, tmp_path, text):
        path = tmp_path / "report.json"
        path.write_text(text)
        result = runner.invoke(main, ["report", str(path)])
        assert result.exit_code == 2, result.output
        assert "not an experiment report" in result.output


def test_importing_the_cli_does_not_import_scipy_stats():
    """Every CLI command pays for the imports; the t-test needs only ``scipy.special``."""
    src = str(Path(subjcut.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, subjcut, subjcut.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
