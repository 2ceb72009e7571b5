"""End-to-end CLI tests driving every subcommand in-process."""

import csv
import io
import json
import urllib.error

import numpy as np
import pytest

from fuzzformer import baselines as bl
from fuzzformer import container, training
from fuzzformer.checkpoint import load_checkpoint, save_checkpoint
from fuzzformer.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from fuzzformer.data import WindowedDataset, load_csv, make_synthetic


TRAIN_FLAGS = [
    "--lookback", "12", "--horizon", "4", "--channels", "3",
    "--lstm-layers", "1", "--hidden-width", "4", "--mha-layers", "1",
    "--attention-heads", "2", "--latent-width", "2", "--rules", "2",
    "--ar-order", "2", "--batch-size", "16", "--epochs", "1", "--seed", "5",
]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    code = main([
        "prepare", "--synthetic", "400", "--seed", "3",
        "--lookback", "12", "--horizon", "4", "--out", str(root / "data"),
    ])
    assert code == EXIT_OK
    code = main([
        "train", "--dataset", str(root / "data" / "dataset.bin"),
        "--out", str(root / "run"), *TRAIN_FLAGS,
    ])
    assert code == EXIT_OK
    return root


def write_window(path, n_points):
    """A window file of the first ``n_points`` rows of the synthetic channels."""
    series = make_synthetic(n_points=n_points, seed=3)
    with open(path, "w") as fh:
        fh.write("date," + ",".join(s.name for s in series) + "\n")
        for i in range(n_points):
            fh.write(series[0].dates[i] + "," + ",".join(f"{s.values[i]:.8f}" for s in series) + "\n")


def expected_baseline_output(ds, method, extra):
    """The stdout lines and results-CSV rows of ``baseline --method``, split by split."""
    flags = dict(zip(extra[::2], extra[1::2]))
    setting = "12/4"
    if method == "arima":
        order = bl.ArimaOrder(*(int(flags[f"--{k}"]) for k in "pdq"))
        label = f"p={order.p},d={order.d},q={order.q}"
    elif method == "lstm":
        label = f"hidden={flags['--hidden']},layers={flags['--layers']}"
        model = training.train_lstm_baseline(
            ds, hidden=int(flags["--hidden"]), layers=int(flags["--layers"]),
            epochs=int(flags["--epochs"]), seed=int(flags["--seed"]),
        )
    lines, rows = [], []
    for split in ("train", "valid", "test"):
        origins = ds.origins_for(split)
        target = ds.batch(origins, history=1).y_target
        windows = ds.window_main(origins)
        if method == "persistence":
            preds = np.stack([bl.persistence_forecast(w, ds.horizon) for w in windows])
            value = bl.rmse(preds, target)
            lines.append(f"persistence {setting} {split}: rmse={value:.6f}")
            rows.append(f"persistence,,{setting},{split},{value:.6f}")
        elif method == "arima":
            preds, ok = bl.evaluate_arima_windows(windows, order, ds.horizon)
            if not ok.any():
                lines.append(f"arima({label}) {setting} {split}: all {ok.size} windows skipped")
                continue
            value = bl.rmse(preds[ok], target[ok])
            lines.append(
                f"arima({label}) {setting} {split}: rmse={value:.6f} "
                f"(skipped {int(np.sum(~ok))}/{ok.size} windows)"
            )
            rows.append(f'arima,"{label}",{setting},{split},{value:.6f}')
        else:
            value = bl.rmse(model.predict(ds.batch(origins, history=1).x), target)
            lines.append(f"lstm({label}) {setting} {split}: rmse={value:.6f}")
            rows.append(f'lstm,"{label}",{setting},{split},{value:.6f}')
    return lines, rows


def expected_evaluate_output(model, ds):
    """The stdout lines, results-CSV rows and ``--per-step`` lines of
    ``evaluate --split all``, split by split."""
    hist = model.config.ar_order + model.config.integration_order
    lines, rows, steps = [], [], []
    for split in ("train", "valid", "test"):
        batch = ds.batch(ds.origins_for(split), history=hist)
        err = model.predict(batch.x, batch.y_history) - batch.y_target
        value = np.sqrt(np.mean(err**2))
        lines.append(f"fuzzformer (p=2) 12/4 {split}: rmse={value:.6f} n={err.shape[0]}")
        rows.append(f"fuzzformer,p=2,12/4,{split},{value:.6f}")
        per_step = np.sqrt(np.mean(err**2, axis=0))
        steps += [f"{split},{j},{v:.6f}" for j, v in enumerate(per_step, start=1)]
    return lines, rows, steps


class TestPrepare:
    def test_outputs_exist(self, workspace):
        assert (workspace / "data" / "dataset.bin").exists()
        manifest = json.loads((workspace / "data" / "manifest.json").read_text())
        assert manifest["channels"][0]["role"] == "main"

    def test_requires_a_source(self, tmp_path):
        assert main(["prepare", "--out", str(tmp_path)]) == EXIT_USAGE

    def test_missing_csv_is_data_error(self, tmp_path):
        code = main(["prepare", "--csv", str(tmp_path / "nope.csv"), "--out", str(tmp_path)])
        assert code == EXIT_DATA

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--seed", "-5"], "seed must be >= 0, got -5"),
            (["--stride", "0"], "stride must be >= 1, got 0"),
            (["--lookback", "0"], "lookback must be >= 1, got 0"),
            (["--horizon", "-1"], "horizon must be >= 1, got -1"),
        ],
    )
    def test_bad_seed_or_window_flag_is_usage_error(self, tmp_path, capsys, flags, message):
        code = main(["prepare", "--synthetic", "200", *flags, "--out", str(tmp_path)])
        assert code == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not (tmp_path / "dataset.bin").exists()

    @pytest.mark.parametrize("n_points", ["0", "1", "4", "-3"])
    def test_too_small_synthetic_series_is_usage_error(self, tmp_path, capsys, n_points):
        code = main(["prepare", "--synthetic", n_points, "--out", str(tmp_path)])
        assert code == EXIT_USAGE
        assert f"needs at least 5 points, got {n_points}" in capsys.readouterr().err
        assert not (tmp_path / "dataset.bin").exists()


class TestTrain:
    def test_artifacts(self, workspace):
        run = workspace / "run"
        outputs = ("checkpoint.bin", "config.json", "losses.csv", "history.csv", "args.json", "environment.json")
        for name in outputs:
            assert (run / name).exists()
        cfg = json.loads((run / "config.json").read_text())
        assert cfg["lookback"] == 12 and cfg["epochs"] == 1

    def test_config_file_with_flag_override(self, workspace, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg = json.loads((workspace / "run" / "config.json").read_text())
        cfg_file.write_text(json.dumps(cfg))
        code = main([
            "train", "--dataset", str(workspace / "data" / "dataset.bin"),
            "--out", str(tmp_path / "run2"), "--config", str(cfg_file), "--epochs", "0",
        ])
        assert code == EXIT_OK
        resolved = json.loads((tmp_path / "run2" / "config.json").read_text())
        assert resolved["epochs"] == 0  # flag wins
        assert resolved["lookback"] == 12  # file value kept

    def test_bad_flag_is_usage_error(self, workspace, tmp_path):
        code = main([
            "train", "--dataset", str(workspace / "data" / "dataset.bin"),
            "--out", str(tmp_path), "--no-such-flag", "1",
        ])
        assert code == EXIT_USAGE

    def test_invalid_config_is_usage_error(self, workspace, tmp_path):
        code = main([
            "train", "--dataset", str(workspace / "data" / "dataset.bin"),
            "--out", str(tmp_path), *TRAIN_FLAGS, "--hidden-width", "5",
        ])
        assert code == EXIT_USAGE  # 5 not divisible by 2 heads

    @pytest.mark.parametrize(
        "blob, message",
        [
            (None, "config file not found: {path}"),
            (b'{"rules": \xff}', "{path}: not UTF-8 text"),
            (b'{"rules": ', "cannot read config file {path}: Expecting value"),
            (b"[" * 100_000 + b"]" * 100_000, "cannot read config file {path}: maximum recursion"),
        ],
        ids=["missing", "not-utf8", "truncated", "too-deep"],
    )
    def test_unreadable_config_file_is_usage_error(self, workspace, tmp_path, capsys, blob, message):
        cfg_file = tmp_path / "cfg.json"
        if blob is not None:
            cfg_file.write_bytes(blob)
        code = main([
            "train", "--dataset", str(workspace / "data" / "dataset.bin"),
            "--out", str(tmp_path / "run"), "--config", str(cfg_file),
        ])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.startswith("usage error: " + message.format(path=cfg_file))
        assert not (tmp_path / "run").exists()

    def test_negative_seed_is_usage_error(self, workspace, tmp_path, capsys):
        code = main([
            "train", "--dataset", str(workspace / "data" / "dataset.bin"),
            "--out", str(tmp_path), *TRAIN_FLAGS, "--seed", "-5",
        ])
        assert code == EXIT_USAGE
        assert "seed must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"rules": "4"}', "rules must be int"),
            ('{"rules": 4.5}', "rules must be int"),
            ('{"rules": true}', "rules must be int"),
            ('{"learning_rate": "fast"}', "learning_rate must be float"),
            ("[1, 2]", "config must be a JSON object"),
        ],
    )
    def test_mistyped_config_file_is_usage_error(self, workspace, tmp_path, capsys, text, message):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(text)
        code = main([
            "train", "--dataset", str(workspace / "data" / "dataset.bin"),
            "--out", str(tmp_path / "run"), "--config", str(cfg_file),
        ])
        assert code == EXIT_USAGE
        assert message in capsys.readouterr().err


class TestEvaluateAndBaseline:
    def test_evaluate_writes_results(self, workspace):
        out = workspace / "results.csv"
        code = main([
            "evaluate", "--checkpoint", str(workspace / "run" / "checkpoint.bin"),
            "--dataset", str(workspace / "data" / "dataset.bin"),
            "--split", "all", "--out", str(out),
        ])
        assert code == EXIT_OK
        rows = list(csv.DictReader(open(out)))
        assert {r["split"] for r in rows} == {"train", "valid", "test"}
        assert all(float(r["rmse"]) > 0 for r in rows)

    def test_evaluate_stdout_and_appended_bytes(self, workspace, tmp_path, capsys):
        checkpoint = workspace / "run" / "checkpoint.bin"
        path = workspace / "data" / "dataset.bin"
        out, per_step = tmp_path / "results.csv", tmp_path / "per_step.csv"
        head = b"method,config,setting,split,rmse\r\nseed,,12/4,train,1.000000\r\n"
        out.write_bytes(head)
        per_step_head = b"seed,1,1.000000\n"
        per_step.write_bytes(per_step_head)
        capsys.readouterr()
        code = main([
            "evaluate", "--checkpoint", str(checkpoint), "--dataset", str(path),
            "--split", "all", "--out", str(out), "--per-step", str(per_step),
        ])
        assert code == EXIT_OK
        lines, rows, steps = expected_evaluate_output(
            load_checkpoint(checkpoint)[0], WindowedDataset.load(path)
        )
        assert capsys.readouterr().out == "".join(f"{line}\n" for line in lines)
        assert out.read_bytes() == head + "".join(f"{row}\r\n" for row in rows).encode()
        assert per_step.read_bytes() == per_step_head + "".join(f"{s}\n" for s in steps).encode()

    def test_empty_split_leaves_no_row_for_any_method(self, workspace, tmp_path, capsys):
        # at stride 50 no window origin falls in the valid range
        code = main([
            "prepare", "--synthetic", "400", "--seed", "3", "--lookback", "12",
            "--horizon", "4", "--stride", "50", "--out", str(tmp_path / "data"),
        ])
        assert code == EXIT_OK
        dataset, out = str(tmp_path / "data" / "dataset.bin"), tmp_path / "results.csv"
        assert WindowedDataset.load(dataset).counts()["valid"] == 0
        per_step = tmp_path / "per_step.csv"
        code = main([
            "evaluate", "--checkpoint", str(workspace / "run" / "checkpoint.bin"),
            "--dataset", dataset, "--split", "all", "--out", str(out), "--per-step", str(per_step),
        ])
        assert code == EXIT_OK
        assert "valid: rmse=nan n=0" in capsys.readouterr().out
        assert [line.split(",")[0] for line in open(per_step)] == ["train"] * 4 + ["test"] * 4
        # a split with no windows gives no rows, and no rows write no file
        valid_only = tmp_path / "valid.csv"
        code = main([
            "evaluate", "--checkpoint", str(workspace / "run" / "checkpoint.bin"),
            "--dataset", dataset, "--split", "valid", "--out", str(valid_only),
        ])
        assert code == EXIT_OK
        assert not valid_only.exists()
        code = main(["baseline", "--dataset", dataset, "--method", "persistence", "--out", str(out)])
        assert code == EXIT_OK
        rows = list(csv.DictReader(open(out)))
        assert [(r["method"], r["split"]) for r in rows] == [
            ("fuzzformer", "train"), ("fuzzformer", "test"),
            ("persistence", "train"), ("persistence", "test"),
        ]
        code = main(["report", str(out), "--out", str(tmp_path / "table.csv")])
        assert code == EXIT_OK
        header, *table = csv.reader(open(tmp_path / "table.csv", encoding="utf-8"))
        valid = header.index("12/4 valid")
        assert {line[0]: line[valid] for line in table} == {"fuzzformer (p=2)": "—", "persistence": "—"}

    @pytest.mark.parametrize(
        "command",
        [
            ["evaluate", "--checkpoint", "{run}/checkpoint.bin", "--dataset", "{data}/dataset.bin",
             "--split", "test", "--out", "{absent}/r.csv"],
            ["evaluate", "--checkpoint", "{run}/checkpoint.bin", "--dataset", "{data}/dataset.bin",
             "--split", "test", "--out", "{tmp}/r.csv", "--per-step", "{absent}/s.csv"],
            ["baseline", "--dataset", "{data}/dataset.bin", "--method", "persistence",
             "--out", "{absent}/r.csv"],
            ["report", "{tmp}", "--out", "{tmp}/table.csv"],
            ["prepare", "--synthetic", "200", "--out", "{file}"],
            ["prepare", "--synthetic", "200", "--out", "{file}/data"],
            ["train", "--dataset", "{data}/dataset.bin", "--out", "{file}", *TRAIN_FLAGS],
            ["forecast", "--checkpoint", "{run}/checkpoint.bin", "--window", "{window}",
             "--out", "{file}"],
        ],
        ids=[
            "evaluate-out", "evaluate-per-step", "baseline-out", "report-directory",
            "prepare-out-file", "prepare-out-under-file", "train-out-file", "forecast-out-file",
        ],
    )
    def test_unusable_results_path_is_data_error(self, workspace, tmp_path, capsys, command):
        # an output that names a file where a directory belongs, too
        paths = {
            "run": workspace / "run", "data": workspace / "data", "tmp": tmp_path,
            "absent": tmp_path / "absent", "file": tmp_path / "afile", "window": tmp_path / "w.csv",
        }
        paths["file"].write_text("")
        write_window(paths["window"], 40)
        code = main([arg.format(**paths) for arg in command])
        assert code == EXIT_DATA
        assert str(tmp_path) in capsys.readouterr().err
        assert paths["file"].read_text() == ""

    def test_baselines_append(self, workspace):
        out = workspace / "results.csv"
        for method, extra in (
            ("persistence", []),
            ("arima", ["--p", "2", "--d", "1", "--q", "1"]),
            ("lstm", ["--hidden", "4", "--layers", "1", "--epochs", "1"]),
        ):
            code = main([
                "baseline", "--dataset", str(workspace / "data" / "dataset.bin"),
                "--method", method, "--out", str(out), *extra,
            ])
            assert code == EXIT_OK
        rows = list(csv.DictReader(open(out)))
        assert {r["method"] for r in rows} >= {"persistence", "arima", "lstm"}

    @pytest.mark.parametrize(
        "method, extra",
        [
            ("persistence", []),
            ("arima", ["--p", "2", "--d", "1", "--q", "1"]),
            ("arima", ["--p", "11", "--d", "1", "--q", "1"]),  # 12-value windows: all too short
            ("lstm", ["--hidden", "4", "--layers", "1", "--epochs", "1", "--seed", "3"]),
            # an order no window holds, and no array could
            ("arima", ["--p", "100000000", "--d", "1", "--q", "1"]),
        ],
        ids=["persistence", "arima", "arima-all-skipped", "lstm", "arima-order-beyond-memory"],
    )
    def test_baseline_stdout_and_appended_bytes(
        self, workspace, tmp_path, capsys, monkeypatch, method, extra
    ):
        path = workspace / "data" / "dataset.bin"
        out = tmp_path / "results.csv"
        head = b"method,config,setting,split,rmse\r\nseed,,12/4,train,1.000000\r\n"
        out.write_bytes(head)
        capsys.readouterr()
        evaluate, calls = bl.evaluate_arima_windows, []

        def counting_evaluate(windows, *args):
            calls.append(windows.shape[0])
            return evaluate(windows, *args)

        monkeypatch.setattr(bl, "evaluate_arima_windows", counting_evaluate)
        code = main(["baseline", "--dataset", str(path), "--method", method, "--out", str(out), *extra])
        assert code == EXIT_OK
        monkeypatch.undo()
        dataset = WindowedDataset.load(path)
        # ARIMA forecasts every window of every split in one call
        assert calls == ([dataset.origins.size] if method == "arima" else [])
        lines, rows = expected_baseline_output(dataset, method, extra)
        assert capsys.readouterr().out == "".join(f"{line}\n" for line in lines)
        assert out.read_bytes() == head + "".join(f"{row}\r\n" for row in rows).encode()

    def test_lstm_without_training_samples_is_data_error(self, tmp_path, capsys):
        code = main([
            "prepare", "--synthetic", "100", "--lookback", "90", "--horizon", "5",
            "--out", str(tmp_path / "data"),
        ])
        assert code == EXIT_OK
        code = main([
            "baseline", "--dataset", str(tmp_path / "data" / "dataset.bin"),
            "--method", "lstm", "--out", str(tmp_path / "results.csv"),
            "--hidden", "4", "--layers", "1", "--epochs", "1",
        ])
        assert code == EXIT_DATA
        assert "dataset has no training samples" in capsys.readouterr().err
        assert not (tmp_path / "results.csv").exists()

    def test_lstm_negative_seed_is_usage_error(self, workspace, tmp_path, capsys):
        code = main([
            "baseline", "--dataset", str(workspace / "data" / "dataset.bin"),
            "--method", "lstm", "--seed", "-5", "--out", str(tmp_path / "results.csv"),
            "--hidden", "4", "--layers", "1", "--epochs", "1",
        ])
        assert code == EXIT_USAGE
        assert "seed must be >= 0, got -5" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--batch-size", "0"], "batch_size must be >= 1, got 0"),
            (["--hidden", "0"], "hidden must be >= 1, got 0"),
            (["--layers", "0"], "layers must be >= 1, got 0"),
            (["--epochs", "-1"], "epochs must be >= 0, got -1"),
            (["--learning-rate", "nan"], "learning_rate must be positive and finite, got nan"),
            (["--learning-rate", "0"], "learning_rate must be positive and finite, got 0.0"),
        ],
    )
    def test_bad_lstm_flag_is_usage_error(self, workspace, tmp_path, capsys, flags, message):
        code = main([
            "baseline", "--dataset", str(workspace / "data" / "dataset.bin"),
            "--method", "lstm", "--out", str(tmp_path / "results.csv"),
            "--hidden", "4", "--layers", "1", "--epochs", "1", *flags,
        ])
        assert code == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not (tmp_path / "results.csv").exists()

    def test_report_renders_grid(self, workspace, capsys):
        out = workspace / "results.csv"
        table = workspace / "table.csv"
        code = main(["report", str(out), "--out", str(table)])
        assert code == EXIT_OK
        printed = capsys.readouterr().out
        assert "12/4 test" in printed
        assert table.exists()

    def test_missing_results_is_data_error(self, tmp_path):
        code = main(["report", str(tmp_path / "none.csv"), "--out", str(tmp_path / "t.csv")])
        assert code == EXIT_DATA

    @pytest.mark.parametrize(
        "row, message",
        [
            ("x,,1/1,test", ":2: bad row of 4 fields, header has 5"),
            ('x,"a,b', ":2: bad row of 2 fields, header has 5"),
            ("x,,1/1,test,abc", ":2: rmse 'abc' is not a number"),
            ("x,,1/1,test,nan", ":2: non-finite rmse nan"),
            ("x,,1/1,nope,0.5", ":2: unknown split label 'nope'"),
        ],
        ids=["short-row", "open-quote", "rmse-not-a-number", "rmse-nan", "unknown-split"],
    )
    def test_malformed_results_row_is_data_error(self, tmp_path, capsys, row, message):
        results, table = tmp_path / "r.csv", tmp_path / "t.csv"
        results.write_text(f"method,config,setting,split,rmse\n{row}\n")
        code = main(["report", str(results), "--out", str(table)])
        assert code == EXIT_DATA
        assert capsys.readouterr().err == f"data error: {results}{message}\n"
        assert not table.exists()


    def test_two_rows_for_one_cell_are_data_error(self, tmp_path, capsys):
        results, table = tmp_path / "r.csv", tmp_path / "t.csv"
        results.write_text(
            "method,config,setting,split,rmse\n"
            "fuzzformer,p=4,60/30,test,0.0767\nfuzzformer,p=4,60/30,test,0.0604\n"
        )
        code = main(["report", str(results), "--out", str(table)])
        assert code == EXIT_DATA
        assert capsys.readouterr() == (
            "", "data error: two results rows for one cell: fuzzformer (p=4), 60/30 test\n"
        )
        assert not table.exists()

    @pytest.mark.parametrize(
        "command",
        [
            ["baseline", "--dataset", "{data}/dataset.bin", "--method", "persistence"],
            ["evaluate", "--checkpoint", "{run}/checkpoint.bin", "--dataset", "{data}/dataset.bin"],
        ],
        ids=["baseline", "evaluate"],
    )
    def test_results_are_not_appended_to_another_table(self, workspace, tmp_path, capsys, command):
        series = tmp_path / "series.csv"
        series.write_bytes(b"date,value\n2020-01-01,1\n")
        paths = {"run": workspace / "run", "data": workspace / "data"}
        code = main([arg.format(**paths) for arg in command] + ["--out", str(series)])
        assert code == EXIT_DATA
        assert f"data error: {series}:1: header is missing columns" in capsys.readouterr().err
        assert series.read_bytes() == b"date,value\n2020-01-01,1\n"


class TestForecast:
    def test_bundle(self, workspace, tmp_path):
        window = tmp_path / "window.csv"
        write_window(window, 40)
        out = tmp_path / "bundle"
        code = main([
            "forecast", "--checkpoint", str(workspace / "run" / "checkpoint.bin"),
            "--window", str(window), "--out", str(out),
        ])
        assert code == EXIT_OK
        for name in (
            "forecast.csv", "rule_forecasts.csv", "clusters.csv",
            "attention_weights.csv", "forecast.svg", "rule_forecasts.svg", "clusters.svg",
        ):
            assert (out / name).exists()
        rows = list(csv.DictReader(open(out / "forecast.csv")))
        assert len(rows) == 4
        assert all(np.isfinite(float(r["value"])) for r in rows)

    def test_non_string_channel_names_are_data_error(self, workspace, tmp_path, capsys):
        path = tmp_path / "ckpt.bin"
        meta, arrays = container.read_archive(workspace / "run" / "checkpoint.bin")
        meta["channel_names"] = [1, 2, 3]
        container.write_archive(path, meta, list(arrays.items()))
        code = main([
            "forecast", "--checkpoint", str(path),
            "--window", str(tmp_path / "window.csv"), "--out", str(tmp_path / "b"),
        ])
        assert code == EXIT_DATA
        assert "'channel_names' must be a list of 3 strings" in capsys.readouterr().err

    def test_short_window_is_data_error(self, workspace, tmp_path):
        window = tmp_path / "short.csv"
        write_window(window, 5)
        code = main([
            "forecast", "--checkpoint", str(workspace / "run" / "checkpoint.bin"),
            "--window", str(window), "--out", str(tmp_path / "b"),
        ])
        assert code == EXIT_DATA


class Response(io.BytesIO):
    """What ``urllib.request.urlopen`` returns, as far as ``fetch_http`` reads it."""

    status = 200


class TestFetch:
    def test_fetch_writes_csv(self, tmp_path, monkeypatch):
        body = b"date,value\n2020-01-02,2\n2020-01-01,1\n"
        monkeypatch.setattr("urllib.request.urlopen", lambda *a, **k: Response(body))
        out = tmp_path / "series.csv"
        code = main([
            "fetch", "--url", "https://example.test/x.csv", "--name", "idx",
            "--out", str(out), "--cache-dir", str(tmp_path / "cache"),
        ])
        assert code == EXIT_OK
        assert out.read_text().startswith("date,value\n2020-01-01,1\n")

    def test_fetch_keeps_every_bit(self, tmp_path, monkeypatch):
        body = (
            b"date,value\n2020-01-01,4783.123456789012\n2020-01-02,0.1\n"
            b"2020-01-03,-0\n2020-01-04,1.7976931348623157e308\n2020-01-05,5e-324\n"
        )
        monkeypatch.setattr("urllib.request.urlopen", lambda *a, **k: Response(body))
        out, cache = tmp_path / "series.csv", tmp_path / "cache"
        code = main([
            "fetch", "--url", "https://example.test/z.csv", "--out", str(out),
            "--cache-dir", str(cache),
        ])
        assert code == EXIT_OK
        (downloaded,) = cache.glob("*.csv")
        assert load_csv(out).values.tobytes() == load_csv(downloaded).values.tobytes()
        assert "2020-01-01,4783.123456789012\n" in out.read_text()

    def test_fetch_failure_is_data_error(self, tmp_path, monkeypatch):
        def fail(*a, **k):
            raise urllib.error.URLError("offline")

        monkeypatch.setattr("urllib.request.urlopen", fail)
        code = main([
            "fetch", "--url", "https://example.test/y.csv",
            "--out", str(tmp_path / "o.csv"), "--cache-dir", str(tmp_path / "cache"),
        ])
        assert code == EXIT_DATA


class TestExitCodes:
    def test_missing_dataset_is_data_error(self, tmp_path):
        code = main([
            "train", "--dataset", str(tmp_path / "absent.bin"), "--out", str(tmp_path),
        ])
        assert code == EXIT_DATA

    def test_dataset_with_non_string_channel_names_is_data_error(self, workspace, tmp_path):
        path = tmp_path / "dataset.bin"
        meta, arrays = container.read_archive(workspace / "data" / "dataset.bin")
        meta["channel_names"] = [1, 2, 3]
        container.write_archive(path, meta, list(arrays.items()))
        code = main(["train", "--dataset", str(path), "--out", str(tmp_path / "run"), *TRAIN_FLAGS])
        assert code == EXIT_DATA
        assert not (tmp_path / "run" / "checkpoint.bin").exists()

    def test_numeric_failure_is_exit_three(self, workspace, tmp_path):
        model, scaler, meta = load_checkpoint(workspace / "run" / "checkpoint.bin")
        model.arix_a.data[...] = -1e150  # guarantees overflow during evaluation
        broken = tmp_path / "broken.bin"
        save_checkpoint(broken, model, scaler=scaler, channel_names=meta["channel_names"])
        code = main([
            "evaluate", "--checkpoint", str(broken),
            "--dataset", str(workspace / "data" / "dataset.bin"),
            "--split", "test", "--out", str(tmp_path / "r.csv"),
        ])
        assert code == EXIT_NUMERIC

    def test_training_failure_is_exit_three(self, workspace, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"weight_overlap": 1e308}))
        code = main([
            "train", "--dataset", str(workspace / "data" / "dataset.bin"),
            "--out", str(tmp_path / "run"), "--config", str(cfg_file), *TRAIN_FLAGS,
        ])
        assert code == EXIT_NUMERIC
        assert "numeric failure: epoch 1, batch at sample 0: " in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == EXIT_OK
        assert "fetch" in capsys.readouterr().out
