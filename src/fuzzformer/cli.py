"""Command-line surface.

Subcommands: fetch, prepare, train, evaluate, forecast, baseline,
report.  Configuration flags mirror RunConfig field names; a JSON config
file can seed the values with explicit flags overriding it.  Exit codes:
0 success, 1 usage error, 2 data error, 3 numeric failure.
"""

import argparse
import os
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import baselines as bl
from . import data as dmod
from . import training
from .checkpoint import load_checkpoint
from .config import RunConfig
from .exceptions import ConfigError, DataError, FuzzformerError, NumericError

EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_NUMERIC = 0, 1, 2, 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); keep usage errors at 1
        raise ConfigError(message)


def _add_config_flags(parser):
    group = parser.add_argument_group("model/training configuration (RunConfig fields)")
    group.add_argument("--config", help="JSON config file; explicit flags override it")
    for f in fields(RunConfig):  # each field is an int or a float
        group.add_argument("--" + f.name.replace("_", "-"), type=f.type, default=None)


def _resolve_config(args) -> RunConfig:
    base = RunConfig.from_file(args.config).to_dict() if args.config else RunConfig().to_dict()
    for f in fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            base[f.name] = value
    return RunConfig.from_dict(base)


def _default_cache_dir() -> str:
    return os.environ.get("FUZZFORMER_CACHE_DIR", ".fuzzformer-cache")


def _write_args(out_dir, args):
    payload = {k: v for k, v in vars(args).items() if k != "func"}
    path = dmod.output_dir(out_dir, "output directory") / "args.json"
    dmod.write_json(path, payload, "argument record")


# ---------------------------------------------------------------------------
# subcommand implementations


def cmd_fetch(args) -> int:
    series = dmod.fetch_http(args.url, args.cache_dir, name=args.name)
    out = Path(args.out)
    dmod.output_dir(out.parent, "output directory")
    with dmod.open_output(out, "w", "series file") as fh:
        fh.write("date,value\n")
        for day, value in zip(series.dates, series.values):
            # the shortest text that reads back as the same float64
            fh.write(f"{day},{np.format_float_positional(value, trim='-')}\n")
    print(f"fetched {len(series)} observations of {series.name!r} -> {out}")
    return EXIT_OK


def cmd_prepare(args) -> int:
    if args.synthetic is not None and args.csv:
        raise ConfigError("pass either --synthetic or --csv sources, not both")
    if args.synthetic is not None:
        series = dmod.make_synthetic(n_points=args.synthetic, seed=args.seed)
        sources = {s.name: f"synthetic(seed={args.seed})" for s in series}
    elif args.csv:
        series = [dmod.load_csv(p) for p in args.csv]
        sources = {s.name: str(p) for s, p in zip(series, args.csv)}
    else:
        raise ConfigError("prepare needs --csv files (main first) or --synthetic N")
    dataset = dmod.prepare_dataset(
        series, lookback=args.lookback, horizon=args.horizon, stride=args.stride
    )
    out_dir = dmod.output_dir(args.out, "output directory")
    dataset.save(out_dir / "dataset.bin")
    dmod.write_manifest(out_dir / "manifest.json", dataset, sources)
    counts = dataset.counts()
    print(
        f"prepared {sum(counts.values())} samples "
        f"(train={counts['train']}, valid={counts['valid']}, test={counts['test']}) -> {out_dir}"
    )
    return EXIT_OK


def cmd_train(args) -> int:
    config = _resolve_config(args)
    dataset = dmod.WindowedDataset.load(args.dataset)
    result = training.train(config, dataset, args.out)
    _write_args(args.out, args)
    print(
        f"training done in {result.wall_seconds:.1f}s; best epoch {result.best_epoch} "
        f"valid_rmse={result.best_valid_rmse:.5f}; checkpoint: {result.checkpoint_path}"
    )
    return EXIT_OK


def cmd_evaluate(args) -> int:
    model, _scaler, _meta = load_checkpoint(args.checkpoint)
    dataset = dmod.WindowedDataset.load(args.dataset)
    training.check_dataset_compatibility(model.config, dataset)
    splits = list(dmod.SPLIT_NAMES) if args.split == "all" else [args.split]
    setting = f"{model.config.lookback}/{model.config.horizon}"
    label = f"p={model.config.ar_order}"
    reports = []
    for split in splits:
        report = training.evaluate_split(model, dataset, split)
        print(f"fuzzformer ({label}) {setting} {split}: rmse={report.rmse:.6f} "
              f"n={report.n_samples}")
        reports.append(report)
        if args.per_step and report.n_samples:  # no windows, no RMSE per step
            with dmod.open_output(args.per_step, "a", "per-step file") as fh:
                for j, v in enumerate(report.per_step_rmse, start=1):
                    fh.write(f"{split},{j},{v:.6f}\n")
    training.append_results(args.out, "fuzzformer", label, setting, reports)
    return EXIT_OK


def cmd_forecast(args) -> int:
    model, scaler, meta = load_checkpoint(args.checkpoint)
    channel_names = meta["channel_names"]
    dates, matrix, _lines = dmod.read_columns(args.window, channel_names, "window file")
    training.forecast_bundle(model, scaler, channel_names, dates, matrix, args.out)
    _write_args(args.out, args)
    return EXIT_OK


def _baseline_forecaster(args, dataset):
    """(label, forecast) of the ``--method`` baseline, where
    ``forecast(batch)`` gives ``training.score_split`` the batch's
    forecasts; only ARIMA leaves windows out, as NaN rows."""
    horizon = dataset.horizon
    if args.method == "persistence":
        def forecast(batch):
            windows = dataset.window_main(batch.origins)
            return np.stack([bl.persistence_forecast(w, horizon) for w in windows])

        return "", forecast
    if args.method == "arima":
        # one pass over every window, so the kernels get ARIMA_CHUNK-window
        # stacks; each row's forecast is the same in any stack, and a
        # rejected window's row is NaN, so score_split skips it
        order = bl.ArimaOrder(p=args.p, d=args.d, q=args.q)
        preds = bl.evaluate_arima_windows(dataset.window_main(dataset.origins), order, horizon)[0]

        def forecast(batch):
            return preds[np.searchsorted(dataset.origins, batch.origins)]  # origins ascend

        return f"p={args.p},d={args.d},q={args.q}", forecast
    model = training.train_lstm_baseline(
        dataset,
        hidden=args.hidden,
        layers=args.layers,
        epochs=args.epochs,
        learning_rate=args.learning_rate,
        batch_size=args.batch_size,
        seed=args.seed,
        log=print if args.verbose else None,
    )
    return f"hidden={args.hidden},layers={args.layers}", lambda b: model.predict(b.x)


def cmd_baseline(args) -> int:
    dataset = dmod.WindowedDataset.load(args.dataset)
    setting = f"{dataset.lookback}/{dataset.horizon}"
    label, forecast = _baseline_forecaster(args, dataset)
    title = f"{args.method}({label})" if label else args.method
    reports = []
    for split in dmod.SPLIT_NAMES:
        report = training.score_split(dataset, split, 1, forecast)
        reports.append(report)
        skipped, total = report.n_skipped, report.n_samples + report.n_skipped
        if report.n_samples:
            note = f" (skipped {skipped}/{total} windows)" if args.method == "arima" else ""
            print(f"{title} {setting} {split}: rmse={report.rmse:.6f}{note}")
        elif skipped:
            print(f"{title} {setting} {split}: all {skipped} windows skipped")
    training.append_results(args.out, args.method, label, setting, reports)
    return EXIT_OK


def cmd_report(args) -> int:
    rows = training.read_results(args.results)
    text = training.write_report(rows, args.out)
    print(text)
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="fuzzformer", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fetch", help="download a date,value CSV (cached by URL hash)")
    p.add_argument("--url", required=True)
    p.add_argument("--name", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--cache-dir", default=_default_cache_dir())
    p.set_defaults(func=cmd_fetch)

    p = sub.add_parser("prepare", help="align, scale, window, and split series")
    p.add_argument("--csv", action="append", default=[], help="series CSV; first is the main series")
    p.add_argument("--synthetic", type=int, default=None, metavar="N_POINTS")
    p.add_argument("--seed", type=int, default=7, help="seed for --synthetic")
    p.add_argument("--lookback", type=int, default=60)
    p.add_argument("--horizon", type=int, default=30)
    p.add_argument("--stride", type=int, default=1)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("train", help="train the forecaster")
    p.add_argument("--dataset", required=True, help="dataset.bin from prepare")
    p.add_argument("--out", required=True, help="output directory")
    _add_config_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="aggregate-forecast RMSE of a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--split", choices=("train", "valid", "test", "all"), default="all")
    p.add_argument("--out", required=True, help="results CSV (appended)")
    p.add_argument("--per-step", default=None, help="optional per-horizon-step RMSE CSV")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("forecast", help="forecast one window and export the bundle")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--window", required=True, help="CSV with header date,<channel>,...")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_forecast)

    p = sub.add_parser("baseline", help="run a reference method on the same windows")
    p.add_argument("--dataset", required=True)
    p.add_argument("--method", choices=("arima", "persistence", "lstm"), required=True)
    p.add_argument("--out", required=True, help="results CSV (appended)")
    p.add_argument("--p", type=int, default=4)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--q", type=int, default=1)
    p.add_argument("--hidden", type=int, default=32)
    p.add_argument("--layers", type=int, default=1)
    p.add_argument("--epochs", type=int, default=30)
    p.add_argument("--learning-rate", type=float, default=1e-3)
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("report", help="render the comparison table from results CSVs")
    p.add_argument("results", nargs="+")
    p.add_argument("--out", required=True, help="output CSV for the grid")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help and friends
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    except ConfigError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except FuzzformerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
