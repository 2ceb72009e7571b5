"""Run orchestration: the training loop, evaluation, forecast export,
and the cross-method comparison report.

One loop, ``fit``, trains both learned models, Fuzzformer (``train``) and
the LSTM-only baseline (``train_lstm_baseline``).  It shuffles the train
split each epoch, steps Adam on the model's loss, scores validation RMSE
after every epoch, and keeps the best-validation parameter snapshot.
Fuzzformer optimizes the four-term composite and is scored in
aggregate-forecast mode; the baseline optimizes MSE.  All randomness
flows from one seed through separate child generators (Fuzzformer: init,
cluster warm-up, dropout, shuffling; the baseline: init, shuffling), so
identical seed/config/data reproduce identical checkpoints bit for bit.

Evaluation windows are independent, so ``score_split``, the one
function that builds a thread pool, runs a split's chunks on the usable
cores at once.  It cuts the windows left after whole rounds into one
part per core only for models wide enough for that to pay
(``WORK_FLOOR``); at one BLAS thread every window's forecast has the
same bits as in one batch of all the windows.  The warm-up samples up to
WARMUP_WINDOWS train windows but encodes only the C that seed the rule
centers (``WarmupLatents``), in one forward pass on the calling thread.
"""

import contextvars
import csv
import itertools
import math
import numbers
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import fuzzy, svgplot
from .autodiff import Adam
from .baselines import LstmBaseline, rmse
from .checkpoint import save_checkpoint
from .config import RunConfig
from .data import SPLIT_NAMES, WindowedDataset, as_int, open_output, output_dir, read_table, write_json
from .encoder import EVAL_BATCH
from .exceptions import ConfigError, DataError
from .fuzzy import bhattacharyya  # by this name, so a profiler can patch the bundle's call
from .losses import composite_loss, mse_loss
from .model import FuzzformerModel

RESULT_FIELDS = ("method", "config", "setting", "split", "rmse")
LOSS_FIELDS = ("epoch", "mse", "fcm", "overlap", "balance", "composite")
WARMUP_WINDOWS = 256  # training windows sampled to seed the cluster centers


@dataclass
class MetricsReport:
    split: str
    rmse: float
    per_step_rmse: np.ndarray
    n_samples: int  # windows scored
    n_skipped: int  # windows the forecaster left out


@dataclass
class TrainResult:
    checkpoint_path: Path
    best_epoch: int
    best_valid_rmse: float
    history: list
    wall_seconds: float
    model: FuzzformerModel


def check_dataset_compatibility(config: RunConfig, dataset: WindowedDataset) -> None:
    if dataset.matrix.shape[1] != config.channels:
        raise ConfigError(
            f"dataset has {dataset.matrix.shape[1]} channels, config expects {config.channels}"
        )
    if dataset.lookback != config.lookback or dataset.horizon != config.horizon:
        raise ConfigError(
            f"dataset windows are {dataset.lookback}/{dataset.horizon}, "
            f"config expects {config.lookback}/{config.horizon}"
        )


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask off Linux
        return os.cpu_count() or 1


def numeric_environment() -> dict:
    """What a seeded run's bits depend on beyond seed, config and data:
    numpy, its BLAS build and the BLAS thread settings (see the README's
    Determinism note), and the cores the process may use."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": {
            k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "cpu_count": os.cpu_count(),
        "usable_cores": _usable_cores(),
    }


# the least work, in windows x the model's hidden width D_h, for which the
# windows left after a split's whole rounds (see _chunk_layout) are cut
# into one part per core.  Each numpy call of a forward pass takes a few
# microseconds at D_h=16, and handing the GIL between two threads around
# such calls costs more than the threads overlap.  Two-core speedup over
# one thread of a 90-window split cut into two parts, on the synthetic
# series (p=30, C=16, look-back 60), on a two-core Xeon with one BLAS
# thread:
#   D_h   16    32    48    64    96   128
#   90   0.87  0.98  1.01  1.32  1.28  1.33
# So 48 windows at D_h=32 (1536) stay one chunk, and 16 windows at
# D_h=128 (2048) get a part of their own.  Whole 96-window chunks stay on
# the pool at every width: at the desk shape (D_h=16, C=4, p=4) the
# 812-window train split took 111 ms in turn on the calling thread
# against 99 ms on two threads (20 alternating pairs, 0 won by the
# calling thread).
WORK_FLOOR = 2048


def _chunk_layout(n, cores, width):
    """The row slices ``score_split`` cuts ``range(n)`` into for
    ``cores`` usable cores and a model of hidden width ``width``.

    Whole rounds of one EVAL_BATCH chunk per core come first.  The rows
    left after them are cut into one part per core, of 16 * ceil(rows /
    (16 * cores)) windows, when such a part meets WORK_FLOOR without
    leaving a lone last window (see EVAL_BATCH: that window can take
    other bits); otherwise they stay EVAL_BATCH chunks.  So width 0
    gives the plain EVAL_BATCH cut.  Every chunk but the last is a
    multiple of 16 windows, and none holds more than EVAL_BATCH.
    """
    full = n - n % (cores * EVAL_BATCH)
    tail = n - full
    part = 16 * -(-tail // (16 * cores))  # <= EVAL_BATCH, as tail < cores * EVAL_BATCH
    cut = part * width >= WORK_FLOOR and tail % part != 1
    starts = [*range(0, full, EVAL_BATCH), *range(full, n, part if cut else EVAL_BATCH)]
    return [slice(start, stop) for start, stop in zip(starts, starts[1:] + [n])]


class WarmupLatents:
    """Read-only rows of the latents of sampled training windows.

    ``len()`` counts the windows; ``latents[rows]`` (a slice or an index
    array) encodes only the windows it reads, with the model's
    parameters at the time of the read, in one ``model.encode`` call
    inside ``ad.checked_forward`` on the calling thread (the encoder
    takes more than EVAL_BATCH windows EVAL_BATCH at a time).
    The windows are padded to a multiple of 16 by repeating them, so each
    row has the bits of one batch of all the sampled windows (see
    EVAL_BATCH).
    """

    def __init__(self, model: FuzzformerModel, dataset: WindowedDataset, origins):
        self.model, self.dataset, self.origins = model, dataset, origins

    def __len__(self):
        return self.origins.size

    def __getitem__(self, rows):
        picks = self.origins[rows]
        x = self.dataset.batch(np.resize(picks, -(-picks.size // 16) * 16), history=1).x
        return ad.checked_forward(lambda: self.model.encode(x).z_latent.data[: picks.size])


def warmup_latents(model: FuzzformerModel, dataset: WindowedDataset, rng) -> WarmupLatents:
    """Latents of up to WARMUP_WINDOWS training windows, for cluster
    seeding: more train windows than that are sampled, sorted, with one
    draw from ``rng``.  Nothing is encoded until rows are read, and rows
    are encoded with the model's parameters at the time they are read,
    so :func:`fuzzy.init_clusters` encodes only the C windows it keeps."""
    origins = dataset.origins_for("train")
    if origins.size == 0:
        raise DataError("dataset has no training samples")
    if origins.size > WARMUP_WINDOWS:
        origins = np.sort(rng.choice(origins, size=WARMUP_WINDOWS, replace=False))
    return WarmupLatents(model, dataset, origins)


def score_split(dataset, split, history, forecast, *, width=0) -> MetricsReport:
    """RMSE (scaled units) of a forecaster over one split.

    ``forecast(batch)`` gets up to EVAL_BATCH windows at a time, each
    batch with ``history`` trailing main values, and returns (preds (B,
    H), ok): a mask of the windows it forecast, or True for all of them.
    Windows left out are counted, not scored; with none scored the
    RMSEs are NaN.

    The chunks, cut by ``_chunk_layout``, run on a thread pool of one
    worker per usable core (at most one per chunk) when there are two or
    more; numpy releases the GIL in its GEMMs and ufuncs, so they run in
    parallel, and ``forecast`` must be safe to call from several threads
    at once.  Each chunk runs in a copy of the caller's context, so
    ``forecast`` sees the caller's autodiff modes and numpy errstate (a
    context variable since numpy 2.0).  Every chunk finishes before this
    returns or raises; when chunks fail, the first failing chunk's error
    is raised, as a loop over the chunks in turn would.  ``width`` is
    Fuzzformer's hidden width: at the paper's D_h=128 the windows left
    after whole rounds of EVAL_BATCH chunks are cut into one part per
    core (``WORK_FLOOR``).  The other forecasters keep the default 0,
    and with it whole EVAL_BATCH chunks: the floor was measured on
    Fuzzformer only.  Each chunk writes only its own rows, so the report
    does not depend on the order the chunks finish in.  Every chunk
    starts on a multiple of 16 windows and the last round is never cut
    so as to leave a lone last window, so each window meets the same
    OpenBLAS GEMM row blocks as in one batch of the whole split, and its
    forecast keeps that batch's bits (see EVAL_BATCH).
    """
    origins = dataset.origins_for(split)
    preds = np.zeros((origins.size, dataset.horizon))
    targets = np.zeros_like(preds)
    ok = np.zeros(origins.size, dtype=bool)

    def score(rows):
        batch = dataset.batch(origins[rows], history=history)
        preds[rows], ok[rows] = forecast(batch)
        targets[rows] = batch.y_target

    cores = _usable_cores()
    chunks = _chunk_layout(origins.size, cores, width)
    workers = min(cores, len(chunks))
    if workers <= 1:
        for rows in chunks:
            score(rows)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            done = [pool.submit(contextvars.copy_context().run, score, rows) for rows in chunks]
        for future in done:  # the pool has shut down: every chunk has finished
            future.result()
    preds, targets = preds[ok], targets[ok]
    with np.errstate(invalid="ignore"):  # no window scored: 0 / 0
        per_step = np.sqrt(np.sum((preds - targets) ** 2, axis=0) / preds.shape[0])
    return MetricsReport(
        split=split,
        rmse=rmse(preds, targets),
        per_step_rmse=per_step,
        n_samples=preds.shape[0],
        n_skipped=origins.size - preds.shape[0],
    )


def evaluate_split(model: FuzzformerModel, dataset, split):
    """Aggregate-forecast RMSE (scaled units) over one split."""
    return score_split(
        dataset, split, model.config.history,
        lambda batch: (model.predict(batch.x, batch.y_history), True), width=model.config.hidden_width,
    )


def fit(params, loss_fn, origins, batch_size, epochs, learning_rate, valid_rmse, rng_shuffle, rng_dropout,
        log):
    """The one training loop: Adam on ``params`` for ``epochs`` epochs.

    Each epoch steps through ``rng_shuffle.permutation(origins)``
    ``batch_size`` windows at a time; ``loss_fn(chunk)`` builds one
    batch's graph, drawing its dropout masks from ``rng_dropout`` (None
    when it draws none), and returns (loss tensor, {part: float}).  After
    each epoch ``valid_rmse()`` scores the parameters, then ``log`` gets
    one line.  The best-scoring snapshot, of the initial parameters
    (epoch 0) or of an epoch's, is restored at the end.  Returns (best
    epoch, its score, one {"epoch", mean of each part, "valid_rmse"} per
    epoch).
    """
    opt = Adam(params, learning_rate=learning_rate)
    best_epoch, best_valid, best_snap = 0, valid_rmse(), [t.data.copy() for t in params]
    history = []
    for epoch in range(1, epochs + 1):
        order = rng_shuffle.permutation(origins)
        starts = range(0, order.size, batch_size)
        sums = {}
        for start in starts:
            chunk = order[start : start + batch_size]
            parts = ad.train_step(
                opt, lambda: loss_fn(chunk), rng_dropout, f"epoch {epoch}, batch at sample {start}"
            )
            for key, value in parts.items():
                sums[key] = sums.get(key, 0.0) + value
        means = {key: value / len(starts) for key, value in sums.items()}
        valid = valid_rmse()
        if not valid >= best_valid:  # an empty valid split scores NaN: keep every epoch
            best_epoch, best_valid, best_snap = epoch, valid, [t.data.copy() for t in params]
        history.append({"epoch": epoch, **means, "valid_rmse": valid})
        parts_text = " ".join(f"{key}={value:.5f}" for key, value in means.items())
        log(f"epoch {epoch}/{epochs} {parts_text} valid_rmse={valid:.5f}")

    for tensor, arr in zip(params, best_snap):
        tensor.data[...] = arr
    return best_epoch, best_valid, history


def train(config: RunConfig, dataset: WindowedDataset, out_dir, log=print) -> TrainResult:
    t_start = time.perf_counter()
    config.validate()
    check_dataset_compatibility(config, dataset)
    out_dir = output_dir(out_dir, "output directory")

    seeds = np.random.SeedSequence(config.seed).spawn(4)
    rng_init, rng_cluster, rng_dropout, rng_shuffle = (np.random.default_rng(s) for s in seeds)

    model = FuzzformerModel(config, rng_init)
    model.initialize_clusters(warmup_latents(model, dataset, rng_cluster), rng_cluster)
    best_epoch, best_valid, history = fit(
        model.parameter_tensors(),
        lambda chunk: composite_loss(dataset.batch(chunk, history=config.history), model, rng=rng_dropout),
        dataset.origins_for("train"), config.batch_size, config.epochs, config.learning_rate,
        lambda: evaluate_split(model, dataset, "valid").rmse, rng_shuffle, rng_dropout, log,
    )

    with open_output(out_dir / "losses.csv", "w", "loss log") as fh:
        writer = csv.DictWriter(fh, fieldnames=LOSS_FIELDS, extrasaction="ignore")
        writer.writeheader()
        for rec in history:
            writer.writerow({k: rec[k] for k in LOSS_FIELDS})
    with open_output(out_dir / "history.csv", "w", "validation log") as fh:
        writer = csv.DictWriter(fh, fieldnames=("epoch", "valid_rmse"))
        writer.writeheader()
        for rec in history:
            writer.writerow({"epoch": rec["epoch"], "valid_rmse": rec["valid_rmse"]})

    ckpt_path = out_dir / "checkpoint.bin"
    save_checkpoint(ckpt_path, model, scaler=dataset.scaler, channel_names=dataset.channel_names)
    config.write(out_dir / "config.json")
    write_json(out_dir / "environment.json", numeric_environment(), "environment record")
    return TrainResult(
        checkpoint_path=ckpt_path,
        best_epoch=best_epoch,
        best_valid_rmse=best_valid,
        history=history,
        wall_seconds=time.perf_counter() - t_start,
        model=model,
    )


def train_lstm_baseline(
    dataset: WindowedDataset, hidden=32, layers=1, epochs=30, learning_rate=1e-3, batch_size=64, seed=0,
    log=None,
) -> LstmBaseline:
    """Fit the LSTM-only baseline on the training split with Adam on MSE,
    through ``fit``, so it too keeps its best-validation epoch."""
    for name, value, least in (
        ("hidden", hidden, 1), ("layers", layers, 1), ("batch_size", batch_size, 1),
        ("epochs", epochs, 0), ("seed", seed, 0),
    ):
        if as_int(name, value) < least:  # a bool or a float is a ConfigError too
            raise ConfigError(f"{name} must be >= {least}, got {value}")
    if isinstance(learning_rate, bool) or not isinstance(learning_rate, numbers.Real):  # as RunConfig
        raise ConfigError(f"learning_rate must be float, got {learning_rate!r}")
    if not 0.0 < learning_rate < np.inf:
        raise ConfigError(f"learning_rate must be positive and finite, got {learning_rate}")
    train_origins = dataset.origins_for("train")
    if train_origins.size == 0:
        raise DataError("dataset has no training samples")
    rng_init, rng_shuffle = (np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2))
    model = LstmBaseline(dataset.matrix.shape[1], hidden, layers, dataset.horizon, dataset.lookback, rng_init)

    def loss_fn(chunk):
        batch = dataset.batch(chunk, history=1)
        loss = mse_loss(model.forward(batch.x), batch.y_target)
        return loss, {"mse": loss.item()}

    fit(
        [t for _, t in model.named], loss_fn, train_origins, batch_size, epochs, learning_rate,
        lambda: score_split(dataset, "valid", 1, lambda b: (model.predict(b.x), True)).rmse,
        rng_shuffle, None, log or (lambda _line: None),
    )
    return model


# ---------------------------------------------------------------------------
# forecast bundle (interpretability export)


def _write_grid(path, header, levels, values):
    """Write a bundle table to ``path`` and return ``path``: the ``header``
    row, then one row per point of the product of the label ``levels``
    (outermost first), holding its labels and its ``values`` row (shape:
    the level sizes, then the value columns) in ``%.10g``, ending in "\r\n"
    like csv.writer's.  Each outer prefix joins the innermost level's row
    templates in C, and one "%" fills each block of the two innermost
    levels (one attention head's map): no row is formatted in Python."""
    *outer, inner = levels
    rows = [f"{k}" + ",%.10g" * values.shape[-1] for k in inner]
    prefixes = ("".join(f"{label}," for label in point) for point in itertools.product(*outer))
    step = len(outer[-1]) if outer else 1
    with open_output(path, "w", "bundle table") as fh:
        fh.write(",".join(header) + "\r\n")
        for chunk in values.reshape(-1, step * len(rows) * values.shape[-1]):
            template = "".join(p + f"\r\n{p}".join(rows) + "\r\n" for p in itertools.islice(prefixes, step))
            fh.write(template % tuple(chunk.tolist()))
    return path


def forecast_bundle(model, scaler, channel_names, dates, matrix, out_dir, log=print):
    """Run one forecast and export the full interpretability bundle.

    Writes forecast.csv (original units via inverse scaling), the
    per-rule forecast/membership CSV, the cluster geometry CSV with the
    pairwise Bhattacharyya matrix, the attention-weight CSV, and SVG
    renderings.  Returns the paths.  Each CSV is a grid (``_write_grid``):
    label columns, then ``%.10g`` value columns, one row per point of the
    labels' product: forecast [step]; rule forecasts [rule, step], with the
    membership as a second value; clusters [rule]; attention [layer, head,
    query, key].

    The forward pass runs through ``ad.checked_forward``, which checks
    every array the bundle writes for NaN/Inf once instead of probing
    every op.
    """
    out_dir = output_dir(out_dir, "output directory")
    cfg = model.config
    if matrix.ndim != 2 or matrix.shape[1] != cfg.channels:
        raise DataError(f"window has shape {matrix.shape}, model needs (rows, {cfg.channels})")
    if matrix.shape[0] < cfg.lookback:
        raise DataError(f"window has {matrix.shape[0]} rows, model needs at least {cfg.lookback}")
    window = matrix[-cfg.lookback :]
    scaled = scaler.transform(window)
    x = scaled[None, :, :]
    y_hist = scaled[None, -cfg.history :, 0]

    def bundle_pass():
        ev = model.evaluation_forward(x, y_hist, attention_maps=True)
        cov = fuzzy.covariances_graph(model.factors)
        enc = ev.encoder_output
        maps = np.array([[w.data[0] for w in layer] for layer in enc.attention_weights])
        return (
            ev.aggregate_forecast.data[0], ev.memberships.data[0], ev.rule_forecasts.data[0],
            enc.z_latent.data, cov.data, bhattacharyya(model.centers, cov), maps,
        )

    agg_scaled, psi, rules_scaled, z, cov, distance, maps = ad.checked_forward(bundle_pass)
    agg = scaler.inverse(agg_scaled, channel=0)

    steps, queries, dz = range(1, cfg.horizon + 1), range(cfg.lookback), range(cfg.latent_width)
    paths = {
        "forecast": _write_grid(
            out_dir / "forecast.csv", ["step", "value_scaled", "value"], [steps],
            np.stack([agg_scaled, agg], axis=1),
        ),
        "rules": _write_grid(
            out_dir / "rule_forecasts.csv", ["rule", "step", "value_scaled", "membership"],
            [range(cfg.rules), steps], np.stack(np.broadcast_arrays(rules_scaled, psi[:, None]), axis=2),
        ),
        "clusters": _write_grid(
            out_dir / "clusters.csv",
            ["rule", *(f"center_{k}" for k in dz), *(f"cov_{r}{c}" for r in dz for c in dz),
             *(f"bhattacharyya_{i}" for i in range(cfg.rules))],
            [range(cfg.rules)],
            np.concatenate([model.centers.data, cov.reshape(cfg.rules, -1), distance], axis=1),
        ),
        "attention": _write_grid(
            out_dir / "attention_weights.csv", ["layer", "head", "query_step", "key_step", "weight"],
            [range(cfg.mha_layers), range(cfg.attention_heads), queries, queries], maps[..., None],
        ),
    }

    # SVG renderings: combined output, per-rule local forecasts, clusters
    steps_hist = np.arange(-cfg.lookback + 1, 1)
    steps_fut = np.arange(1, cfg.horizon + 1)
    paths["forecast_svg"] = out_dir / "forecast.svg"
    svgplot.line_plot(
        paths["forecast_svg"],
        [("history", steps_hist, window[:, 0]), ("forecast", steps_fut, agg)],
        title="Aggregated multi-horizon forecast",
    )
    paths["rules_svg"] = out_dir / "rule_forecasts.svg"
    top = np.argsort(psi)[::-1][: min(6, cfg.rules)]
    svgplot.line_plot(
        paths["rules_svg"],
        [(f"rule {i} (psi={psi[i]:.3f})", steps_fut, rules_scaled[i]) for i in top],
        title="Per-rule ARIX forecasts (scaled)",
    )
    paths["clusters_svg"] = out_dir / "clusters.svg"
    centers = model.centers.data
    svgplot.scatter_plot(
        paths["clusters_svg"],
        [
            ("rule centers", centers[:, 0], centers[:, 1 % centers.shape[1]]),
            ("window latent", z[:, 0], z[:, 1 % z.shape[1]]),
        ],
        title="Antecedent clusters in the latent plane",
    )
    log(f"forecast bundle written to {out_dir}")
    return paths


# ---------------------------------------------------------------------------
# results accumulation and the comparison report


def append_results(path, rows) -> None:
    """Append rows to a results CSV, writing the header when the file is
    missing or empty; with no rows, write nothing."""
    if not rows:
        return
    path = Path(path)
    new = not path.exists() or path.stat().st_size == 0
    with open_output(path, "a", "results file") as fh:
        writer = csv.DictWriter(fh, fieldnames=RESULT_FIELDS)
        if new:
            writer.writeheader()
        for row in rows:
            writer.writerow({k: row[k] for k in RESULT_FIELDS})


def read_results(paths):
    """The rows of results files, as dicts of RESULT_FIELDS, in
    ``data.read_table``'s dialect.  ``split`` must be one of SPLIT_NAMES;
    ``rmse`` must be a finite number and is read as a float; a header-only
    file holds no rows."""
    rows = []
    for path in paths:
        _, table, lines = read_table(path, RESULT_FIELDS, "results file")
        for cells, line in zip(table, lines):
            row = dict(zip(RESULT_FIELDS, cells))
            if row["split"] not in SPLIT_NAMES:
                raise DataError(f"{path}:{line}: unknown split label {row['split']!r}")
            try:
                row["rmse"] = float(row["rmse"])
            except ValueError:
                raise DataError(f"{path}:{line}: rmse {row['rmse']!r} is not a number") from None
            if not math.isfinite(row["rmse"]):
                raise DataError(f"{path}:{line}: non-finite rmse {row['rmse']}")
            rows.append(row)
    return rows


def build_report(rows):
    """Grid of methods x (setting, split) mirroring the comparison table.

    Returns (text, header list, table rows); absent cells show an em dash.
    """
    methods = []
    settings = []
    cells = {}
    for row in rows:
        method = row["method"] if not row["config"] else f"{row['method']} ({row['config']})"
        if method not in methods:
            methods.append(method)
        if row["setting"] not in settings:
            settings.append(row["setting"])
        cells[(method, row["setting"], row["split"])] = row["rmse"]
    header = ["method"]
    for setting in settings:
        for split in SPLIT_NAMES:
            header.append(f"{setting} {split}")
    table = []
    for method in methods:
        line = [method]
        for setting in settings:
            for split in SPLIT_NAMES:
                value = cells.get((method, setting, split))
                if value is None:
                    line.append("—")
                else:
                    line.append(f"{float(value):.4f}")
        table.append(line)
    widths = [max(len(r[i]) for r in [header] + table) for i in range(len(header))]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for line in table:
        lines.append("  ".join(v.ljust(w) for v, w in zip(line, widths)))
    return "\n".join(lines), header, table


def write_report(rows, out_path):
    text, header, table = build_report(rows)
    with open_output(out_path, "w", "report") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(table)
    return text
