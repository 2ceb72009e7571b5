"""Seeded-run fingerprints, and the script that regenerates tests/goldens.json.

``test_goldens.py`` compares a fresh record against the committed file, so
a change that moves a seeded bit fails tier-1 instead of passing
criterion 9, which only compares two runs of the same code.  A record
holds, per config in ``CONFIGS`` (trained for 2 epochs):

* the sha256 of ``checkpoint.bin``, ``losses.csv``, ``history.csv`` and of
  every file ``forecast_bundle`` writes for one window;
* the test-split RMSE, as ``repr``;

for the LSTM baseline (``LSTM_BASELINE``, on criterion 9's data), the
sha256 of its test-split forecasts and their RMSE; and, for the batched
ARIMA(4,1,1) baseline on the 933 windows of the seed-42 synthetic series
at lookback 60 and horizon 30, the sha256 of its forecasts and of its
``ok`` mask and the RMSE of the accepted forecasts, plus the
``training.numeric_environment`` record it was made under.

Seeded bits depend on the BLAS thread count, so the record is always made
in a child process with ``OPENBLAS_NUM_THREADS=1`` (``pinned_record``).
Run from the repository root:

    PYTHONPATH=src python tests/make_goldens.py --write   # rewrite goldens.json
    PYTHONPATH=src python tests/make_goldens.py           # print a record

A change that moves bits on purpose rewrites the file and says so.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from fuzzformer import baselines
from fuzzformer.config import RunConfig
from fuzzformer.data import make_synthetic, prepare_dataset
from fuzzformer.training import evaluate_split, forecast_bundle, numeric_environment, train, train_lstm_baseline

ROOT = Path(__file__).resolve().parent.parent
GOLDENS = Path(__file__).resolve().parent / "goldens.json"
# criterion 9's shape (tests/test_acceptance.py::TestCriterion9Determinism),
# the same shape without differencing, and with one rule
CRITERION9 = dict(
    lookback=12, horizon=4, channels=3, lstm_layers=1, hidden_width=4,
    mha_layers=1, attention_heads=2, latent_width=2, rules=2, ar_order=2,
    integration_order=1, exog_order=1, dropout_rate=0.1, batch_size=16,
    epochs=2, seed=99,
)
CONFIGS = {
    "criterion9": CRITERION9,
    "criterion9_d0": {**CRITERION9, "integration_order": 0},
    "criterion9_c1": {**CRITERION9, "rules": 1},
}
# the paper's D_h, where the GEMMs are large enough for BLAS to pick its
# blocked kernels
LSTM_BASELINE = dict(hidden=128, layers=1, epochs=2, batch_size=16, seed=99)


def sha256(data) -> str:
    return hashlib.sha256(data).hexdigest()


def run_record(cfg: RunConfig, out: Path) -> dict:
    """Train ``cfg`` on criterion 9's data into ``out`` and fingerprint the
    run and one forecast bundle (the last test window's)."""
    dataset = prepare_dataset(make_synthetic(n_points=400, seed=3), cfg.lookback, cfg.horizon)
    result = train(cfg, dataset, out / "run", log=lambda *_: None)
    origin = int(dataset.origins_for("test")[-1])
    rows = slice(origin - cfg.lookback + 1, origin + 1)
    forecast_bundle(
        result.model, dataset.scaler, dataset.channel_names, dataset.calendar[rows],
        dataset.scaler.inverse(dataset.matrix[rows]), out / "bundle", log=lambda *_: None,
    )
    files = {name: (out / "run" / name).read_bytes() for name in ("checkpoint.bin", "losses.csv", "history.csv")}
    files.update({f"bundle/{p.name}": p.read_bytes() for p in sorted((out / "bundle").iterdir())})
    return {
        "sha256": {name: sha256(data) for name, data in files.items()},
        "test_rmse": repr(evaluate_split(result.model, dataset, "test").rmse),
    }


def lstm_record() -> dict:
    """The LSTM baseline's forecasts of criterion 9's test split."""
    dataset = prepare_dataset(make_synthetic(n_points=400, seed=3), CRITERION9["lookback"], CRITERION9["horizon"])
    model = train_lstm_baseline(dataset, **LSTM_BASELINE)
    batch = dataset.batch(dataset.origins_for("test"), history=1)
    preds = model.predict(batch.x)
    return {"sha256": {"forecasts": sha256(preds.tobytes())}, "test_rmse": repr(baselines.rmse(preds, batch.y_target))}


def arima_record() -> dict:
    """The batched ARIMA(4,1,1) baseline on the benchmark's 933 windows."""
    dataset = prepare_dataset(make_synthetic(n_points=1200, seed=42), lookback=60, horizon=30)
    preds, ok = baselines.evaluate_arima_windows(
        dataset.window_main(dataset.origins), baselines.ArimaOrder(4, 1, 1), dataset.horizon
    )
    target = dataset.batch(dataset.origins, history=1).y_target
    return {
        "windows": int(ok.size),
        "sha256": {"forecasts": sha256(preds.tobytes()), "ok": sha256(ok.tobytes())},
        "rmse": repr(baselines.rmse(preds[ok], target[ok])),
    }


def record() -> dict:
    """The fingerprints of this process's code and environment."""
    with tempfile.TemporaryDirectory() as tmp:
        runs = {name: run_record(RunConfig(**fields), Path(tmp) / name) for name, fields in CONFIGS.items()}
    return {"environment": numeric_environment(), "runs": runs, "lstm": lstm_record(), "arima": arima_record()}


def pinned_record() -> dict:
    """``record()`` made in a child process with one BLAS thread."""
    env = {k: v for k, v in os.environ.items() if k not in ("OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, str(Path(__file__).resolve())], env=env, capture_output=True, text=True)
    if out.returncode:
        raise RuntimeError(f"make_goldens.py exited with {out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout)


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        GOLDENS.write_text(json.dumps(pinned_record(), indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {GOLDENS}")
    elif sys.argv[1:]:
        sys.exit("usage: make_goldens.py [--write]")
    else:
        print(json.dumps(record()))
