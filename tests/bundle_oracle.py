"""Per-cell oracle for the forecast bundle's CSV files.

The bundle's CSV writers as plain per-cell loops (one ``csv.writer``
row per cell, numpy scalars formatted one at a time, the Bhattacharyya
matrix computed for both orders of every pair by the per-cluster oracle
in ``fuzzy_oracle``), kept as an independent
check on ``fuzzformer.training.forecast_bundle``, which writes the same
bytes in bulk.  ``write_bundle_csvs`` runs the same forward pass as the
bundle and writes its four CSV files into ``out_dir``.
"""

import csv
from pathlib import Path

from fuzzformer import autodiff as ad

from fuzzy_oracle import bhattacharyya

CSV_NAMES = ("forecast.csv", "rule_forecasts.csv", "clusters.csv", "attention_weights.csv")


def write_bundle_csvs(model, scaler, matrix, out_dir):
    """Write the bundle's CSV files for the last ``lookback`` rows of ``matrix``."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg = model.config
    window = matrix[-cfg.lookback :]
    scaled = scaler.transform(window)
    x = scaled[None, :, :]
    y_hist = scaled[None, -cfg.history :, 0]
    with ad.no_grad():
        ev = model.evaluation_forward(x, y_hist, attention_maps=True)
    agg_scaled = ev.aggregate_forecast.data[0]
    agg = scaler.inverse(agg_scaled, channel=0)
    psi = ev.memberships.data[0]
    rules_scaled = ev.rule_forecasts.data[0]

    with open(out_dir / "forecast.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "value_scaled", "value"])
        for j in range(cfg.horizon):
            writer.writerow([j + 1, f"{agg_scaled[j]:.10g}", f"{agg[j]:.10g}"])

    with open(out_dir / "rule_forecasts.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rule", "step", "value_scaled", "membership"])
        for i in range(cfg.rules):
            for j in range(cfg.horizon):
                writer.writerow([i, j + 1, f"{rules_scaled[i, j]:.10g}", f"{psi[i]:.10g}"])

    clusters = model.clusters()
    with open(out_dir / "clusters.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        dz = cfg.latent_width
        head = (
            ["rule"]
            + [f"center_{k}" for k in range(dz)]
            + [f"cov_{r}{c}" for r in range(dz) for c in range(dz)]
            + [f"bhattacharyya_{i}" for i in range(cfg.rules)]
        )
        writer.writerow(head)
        for i, cl in enumerate(clusters):
            row = [i]
            row += [f"{v:.10g}" for v in cl.center]
            row += [f"{v:.10g}" for v in cl.covariance.reshape(-1)]
            row += [
                f"{(0.0 if i == j else bhattacharyya(cl, clusters[j])):.10g}"
                for j in range(cfg.rules)
            ]
            writer.writerow(row)

    with open(out_dir / "attention_weights.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["layer", "head", "query_step", "key_step", "weight"])
        for layer_idx, layer in enumerate(ev.encoder_output.attention_weights):
            for head_idx, w in enumerate(layer):
                weights = w.data[0]
                for qi in range(weights.shape[0]):
                    for ki in range(weights.shape[1]):
                        writer.writerow([layer_idx, head_idx, qi, ki, f"{weights[qi, ki]:.10g}"])
