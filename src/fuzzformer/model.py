"""The assembled forecaster: encoder, rule bank, and ARIX bank.

Training mode routes each sample through its single most activated rule
(winner-takes-all, non-differentiable selection) so every local model is
forced to fit its own region; evaluation mode blends all rule forecasts
with the membership weights.
"""

from dataclasses import dataclass

import numpy as np

from . import arix as arix_mod
from . import autodiff as ad
from . import fuzzy
from .config import RunConfig
from .encoder import Encoder, EncoderOutput
from .exceptions import ShapeError


@dataclass
class TrainingForward:
    winner_forecast: ad.Tensor      # (B, H)
    memberships: ad.Tensor          # (B, C)
    latent_diffs: ad.Tensor         # (B, C, D_Z)
    bhattacharyya_pairs: ad.Tensor  # (P,) unordered cluster pairs


@dataclass
class EvaluationForward:
    aggregate_forecast: ad.Tensor  # (B, H)
    rule_forecasts: ad.Tensor      # (B, C, H)
    memberships: ad.Tensor         # (B, C)
    encoder_output: EncoderOutput


class FuzzformerModel:
    def __init__(self, config: RunConfig, rng):
        """``rng``: the generator that draws the initial parameters, or an
        ``ad.Parameters`` registry over a checkpoint's arrays."""
        config.validate()
        self.config = config
        params = rng if isinstance(rng, ad.Parameters) else ad.Parameters(rng)
        self.encoder = Encoder(config, params.scope("encoder"))
        rules = params.scope("rules")
        c, dz, p, q = config.rules, config.latent_width, config.ar_order, config.exog_order
        # Clusters start as unit-ish spheres scattered in the tanh-bounded
        # latent box; a warm-up pass usually re-seeds the centers.
        self.centers = rules.new("centers", (c, dz), init=lambda g: g.uniform(-0.5, 0.5, (c, dz)))
        self.factors = rules.new("factors", (c, dz, dz), init=lambda g: fuzzy.isotropic_factors(c, dz))
        # Zero ARIX coefficients start every rule at the random-walk
        # persistence forecast, a stable initial bias.
        self.arix_a = rules.new("arix_a", (c, p), init=lambda g: np.zeros((c, p)))
        self.arix_b = rules.new("arix_b", (c, q), init=lambda g: np.zeros((c, q)))
        self._named = params.named  # not the registry: it may hold a checkpoint's arrays
        self._pair_m, self._pair_n = np.triu_indices(c, k=1)

    # ------------------------------------------------------------------
    def parameters(self):
        """(name, tensor) pairs in creation order, which checkpoints keep."""
        return self._named

    def parameter_tensors(self):
        return [t for _, t in self._named]

    def initialize_clusters(self, latents, rng) -> None:
        """Re-seed rule centers from warm-up latent vectors."""
        centers, factors = fuzzy.init_clusters(latents, self.config.rules, rng)
        self.centers.data[...] = centers
        self.factors.data[...] = factors

    def clusters(self):
        return fuzzy.clusters_from_params(self.centers.data, self.factors.data)

    # ------------------------------------------------------------------
    def _check_window(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 3:
            raise ShapeError(f"model input must be (batch, lookback, channels), got {x.shape}")
        if x.shape[1] != self.config.lookback:
            raise ShapeError(
                f"window length {x.shape[1]} != configured lookback {self.config.lookback}"
            )
        if x.shape[2] != self.config.channels:
            raise ShapeError(
                f"channel count {x.shape[2]} != configured channels {self.config.channels}"
            )
        return x

    def _check_history(self, y_history: np.ndarray, batch: int) -> np.ndarray:
        need = self.config.history
        y_history = np.asarray(y_history, dtype=np.float64)
        if y_history.ndim != 2 or y_history.shape[1] < need:
            raise ShapeError(
                f"y_history {y_history.shape} too short for ARIX seeding (need {need})"
            )
        if y_history.shape[0] != batch:
            raise ShapeError(f"y_history holds {y_history.shape[0]} windows, x holds {batch}")
        return y_history

    def encode(self, x, rng=None, attention_maps=False) -> EncoderOutput:
        return self.encoder(ad.astensor(self._check_window(x)), rng=rng, attention_maps=attention_maps)

    def fuzzy_head(self, z_latent):
        """Graph memberships of a latent batch against the rule bank."""
        cov = fuzzy.covariances_graph(self.factors)
        psi, diffs = fuzzy.memberships_graph(z_latent, self.centers, cov)
        return cov, psi, diffs

    # ------------------------------------------------------------------
    def training_forward(self, x, y_history, rng=None) -> TrainingForward:
        x = self._check_window(x)
        y_history = self._check_history(y_history, x.shape[0])
        enc = self.encode(x, rng=rng)
        cov, psi, diffs = self.fuzzy_head(enc.z_latent)
        winners = np.argmax(psi.data, axis=1)
        a_sel = self.arix_a[winners]
        b_sel = self.arix_b[winners]
        forecast = arix_mod.winner_forecast_graph(
            y_history, enc.u_latent, a_sel, b_sel,
            self.config.integration_order, self.config.horizon, rules=winners,
        )
        return TrainingForward(
            winner_forecast=forecast,
            memberships=psi,
            latent_diffs=diffs,
            bhattacharyya_pairs=fuzzy.bhattacharyya_pairs_graph(
                self.centers, cov, self._pair_m, self._pair_n
            ),
        )

    def evaluation_forward(self, x, y_history, attention_maps=False) -> EvaluationForward:
        """Membership-blended forecasts of a batch, with the rule forecasts,
        memberships and encoder products they came from.

        The encoder output keeps the attention maps only when
        ``attention_maps`` asks for them (the forecast bundle does).
        Under ``ad.no_grad`` nothing else the forecast does not need is
        kept either: the LSTM layers hold no gradient caches.
        """
        x = self._check_window(x)
        y_history = self._check_history(y_history, x.shape[0])
        enc = self.encode(x, attention_maps=attention_maps)
        _cov, psi, _diffs = self.fuzzy_head(enc.z_latent)
        rule_preds = arix_mod.all_rules_forecast_graph(
            y_history, enc.u_latent, self.arix_a, self.arix_b,
            self.config.integration_order, self.config.horizon,
        )
        b, c = psi.data.shape
        agg = ad.tsum(ad.mul(ad.reshape(psi, (b, c, 1)), rule_preds), axis=1)
        return EvaluationForward(
            aggregate_forecast=agg,
            rule_forecasts=rule_preds,
            memberships=psi,
            encoder_output=enc,
        )

    def predict(self, x, y_history) -> np.ndarray:
        """Aggregate forecasts as plain arrays: a forward pass through
        ``ad.checked_forward``, which keeps no graph, no LSTM gradient
        caches and no attention maps, and checks the forecasts for NaN/Inf
        once instead of probing every op."""
        return ad.checked_forward(lambda: self.evaluation_forward(x, y_history).aggregate_forecast.data)
