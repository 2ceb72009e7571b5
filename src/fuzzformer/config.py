"""Run configuration: every knob of the model, training, and windowing.

Defaults: 60-step look-back, 30-step horizon, 2 LSTM layers at width
128, 2 attention layers with 4 heads, a 2-D latent, 16 rules,
ARIX(4, 1, 1).  The CLI exposes one flag per field and writes the
resolved config next to every run's outputs.
"""

import json
import math
from dataclasses import asdict, dataclass, fields

from .data import read_text, write_json
from .exceptions import ConfigError, DataError


def _is_a(value, kind) -> bool:
    """JSON typing of a field value: a bool is not a number; an int is a float."""
    return not isinstance(value, bool) and isinstance(value, (int, float) if kind is float else kind)


@dataclass
class RunConfig:
    lookback: int = 60
    horizon: int = 30
    channels: int = 4
    lstm_layers: int = 2
    hidden_width: int = 128
    mha_layers: int = 2
    attention_heads: int = 4
    latent_width: int = 2
    rules: int = 16
    ar_order: int = 4
    integration_order: int = 1
    exog_order: int = 1
    dropout_rate: float = 0.1
    weight_mse: float = 1.0
    weight_fcm: float = 0.1
    weight_overlap: float = 0.01
    weight_balance: float = 0.1
    learning_rate: float = 1e-3
    batch_size: int = 64
    epochs: int = 200
    seed: int = 42

    def validate(self) -> "RunConfig":
        positive = (
            "lookback", "horizon", "channels", "lstm_layers", "hidden_width",
            "mha_layers", "attention_heads", "latent_width", "rules",
            "ar_order", "batch_size",
        )
        for name in positive:
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("epochs", "exog_order", "seed"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.integration_order not in (0, 1):
            raise ConfigError(f"integration_order must be 0 or 1, got {self.integration_order}")
        if self.hidden_width % self.attention_heads != 0:
            raise ConfigError(
                f"hidden_width {self.hidden_width} must be divisible by "
                f"attention_heads {self.attention_heads}"
            )
        if self.lookback < self.history:
            raise ConfigError(
                f"lookback {self.lookback} too short to seed ARIX order "
                f"p={self.ar_order}, d={self.integration_order}"
            )
        if not 0.0 <= self.dropout_rate <= 1.0:
            raise ConfigError(f"dropout_rate must be in [0, 1], got {self.dropout_rate}")
        if not 0.0 < self.learning_rate < math.inf:
            raise ConfigError(
                f"learning_rate must be positive and finite, got {self.learning_rate}"
            )
        for name in ("weight_mse", "weight_fcm", "weight_overlap", "weight_balance"):
            if not 0.0 <= getattr(self, name) < math.inf:  # also false for NaN
                raise ConfigError(
                    f"{name} must be finite and non-negative, got {getattr(self, name)}"
                )
        if self.weight_mse <= 0:
            raise ConfigError("the MSE weight must be positive")
        return self

    @property
    def history(self) -> int:
        """Trailing main-series values that seed the ARIX recursion: p + d."""
        return self.ar_order + self.integration_order

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        kinds = {f.name: f.type for f in fields(cls)}
        unknown = set(data) - set(kinds)
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        for name, value in data.items():
            if not _is_a(value, kinds[name]):
                raise ConfigError(f"{name} must be {kinds[name].__name__}, got {value!r}")
        return cls(**data).validate()

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        """The config in the JSON file ``path``; a file that cannot be read
        or decoded raises ``ConfigError``, so the CLI exits with code 1."""
        try:
            data = json.loads(read_text(path, "config file"))
        except DataError as exc:
            raise ConfigError(str(exc)) from None
        except (json.JSONDecodeError, RecursionError) as exc:
            # RecursionError: arrays or objects nested too deep to decode
            raise ConfigError(f"cannot read config file {path}: {exc}") from None
        return cls.from_dict(data)

    def write(self, path) -> None:
        write_json(path, self.to_dict(), "config")
