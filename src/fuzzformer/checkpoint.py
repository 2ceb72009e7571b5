"""Checkpoint persistence: configuration plus named parameter tensors.

Built on the archive container (docs/checkpoint_format.md): a text
header carrying the format version, the full model configuration, and an
ordered tensor manifest, followed by flat little-endian float64
payloads.  Save then load reproduces every parameter bit-exactly.
"""

from . import autodiff as ad
from . import container
from .config import RunConfig
from .data import MinMaxScaler
from .model import FuzzformerModel

CHECKPOINT_FORMAT = 2


def save_checkpoint(path, model: FuzzformerModel, scaler, channel_names) -> None:
    meta = {
        "kind": "checkpoint",
        "format": CHECKPOINT_FORMAT,
        "config": model.config.to_dict(),
        "channel_names": list(channel_names),
    }
    arrays = [(name, tensor.data) for name, tensor in model.parameters()]
    container.write_archive(path, meta, arrays + scaler.archive_arrays())


def load_checkpoint(path):
    """Returns (model, scaler, meta)."""
    meta, arrays = container.read_kind(path, "checkpoint", CHECKPOINT_FORMAT, "train")
    config = RunConfig.from_dict(container.require(meta, "config", path, "meta key"))
    container.require_strings(meta, "channel_names", config.channels, path)
    model = FuzzformerModel(config, ad.Parameters(arrays, path))
    return model, MinMaxScaler.from_archive(arrays, config.channels, path), meta
