"""Checkpoint persistence: configuration plus named parameter tensors.

Built on the archive container (docs/checkpoint_format.md): a text
header carrying the format version, the full model configuration, and an
ordered tensor manifest, followed by flat little-endian float64
payloads.  Save then load reproduces every parameter bit-exactly.
"""

import numpy as np

from . import container
from .config import RunConfig
from .data import MinMaxScaler, check_main_channel
from .exceptions import DataError
from .model import FuzzformerModel

CHECKPOINT_FORMAT = 1


def save_checkpoint(path, model: FuzzformerModel, scaler=None, channel_names=None) -> None:
    meta = {
        "kind": "checkpoint",
        "format": CHECKPOINT_FORMAT,
        "config": model.config.to_dict(),
        "channel_names": list(channel_names) if channel_names else [],
        "main_channel": 0,
    }
    arrays = [(name, tensor.data) for name, tensor in model.parameters()]
    if scaler is not None:
        arrays.append(("scaler.mins", scaler.mins))
        arrays.append(("scaler.maxs", scaler.maxs))
    container.write_archive(path, meta, arrays)


def load_checkpoint(path):
    """Returns (model, scaler or None, meta)."""
    meta, arrays = container.read_archive(path)
    if meta.get("kind") != "checkpoint":
        raise DataError(f"{path}: not a checkpoint archive (kind={meta.get('kind')!r})")
    if meta.get("format") != CHECKPOINT_FORMAT:
        raise DataError(f"{path}: unsupported checkpoint format {meta.get('format')!r}")
    config = RunConfig.from_dict(container.require(meta, "config", path, "meta key"))
    check_main_channel(meta, path)
    names = meta.get("channel_names", [])
    if not isinstance(names, list) or len(names) not in (0, config.channels):
        raise DataError(
            f"{path}: meta key 'channel_names' must list the {config.channels} configured channels"
        )
    model = FuzzformerModel(config, np.random.default_rng(0))
    for name, tensor in model.parameters():
        stored = container.require(arrays, name, path, "tensor")
        if stored.shape != tensor.data.shape:
            raise DataError(
                f"{path}: tensor {name!r} has shape {stored.shape}, expected {tensor.data.shape}"
            )
        tensor.data[...] = stored
    scaler = None
    if "scaler.mins" in arrays or "scaler.maxs" in arrays:
        scaler = MinMaxScaler(
            container.require(arrays, "scaler.mins", path, "array"),
            container.require(arrays, "scaler.maxs", path, "array"),
        )
        for name, values in (("scaler.mins", scaler.mins), ("scaler.maxs", scaler.maxs)):
            if values.shape != (config.channels,):
                raise DataError(
                    f"{path}: array {name!r} has shape {values.shape}, "
                    f"expected ({config.channels},) for the configured channels"
                )
    return model, scaler, meta
