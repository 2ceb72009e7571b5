"""Self-describing array archive used for checkpoints and dataset caches.

Byte layout (see docs/checkpoint_format.md):

* line 1: ``FUZZFORMER-ARCHIVE <version>``
* line 2: canonical JSON metadata (sorted keys, compact separators)
* line 3: integer count M of arrays
* M manifest lines: ``<name> <dim0> <dim1> ...`` (bare name for scalars)
* separator line ``---``
* M payloads: raw little-endian float64 values in C order, concatenated
  in manifest order.

All text is UTF-8 with ``\n`` endings; writes are byte-deterministic for
identical inputs.
"""

import json
import math

import numpy as np

from .exceptions import DataError

MAGIC = "FUZZFORMER-ARCHIVE"
VERSION = 1


def write_archive(path, meta: dict, arrays) -> None:
    """arrays: ordered (name, ndarray) pairs; values stored as float64."""
    arrays = [(name, np.asarray(arr, dtype=np.float64)) for name, arr in arrays]
    lines = [f"{MAGIC} {VERSION}", json.dumps(meta, sort_keys=True, separators=(",", ":"))]
    lines.append(str(len(arrays)))
    for name, arr in arrays:
        if not name or any(ch.isspace() for ch in name):
            raise DataError(f"invalid archive entry name: {name!r}")
        lines.append(" ".join([name] + [str(d) for d in arr.shape]))
    lines.append("---")
    with open(path, "wb") as fh:
        fh.write(("\n".join(lines) + "\n").encode("utf-8"))
        for _, arr in arrays:
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _header_int(path, text, what):
    try:
        value = int(text)
    except ValueError:
        raise DataError(f"{path}: {what} {text!r} is not an integer") from None
    if value < 0:
        raise DataError(f"{path}: negative {what} {value}")
    return value


def read_archive(path):
    """Returns (meta, dict of name -> ndarray in manifest order).

    A file that is not a well-formed archive raises ``DataError``.
    """
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read archive {path}: {exc}") from exc
    sep = b"\n---\n"
    head_end = blob.find(sep)
    if head_end < 0:
        raise DataError(f"{path}: missing archive separator (not an archive file?)")
    try:
        header_lines = blob[:head_end].decode("utf-8").split("\n")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: archive header is not UTF-8 ({exc})") from None
    if len(header_lines) < 3:
        raise DataError(f"{path}: truncated archive header")
    magic = header_lines[0].split()
    if len(magic) != 2 or magic[0] != MAGIC:
        raise DataError(f"{path}: bad magic line {header_lines[0]!r}")
    if _header_int(path, magic[1], "version") != VERSION:
        raise DataError(f"{path}: unsupported archive version {magic[1]}")
    try:
        meta = json.loads(header_lines[1])
    except (json.JSONDecodeError, RecursionError) as exc:
        # RecursionError: arrays or objects nested too deep to decode
        raise DataError(f"{path}: bad metadata line: {exc}") from exc
    if not isinstance(meta, dict):
        raise DataError(f"{path}: metadata must be a JSON object, got {type(meta).__name__}")
    count = _header_int(path, header_lines[2], "array count")
    manifest = header_lines[3 : 3 + count]
    if len(manifest) != count:
        raise DataError(f"{path}: manifest lists {len(manifest)} of {count} arrays")
    arrays = {}
    offset = head_end + len(sep)
    for line in manifest:
        parts = line.split()
        if not parts:
            raise DataError(f"{path}: empty manifest line")
        name = parts[0]
        if name in arrays:
            raise DataError(f"{path}: duplicate array name {name!r}")
        dims = tuple(_header_int(path, d, f"dimension of {name}") for d in parts[1:])
        nbytes = 8 * math.prod(dims)
        chunk = blob[offset : offset + nbytes]
        if len(chunk) != nbytes:
            raise DataError(f"{path}: truncated payload for {name}")
        try:
            arr = np.frombuffer(chunk, dtype="<f8").astype(np.float64).reshape(dims)
        except (ValueError, OverflowError) as exc:
            # a zero dimension next to one too large to allocate
            raise DataError(f"{path}: bad shape {dims} for {name}: {exc}") from None
        arrays[name] = arr
        offset += nbytes
    if offset != len(blob):
        raise DataError(f"{path}: {len(blob) - offset} trailing bytes after payloads")
    return meta, arrays


def read_kind(path, kind, fmt, command):
    """``read_archive(path)`` of a ``kind`` archive in format ``fmt``; any
    other raises ``DataError`` naming ``command``, which writes this kind."""
    meta, arrays = read_archive(path)
    if meta.get("kind") != kind:
        raise DataError(f"{path}: not a {kind} archive (kind={meta.get('kind')!r})")
    if meta.get("format") != fmt:
        raise DataError(
            f"{path}: unsupported {kind} format {meta.get('format')!r} (this version reads "
            f"format {fmt}); re-run `{command}` to rebuild it"
        )
    return meta, arrays


def require(table, name, path, what):
    """``table[name]`` from a read archive; a missing entry raises ``DataError``."""
    if name not in table:
        raise DataError(f"{path}: missing {what} {name!r}")
    return table[name]


def require_int(meta, key, path) -> int:
    """Integer metadata value ``meta[key]``; missing or non-integer raises ``DataError``."""
    value = require(meta, key, path, "meta key")
    if isinstance(value, bool) or not isinstance(value, int):
        raise DataError(f"{path}: meta key {key!r} must be an integer, got {value!r}")
    return value


def require_strings(meta, key, count, path) -> list:
    """Metadata value ``meta[key]`` as a list of exactly ``count`` strings;
    anything else raises ``DataError``."""
    value = require(meta, key, path, "meta key")
    if not isinstance(value, list):
        got = f"a {type(value).__name__}"
    elif len(value) != count:
        got = f"a list of {len(value)}"
    else:
        bad = [entry for entry in value if not isinstance(entry, str)]
        if not bad:
            return value
        got = f"the non-string entry {bad[0]!r}"
    raise DataError(f"{path}: meta key {key!r} must be a list of {count} strings, got {got}")
