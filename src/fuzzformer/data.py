"""Data pipeline: ingest series, align calendars, scale, window, split.

Every text file the package reads or writes goes through this module.
Series files (``date,value``, ISO-8601 calendar days), forecast window
files (``date,<channel>,...``) and results files
(``method,config,setting,split,rmse``) share one CSV reader,
``read_table``, and one dialect: UTF-8, a leading byte-order mark
dropped; Python's ``csv`` defaults in strict mode, so cells may be quoted
(RFC 4180), but a quote left open at the end of the file, or text after a
closing quote, is an error;
named columns in any order, matched after stripping and without regard to
case, each named once; other columns ignored; blank rows skipped; every
other row as wide as the header.  Series and window files also need a
header whose first cell is ``date``, at least one row, and finite numbers
in the named columns; a results file needs a finite ``rmse`` and may hold
no rows.  Config files are JSON text read through ``read_text``.  Text
outputs are written through ``open_output`` (every CSV table through one
writer, ``write_rows``; JSON through ``write_json``) into directories
made by ``output_dir``.  A file that cannot be read or parsed, and an
output that cannot be written (an output directory that names a file,
say), raise ``DataError``; ``RunConfig.from_file`` turns its own into
``ConfigError``.

Channels are aligned onto the main series' calendar with forward fill
(each day takes a channel's latest observation on or before it), min-max
scaled per channel on training-range rows only, and sliced into
(look-back, horizon) samples split 80/10/10 chronologically by window
origin.  Samples whose target range would bleed into a later split's
input region are embargoed (dropped), so no training target overlaps
evaluation inputs.
"""

import csv
import datetime as dt
import hashlib
import io
import json
import operator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import container
from .exceptions import ConfigError, DataError, FetchError

DATASET_FORMAT_VERSION = 2
SPLIT_NAMES = ("train", "valid", "test")
SPLIT_RATIOS = (0.8, 0.1, 0.1)


@dataclass
class RawSeries:
    """One named series of (ISO date, finite value) observations."""

    name: str
    dates: list
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if len(self.dates) != self.values.size:
            raise DataError(f"{self.name}: {len(self.dates)} dates vs {self.values.size} values")

    def __len__(self):
        return self.values.size


def _parse_date(text, context):
    try:
        return dt.date.fromisoformat(text.strip())
    except ValueError as exc:
        raise DataError(f"{context}: bad date {text!r} ({exc})") from exc


def read_text(path, what):
    """The UTF-8 text of ``path``, without a leading byte-order mark (as
    spreadsheet "CSV UTF-8" exports write); a missing or unreadable file,
    or bytes that are not UTF-8, raise ``DataError``.  ``what`` names the
    file in the message."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"{what} not found: {path}")
    try:
        return path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    except OSError as exc:
        raise DataError(f"cannot read {what} {path}: {exc}") from exc


def open_output(path, mode, what):
    """``path`` opened to write UTF-8 text in ``mode`` ("w" or "a"); an
    ``OSError`` (a missing directory, say) raises ``DataError``."""
    try:
        return open(path, mode, encoding="utf-8", newline="")
    except OSError as exc:
        raise DataError(f"cannot write {what} {path}: {exc}") from exc


def write_json(path, value, what) -> None:
    """``value`` written to ``path`` as indented JSON with sorted keys and
    a final newline; a value JSON has no type for (a path, say) is
    written as its text."""
    with open_output(path, "w", what) as fh:
        json.dump(value, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def output_dir(path, what) -> Path:
    """``path`` as a directory, made with its parents if it is not there;
    an ``OSError`` (``path`` names a file, say) raises ``DataError``."""
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DataError(f"cannot make {what} {path}: {exc}") from exc
    return path


def read_table(path, columns, what):
    """The header's cells, the texts of ``columns`` in each row (in that
    order) and the line of each row, of a CSV file in the module's
    dialect.  Errors are ``DataError``s naming ``path:line``, the
    physical line where a row ends (a quoted cell may span several); a
    file that ends inside a quoted cell (cut off mid-write, say) and text
    after a closing quote (``"q"z``) are errors, not rows.  ``what``
    names a missing file."""
    path = Path(path)
    reader = csv.reader(io.StringIO(read_text(path, what)), strict=True)
    rows, lines = [], []
    try:
        header = next(reader, [])
        keys = [cell.strip().lower() for cell in header]
        wanted = [name.strip().lower() for name in columns]
        twice = sorted({key for key in wanted if keys.count(key) > 1})
        if twice:
            raise DataError(f"{path}:1: header names {twice} more than once")
        missing = [name for name, key in zip(columns, wanted) if key not in keys]
        if missing:
            raise DataError(f"{path}:1: header is missing columns {missing}")
        index = [keys.index(key) for key in wanted]
        for record in reader:
            if not "".join(record).strip():
                continue
            if len(record) != len(header):
                raise DataError(
                    f"{path}:{reader.line_num}: bad row of {len(record)} fields, "
                    f"header has {len(header)}"
                )
            rows.append([record[i] for i in index])
            lines.append(reader.line_num)
    except csv.Error as exc:
        raise DataError(f"{path}:{reader.line_num}: bad CSV ({exc})") from None
    return header, rows, lines


def write_rows(path, header, rows, what, mode="w") -> None:
    """``rows`` written to ``path`` by ``csv.writer`` under the ``header``
    row.  With mode "a" the rows are appended, after a line break when
    the file's last line has none, and the header is written only into a
    missing or empty file; a file that ``read_table`` cannot read, or
    whose header does not name ``header``'s columns in order (stripped
    and without regard to case), raises ``DataError`` and is left as it
    was."""
    path = Path(path)
    new = mode == "w" or not path.exists() or path.stat().st_size == 0
    if not new:
        cells = read_table(path, header, what)[0]
        if [cell.strip().lower() for cell in cells] != [name.lower() for name in header]:
            raise DataError(f"{path}:1: header {','.join(cells)!r} is not {','.join(header)!r}")
    with open_output(path, mode, what) as fh:
        writer = csv.writer(fh)
        if new:
            writer.writerow(header)
        elif not path.read_bytes().endswith((b"\n", b"\r")):
            fh.write(writer.dialect.lineterminator)
        writer.writerows(rows)


def read_columns(path, columns, what):
    """The date texts, the (rows, len(columns)) values and the line of
    each row of a series or window file: a ``read_table`` whose header
    starts with ``date``, with at least one row and finite numbers in
    ``columns``."""
    header, rows, lines = read_table(path, ["date", *columns], what)
    if header[0].strip().lower() != "date":
        raise DataError(f"{path}:1: header must start with 'date', got {','.join(header)!r}")
    if not rows:
        raise DataError(f"{path}: no observations")
    values = []
    for row, line in zip(rows, lines):
        try:
            numbers = [float(cell) for cell in row[1:]]
        except ValueError as exc:
            raise DataError(f"{path}:{line}: bad row ({exc})") from None
        if not np.isfinite(numbers).all():
            raise DataError(f"{path}:{line}: non-finite value in {row!r}")
        values.append(numbers)
    return [row[0].strip() for row in rows], np.array(values, dtype=np.float64), lines


def load_csv(path, name=None) -> RawSeries:
    """A ``date,value`` series file in ``read_columns``' dialect, sorted
    by date; dates must be ISO-8601 calendar days, each at most once."""
    path = Path(path)
    texts, values, lines = read_columns(path, ["value"], "series file")
    days = [_parse_date(text, f"{path}:{line}") for text, line in zip(texts, lines)]
    order = sorted(range(len(days)), key=days.__getitem__)
    for i, j in zip(order, order[1:]):
        if days[i] == days[j]:
            raise DataError(
                f"{path}:{lines[j]}: duplicate date {days[j].isoformat()} "
                f"(also on line {lines[i]})"
            )
    return RawSeries(
        name=name or path.stem,
        dates=[days[i].isoformat() for i in order],
        values=values[order, 0],
    )


def fetch_http(url, cache_dir, name=None, timeout=30.0) -> RawSeries:
    """Download a ``date,value`` CSV, caching by URL hash for offline reruns.

    An HTTP status other than 200 raises ``FetchError`` naming it; any
    other failure to fetch (no route, a timeout, a malformed URL or
    response) raises ``FetchError`` suggesting a manual download.
    """
    # imported here: urllib.request loads ssl, ~7 MB of RSS no other command needs
    import http.client
    import urllib.error
    import urllib.request

    cache_dir = output_dir(cache_dir, "cache directory")
    key = hashlib.sha256(url.encode("utf-8")).hexdigest()[:24]
    cache_file = cache_dir / f"{key}.csv"
    if not cache_file.exists():
        try:
            with urllib.request.urlopen(url, timeout=timeout) as resp:
                status, content = resp.status, resp.read()
        except urllib.error.HTTPError as exc:
            status = exc.code
        except (OSError, ValueError, http.client.HTTPException) as exc:
            raise FetchError(
                f"could not fetch {url}: {exc}. Download the CSV manually and "
                "pass the local file instead."
            ) from exc
        if status != 200:
            raise FetchError(f"fetch of {url} failed with HTTP {status}")
        tmp = cache_file.with_suffix(".part")
        try:
            tmp.write_bytes(content)
            tmp.rename(cache_file)
        except OSError as exc:
            raise DataError(f"cannot write cache file {cache_file}: {exc}") from exc
    return load_csv(cache_file, name=name or url)


def align(series_list):
    """Stack channels onto the main (first) series' calendar.

    Each other channel's value on a calendar day is its latest
    observation on or before that day, on the calendar or not (forward
    fill); of two on one day, the later listed.  Leading dates where any
    channel has no value yet are dropped.  Returns (matrix (T, D),
    calendar, names).
    """
    if not series_list:
        raise DataError("align: need at least one series")
    main = series_list[0]
    calendar = list(main.dates)
    columns = [np.asarray(main.values, dtype=np.float64)]
    for series in series_list[1:]:
        days = np.asarray(series.dates, dtype=str)
        order = np.argsort(days, kind="stable")
        latest = np.searchsorted(days[order], np.asarray(calendar, dtype=str), side="right") - 1
        if not np.any(latest >= 0):
            raise DataError(f"align: series {series.name!r} does not overlap the main calendar")
        values = np.append(series.values[order], np.nan)  # index -1: no observation yet
        columns.append(values[latest])
    matrix = np.stack(columns, axis=1)
    good = np.all(np.isfinite(matrix), axis=1)
    first_good = int(np.argmax(good)) if np.any(good) else len(calendar)
    if first_good >= len(calendar):
        raise DataError("align: empty calendar intersection")
    matrix = matrix[first_good:]
    calendar = calendar[first_good:]
    names = [s.name for s in series_list]
    return matrix, calendar, names


@dataclass
class MinMaxScaler:
    """Per-channel affine map onto [0, 1] using training-range statistics."""

    mins: np.ndarray
    maxs: np.ndarray

    def __post_init__(self):
        self.mins = np.asarray(self.mins, dtype=np.float64)
        self.maxs = np.asarray(self.maxs, dtype=np.float64)

    def transform(self, matrix):
        return (np.asarray(matrix, dtype=np.float64) - self.mins) / (self.maxs - self.mins)

    def inverse(self, matrix, channel=None):
        matrix = np.asarray(matrix, dtype=np.float64)
        if channel is None:
            return matrix * (self.maxs - self.mins) + self.mins
        return matrix * (self.maxs[channel] - self.mins[channel]) + self.mins[channel]

    def archive_arrays(self):
        """The (name, array) entries a dataset or checkpoint archive stores."""
        return [("scaler.mins", self.mins), ("scaler.maxs", self.maxs)]

    @classmethod
    def from_archive(cls, arrays, channels, path) -> "MinMaxScaler":
        """The scaler that ``archive_arrays`` stored for ``channels``
        channels; a missing array, one not of shape (channels,), or a
        channel whose max is not above its min by a finite amount, raises
        ``DataError``."""
        values = []
        for name in ("scaler.mins", "scaler.maxs"):
            value = container.require(arrays, name, path, "array")
            if value.shape != (channels,):
                raise DataError(
                    f"{path}: array {name!r} has shape {value.shape}, expected ({channels},)"
                )
            values.append(value)
        mins, maxs = values
        with np.errstate(over="ignore", invalid="ignore"):
            span = maxs - mins
        bad = np.nonzero(~((0 < span) & (span < np.inf)))[0]  # NaN fails both
        if bad.size:
            raise DataError(f"{path}: scaler range of channel(s) {bad.tolist()} is not finite and positive")
        return cls(mins, maxs)


def fit_minmax(matrix, fit_rows: int) -> MinMaxScaler:
    """Fit per-channel min/max on the first ``fit_rows`` rows only; a
    channel that is constant there, or whose max - min is not finite,
    raises ``DataError``."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if fit_rows < 1 or fit_rows > matrix.shape[0]:
        raise DataError(f"scaler fit range {fit_rows} out of bounds for {matrix.shape[0]} rows")
    sub = matrix[:fit_rows]
    mins = sub.min(axis=0)
    maxs = sub.max(axis=0)
    constant = np.nonzero(maxs <= mins)[0]
    if constant.size:
        raise DataError(f"constant channel(s) in scaler fit range: {constant.tolist()}")
    with np.errstate(over="ignore", invalid="ignore"):
        unbounded = np.nonzero(~np.isfinite(maxs - mins))[0]
    if unbounded.size:
        raise DataError(f"channel(s) with a non-finite range in scaler fit range: {unbounded.tolist()}")
    return MinMaxScaler(mins, maxs)


@dataclass
class Batch:
    x: np.ndarray          # (B, N, D) scaled windows
    y_target: np.ndarray   # (B, H) scaled main-series continuation
    y_history: np.ndarray  # (B, hist) trailing main values up to the origin
    origins: np.ndarray    # (B,) origin row index of each sample


@dataclass
class WindowedDataset:
    """Scaled matrix plus window origins, split labels, and the scaler.

    Column 0 of the matrix is the main series (``align`` puts it first);
    the others are exogenous.  A sample with origin k covers input rows
    [k-N+1, k] and target rows [k+1, k+H].  Split labels: 0 train,
    1 valid, 2 test.  ``origins``, ``labels`` and ``fit_rows`` follow
    from the row count and window sizes (``split_windows``), so the
    archive does not store them.
    """

    matrix: np.ndarray
    calendar: list
    channel_names: list
    lookback: int
    horizon: int
    stride: int
    origins: np.ndarray
    labels: np.ndarray
    scaler: MinMaxScaler
    fit_rows: int

    def origins_for(self, split) -> np.ndarray:
        return self.origins[self.labels == SPLIT_NAMES.index(split)]

    def counts(self) -> dict:
        return {name: int(np.sum(self.labels == i)) for i, name in enumerate(SPLIT_NAMES)}

    def batch(self, origins, history: int) -> Batch:
        origins = np.asarray(origins, dtype=np.int64)
        n = self.lookback
        rows = origins[:, None] + np.arange(-n + 1, 1)[None, :]
        x = self.matrix[rows]
        tgt_rows = origins[:, None] + np.arange(1, self.horizon + 1)[None, :]
        y_target = self.matrix[tgt_rows, 0]
        hist_rows = origins[:, None] + np.arange(-history + 1, 1)[None, :]
        y_history = self.matrix[hist_rows, 0]
        return Batch(x=x, y_target=y_target, y_history=y_history, origins=origins)

    def window_main(self, origins) -> np.ndarray:
        """(B, N) main-channel input windows (for univariate baselines)."""
        origins = np.asarray(origins, dtype=np.int64)
        rows = origins[:, None] + np.arange(-self.lookback + 1, 1)[None, :]
        return self.matrix[rows, 0]

    # ------------------------------------------------------------------
    def save(self, path) -> None:
        meta = {
            "kind": "dataset",
            "format": DATASET_FORMAT_VERSION,
            "channel_names": list(self.channel_names),
            "calendar": list(self.calendar),
            "lookback": self.lookback,
            "horizon": self.horizon,
            "stride": self.stride,
        }
        arrays = [("matrix", self.matrix), *self.scaler.archive_arrays()]
        container.write_archive(path, meta, arrays)

    @classmethod
    def load(cls, path) -> "WindowedDataset":
        meta, arrays = container.read_kind(path, "dataset", DATASET_FORMAT_VERSION, "prepare")
        matrix = container.require(arrays, "matrix", path, "array")
        if matrix.ndim != 2:
            raise DataError(f"{path}: array 'matrix' must be 2-D, got shape {matrix.shape}")
        if not np.isfinite(matrix).all():
            raise DataError(f"{path}: array 'matrix' holds non-finite values")
        rows, channels = matrix.shape
        sizes = {}
        for key in ("lookback", "horizon", "stride"):
            sizes[key] = container.require_int(meta, key, path)
            if sizes[key] < 1:
                raise DataError(f"{path}: {key} {sizes[key]} must be >= 1")
        try:
            origins, labels, fit_rows = split_windows(rows, **sizes)
        except DataError as exc:
            raise DataError(f"{path}: {exc}") from None
        return cls(
            matrix=matrix,
            calendar=container.require_strings(meta, "calendar", rows, path),
            channel_names=container.require_strings(meta, "channel_names", channels, path),
            origins=origins,
            labels=labels,
            scaler=MinMaxScaler.from_archive(arrays, channels, path),
            fit_rows=fit_rows,
            **sizes,
        )


def split_boundaries(n_rows: int):
    t1 = int(np.floor(n_rows * SPLIT_RATIOS[0]))
    t2 = int(np.floor(n_rows * (SPLIT_RATIOS[0] + SPLIT_RATIOS[1])))
    return t1, t2


def split_windows(n_rows, lookback, horizon, stride):
    """(origins, split labels, scaler fit-row count) of ``n_rows`` rows:
    every complete window's origin, ``stride`` apart, split by origin, less
    the embargoed samples whose targets reach a later split's inputs.
    The scaler fits the rows before the train/valid boundary."""
    if n_rows < lookback + horizon:
        raise DataError(
            f"need at least lookback + horizon = {lookback + horizon} rows, got {n_rows}"
        )
    t1, t2 = split_boundaries(n_rows)
    origins = np.arange(lookback - 1, n_rows - horizon, stride, dtype=np.int64)
    labels = np.where(origins < t1, 0, np.where(origins < t2, 1, 2)).astype(np.int64)

    keep = np.ones(origins.size, dtype=bool)
    for earlier, later in ((0, 1), (1, 2)):
        later_origins = origins[labels == later]
        if later_origins.size == 0:
            continue
        input_start = int(later_origins.min()) - lookback + 1
        # embargo: an earlier-split sample may not have targets reaching
        # into rows the later split will observe as inputs
        keep &= ~((labels == earlier) & (origins + horizon >= input_start))
    return origins[keep], labels[keep], max(t1, 1)


def as_int(name, value) -> int:
    """``value`` as a Python int: integers of any kind (numpy's too) pass,
    anything else, a bool or a float included, raises ``ConfigError``."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ConfigError(f"{name} must be int, got {value!r}")


def make_windows(matrix, calendar, channel_names, lookback, horizon, stride=1) -> WindowedDataset:
    """Scale, window, and split an aligned channel matrix (see
    ``split_windows``).  Window sizes must be integers >= 1."""
    sizes = {"lookback": lookback, "horizon": horizon, "stride": stride}
    for name, value in sizes.items():
        sizes[name] = as_int(name, value)
        if sizes[name] < 1:
            raise ConfigError(f"{name} must be >= 1, got {value}")
    lookback, horizon, stride = sizes.values()
    matrix = np.asarray(matrix, dtype=np.float64)
    origins, labels, fit_rows = split_windows(matrix.shape[0], lookback, horizon, stride)
    scaler = fit_minmax(matrix, fit_rows)
    return WindowedDataset(
        matrix=scaler.transform(matrix),
        calendar=list(calendar),
        channel_names=list(channel_names),
        lookback=lookback,
        horizon=horizon,
        stride=stride,
        origins=origins,
        labels=labels,
        scaler=scaler,
        fit_rows=fit_rows,
    )


def prepare_dataset(series_list, lookback, horizon, stride=1):
    matrix, calendar, names = align(series_list)
    return make_windows(matrix, calendar, names, lookback, horizon, stride)


def write_manifest(path, dataset: WindowedDataset, sources: dict) -> None:
    """Human-readable record of channels, sources, roles, and date range."""
    entries = []
    for i, name in enumerate(dataset.channel_names):
        entries.append(
            {
                "channel": name,
                "role": "main" if i == 0 else "exogenous",
                "source": sources.get(name, "unknown"),
                "first_date": dataset.calendar[0],
                "last_date": dataset.calendar[-1],
            }
        )
    payload = {
        "format": DATASET_FORMAT_VERSION,
        "lookback": dataset.lookback,
        "horizon": dataset.horizon,
        "stride": dataset.stride,
        "samples": dataset.counts(),
        "channels": entries,
    }
    write_json(path, payload, "manifest")


# ---------------------------------------------------------------------------
# synthetic benchmark data


def make_synthetic(n_points=1200, seed=7):
    """Seeded synthetic market stand-in: trend + sinusoid + AR(2) noise.

    Three channels: the main series, a phase-shifted oscillation sharing
    the main period, and a smoothed momentum proxy.  Every test and demo
    can run on this without external market data.
    """
    n_points, seed = as_int("n_points", n_points), as_int("seed", seed)
    if n_points < 5:  # the momentum channel's 5-point moving average needs 5
        raise ConfigError(f"a synthetic series needs at least 5 points, got {n_points}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    t = np.arange(n_points, dtype=np.float64)
    period = 45.0
    eps = rng.normal(scale=0.8, size=n_points)
    ar = np.zeros(n_points)
    for i in range(n_points):
        ar[i] = (
            (0.55 * ar[i - 1] if i >= 1 else 0.0)
            + (0.2 * ar[i - 2] if i >= 2 else 0.0)
            + eps[i]
        )
    main = 100.0 + 0.03 * t + 6.0 * np.sin(2 * np.pi * t / period) + ar
    companion = 20.0 + 4.0 * np.sin(2 * np.pi * t / period + 0.9) + rng.normal(
        scale=0.5, size=n_points
    )
    momentum = np.convolve(np.gradient(main), np.ones(5) / 5, mode="same") + rng.normal(
        scale=0.2, size=n_points
    )
    base = dt.date(2015, 1, 2)
    dates = [(base + dt.timedelta(days=int(i))).isoformat() for i in range(n_points)]
    return [
        RawSeries("synthetic_main", dates, main),
        RawSeries("synthetic_cycle", dates, companion),
        RawSeries("synthetic_momentum", dates, momentum),
    ]
