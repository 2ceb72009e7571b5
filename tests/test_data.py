"""Tests for ingestion, alignment, scaling, windowing, and splits."""

import dataclasses
import io
import re
import tempfile
import urllib.error
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fuzzformer import data as dmod
from fuzzformer.data import (
    MinMaxScaler,
    RawSeries,
    WindowedDataset,
    align,
    fetch_http,
    fit_minmax,
    load_csv,
    make_synthetic,
    make_windows,
    prepare_dataset,
    read_columns,
)
from fuzzformer.exceptions import ConfigError, DataError, FetchError


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCsv:
    def test_happy_path(self, tmp_path):
        p = write(tmp_path / "s.csv", "date,value\n2020-01-01,1.5\n2020-01-02,2.5\n2020-01-03,3\n")
        s = load_csv(p)
        assert len(s) == 3 and s.name == "s"
        np.testing.assert_allclose(s.values, [1.5, 2.5, 3.0])

    def test_unsorted_rows_sorted(self, tmp_path):
        p = write(tmp_path / "s.csv", "date,value\n2020-01-03,3\n2020-01-01,1\n2020-01-02,2\n")
        s = load_csv(p)
        assert s.dates == ["2020-01-01", "2020-01-02", "2020-01-03"]
        np.testing.assert_allclose(s.values, [1.0, 2.0, 3.0])

    def test_nan_reports_line_number(self, tmp_path):
        p = write(tmp_path / "s.csv", "date,value\n2020-01-01,NaN\n")
        with pytest.raises(DataError, match=":2"):
            load_csv(p)

    def test_duplicate_date_rejected(self, tmp_path):
        p = write(tmp_path / "s.csv", "date,value\n2020-01-01,1\n2020-01-01,2\n")
        with pytest.raises(DataError, match="duplicate"):
            load_csv(p)

    def test_bad_header(self, tmp_path):
        p = write(tmp_path / "s.csv", "day,close\n2020-01-01,1\n")
        with pytest.raises(DataError, match="header"):
            load_csv(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            load_csv(tmp_path / "absent.csv")

    def test_bad_date_reports_line(self, tmp_path):
        p = write(tmp_path / "s.csv", "date,value\n2020-01-01,1\nnot-a-date,2\n")
        with pytest.raises(DataError, match=":3"):
            load_csv(p)


    def test_non_utf8_bytes_raise_data_error(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_bytes(b"date,value\n2020-01-01,1\n2020-01-02,\xff\n")
        with pytest.raises(DataError, match="UTF-8"):
            load_csv(p)

    def test_directory_raises_data_error(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_csv(tmp_path)

    def test_leading_byte_order_mark_is_dropped(self, tmp_path):
        # spreadsheet "CSV UTF-8" exports start with a byte-order mark
        p = tmp_path / "s.csv"
        p.write_bytes(b"\xef\xbb\xbfdate,value\n2020-01-01,1.5\n2020-01-02,2.5\n")
        s = load_csv(p)
        assert s.dates == ["2020-01-01", "2020-01-02"]
        np.testing.assert_allclose(s.values, [1.5, 2.5])

    @settings(max_examples=300, deadline=None)
    @given(
        prefix=st.sampled_from([b"", b"date,value\n", b"date,value\n2020-01-01,1\n"]),
        body=st.binary(max_size=120) | st.text(alphabet="0123456789-,.eEnaif \n\r", max_size=120).map(str.encode),
    )
    def test_random_bytes_load_or_raise_data_error(self, prefix, body):
        with tempfile.TemporaryDirectory() as tmp:
            p = Path(tmp) / "s.csv"
            p.write_bytes(prefix + body)
            try:
                series = load_csv(p)
            except DataError:
                return
        assert np.isfinite(series.values).all()
        assert len(set(series.dates)) == len(series.dates)


def load_window(path, columns):
    dates, matrix, _ = read_columns(path, columns, "window file")
    return dates, matrix


class TestReadColumns:
    """Series and window files share one reader, so one dialect."""

    def test_quoted_export_loads_as_series_and_window(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_bytes(b'"date","value"\r\n"2020-01-03","3230.8"\r\n"2020-01-02","3245.5"\r\n')
        s = load_csv(p)
        dates, matrix = load_window(p, ["value"])
        assert s.dates == sorted(dates) == ["2020-01-02", "2020-01-03"]
        np.testing.assert_array_equal(s.values, matrix[::-1, 0])

    @pytest.mark.parametrize(
        "text, load",
        [
            ("DATE,VALUE\n2020-01-01,1\n2020-01-02,2\n", lambda p: load_csv(p).values),
            ("date,A,b\n2020-01-01,1,9\n2020-01-02,2,9\n", lambda p: load_window(p, ["a"])[1][:, 0]),
        ],
        ids=["series", "window"],
    )
    def test_header_names_match_without_case(self, tmp_path, text, load):
        np.testing.assert_array_equal(load(write(tmp_path / "f.csv", text)), [1.0, 2.0])

    @pytest.mark.parametrize(
        "text, load",
        [
            ("date,value\n2020-01-01,1\n2020-01-02,2,9\n", load_csv),
            ("date,a,b\n2020-01-01,1,2\n2020-01-02,1,2,9\n", lambda p: load_window(p, ["a", "b"])),
        ],
        ids=["series", "window"],
    )
    def test_row_wider_than_header_names_line(self, tmp_path, text, load):
        with pytest.raises(DataError, match=r"f\.csv:3: bad row of \d fields"):
            load(write(tmp_path / "f.csv", text))

    @pytest.mark.parametrize(
        "text, load",
        [
            ("date,value,Value\n2020-01-01,1,2\n", load_csv),
            ("date,a,b,A \n2020-01-01,1,2,3\n", lambda p: load_window(p, ["a", "b"])),
        ],
        ids=["series", "window"],
    )
    def test_duplicate_header_names_rejected(self, tmp_path, text, load):
        with pytest.raises(DataError, match=r"f\.csv:1: header names \['\w+'\] more than once"):
            load(write(tmp_path / "f.csv", text))

    def test_other_columns_and_blank_rows_are_ignored(self, tmp_path):
        text = "date,note,b,a\n\n2020-01-01,x,2,1\n , , , \n2020-01-02,\"y,z\",4,3\n"
        dates, matrix, lines = read_columns(write(tmp_path / "f.csv", text), ["a", "b"], "file")
        assert dates == ["2020-01-01", "2020-01-02"] and lines == [3, 5]
        np.testing.assert_array_equal(matrix, [[1.0, 2.0], [3.0, 4.0]])


class Response(io.BytesIO):
    """What ``urllib.request.urlopen`` returns, as far as ``fetch_http`` reads it."""

    status = 200


class TestFetchHttp:
    CSV = b"date,value\n2020-01-01,1\n2020-01-02,2\n"

    def test_cache_hit_skips_network(self, tmp_path, monkeypatch):
        import hashlib

        url = "https://example.test/series.csv"
        key = hashlib.sha256(url.encode()).hexdigest()[:24]
        (tmp_path / f"{key}.csv").write_bytes(self.CSV)

        def boom(*a, **k):
            raise AssertionError("network touched despite cache")

        monkeypatch.setattr("urllib.request.urlopen", boom)
        s = fetch_http(url, tmp_path)
        assert len(s) == 2

    def test_http_error_raises_fetch_error(self, tmp_path, monkeypatch):
        def not_found(url, *a, **k):
            raise urllib.error.HTTPError(url, 404, "Not Found", None, None)

        monkeypatch.setattr("urllib.request.urlopen", not_found)
        with pytest.raises(FetchError, match="HTTP 404"):
            fetch_http("https://example.test/missing.csv", tmp_path)

    def test_status_other_than_200_raises_fetch_error(self, tmp_path, monkeypatch):
        class NoContent(Response):
            status = 204

        monkeypatch.setattr("urllib.request.urlopen", lambda *a, **k: NoContent())
        with pytest.raises(FetchError, match="HTTP 204"):
            fetch_http("https://example.test/empty.csv", tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_fetched_equals_local_load(self, tmp_path, monkeypatch):
        monkeypatch.setattr("urllib.request.urlopen", lambda *a, **k: Response(self.CSV))
        s = fetch_http("https://example.test/ok.csv", tmp_path)
        local = write(tmp_path / "local.csv", self.CSV.decode())
        ref = load_csv(local)
        assert s.dates == ref.dates
        np.testing.assert_array_equal(s.values, ref.values)

    def test_unwritable_cache_raises_data_error(self, tmp_path, monkeypatch):
        import hashlib

        monkeypatch.setattr("urllib.request.urlopen", lambda *a, **k: Response(self.CSV))
        url = "https://example.test/series.csv"
        (tmp_path / "afile").write_text("")
        with pytest.raises(DataError, match="cannot make cache directory .*afile"):
            fetch_http(url, tmp_path / "afile")
        # a directory where the download's temporary file belongs
        (tmp_path / f"{hashlib.sha256(url.encode()).hexdigest()[:24]}.part").mkdir()
        with pytest.raises(DataError, match="cannot write cache file"):
            fetch_http(url, tmp_path)

    @pytest.mark.parametrize(
        "error",
        [urllib.error.URLError("no route"), TimeoutError("timed out"), ValueError("unknown url type")],
        ids=["no-route", "timeout", "bad-url"],
    )
    def test_network_failure_suggests_offline(self, tmp_path, monkeypatch, error):
        def fail(*a, **k):
            raise error

        monkeypatch.setattr("urllib.request.urlopen", fail)
        with pytest.raises(FetchError, match="manually"):
            fetch_http("https://example.test/x.csv", tmp_path)


def series(name, pairs):
    return RawSeries(name, [d for d, _ in pairs], np.array([v for _, v in pairs]))


class TestAlign:
    def test_identical_calendars_stack(self):
        a = series("a", [("2020-01-01", 1), ("2020-01-02", 2)])
        b = series("b", [("2020-01-01", 10), ("2020-01-02", 20)])
        matrix, calendar, names = align([a, b])
        np.testing.assert_array_equal(matrix, [[1, 10], [2, 20]])
        assert names == ["a", "b"]

    def test_forward_fill_mid_gap(self):
        a = series("a", [("2020-01-01", 1), ("2020-01-02", 2), ("2020-01-03", 3)])
        b = series("b", [("2020-01-01", 10), ("2020-01-03", 30)])
        matrix, _, _ = align([a, b])
        np.testing.assert_array_equal(matrix[:, 1], [10, 10, 30])

    def test_late_start_trims_leading_main_dates(self):
        a = series("a", [("2020-01-01", 1), ("2020-01-02", 2), ("2020-01-03", 3)])
        b = series("b", [("2020-01-02", 20), ("2020-01-03", 30)])
        matrix, calendar, _ = align([a, b])
        assert calendar == ["2020-01-02", "2020-01-03"]
        np.testing.assert_array_equal(matrix, [[2, 20], [3, 30]])

    def test_no_overlap_errors(self):
        a = series("a", [("2020-01-01", 1)])
        b = series("b", [("2021-01-01", 10)])
        with pytest.raises(DataError):
            align([a, b])

    def test_fill_takes_observations_off_the_main_calendar(self):
        # another exchange's holidays: 01-02 is not a main-calendar day
        a = series("a", [("2024-01-01", 1), ("2024-01-03", 2), ("2024-01-04", 3)])
        b = series("b", [("2024-01-01", 10.0), ("2024-01-02", 20.0)])
        matrix, calendar, _ = align([a, b])
        assert calendar == ["2024-01-01", "2024-01-03", "2024-01-04"]
        np.testing.assert_array_equal(matrix[:, 1], [10, 20, 20])

    def test_channel_observed_only_before_the_calendar_fills_it(self):
        a = series("a", [("2024-01-01", 1), ("2024-01-03", 2), ("2024-01-04", 3)])
        b = series("b", [("2023-12-31", 5.0)])
        matrix, calendar, _ = align([a, b])
        assert len(calendar) == 3
        np.testing.assert_array_equal(matrix[:, 1], [5, 5, 5])

    def test_matches_a_per_day_reference(self):
        # the channel's days are unsorted and may repeat; of two on one
        # day, the later listed counts
        rng = np.random.default_rng(0)
        days = [f"2024-{1 + i // 28:02d}-{1 + i % 28:02d}" for i in range(60)]
        for _ in range(50):
            calendar = sorted(str(d) for d in rng.choice(days, size=20, replace=False))
            other = series("b", [(str(d), v) for d, v in zip(rng.choice(days, size=15), rng.normal(size=15))])
            expected = []
            for day in calendar:
                past = [(d, i) for i, d in enumerate(other.dates) if d <= day]
                expected.append(other.values[max(past)[1]] if past else np.nan)
            main = series("a", [(d, 1.0) for d in calendar])
            if np.isnan(expected).all():
                with pytest.raises(DataError, match="does not overlap"):
                    align([main, other])
                continue
            first = int(np.argmax(~np.isnan(expected)))
            matrix, aligned, _ = align([main, other])
            assert aligned == calendar[first:]
            np.testing.assert_array_equal(matrix[:, 1], expected[first:])


class TestMinMax:
    def test_direct_formula(self):
        m = np.array([[0.0], [5.0], [10.0]])
        s = fit_minmax(m, 3)
        np.testing.assert_allclose(s.transform(m)[:, 0], [0.0, 0.5, 1.0])

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(0)
        m = rng.normal(size=(50, 3)) * 7 + 3
        s = fit_minmax(m, 50)
        np.testing.assert_allclose(s.inverse(s.transform(m)), m, atol=1e-12)

    def test_extrapolation_not_clipped(self):
        m = np.array([[0.0], [10.0], [20.0]])
        s = fit_minmax(m, 2)  # fit on [0, 10] only
        assert s.transform(m)[2, 0] > 1.0

    def test_constant_channel_rejected(self):
        m = np.ones((10, 2))
        m[:, 0] = np.arange(10)
        with pytest.raises(DataError, match="constant"):
            fit_minmax(m, 10)

    def test_non_finite_range_rejected(self):
        # max - min overflows: scaling would divide by inf and write NaN
        m = np.ones((10, 2))
        m[:, 0] = np.arange(10)
        m[2, 1], m[5, 1] = 1e308, -1e308
        with np.errstate(all="raise"), pytest.raises(DataError, match=r"non-finite range .*\[1\]"):
            fit_minmax(m, 10)

    def test_fit_apply_combined(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(40, 2)) * 5 + 10
        scaler = fit_minmax(m, 30)
        scaled = scaler.transform(m)
        assert scaled[:30].min() >= 0.0 and scaled[:30].max() <= 1.0
        np.testing.assert_allclose(scaler.inverse(scaled), m, atol=1e-12)


def sample_dataset(n_rows=100, lookback=60, horizon=30, stride=1):
    rng = np.random.default_rng(1)
    matrix = rng.normal(size=(n_rows, 2)).cumsum(axis=0) + 100
    calendar = [f"2020-{1 + i // 28:02d}-{1 + i % 28:02d}" for i in range(n_rows)]
    return make_windows(matrix, calendar, ["m", "x"], lookback, horizon, stride)


def stored_entries(save):
    """("meta key" or "array", name) of every entry ``save(path)`` writes."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "x.bin"
        save(path)
        meta, arrays = dmod.container.read_archive(path)
    return [("meta key", key) for key in meta] + [("array", name) for name in arrays]


class TestMakeWindows:
    _dataset = staticmethod(sample_dataset)

    def test_sample_count(self):
        ds = self._dataset()
        assert ds.origins.size == 11  # 100 - 60 - 30 + 1

    def test_stride_non_overlapping(self):
        ds = self._dataset(n_rows=400, lookback=60, horizon=30, stride=90)
        diffs = np.diff(ds.origins)
        assert np.all(diffs == 90)

    def test_embargo_blocks_target_into_later_inputs(self):
        ds = self._dataset(n_rows=600)
        t1, t2 = dmod.split_boundaries(600)
        for earlier, later in ((0, 1), (1, 2)):
            later_origins = ds.origins[ds.labels == later]
            earlier_origins = ds.origins[ds.labels == earlier]
            if later_origins.size and earlier_origins.size:
                input_start = later_origins.min() - ds.lookback + 1
                assert earlier_origins.max() + ds.horizon < input_start

    def test_no_test_target_precedes_train_sample(self):
        ds = self._dataset(n_rows=600)
        train = ds.origins[ds.labels == 0]
        test = ds.origins[ds.labels == 2]
        assert test.min() > train.max()

    def test_scaler_fit_on_training_rows_only(self):
        rng = np.random.default_rng(2)
        matrix = np.abs(rng.normal(size=(500, 2))).cumsum(axis=0) + 1
        calendar = [str(i) for i in range(500)]
        # date strings unused by windowing; keep simple
        ds = make_windows(matrix, calendar, ["m", "x"], 60, 30)
        t1, _ = dmod.split_boundaries(500)
        np.testing.assert_array_equal(ds.scaler.mins, matrix[:t1].min(axis=0))
        np.testing.assert_array_equal(ds.scaler.maxs, matrix[:t1].max(axis=0))

    def test_insufficient_rows(self):
        with pytest.raises(DataError, match="rows"):
            self._dataset(n_rows=80, lookback=60, horizon=30)

    @pytest.mark.parametrize("value", [0, -3])
    @pytest.mark.parametrize("name", ["lookback", "horizon", "stride"])
    def test_window_sizes_below_one_raise_config_error(self, name, value):
        with pytest.raises(ConfigError, match=f"{name} must be >= 1, got {value}"):
            self._dataset(**{name: value})

    @pytest.mark.parametrize("value", [10.5, 12.0, True, "12"], ids=repr)
    @pytest.mark.parametrize("name", ["lookback", "horizon", "stride"])
    def test_window_sizes_that_are_not_integers_raise_config_error(self, name, value):
        with pytest.raises(ConfigError, match=f"^{name} must be int, got {re.escape(repr(value))}$"):
            self._dataset(n_rows=300, **{name: value})

    def test_numpy_integer_sizes_are_held_as_ints(self):
        ds = self._dataset(n_rows=300, lookback=np.int64(60), horizon=np.int32(30), stride=np.uint8(2))
        assert [type(v) for v in (ds.lookback, ds.horizon, ds.stride)] == [int, int, int]
        assert ds.batch(ds.origins_for("train")[:2], history=1).x.shape == (2, 60, 2)

    def test_batch_shapes_and_contents(self):
        ds = self._dataset(n_rows=300)
        origins = ds.origins_for("train")[:4]
        batch = ds.batch(origins, history=5)
        assert batch.x.shape == (4, 60, 2)
        assert batch.y_target.shape == (4, 30)
        assert batch.y_history.shape == (4, 5)
        k = int(origins[0])
        np.testing.assert_array_equal(batch.x[0], ds.matrix[k - 59 : k + 1])
        np.testing.assert_array_equal(batch.y_target[0], ds.matrix[k + 1 : k + 31, 0])
        np.testing.assert_array_equal(batch.y_history[0], ds.matrix[k - 4 : k + 1, 0])

    def test_save_load_round_trip_and_determinism(self, tmp_path):
        ds = self._dataset(n_rows=300)
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        ds.save(p1)
        ds.save(p2)
        assert p1.read_bytes() == p2.read_bytes()
        back = WindowedDataset.load(p1)
        for field in dataclasses.fields(WindowedDataset):
            mine, theirs = getattr(back, field.name), getattr(ds, field.name)
            if isinstance(mine, np.ndarray):
                assert mine.dtype == theirs.dtype, field.name
                np.testing.assert_array_equal(mine, theirs)
            elif isinstance(mine, MinMaxScaler):
                np.testing.assert_array_equal(mine.mins, theirs.mins)
                np.testing.assert_array_equal(mine.maxs, theirs.maxs)
            else:
                assert mine == theirs, field.name
        assert back.counts() == ds.counts()

    @pytest.mark.parametrize(
        "table, name",
        stored_entries(sample_dataset(n_rows=300).save),
        ids=lambda value: value.replace(" ", "-"),
    )
    def test_every_stored_entry_is_required(self, tmp_path, table, name):
        path = tmp_path / "ds.bin"
        self._dataset(n_rows=300).save(path)
        meta, arrays = dmod.container.read_archive(path)
        (meta if table == "meta key" else arrays).pop(name)
        dmod.container.write_archive(path, meta, list(arrays.items()))
        with pytest.raises(DataError, match=re.escape(name)):
            WindowedDataset.load(path)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda meta, arrays: meta.update(lookback=60.5), "'lookback' must be an integer"),
            (lambda meta, arrays: meta.update(horizon="30"), "'horizon' must be an integer"),
            (lambda meta, arrays: meta.update(stride=True), "'stride' must be an integer"),
            # the 300-row archive has no room for a 400-row look-back
            (lambda meta, arrays: meta.update(lookback=400), "430 rows, got 300"),
            (lambda meta, arrays: meta.update(horizon=0), "horizon 0 must be >= 1"),
            (lambda meta, arrays: meta.update(stride=-2), "stride -2 must be >= 1"),
            (lambda meta, arrays: arrays.update(matrix=arrays["matrix"][:, 0]), "'matrix' must be 2-D"),
            (lambda meta, arrays: arrays.update({"scaler.mins": np.zeros(1)}), r"'scaler.mins' .*\(2,\)"),
            (lambda meta, arrays: arrays.update({"scaler.maxs": np.ones((2, 1))}), r"'scaler.maxs' .*\(2,\)"),
            (
                lambda meta, arrays: arrays.update({"scaler.maxs": np.array([np.inf, 1e9])}),
                r"scaler range of channel\(s\) \[0\] is not finite",
            ),
            (
                lambda meta, arrays: arrays["scaler.maxs"].__setitem__(1, arrays["scaler.mins"][1]),
                r"scaler range of channel\(s\) \[1\] is not finite and positive",
            ),
            (
                lambda meta, arrays: arrays["matrix"].__setitem__((5, 1), np.nan),
                "'matrix' holds non-finite values",
            ),
            (
                lambda meta, arrays: meta.update(channel_names=["m"]),
                "'channel_names' must be a list of 2 strings, got a list of 1",
            ),
            (lambda meta, arrays: meta.update(channel_names=[1, 2]), "non-string entry 1"),
            (lambda meta, arrays: meta.update(channel_names="mx"), "'channel_names' .* got a str"),
            (
                lambda meta, arrays: meta.update(calendar=meta["calendar"][:5]),
                "'calendar' must be a list of 300 strings, got a list of 5",
            ),
            (lambda meta, arrays: meta.update(calendar="abc"), "'calendar' .* got a str"),
            # format 1 stored the windows too; it is not read
            (lambda meta, arrays: meta.update(format=1), "dataset format 1 .* re-run `prepare`"),
        ],
    )
    def test_incomplete_archive_raises_data_error(self, tmp_path, edit, message):
        path = tmp_path / "ds.bin"
        self._dataset(n_rows=300).save(path)
        meta, arrays = dmod.container.read_archive(path)
        edit(meta, arrays)
        dmod.container.write_archive(path, meta, list(arrays.items()))
        with pytest.raises(DataError, match=message):
            WindowedDataset.load(path)


# JSON values an edit may put into archive metadata
META_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


def edit_meta(data, meta):
    """``meta`` with 1-3 drawn edits: a key dropped, or set to a drawn
    JSON value (a new key too)."""
    for _ in range(data.draw(st.integers(1, 3))):
        key = data.draw(st.sampled_from(sorted(meta) + ["extra"]))
        if data.draw(st.booleans()):
            meta.pop(key, None)
        else:
            meta[key] = data.draw(META_VALUES)
    return meta


class TestEditedDatasetMetadata:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_edited_metadata_loads_or_raises_data_error(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "ds.bin"
            sample_dataset().save(path)
            meta, arrays = dmod.container.read_archive(path)
            dmod.container.write_archive(path, edit_meta(data, meta), list(arrays.items()))
            try:
                ds = WindowedDataset.load(path)
            except DataError:
                return
        assert len(ds.calendar) == ds.matrix.shape[0] == 100
        assert sum(ds.counts().values()) == ds.origins.size


class TestSynthetic:
    def test_deterministic(self):
        a = make_synthetic(n_points=200, seed=3)
        b = make_synthetic(n_points=200, seed=3)
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa.values, sb.values)

    def test_negative_seed_raises_config_error(self):
        with pytest.raises(ConfigError, match="seed must be >= 0, got -5"):
            make_synthetic(n_points=200, seed=-5)

    @pytest.mark.parametrize("n_points", [0, 1, 4, -3])
    def test_too_few_points_raise_config_error(self, n_points):
        with pytest.raises(ConfigError, match=f"at least 5 points, got {n_points}"):
            make_synthetic(n_points=n_points)

    @pytest.mark.parametrize("kwargs", [{"n_points": 100.5}, {"n_points": True}, {"seed": 2.0}, {"seed": "3"}], ids=repr)
    def test_sizes_and_seeds_that_are_not_integers_raise_config_error(self, kwargs):
        (name, value), = kwargs.items()
        with pytest.raises(ConfigError, match=f"^{name} must be int, got {re.escape(repr(value))}$"):
            make_synthetic(**kwargs)

    def test_numpy_integers_give_the_same_series(self):
        for a, b in zip(make_synthetic(n_points=np.int64(50), seed=np.int32(3)), make_synthetic(n_points=50, seed=3)):
            np.testing.assert_array_equal(a.values, b.values)

    def test_smallest_size_builds(self):
        assert [len(s) for s in make_synthetic(n_points=5)] == [5, 5, 5]

    def test_prepare_pipeline(self):
        ds = prepare_dataset(make_synthetic(n_points=400, seed=4), lookback=60, horizon=30)
        counts = ds.counts()
        assert counts["train"] > 0 and counts["test"] > 0
        assert ds.matrix.shape[1] == 3
        # scaled training region sits in [0, 1]
        t1, _ = dmod.split_boundaries(ds.matrix.shape[0])
        assert ds.matrix[:t1].min() >= 0.0 and ds.matrix[:t1].max() <= 1.0


class TestManifest:
    def test_manifest_contents(self, tmp_path):
        ds = prepare_dataset(make_synthetic(n_points=400, seed=5), lookback=60, horizon=30)
        path = tmp_path / "manifest.json"
        dmod.write_manifest(path, ds, {"synthetic_main": "builtin"})
        import json

        payload = json.loads(path.read_text())
        assert payload["channels"][0]["role"] == "main"
        assert payload["channels"][0]["source"] == "builtin"
        assert payload["samples"] == ds.counts()
