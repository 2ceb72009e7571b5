"""Checkpoint and archive container round-trip tests."""

import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fuzzformer import container
from fuzzformer.checkpoint import load_checkpoint, save_checkpoint
from fuzzformer.data import MinMaxScaler, WindowedDataset
from fuzzformer.exceptions import ConfigError, DataError

from test_data import edit_meta, sample_dataset
from test_model import tiny_model


class TestContainer:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        arrays = [("a.b", rng.normal(size=(3, 4))), ("c", rng.normal(size=7)), ("s", 3.5)]
        path = tmp_path / "x.bin"
        container.write_archive(path, {"kind": "test", "n": 1}, arrays)
        meta, back = container.read_archive(path)
        assert meta == {"kind": "test", "n": 1}
        assert list(back) == ["a.b", "c", "s"]
        for name, arr in arrays:
            np.testing.assert_array_equal(back[name], np.asarray(arr, dtype=np.float64))

    def test_deterministic_bytes(self, tmp_path):
        arrays = [("w", np.arange(6.0).reshape(2, 3))]
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        container.write_archive(p1, {"k": "v"}, arrays)
        container.write_archive(p2, {"k": "v"}, arrays)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.bin"
        p.write_bytes(b"NOT-AN-ARCHIVE 1\n{}\n0\n---\n")
        with pytest.raises(DataError, match="magic"):
            container.read_archive(p)

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "trunc.bin"
        container.write_archive(p, {}, [("w", np.arange(4.0))])
        p.write_bytes(p.read_bytes()[:-8])
        with pytest.raises(DataError, match="truncated"):
            container.read_archive(p)

    def test_rejects_bad_names(self, tmp_path):
        with pytest.raises(DataError, match="name"):
            container.write_archive(tmp_path / "x.bin", {}, [("has space", np.zeros(1))])


def read_bytes_as_archive(blob):
    """read_archive on ``blob`` written to a fresh file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "x.bin"
        path.write_bytes(blob)
        return container.read_archive(path)


def archive_bytes():
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "x.bin"
        container.write_archive(
            path, {"kind": "test", "n": [1, 2]}, [("w", np.arange(6.0).reshape(2, 3)), ("s", 0.5)]
        )
        return path.read_bytes()


class TestMalformedArchive:
    @pytest.mark.parametrize(
        "header,match",
        [
            (b"FUZZFORMER-ARCHIVE 1\n{\"k\":\"\xff\"}\n0", "UTF-8"),
            (b"FUZZFORMER-ARCHIVE one\n{}\n0", "version"),
            (b"FUZZFORMER-ARCHIVE 1\n{}\nx", "count"),
            (b"FUZZFORMER-ARCHIVE 1\n{}\n1\nw 2.5", "dimension"),
            (b"FUZZFORMER-ARCHIVE 1\n{}\n1\nw -1 -2", "negative"),
            (b"FUZZFORMER-ARCHIVE 1\n{}\n-1", "negative"),
            (b"FUZZFORMER-ARCHIVE 1\n[1]\n0", "JSON object"),
            (b"FUZZFORMER-ARCHIVE 1\n" + b"[" * 100_000 + b"]" * 100_000 + b"\n0", "metadata"),
            (b"FUZZFORMER-ARCHIVE 1\n{}\n1\n", "empty manifest"),
            (b"FUZZFORMER-ARCHIVE 1\n{}\n2\nw 0\nw 0", "duplicate"),
            (b"FUZZFORMER-ARCHIVE 1\n{}\n1\nw 0 99999999999999999999", "shape"),
        ],
        ids=[
            "not-utf8", "version", "count", "dimension", "negative-dims", "negative-count",
            "meta-list", "meta-too-deep", "empty-manifest-line", "duplicate-name", "huge-shape",
        ],
    )
    def test_bad_header_raises_data_error(self, header, match):
        with pytest.raises(DataError, match=match):
            read_bytes_as_archive(header + b"\n---\n")

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_truncated_archive_raises_data_error(self, data):
        blob = archive_bytes()
        cut = data.draw(st.integers(0, len(blob) - 1))
        with pytest.raises(DataError):
            read_bytes_as_archive(blob[:cut])

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_bit_flipped_archive_reads_or_raises_data_error(self, data):
        # no checksum: a flip inside a payload or a JSON value still reads
        blob = bytearray(archive_bytes())
        for _ in range(data.draw(st.integers(1, 3))):
            blob[data.draw(st.integers(0, len(blob) - 1))] ^= 1 << data.draw(st.integers(0, 7))
        try:
            meta, arrays = read_bytes_as_archive(bytes(blob))
        except DataError:
            return
        assert isinstance(meta, dict)

    @settings(max_examples=200, deadline=None)
    @given(
        prefix=st.sampled_from([b"", b"FUZZFORMER-ARCHIVE 1\n{}\n1\nw 2\n---\n"]),
        body=st.binary(max_size=200),
    )
    def test_random_bytes_read_or_raise_data_error(self, prefix, body):
        try:
            read_bytes_as_archive(prefix + body)
        except DataError:
            pass


def save_tiny_checkpoint(path):
    """A checkpoint of ``tiny_model(seed=5)`` (two channels) as training writes it."""
    scaler = MinMaxScaler(np.zeros(2), np.ones(2))
    save_checkpoint(path, tiny_model(seed=5), scaler=scaler, channel_names=["m", "x"])


def stored_entries():
    """("meta key" or "array", name) of every entry of that checkpoint."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ckpt.bin"
        save_tiny_checkpoint(path)
        meta, arrays = container.read_archive(path)
    return [("meta key", key) for key in meta] + [("array", name) for name in arrays]


class TestCheckpoint:
    def test_save_load_bit_exact(self, tmp_path):
        model = tiny_model(seed=1)
        rng = np.random.default_rng(2)
        for _, t in model.parameters():
            t.data += rng.normal(scale=0.01, size=t.data.shape)
        scaler = MinMaxScaler(np.array([0.0, 1.0]), np.array([2.0, 3.0]))
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, model, scaler=scaler, channel_names=["m", "x"])
        back, scaler2, meta = load_checkpoint(path)
        assert meta["channel_names"] == ["m", "x"]
        assert back.config == model.config
        for (n1, t1), (n2, t2) in zip(model.parameters(), back.parameters()):
            assert n1 == n2
            assert np.array_equal(t1.data, t2.data)
        np.testing.assert_array_equal(scaler2.mins, scaler.mins)
        np.testing.assert_array_equal(scaler2.maxs, scaler.maxs)
        # a second save of the loaded model reproduces the file byte for byte
        path2 = tmp_path / "ckpt2.bin"
        save_checkpoint(path2, back, scaler=scaler2, channel_names=["m", "x"])
        assert path.read_bytes() == path2.read_bytes()

    def test_loaded_model_predicts_identically(self, tmp_path):
        model = tiny_model(seed=3)
        rng = np.random.default_rng(4)
        model.arix_b.data[...] = rng.normal(size=model.arix_b.data.shape)
        x = rng.uniform(size=(3, model.config.lookback, model.config.channels))
        hist = x[:, -3:, 0]
        path = tmp_path / "ckpt.bin"
        scaler = MinMaxScaler(np.zeros(2), np.ones(2))
        save_checkpoint(path, model, scaler=scaler, channel_names=["m", "x"])
        back, _, _ = load_checkpoint(path)
        np.testing.assert_array_equal(model.predict(x, hist), back.predict(x, hist))

    @pytest.mark.parametrize(
        "table, name", stored_entries(), ids=lambda value: value.replace(" ", "-")
    )
    def test_every_stored_entry_is_required(self, tmp_path, table, name):
        path = tmp_path / "ckpt.bin"
        save_tiny_checkpoint(path)
        meta, arrays = container.read_archive(path)
        (meta if table == "meta key" else arrays).pop(name)
        container.write_archive(path, meta, list(arrays.items()))
        with pytest.raises(DataError, match=re.escape(name)):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "edit, error, message",
        [
            (
                lambda meta, arrays: arrays.update({"scaler.mins": np.zeros(1)}),
                DataError, r"'scaler.mins' has shape \(1,\), expected \(2,\)",
            ),
            (
                lambda meta, arrays: arrays.update({"scaler.maxs": np.ones(3)}),
                DataError, r"'scaler.maxs' has shape \(3,\), expected \(2,\)",
            ),
            (
                lambda meta, arrays: arrays.update({"scaler.mins": np.array([np.nan, 0.0])}),
                DataError, r"scaler range of channel\(s\) \[0\] is not finite and positive",
            ),
            (lambda meta, arrays: meta["config"].update(rules="2"), ConfigError, "rules must be int"),
            (lambda meta, arrays: meta.update(config=[2]), ConfigError, "JSON object"),
            (
                lambda meta, arrays: meta.update(channel_names=["a", "b", "c"]),
                DataError, "'channel_names' must be a list of 2 strings, got a list of 3",
            ),
            (
                lambda meta, arrays: meta.update(channel_names=[1, 2]),
                DataError, "'channel_names' .* non-string entry 1",
            ),
            # format 1 carried a main_channel key and attention_residual; it is not read
            (lambda meta, arrays: meta.update(format=1), DataError, "checkpoint format 1 .* `train`"),
        ],
    )
    def test_incomplete_archive_raises_typed_error(self, tmp_path, edit, error, message):
        path = tmp_path / "ckpt.bin"
        save_tiny_checkpoint(path)
        meta, arrays = container.read_archive(path)
        edit(meta, arrays)
        container.write_archive(path, meta, list(arrays.items()))
        with pytest.raises(error, match=message):
            load_checkpoint(path)

    def test_tensors_are_read_by_name_not_manifest_position(self, tmp_path):
        # files written before the parameter registry interleave each head's w_q and w_k
        path = tmp_path / "ckpt.bin"
        save_tiny_checkpoint(path)
        meta, arrays = container.read_archive(path)
        container.write_archive(path, meta, list(reversed(arrays.items())))
        model, _, _ = load_checkpoint(path)
        assert [name for name, _ in model.parameters()] == list(arrays)[:-2]  # less the scaler
        for name, tensor in model.parameters():
            np.testing.assert_array_equal(tensor.data, arrays[name])

    @pytest.mark.parametrize("width", [1024, 10**6])
    def test_config_sizing_a_tensor_beyond_the_file_allocates_nothing(self, tmp_path, width):
        # at width 1024 a drawn model alone would take ~60 MB; at 10**6
        # numpy could not allocate it
        path = tmp_path / "ckpt.bin"
        save_tiny_checkpoint(path)
        meta, arrays = container.read_archive(path)
        meta["config"]["hidden_width"] = width
        container.write_archive(path, meta, list(arrays.items()))
        tracemalloc.start()
        try:
            with pytest.raises(DataError, match=r"tensor 'encoder\.lstm0\.wx' has shape \(2, 16\)"):
                load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_edited_metadata_loads_or_raises_typed_error(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "ckpt.bin"
            save_tiny_checkpoint(path)
            meta, arrays = container.read_archive(path)
            if data.draw(st.booleans()):
                edit_meta(data, meta)
            else:
                meta["config"][data.draw(st.sampled_from(sorted(meta["config"])))] = data.draw(
                    st.integers(-2, 6) | st.integers(-(2**64), 2**64) | st.floats() | st.booleans()
                    | st.text(max_size=3) | st.none()
                )
            container.write_archive(path, meta, list(arrays.items()))
            try:
                model, scaler, back = load_checkpoint(path)
            except (DataError, ConfigError):
                return
        assert model.config.channels == scaler.mins.size == len(back["channel_names"]) == 2

    def test_wrong_kind_detected(self, tmp_path):
        path = tmp_path / "ds.bin"
        container.write_archive(path, {"kind": "dataset", "format": 1}, [])
        with pytest.raises(DataError, match="not a checkpoint"):
            load_checkpoint(path)


# kind -> (save to a path, load from it) of each archive the CLI writes
SAVED_FILES = {
    "checkpoint": (save_tiny_checkpoint, load_checkpoint),
    "dataset": (lambda path: sample_dataset().save(path), WindowedDataset.load),
}


class TestDamagedFile:
    @pytest.mark.parametrize("kind", SAVED_FILES)
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_truncated_or_flipped_file_loads_or_raises_typed_error(self, kind, data):
        save, load = SAVED_FILES[kind]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "x.bin"
            save(path)
            blob = bytearray(path.read_bytes())
            # most bytes are payload; half the draws land in the text header
            header = blob.index(b"\n---\n") + 5
            at = data.draw(st.integers(0, header - 1) | st.integers(0, len(blob) - 1))
            if data.draw(st.booleans()):
                del blob[at:]
            else:
                blob[at] ^= data.draw(st.integers(1, 255))
            path.write_bytes(bytes(blob))
            try:
                load(path)
            except (DataError, ConfigError):
                pass
