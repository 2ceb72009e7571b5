"""Tests for the training loop, evaluation, forecast bundle, and report."""

import csv
import itertools
import json
import math
import os
import re
import tempfile
import threading
import time
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bundle_oracle
from fuzzformer import autodiff as ad
from fuzzformer.baselines import LstmBaseline, rmse
from fuzzformer.checkpoint import load_checkpoint
from fuzzformer.config import RunConfig
from fuzzformer.data import fit_minmax, make_synthetic, prepare_dataset, read_columns
from fuzzformer.exceptions import ConfigError, DataError, NonFiniteError, NumericError
from fuzzformer.losses import composite_loss
from fuzzformer.model import FuzzformerModel
from fuzzformer import training
from fuzzformer.training import (
    build_report,
    evaluate_split,
    forecast_bundle,
    read_results,
    train,
    write_report,
)

TINY_TRAIN = dict(
    lookback=12,
    horizon=4,
    channels=3,
    lstm_layers=1,
    hidden_width=4,
    mha_layers=1,
    attention_heads=2,
    latent_width=2,
    rules=2,
    ar_order=2,
    integration_order=1,
    exog_order=1,
    dropout_rate=0.1,
    batch_size=16,
    epochs=2,
    seed=11,
    learning_rate=1e-3,
)


@pytest.fixture(scope="module")
def tiny_dataset():
    return prepare_dataset(make_synthetic(n_points=400, seed=3), lookback=12, horizon=4)


@pytest.fixture(scope="module")
def no_valid_dataset():
    # stride 50 puts no window origin in the valid rows
    ds = prepare_dataset(make_synthetic(n_points=400, seed=3), lookback=12, horizon=4, stride=50)
    assert ds.origins_for("valid").size == 0 < ds.origins_for("train").size
    return ds


def quiet(*args, **kwargs):
    pass


def fuzzformer_run(dataset, out_dir, log=quiet, **overrides):
    """(parameter arrays, TrainResult) of a TINY_TRAIN run."""
    result = train(RunConfig(**{**TINY_TRAIN, **overrides}), dataset, out_dir, log=log)
    return [t.data for t in result.model.parameter_tensors()], result


def lstm_run(dataset, out_dir, log=quiet, epochs=2):
    """(parameter arrays, None) of a small LSTM-baseline run; ``out_dir``
    is unused, as the baseline writes no files."""
    model = training.train_lstm_baseline(dataset, hidden=4, epochs=epochs, batch_size=16, seed=11, log=log)
    return [t.data for _, t in model.named], None


class TestTrain:
    def test_artifacts_and_history(self, tiny_dataset, tmp_path):
        cfg = RunConfig(**TINY_TRAIN)
        result = train(cfg, tiny_dataset, tmp_path / "run", log=quiet)
        assert result.checkpoint_path.exists()
        assert (tmp_path / "run" / "config.json").exists()
        with open(tmp_path / "run" / "losses.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [tuple(r.keys()) for r in rows][0] == training.LOSS_FIELDS
        assert len(rows) == cfg.epochs
        assert all(float(r["composite"]) >= 0 for r in rows)
        env = json.loads((tmp_path / "run" / "environment.json").read_text())
        assert set(env) == {"numpy", "blas_name", "blas_version", "blas_threads", "cpu_count", "usable_cores"}
        assert set(env["blas_threads"]) == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"}
        assert (env["numpy"], env["cpu_count"]) == (np.__version__, os.cpu_count())
        assert 1 <= env["usable_cores"] <= env["cpu_count"]

    def test_zero_epochs_produces_valid_checkpoint(self, tiny_dataset, tmp_path):
        cfg = RunConfig(**{**TINY_TRAIN, "epochs": 0})
        result = train(cfg, tiny_dataset, tmp_path / "run0", log=quiet)
        model, scaler, meta = load_checkpoint(result.checkpoint_path)
        assert scaler is not None
        report = evaluate_split(model, tiny_dataset, "test")
        assert np.isfinite(report.rmse)

    def test_seeded_determinism_bit_identical_checkpoints(self, tiny_dataset, tmp_path):
        cfg = RunConfig(**TINY_TRAIN)
        r1 = train(cfg, tiny_dataset, tmp_path / "a", log=quiet)
        r2 = train(cfg, tiny_dataset, tmp_path / "b", log=quiet)
        assert r1.checkpoint_path.read_bytes() == r2.checkpoint_path.read_bytes()
        assert r1.best_valid_rmse == r2.best_valid_rmse

    def test_artifacts_do_not_depend_on_cores_or_the_recorded_environment(
        self, tiny_dataset, tmp_path, monkeypatch
    ):
        cfg = RunConfig(**TINY_TRAIN)
        envs = {}
        for cores in (1, 4):
            monkeypatch.setattr(training, "_usable_cores", lambda n=cores: n)
            # BLAS read the variable when it loaded, so this only changes the record
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", str(cores))
            train(cfg, tiny_dataset, tmp_path / str(cores), log=quiet)
            envs[cores] = json.loads((tmp_path / str(cores) / "environment.json").read_text())
        for name in ("checkpoint.bin", "losses.csv", "history.csv"):
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "4" / name).read_bytes(), name
        recorded = [(env["usable_cores"], env["blas_threads"]["OPENBLAS_NUM_THREADS"]) for env in envs.values()]
        assert recorded == [(1, "1"), (4, "4")]

    def test_best_checkpoint_matches_recorded_validation_rmse(self, tiny_dataset, tmp_path):
        cfg = RunConfig(**{**TINY_TRAIN, "epochs": 3})
        result = train(cfg, tiny_dataset, tmp_path / "best", log=quiet)
        model, _, _ = load_checkpoint(result.checkpoint_path)
        again = evaluate_split(model, tiny_dataset, "valid")
        assert again.rmse == pytest.approx(result.best_valid_rmse, abs=1e-12)

    @pytest.mark.parametrize("run", [fuzzformer_run, lstm_run], ids=["fuzzformer", "lstm"])
    def test_without_valid_split_keeps_last_epoch(self, run, no_valid_dataset, tmp_path):
        params = {}
        for epochs in (0, 1, 2):
            params[epochs], result = run(no_valid_dataset, tmp_path / f"nv{epochs}", epochs=epochs)
        if result is not None:  # the baseline returns only its model
            assert result.best_epoch == 2
            assert np.isnan(result.best_valid_rmse)
            assert [np.isnan(rec["valid_rmse"]) for rec in result.history] == [True, True]
        for earlier in (0, 1):
            assert any(not np.array_equal(a, b) for a, b in zip(params[2], params[earlier]))

    def test_best_epoch_is_the_run_of_that_many_epochs(self, tiny_dataset, tmp_path):
        # at this rate validation RMSE is least at epoch 2 of 4: epochs
        # 1-4 score about 0.087, 0.079, 0.084 and 0.090
        _, long = fuzzformer_run(tiny_dataset, tmp_path / "long", epochs=4, learning_rate=1e-2)
        k = long.best_epoch
        assert 0 < k < 4
        _, short = fuzzformer_run(tiny_dataset, tmp_path / "short", epochs=k, learning_rate=1e-2)
        assert short.history == long.history[:k]
        # the checkpoints differ in their config's epochs, not in any parameter
        arrays = [
            [(name, t.data.tobytes()) for name, t in load_checkpoint(r.checkpoint_path)[0].parameters()]
            for r in (long, short)
        ]
        assert arrays[0] == arrays[1]

    def test_lstm_baseline_keeps_its_best_epoch(self, tiny_dataset):
        def model(epochs):
            return training.train_lstm_baseline(
                tiny_dataset, hidden=4, epochs=epochs, learning_rate=1e-2, batch_size=16, seed=2
            )

        def valid_rmse(m):
            return training.score_split(tiny_dataset, "valid", 1, lambda b: m.predict(b.x)).rmse

        # a j-epoch run keeps the best of epochs 0..j, so the first run
        # scoring the least is the run that ends on the best epoch of all
        k = int(np.argmin([valid_rmse(model(epochs)) for epochs in range(5)]))
        assert 0 < k < 4
        test_x = tiny_dataset.batch(tiny_dataset.origins_for("test"), history=1).x
        assert np.array_equal(model(4).predict(test_x), model(k).predict(test_x))

    @pytest.mark.parametrize("run", [fuzzformer_run, lstm_run], ids=["fuzzformer", "lstm"])
    @pytest.mark.parametrize("epochs", [0, 3])
    def test_log_gets_one_line_per_epoch_after_its_validation(
        self, run, epochs, tiny_dataset, tmp_path, monkeypatch
    ):
        scored, lines = [], []
        score_split = training.score_split

        def counting(dataset, split, history, forecast, *, width=0):
            scored.append(split)
            return score_split(dataset, split, history, forecast, width=width)

        def log(*args, **kwargs):
            lines.append((args, kwargs, scored.count("valid")))

        monkeypatch.setattr(training, "score_split", counting)
        run(tiny_dataset, tmp_path / "run", log=log, epochs=epochs)
        assert scored == ["valid"] * (epochs + 1)  # the initial parameters, then each epoch
        # one positional string per epoch, once that epoch is scored
        assert [(len(args), kwargs, n) for args, kwargs, n in lines] == [
            (1, {}, e + 1) for e in range(1, epochs + 1)
        ]
        for e, (args, _, _) in enumerate(lines, start=1):
            assert isinstance(args[0], str) and args[0].startswith(f"epoch {e}/{epochs} ")

    @pytest.mark.parametrize(
        "run, width", [(fuzzformer_run, TINY_TRAIN["hidden_width"]), (lstm_run, 0)], ids=["fuzzformer", "lstm"]
    )
    def test_validation_lays_out_chunks_by_the_models_width(self, run, width, tiny_dataset, tmp_path, monkeypatch):
        # WORK_FLOOR was measured on Fuzzformer only, so the LSTM baseline
        # keeps the default width 0: whole EVAL_BATCH chunks
        widths = []
        score_split = training.score_split

        def spy(dataset, split, history, forecast, *, width=0):
            widths.append(width)
            return score_split(dataset, split, history, forecast, width=width)

        monkeypatch.setattr(training, "score_split", spy)
        run(tiny_dataset, tmp_path / "run", epochs=1)
        assert widths == [width, width]

    def test_dataset_mismatch_rejected(self, tiny_dataset, tmp_path):
        cfg = RunConfig(**{**TINY_TRAIN, "channels": 2})
        with pytest.raises(ConfigError, match="channels"):
            train(cfg, tiny_dataset, tmp_path / "bad", log=quiet)


# the tiny model's overlap term exceeds 1.8, so its product with this
# weight overflows in the forward pass
OVERFLOWING_OVERLAP = dict(weight_overlap=1e308)


class TestTrainFailure:
    def test_train_names_epoch_batch_and_op(self, tiny_dataset, tmp_path):
        cfg = RunConfig(**{**TINY_TRAIN, **OVERFLOWING_OVERLAP})
        with pytest.raises(NonFiniteError) as info:
            train(cfg, tiny_dataset, tmp_path / "run", log=quiet)
        assert str(info.value) == (
            "epoch 1, batch at sample 0: mul: non-finite values in forward pass"
        )
        assert info.value.op == "mul"

    def test_replay_names_the_probed_op_and_leaves_adam_alone(self, tiny_dataset):
        cfg = RunConfig(**TINY_TRAIN)
        model = FuzzformerModel(cfg, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        model.initialize_clusters(training.warmup_latents(model, tiny_dataset, rng), rng)
        batch = tiny_dataset.batch(tiny_dataset.origins_for("train")[:16], history=3)
        opt = ad.Adam(model.parameter_tensors(), learning_rate=1e-3)
        ad.train_step(opt, lambda: composite_loss(batch, model, rng), rng, "first")
        before = [t.data.copy() for t in model.parameter_tensors()]
        model.config = replace(cfg, **OVERFLOWING_OVERLAP)  # the planted weight
        state = rng.bit_generator.state
        with pytest.raises(NonFiniteError) as step_error:
            ad.train_step(
                opt, lambda: composite_loss(batch, model, rng), rng, "epoch 1, batch at sample 16"
            )
        assert opt.step_count == 1
        for tensor, arr in zip(model.parameter_tensors(), before):
            np.testing.assert_array_equal(tensor.data, arr)
            assert tensor.grad is None
        rng.bit_generator.state = state
        with pytest.raises(NonFiniteError) as probed_error:
            total, _ = composite_loss(batch, model, rng)
            ad.backward(total)
        assert str(step_error.value) == f"epoch 1, batch at sample 16: {probed_error.value}"

    def test_replayed_overflow_raises_typed_error_not_warning(self, tiny_dataset, tmp_path):
        # one Adam step at this rate throws the weights to ~1e300, so the
        # next batch overflows; its probed replay must not warn first
        cfg = RunConfig(**{**TINY_TRAIN, "learning_rate": 1e300})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="^epoch 1, batch at sample 16: "):
                train(cfg, tiny_dataset, tmp_path / "run", log=quiet)

    def test_gradient_too_large_to_square_stops_adam(self, tmp_path):
        # every value and gradient is finite, but a gradient entry above
        # ~1.3e154 would overflow Adam's second moment and freeze the entry
        dataset = prepare_dataset(make_synthetic(n_points=200, seed=3), lookback=12, horizon=4)
        cfg = RunConfig(**{**TINY_TRAIN, "weight_mse": 1e305})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError) as info:
                train(cfg, dataset, tmp_path / "run", log=quiet)
        assert str(info.value) == (
            "epoch 1, batch at sample 0: adam: a gradient entry is too large to square"
        )
        assert info.value.op == "adam"


class TestRunConfigFromDict:
    @pytest.mark.parametrize(
        "data, message",
        [
            ({"rules": "4"}, "rules must be int"),
            ({"rules": 4.5}, "rules must be int"),
            ({"epochs": False}, "epochs must be int"),
            ({"lookback": 12.0}, "lookback must be int"),
            ({"learning_rate": True}, "learning_rate must be float"),
            ({"dropout_rate": True}, "dropout_rate must be float"),
            ({"weight_mse": None}, "weight_mse must be float"),
            ([1, 2], "config must be a JSON object"),
            ("rules", "config must be a JSON object"),
        ],
    )
    def test_wrongly_typed_values_raise_config_error(self, data, message):
        with pytest.raises(ConfigError, match=message):
            RunConfig.from_dict(data)

    @pytest.mark.parametrize(
        "field, value, kind",
        [
            ("lookback", 60.5, "int"),
            ("rules", 4.0, "int"),
            ("epochs", 2.5, "int"),
            ("batch_size", True, "int"),
            ("hidden_width", "16", "int"),
            ("seed", np.float64(3.0), "int"),
            ("dropout_rate", "0.1", "float"),
            ("learning_rate", None, "float"),
            ("weight_fcm", np.True_, "float"),
        ],
    )
    def test_validate_rejects_fields_of_the_wrong_type(self, field, value, kind):
        with pytest.raises(ConfigError, match=f"^{field} must be {kind}, got {re.escape(repr(value))}$"):
            RunConfig(**{field: value}).validate()

    def test_validate_takes_numpy_numbers_and_holds_ints(self):
        cfg = RunConfig(lookback=np.int64(60), rules=np.int32(4), seed=np.uint16(7), dropout_rate=np.float32(0.25))
        cfg.validate()
        assert [type(v) for v in (cfg.lookback, cfg.rules, cfg.seed)] == [int, int, int]
        assert (cfg.lookback, cfg.rules, cfg.seed, cfg.dropout_rate) == (60, 4, 7, 0.25)

    def test_int_accepted_for_float_field(self):
        cfg = RunConfig.from_dict({"dropout_rate": 0, "learning_rate": 1})
        assert cfg.dropout_rate == 0 and cfg.learning_rate == 1

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"seed": -5}, "seed must be >= 0"),
            ({"learning_rate": float("nan")}, "learning_rate must be positive"),
            ({"learning_rate": -1e-3}, "learning_rate must be positive"),
            ({"learning_rate": float("inf")}, "learning_rate must be positive"),
            ({"weight_fcm": float("nan")}, "weight_fcm must be finite"),
            ({"weight_overlap": float("inf")}, "weight_overlap must be finite"),
            ({"weight_balance": -float("inf")}, "weight_balance must be finite"),
            ({"weight_mse": float("inf")}, "weight_mse must be finite"),
            ({"weight_fcm": -0.1}, "weight_fcm must be finite and non-negative"),
            ({"weight_mse": 0.0}, "the MSE weight must be positive"),
        ],
    )
    def test_out_of_range_values_raise_config_error(self, data, message):
        with pytest.raises(ConfigError, match=message):
            RunConfig.from_dict(data)

    JSON_VALUES = (
        st.integers(-2, 5)
        | st.floats(allow_nan=True, allow_infinity=True)
        | st.sampled_from([float("nan"), float("inf"), -float("inf")])
        | st.booleans()
        | st.text(max_size=3)
        | st.none()
    )

    @settings(max_examples=600, deadline=None)
    @given(
        overrides=st.dictionaries(
            st.sampled_from([f.name for f in fields(RunConfig)] + ["unknown"]),
            JSON_VALUES,
            max_size=2,
        )
    )
    def test_json_values_give_a_config_or_config_error(self, overrides):
        # TINY_TRAIN keeps every width the sweep does not draw small
        try:
            cfg = RunConfig.from_dict({**TINY_TRAIN, **overrides})
        except ConfigError:
            return
        assert RunConfig.from_dict(cfg.to_dict()) == cfg  # a NaN would not compare equal
        model = FuzzformerModel(cfg, np.random.default_rng(cfg.seed))
        assert model.centers.data.shape == (cfg.rules, cfg.latent_width)


def config_from_bytes(blob):
    """``RunConfig.from_file`` on ``blob`` written to a fresh file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_bytes(blob)
        return RunConfig.from_file(path)


class TestRunConfigFromFile:
    def test_byte_order_mark_is_dropped(self):
        assert config_from_bytes(b'\xef\xbb\xbf{"rules": 3}').rules == 3

    @settings(max_examples=100, deadline=None)
    @given(blob=st.binary(max_size=64) | st.text(alphabet='{}[]":,0123456789 -truefalsn', max_size=64).map(str.encode))
    def test_random_bytes_give_a_config_or_config_error(self, blob):
        try:
            cfg = config_from_bytes(blob)
        except ConfigError:
            return
        cfg.validate()  # a config it gives is a valid one

    @settings(max_examples=100, deadline=None)
    @given(
        value=st.recursive(
            TestRunConfigFromDict.JSON_VALUES,
            lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
            max_leaves=6,
        )
        | st.dictionaries(
            st.sampled_from([f.name for f in fields(RunConfig)]), TestRunConfigFromDict.JSON_VALUES, max_size=3
        )
    )
    def test_random_json_gives_a_config_or_config_error(self, value):
        try:
            cfg = config_from_bytes(json.dumps(value).encode())
        except ConfigError:
            return
        cfg.validate()  # a config it gives is a valid one


def chunk_sizes(n):
    """The EVAL_BATCH-window cut of ``range(n)``: ``score_split``'s layout
    at width 0, on any number of cores."""
    return [min(training.EVAL_BATCH, n - start) for start in range(0, n, training.EVAL_BATCH)]


WIDE = 128  # the paper's D_h: a width whose 16-window parts meet WORK_FLOOR


def layout(n, cores, width):
    """The chunk sizes of ``score_split``'s layout."""
    return [rows.stop - rows.start for rows in training._chunk_layout(n, cores, width)]


@pytest.fixture
def four_cores(monkeypatch):
    """The chunk pool sees four usable cores, so two or more chunks run on
    a pool on any host."""
    monkeypatch.setattr(training, "_usable_cores", lambda: 4)


@pytest.fixture
def one_core(monkeypatch):
    """The chunk pool sees one usable core, so every chunk runs on the
    calling thread."""
    monkeypatch.setattr(training, "_usable_cores", lambda: 1)


class TestChunkLayout:
    @pytest.mark.parametrize("cores", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [0, 1, 15, 16, 31, 90, 96, 97, 192, 250, 350, 812])
    def test_parts_cover_the_rows_in_order(self, n, cores):
        for width in (0, 16, 32, WIDE):
            sizes = layout(n, cores, width)
            chunks = training._chunk_layout(n, cores, width)
            assert [rows.start for rows in chunks] == [sum(sizes[:i]) for i in range(len(sizes))]
            assert sum(sizes) == n and all(0 < size <= training.EVAL_BATCH for size in sizes)
            assert all(size % 16 == 0 for size in sizes[:-1])
            assert len(sizes) <= cores * -(-n // (cores * training.EVAL_BATCH))  # at most one part per core a round
            if sizes != chunk_sizes(n):  # whole rounds, then a last round cut into parts that meet the floor
                full = n // (cores * training.EVAL_BATCH) * cores
                assert sizes[:full] == [training.EVAL_BATCH] * full
                assert sizes[-2] * width >= training.WORK_FLOOR
            if sizes and sizes[-1] == 1:  # a lone last window only where the EVAL_BATCH cut has one
                assert sizes == chunk_sizes(n)

    @pytest.mark.parametrize(
        "n, cores, sizes",
        [
            (90, 2, [48, 42]),
            (31, 2, [16, 15]),
            (812, 2, [96] * 8 + [32, 12]),
            (90, 4, [32, 32, 26]),
            (812, 4, [96] * 8 + [16, 16, 12]),
            (17, 2, [17]),  # 16 + 1 would move the last window's bits
            (16, 2, [16]),
        ],
    )
    def test_paper_width_splits_the_last_round(self, n, cores, sizes):
        assert layout(n, cores, WIDE) == sizes

    @pytest.mark.parametrize("width", [0, 16])
    @pytest.mark.parametrize("cores", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [31, 90, 97, 192, 250, 350, 812])
    def test_narrow_width_keeps_whole_eval_batch_chunks(self, n, cores, width):
        # a desk-width (D_h=16) part of the last round is less work than
        # WORK_FLOOR
        assert layout(n, cores, width) == chunk_sizes(n)

    def test_a_part_is_cut_where_windows_times_width_meet_the_floor(self):
        assert training.WORK_FLOOR == 2048
        assert layout(90, 2, 32) == [90]  # 48 x 32 = 1536
        assert layout(97, 2, 32) == [64, 33]  # 64 x 32 = 2048


class TestWarmupLatents:
    def _latents(self, dataset):
        model = FuzzformerModel(RunConfig(**TINY_TRAIN), np.random.default_rng(0))
        with ad.no_grad():
            every = model.encode(dataset.batch(dataset.origins_for("train"), history=1).x)
        return every.z_latent.data, training.warmup_latents(model, dataset, np.random.default_rng(1))[:]

    def test_more_than_256_origins_sample_256_sorted_distinct(self, tiny_dataset):
        assert tiny_dataset.origins_for("train").size > 256
        every, latents = self._latents(tiny_dataset)
        assert latents.shape == (256, 2)
        gaps = np.abs(latents[:, None, :] - every[None, :, :]).max(axis=-1)
        rows = gaps.argmin(axis=1)
        assert gaps.min(axis=1).max() < 1e-12  # each row is some origin's latent
        assert list(rows) == sorted(set(rows))  # distinct origins, in ascending order

    def test_fewer_origins_are_all_used(self):
        dataset = prepare_dataset(make_synthetic(n_points=200, seed=3), lookback=12, horizon=4)
        assert 0 < dataset.origins_for("train").size < 256
        every, latents = self._latents(dataset)
        np.testing.assert_array_equal(latents, every)

    @pytest.mark.parametrize("width", [4, WIDE])
    @pytest.mark.parametrize("cores", [1, 2, 4])
    def test_chunks_give_the_bits_of_one_batch(self, monkeypatch, tiny_dataset, cores, width):
        # at width 128 the GEMMs are large enough for BLAS to pick its
        # blocked kernels, where the encoder's EVAL_BATCH chunks could
        # change the bits; a pass that records the graph is one batch
        monkeypatch.setattr(training, "_usable_cores", lambda: cores)
        model = FuzzformerModel(RunConfig(**{**TINY_TRAIN, "hidden_width": width}), np.random.default_rng(0))
        train_origins = tiny_dataset.origins_for("train")
        origins = np.sort(np.random.default_rng(1).choice(train_origins, size=256, replace=False))
        one_batch = model.encode(tiny_dataset.batch(origins, history=1).x).z_latent.data
        calls = []
        encode = model.encode

        def spy(x, rng=None):
            calls.append((threading.get_ident(), x.shape[0]))
            return encode(x, rng=rng)

        model.encode = spy
        latents = training.warmup_latents(model, tiny_dataset, np.random.default_rng(1))[:]
        np.testing.assert_array_equal(latents, one_batch)
        assert calls == [(threading.get_ident(), 256)]  # one call on the calling thread, whatever the cores

    @pytest.mark.parametrize("cores", [1, 2, 4])
    @pytest.mark.parametrize("rules", [32, 96])
    def test_wide_picks_keep_the_bits_of_per_core_parts(self, monkeypatch, tiny_dataset, rules, cores):
        # one encode of the picks gives the bits of the parts _chunk_layout
        # cuts them into for an evaluation split (96 -> 48 + 48 on two cores)
        monkeypatch.setattr(training, "_usable_cores", lambda: cores)
        model = FuzzformerModel(RunConfig(**{**TINY_TRAIN, "hidden_width": WIDE}), np.random.default_rng(0))
        latents = training.warmup_latents(model, tiny_dataset, np.random.default_rng(1))
        rows = np.random.default_rng(rules).choice(len(latents), size=rules, replace=False)
        picks = latents.origins[rows]
        with ad.no_grad():
            parts = [
                model.encode(tiny_dataset.batch(picks[chunk], history=1).x).z_latent.data
                for chunk in training._chunk_layout(rules, cores, WIDE)
            ]
        assert layout(rules, cores, WIDE) == {
            (32, 2): [16, 16], (32, 4): [16, 16], (96, 2): [48, 48], (96, 4): [32, 32, 32]
        }.get((rules, cores), [rules])
        assert latents[rows].tobytes() == np.concatenate(parts).tobytes()

    @pytest.mark.parametrize("n_rows", [1, 4, 5, 16, 17])
    @pytest.mark.parametrize("width", [16, 128])
    @pytest.mark.parametrize("n_points", [400, 260], ids=["over-256-origins", "182-origins"])
    def test_rows_read_alone_have_the_bits_of_all_rows(self, n_rows, width, n_points):
        # 16 and 128 are the desk and paper widths; 182 origins leave the
        # last chunk of all rows 86 windows, not a multiple of 16
        dataset = prepare_dataset(make_synthetic(n_points=n_points, seed=3), lookback=12, horizon=4)
        model = FuzzformerModel(RunConfig(**{**TINY_TRAIN, "hidden_width": width}), np.random.default_rng(0))
        latents = training.warmup_latents(model, dataset, np.random.default_rng(1))
        assert len(latents) == min(dataset.origins_for("train").size, training.WARMUP_WINDOWS)
        rows = np.random.default_rng(n_rows).choice(len(latents), size=n_rows, replace=False)
        np.testing.assert_array_equal(latents[rows], latents[:][rows])

    @pytest.mark.parametrize("rules", [2, 16, 17])
    def test_cluster_seeding_encodes_the_picked_windows_once_on_the_caller(
        self, four_cores, tiny_dataset, rules
    ):
        model = FuzzformerModel(RunConfig(**{**TINY_TRAIN, "rules": rules}), np.random.default_rng(0))
        calls = []
        encode = model.encode

        def spy(x, rng=None):
            calls.append((threading.get_ident(), x.shape[0]))
            return encode(x, rng=rng)

        model.encode = spy
        latents = training.warmup_latents(model, tiny_dataset, np.random.default_rng(1))
        assert calls == []  # nothing is encoded before rows are read
        model.initialize_clusters(latents, np.random.default_rng(1))
        assert calls == [(threading.get_ident(), -(-rules // 16) * 16)]

    @pytest.mark.parametrize("n_points, rules", [(400, 2), (400, 16), (200, 300)], ids=["c2", "c16", "replace"])
    def test_seeding_draws_the_origins_then_the_picks(self, n_points, rules):
        # the draws of encoding all sampled windows before picking C of them
        dataset = prepare_dataset(make_synthetic(n_points=n_points, seed=3), lookback=12, horizon=4)
        model = FuzzformerModel(RunConfig(**{**TINY_TRAIN, "rules": rules}), np.random.default_rng(0))
        rng = np.random.default_rng(5)
        model.initialize_clusters(training.warmup_latents(model, dataset, rng), rng)

        expected = np.random.default_rng(5)
        origins = dataset.origins_for("train")
        if origins.size > training.WARMUP_WINDOWS:
            origins = np.sort(expected.choice(origins, size=training.WARMUP_WINDOWS, replace=False))
        replace = origins.size < rules
        pick = expected.choice(origins.size, size=rules, replace=replace)
        with ad.no_grad():
            centers = model.encode(dataset.batch(origins, history=1).x).z_latent.data[pick]
        if replace:
            centers = centers + expected.normal(scale=1e-3, size=centers.shape)
        assert rng.bit_generator.state == expected.bit_generator.state
        np.testing.assert_allclose(model.centers.data, centers, rtol=0, atol=1e-12)

    def test_train_encodes_no_more_than_the_picks_and_the_valid_split(self, tiny_dataset, tmp_path, monkeypatch):
        # a work-count guard: an eager warm-up encode would fail here
        encoded = []
        encode = FuzzformerModel.encode

        def counting(self, x, **kwargs):
            encoded.append(x.shape[0])
            return encode(self, x, **kwargs)

        monkeypatch.setattr(FuzzformerModel, "encode", counting)
        train(RunConfig(**{**TINY_TRAIN, "epochs": 0}), tiny_dataset, tmp_path / "run", log=quiet)
        picks = -(-TINY_TRAIN["rules"] // 16) * 16
        assert sum(encoded) <= picks + tiny_dataset.origins_for("valid").size


class TestEvaluate:
    def test_rmse_matches_recomputation_from_forecasts(self, tiny_dataset, tmp_path):
        cfg = RunConfig(**TINY_TRAIN)
        result = train(cfg, tiny_dataset, tmp_path / "ev", log=quiet)
        model = result.model
        report = evaluate_split(model, tiny_dataset, "test")
        origins = tiny_dataset.origins_for("test")
        hist = cfg.ar_order + cfg.integration_order
        batch = tiny_dataset.batch(origins, history=hist)
        preds = model.predict(batch.x, batch.y_history)
        assert report.rmse == pytest.approx(rmse(preds, batch.y_target), abs=1e-12)
        assert report.per_step_rmse.shape == (cfg.horizon,)

    def test_evaluate_twice_identical(self, tiny_dataset, tmp_path):
        cfg = RunConfig(**{**TINY_TRAIN, "epochs": 1})
        result = train(cfg, tiny_dataset, tmp_path / "ev2", log=quiet)
        a = evaluate_split(result.model, tiny_dataset, "test")
        b = evaluate_split(result.model, tiny_dataset, "test")
        assert a.rmse == b.rmse
        np.testing.assert_array_equal(a.per_step_rmse, b.per_step_rmse)


class TestScoreSplit:
    def test_skipped_windows_are_counted_not_scored(self, tiny_dataset):
        origins = tiny_dataset.origins_for("train")
        assert origins.size > training.EVAL_BATCH
        sizes = []

        def forecast(batch):
            sizes.append(batch.origins.size)
            ok = batch.origins % 3 != 0
            return np.where(ok[:, None], batch.y_target + 0.5, np.nan)

        report = training.score_split(tiny_dataset, "train", 1, forecast)
        # chunks may run in any order, on any thread
        assert sorted(sizes) == sorted(chunk_sizes(origins.size))
        skipped = int(np.sum(origins % 3 == 0))
        assert (report.n_samples, report.n_skipped) == (origins.size - skipped, skipped)
        assert report.rmse == pytest.approx(0.5)
        np.testing.assert_allclose(report.per_step_rmse, 0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_a_row_with_one_non_finite_value_is_counted_not_scored(self, tiny_dataset, bad):
        origins = tiny_dataset.origins_for("train")

        def forecast(batch):
            preds = batch.y_target + 0.5
            preds[batch.origins % 5 == 0, -1] = bad  # the last step of every fifth window
            return preds

        report = training.score_split(tiny_dataset, "train", 1, forecast)
        skipped = int(np.sum(origins % 5 == 0))
        assert 0 < skipped < origins.size
        assert (report.n_samples, report.n_skipped) == (origins.size - skipped, skipped)
        assert report.rmse == pytest.approx(0.5)
        np.testing.assert_allclose(report.per_step_rmse, 0.5)

    def test_pooled_report_equals_a_chunk_by_chunk_reference(self, tiny_dataset, four_cores):
        origins = tiny_dataset.origins_for("train")
        assert origins.size > 2 * training.EVAL_BATCH
        cfg = RunConfig(**TINY_TRAIN)
        model = FuzzformerModel(cfg, np.random.default_rng(5))
        threads, sizes = set(), []

        def forecast(batch):
            threads.add(threading.get_ident())
            sizes.append(batch.origins.size)
            preds = model.predict(batch.x, batch.y_history)
            return np.where((batch.origins % 4 != 1)[:, None], preds, np.nan)

        # a width that meets the floor, so the 16-aligned parts run on the pool
        report = training.score_split(tiny_dataset, "train", cfg.history, forecast, width=WIDE)
        assert threading.get_ident() not in threads  # the chunks ran on the pool
        assert sorted(sizes) == sorted(layout(origins.size, 4, WIDE)) != chunk_sizes(origins.size)
        parts = []
        for start in range(0, origins.size, training.EVAL_BATCH):
            batch = tiny_dataset.batch(origins[start : start + training.EVAL_BATCH], history=cfg.history)
            keep = batch.origins % 4 != 1
            parts.append((model.predict(batch.x, batch.y_history)[keep], batch.y_target[keep]))
        preds, targets = (np.concatenate(p) for p in zip(*parts))
        per_step = np.sqrt(np.sum((preds - targets) ** 2, axis=0) / preds.shape[0])
        assert report.rmse == rmse(preds, targets)
        assert report.per_step_rmse.tobytes() == per_step.tobytes()
        assert (report.n_samples, report.n_skipped) == (preds.shape[0], origins.size - preds.shape[0])

    @pytest.mark.parametrize("split", ["train", "valid", "test"])
    @pytest.mark.parametrize("cores", [1, 2, 4])
    def test_wide_model_has_the_bits_of_one_batch(self, monkeypatch, tiny_dataset, cores, split):
        monkeypatch.setattr(training, "_usable_cores", lambda: cores)
        cfg = RunConfig(**{**TINY_TRAIN, "hidden_width": WIDE})
        model = FuzzformerModel(cfg, np.random.default_rng(5))
        origins = tiny_dataset.origins_for(split)
        got = np.full((origins.size, cfg.horizon), np.nan)

        def forecast(batch):
            preds = model.predict(batch.x, batch.y_history)
            got[np.searchsorted(origins, batch.origins)] = preds
            return preds

        report = training.score_split(tiny_dataset, split, cfg.history, forecast, width=WIDE)
        batch = tiny_dataset.batch(origins, history=cfg.history)
        preds = model.predict(batch.x, batch.y_history)
        assert got.tobytes() == preds.tobytes()
        per_step = np.sqrt(np.sum((preds - batch.y_target) ** 2, axis=0) / preds.shape[0])
        assert report.rmse == rmse(preds, batch.y_target)
        assert report.per_step_rmse.tobytes() == per_step.tobytes()
        again = evaluate_split(model, tiny_dataset, split)
        assert (again.rmse, again.per_step_rmse.tobytes()) == (report.rmse, report.per_step_rmse.tobytes())

    @pytest.mark.parametrize("split", ["train", "test"])
    def test_narrow_model_keeps_whole_chunks(self, tiny_dataset, four_cores, split):
        # whole EVAL_BATCH chunks on the pool; a split of one chunk runs
        # on the calling thread
        model = FuzzformerModel(RunConfig(**TINY_TRAIN), np.random.default_rng(5))
        calls = []
        predict = model.predict

        def spy(x, y_history):
            calls.append((threading.get_ident(), x.shape[0]))
            return predict(x, y_history)

        model.predict = spy
        evaluate_split(model, tiny_dataset, split)
        sizes = chunk_sizes(tiny_dataset.origins_for(split).size)
        assert len(sizes) >= 3 if split == "train" else sizes == [tiny_dataset.origins_for(split).size]
        assert sorted(n for _, n in calls) == sorted(sizes)
        assert {ident == threading.get_ident() for ident, _ in calls} == {len(sizes) == 1}

    def test_chunks_see_the_callers_modes(self, tiny_dataset, four_cores):
        seen = []

        def forecast(batch):
            try:
                ad.exp(ad.Tensor([1000.0]))
                probes = False
            except NonFiniteError:
                probes = True
            seen.append((threading.get_ident(), ad.grad_enabled(), probes, np.geterr()["over"]))
            return batch.y_target

        with ad.no_grad(), np.errstate(over="ignore"):
            training.score_split(tiny_dataset, "train", 1, forecast)
        with ad.no_finite_probes(), np.errstate(over="raise"):
            training.score_split(tiny_dataset, "train", 1, forecast)
        n = len(chunk_sizes(tiny_dataset.origins_for("train").size))
        assert threading.get_ident() not in {ident for ident, *_ in seen}
        assert sorted(tuple(modes) for _, *modes in seen) == sorted(
            [(False, True, "ignore")] * n + [(True, False, "raise")] * n
        )
        assert ad.grad_enabled()

    def test_first_failing_chunk_is_raised_after_every_chunk_finished(self, four_cores):
        dataset = prepare_dataset(make_synthetic(n_points=600, seed=3), lookback=12, horizon=4)
        origins = dataset.origins_for("train")
        n = len(chunk_sizes(origins.size))
        assert n >= 5
        finished = []

        def forecast(batch):
            chunk = int(np.searchsorted(origins, batch.origins[0])) // training.EVAL_BATCH
            if chunk == 1:
                time.sleep(0.05)  # chunk 3 fails first
            if chunk in (1, 3):
                raise NonFiniteError(f"chunk {chunk}")
            if chunk == n - 1:
                time.sleep(0.2)
            finished.append(chunk)
            return batch.y_target

        with pytest.raises(NonFiniteError, match="chunk 1"):
            training.score_split(dataset, "train", 1, forecast)
        assert sorted(finished) == [c for c in range(n) if c not in (1, 3)]

    @pytest.mark.parametrize(
        "data, split", [("tiny_dataset", "test"), ("no_valid_dataset", "valid")],
        ids=["all-skipped", "empty"],
    )
    def test_nothing_scored_gives_nan(self, request, data, split):
        dataset = request.getfixturevalue(data)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = training.score_split(dataset, split, 1, lambda batch: np.full_like(batch.y_target, np.nan))
        assert np.isnan(report.rmse)
        assert report.per_step_rmse.shape == (4,) and np.all(np.isnan(report.per_step_rmse))
        assert (report.n_samples, report.n_skipped) == (0, dataset.origins_for(split).size)


class TestForecastBundle:
    def _window_csv(self, path, n=30):
        series = make_synthetic(n_points=n, seed=9)
        with open(path, "w", encoding="utf-8") as fh:
            names = ",".join(s.name for s in series)
            fh.write(f"date,{names}\n")
            for i in range(n):
                vals = ",".join(f"{s.values[i]:.8f}" for s in series)
                fh.write(f"{series[0].dates[i]},{vals}\n")
        return [s.name for s in series]

    def test_bundle_files_and_unit_partition(self, tmp_path):
        ds = prepare_dataset(make_synthetic(n_points=400, seed=3), lookback=12, horizon=4)
        cfg = RunConfig(**TINY_TRAIN)
        result = train(cfg, ds, tmp_path / "run", log=quiet)
        names = self._window_csv(tmp_path / "window.csv")
        dates, matrix, _ = read_columns(tmp_path / "window.csv", names, "window file")
        paths = forecast_bundle(
            result.model, ds.scaler, names, dates, matrix, tmp_path / "bundle", log=quiet
        )
        for key in ("forecast", "rules", "clusters", "attention", "forecast_svg"):
            assert paths[key].exists()
        with open(paths["rules"]) as fh:
            rows = list(csv.DictReader(fh))
        by_rule = {}
        for r in rows:
            by_rule[int(r["rule"])] = float(r["membership"])
        assert sum(by_rule.values()) == pytest.approx(1.0, abs=1e-9)
        # aggregate forecast equals the membership blend of rule forecasts
        with open(paths["forecast"]) as fh:
            agg = [float(r["value_scaled"]) for r in csv.DictReader(fh)]
        blend = np.zeros(cfg.horizon)
        for r in rows:
            blend[int(r["step"]) - 1] += float(r["membership"]) * float(r["value_scaled"])
        np.testing.assert_allclose(agg, blend, atol=1e-8)

    @pytest.mark.parametrize(
        "shape",
        [
            dict(rules=1, attention_heads=1, mha_layers=1, latent_width=2),
            dict(rules=4, attention_heads=2, mha_layers=2, latent_width=3),
            dict(rules=4, attention_heads=1, mha_layers=2, latent_width=2),
            dict(rules=1, attention_heads=2, mha_layers=1, latent_width=3),
            dict(rules=4, attention_heads=2, mha_layers=1, latent_width=2, horizon=1),
        ],
        ids=lambda shape: "-".join(f"{k}{v}" for k, v in shape.items()),
    )
    def test_csv_bytes_match_per_cell_oracle(self, shape, tmp_path):
        cfg = RunConfig(**{**TINY_TRAIN, **shape})
        rng = np.random.default_rng(17)
        model = FuzzformerModel(cfg, rng)
        model.initialize_clusters(rng.normal(size=(32, cfg.latent_width)), rng)
        model.factors.data += rng.normal(scale=0.3, size=model.factors.data.shape)
        series = make_synthetic(n_points=40, seed=9)
        matrix = np.stack([s.values for s in series], axis=1)
        scaler = fit_minmax(matrix, 30)
        names = [s.name for s in series]
        for end in (12, 26, 40):  # three windows
            window = matrix[:end]
            forecast_bundle(
                model, scaler, names, series[0].dates[:end], window, tmp_path / "bundle", log=quiet
            )
            bundle_oracle.write_bundle_csvs(model, scaler, window, tmp_path / "oracle")
            for name in bundle_oracle.CSV_NAMES:
                got = (tmp_path / "bundle" / name).read_bytes()
                assert got == (tmp_path / "oracle" / name).read_bytes(), name
            # the bundle is the caller that asks for attention maps: one row
            # per layer, head, query and key under the header
            rows = (tmp_path / "bundle" / "attention_weights.csv").read_bytes().count(b"\n")
            assert rows == 1 + cfg.mha_layers * cfg.attention_heads * cfg.lookback**2

    # whole numbers, signed zeros and the extremes of the float range,
    # next to any finite float
    GRID_VALUES = (
        st.sampled_from([-0.0, 0.0, 1e-300, -1e-300, 1e300, 5e-324, 3.0, -12.0, 1e16])
        | st.floats(allow_nan=False, allow_infinity=False)
        | st.integers(-(10**12), 10**12).map(float)
    )

    @settings(max_examples=150, deadline=None)
    @given(
        levels=st.lists(st.tuples(st.integers(0, 2), st.integers(1, 5)), min_size=1, max_size=4),
        columns=st.integers(1, 3),
        data=st.data(),
    )
    def test_grid_writer_matches_a_per_cell_csv_writer(self, levels, columns, data):
        levels = [range(start, start + size) for start, size in levels]
        shape = [len(level) for level in levels] + [columns]
        pool = data.draw(st.lists(self.GRID_VALUES, min_size=1, max_size=12))
        picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=16))
        values = np.resize(np.array(pool)[picks], shape)
        header = [f"label_{i}" for i in range(len(levels))] + [f"value_{j}" for j in range(columns)]
        with tempfile.TemporaryDirectory() as tmp:
            got, want = Path(tmp) / "grid.csv", Path(tmp) / "oracle.csv"
            assert training._write_grid(got, header, levels, values) == got
            with open(want, "w", encoding="utf-8", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(header)
                for point in itertools.product(*levels):
                    index = tuple(k - level.start for k, level in zip(point, levels))
                    writer.writerow([*point, *(f"{v:.10g}" for v in values[index])])
            assert got.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("shape", [(12,), (12, 2), (12, 4)], ids=["1-D", "2-columns", "4-columns"])
    def test_window_of_wrong_shape(self, shape, tmp_path):
        cfg = RunConfig(**TINY_TRAIN)
        rng = np.random.default_rng(3)
        model = FuzzformerModel(cfg, rng)
        model.initialize_clusters(rng.normal(size=(8, cfg.latent_width)), rng)
        scaler = fit_minmax(rng.normal(size=(20, cfg.channels)), 20)
        expected = re.escape(f"window has shape {shape}, model needs (rows, {cfg.channels})")
        with pytest.raises(DataError, match=expected):
            forecast_bundle(model, scaler, ["a", "b", "c"], [], np.zeros(shape), tmp_path / "b", log=quiet)

    def test_window_too_short(self, tmp_path):
        ds = prepare_dataset(make_synthetic(n_points=400, seed=3), lookback=12, horizon=4)
        cfg = RunConfig(**TINY_TRAIN)
        result = train(cfg, ds, tmp_path / "run", log=quiet)
        names = self._window_csv(tmp_path / "w.csv", n=6)
        dates, matrix, _ = read_columns(tmp_path / "w.csv", names, "window file")
        with pytest.raises(DataError, match="rows"):
            forecast_bundle(result.model, ds.scaler, names, dates, matrix, tmp_path / "b")

    def test_window_csv_drops_byte_order_mark(self, tmp_path):
        # spreadsheet "CSV UTF-8" exports start with a byte-order mark
        path = tmp_path / "w.csv"
        path.write_bytes(b"\xef\xbb\xbfdate,b,a\n2020-01-01,2.0,1.0\n2020-01-02,4.0,3.0\n")
        dates, matrix, _ = read_columns(path, ["a", "b"], "window file")
        assert dates == ["2020-01-01", "2020-01-02"]
        np.testing.assert_array_equal(matrix, [[1.0, 2.0], [3.0, 4.0]])

    def test_window_csv_validates_channels(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("date,a\n2020-01-01,1.0\n")
        with pytest.raises(DataError, match=r"w\.csv:1: header is missing columns \['b'\]"):
            read_columns(path, ["a", "b"], "window file")


    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_window_csv_rejects_non_finite_with_line(self, tmp_path, cell):
        path = tmp_path / "w.csv"
        path.write_text(f"date,a\n2020-01-01,1.0\n2020-01-02,{cell}\n")
        with pytest.raises(DataError, match=r"w\.csv:3: non-finite"):
            read_columns(path, ["a"], "window file")

    def test_window_csv_reports_physical_line_after_multiline_cell(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text('date,a\n2020-01-01,"1\n"\n2020-01-02,x\n')
        with pytest.raises(DataError, match=r"w\.csv:4: bad row"):
            read_columns(path, ["a"], "window file")

    def test_window_csv_non_utf8_raises_data_error(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_bytes(b"date,a\n2020-01-01,\xe9\n")
        with pytest.raises(DataError, match="UTF-8"):
            read_columns(path, ["a"], "window file")

    @settings(max_examples=300, deadline=None)
    @given(
        prefix=st.sampled_from([b"", b"date,a,b\n", b"date,b,a\n2020-01-01,1,2\n"]),
        body=st.binary(max_size=120) | st.text(alphabet='0123456789-,.eEnaif"\\ \n\r\x00', max_size=120).map(str.encode),
    )
    def test_random_bytes_load_or_raise_data_error(self, prefix, body):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "w.csv"
            path.write_bytes(prefix + body)
            try:
                dates, matrix, _ = read_columns(path, ["a", "b"], "window file")
            except DataError:
                return
        assert matrix.shape == (len(dates), 2)
        assert np.isfinite(matrix).all()


NAN_WINDOW = ("lstm_scan: non-finite values in forward pass", "lstm_scan", None)
UNSTABLE_RULE = ("rule 1: non-finite ARIX forecast (unstable polynomial)", "arix_recursion", 1)


def raised(call):
    """(message, op, rule) of the ``NonFiniteError`` that ``call()`` raises
    while every warning is an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError) as info:
            call()
    return str(info.value), info.value.op, info.value.rule


class TestForwardPassReplay:
    """A forward-only pass checks its outputs once and, when one is not
    finite, replays with the per-op probes on: the error is the one a
    pass probed throughout raises, never a ``RuntimeWarning``."""

    @pytest.fixture
    def planted(self, tiny_dataset):
        """(model, dataset, origin of a window to forecast, expected error) for
        a NaN in an exogenous channel of train windows past the first
        chunk, whose NaN latents reach the ARIX check, which fires without
        probes, before any output; or for an unstable rule 1."""
        def plant(kind):
            model = FuzzformerModel(RunConfig(**TINY_TRAIN), np.random.default_rng(5))
            origin = tiny_dataset.origins_for("train")[training.EVAL_BATCH + 20]
            if kind == "unstable-rule":
                model.arix_a.data[1, 0] = -1e150  # overflows within 3 steps
                return model, tiny_dataset, origin, UNSTABLE_RULE
            matrix = tiny_dataset.matrix.copy()
            matrix[origin, 2] = np.nan
            return model, replace(tiny_dataset, matrix=matrix), origin, NAN_WINDOW

        return plant

    @pytest.mark.parametrize("kind", ["nan-window", "unstable-rule"])
    def test_predict_one_window(self, planted, kind):
        model, dataset, origin, error = planted(kind)
        batch = dataset.batch([origin], history=model.config.history)
        assert raised(lambda: model.predict(batch.x, batch.y_history)) == error

    @pytest.mark.parametrize("kind", ["nan-window", "unstable-rule"])
    def test_evaluate_split_on_worker_threads(self, planted, kind, four_cores):
        model, dataset, _origin, error = planted(kind)
        assert len(chunk_sizes(dataset.origins_for("train").size)) >= 3
        assert raised(lambda: evaluate_split(model, dataset, "train")) == error

    @pytest.mark.parametrize("kind", ["nan-window", "unstable-rule"])
    def test_forecast_bundle(self, planted, kind, tmp_path):
        model, dataset, origin, error = planted(kind)
        rows = slice(origin - dataset.lookback + 1, origin + 1)
        raw = dataset.scaler.inverse(dataset.matrix[rows])
        bundle = lambda: forecast_bundle(  # noqa: E731
            model, dataset.scaler, dataset.channel_names, dataset.calendar[rows], raw, tmp_path, log=quiet
        )
        assert raised(bundle) == error
        assert list(tmp_path.iterdir()) == []  # nothing is written before the check

    def test_warmup_encode(self, planted):
        model, dataset, origin, error = planted("nan-window")
        train = dataset.origins_for("train")
        latents = training.WarmupLatents(model, dataset, train[train <= origin + 4])
        assert len(chunk_sizes(len(latents))) >= 2
        assert raised(lambda: latents[:]) == error

    def test_lstm_baseline_predict(self, planted):
        _model, dataset, origin, error = planted("nan-window")
        model = LstmBaseline(3, 4, 2, dataset.horizon, dataset.lookback, np.random.default_rng(5))
        assert raised(lambda: model.predict(dataset.batch([origin - 1, origin], history=1).x)) == error


def scored(split, value, n=3):
    """A report of ``n`` windows scored on ``split`` at RMSE ``value``."""
    return training.MetricsReport(split, value, np.full(4, value), n, 0)


class TestReport:
    def test_single_method_single_setting(self):
        rows = [
            {"method": "persistence", "config": "", "setting": "60/30", "split": s, "rmse": "0.1"}
            for s in ("train", "valid", "test")
        ]
        text, header, table = build_report(rows)
        assert len(table) == 1 and len(table[0]) == 4
        assert "persistence" in text

    def test_grid_three_methods_three_settings(self):
        rows = []
        for m in ("a", "b", "c"):
            for setting in ("60/30", "150/30", "150/60"):
                for s in ("train", "valid", "test"):
                    rows.append(
                        {"method": m, "config": "", "setting": setting, "split": s, "rmse": "0.2"}
                    )
        _, header, table = build_report(rows)
        assert len(table) == 3
        assert len(header) == 1 + 9

    def test_missing_cell_rendered_as_dash(self):
        rows = [
            {"method": "a", "config": "", "setting": "60/30", "split": "train", "rmse": "0.5"}
        ]
        text, _, table = build_report(rows)
        assert "—" in text
        assert table[0][2] == "—"

    def test_two_rows_for_one_cell_raise(self):
        rows = [
            {"method": "fuzzformer", "config": "p=4", "setting": "60/30", "split": "test", "rmse": value}
            for value in (0.0767, 0.0604)
        ]
        message = "two results rows for one cell: fuzzformer (p=4), 60/30 test"
        with pytest.raises(DataError, match=re.escape(message)):
            build_report(rows)
        for key, other in (("split", "valid"), ("config", "p=2"), ("setting", "150/30"), ("method", "lstm")):
            _, _, table = build_report([rows[0], {**rows[1], key: other}])  # another cell
            assert sum(line.count("0.0604") for line in table) == 1

    def test_bad_split_label_rejected(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("method,config,setting,split,rmse\na,,s,train,1\na,,s,nope,1\n")
        with pytest.raises(DataError, match=re.escape(f"{path}:3: unknown split label 'nope'")):
            read_results([path])

    def test_header_only_file_holds_no_rows(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("method,config,setting,split,rmse\n\n")
        assert read_results([path]) == []

    def test_columns_in_any_order_and_case(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_bytes(b'\xef\xbb\xbfRMSE,Split,note,setting,config,method\r\n 0.25,test,x,12/4,"p=2,d=1",arima\r\n')
        assert read_results([path]) == [
            {"method": "arima", "config": "p=2,d=1", "setting": "12/4", "split": "test", "rmse": 0.25}
        ]

    RESULTS = (
        b"method,config,setting,split,rmse\r\npersistence,,12/4,train,0.100000\r\n"
        b'arima,"p=2,d=1,q=1",12/4,test,0.200000\r\n'
    )

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_mutated_results_file_reports_or_raises_data_error(self, data):
        blob = self.RESULTS
        for _ in range(data.draw(st.integers(1, 3))):
            start = data.draw(st.integers(0, len(blob)))
            end = data.draw(st.integers(start, min(len(blob), start + 8)))
            piece = data.draw(
                st.binary(max_size=3) | st.text(alphabet=',"\r\n .0125eainf-', max_size=4).map(str.encode)
            )
            blob = blob[:start] + piece + blob[end:]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "r.csv"
            path.write_bytes(blob)
            try:
                rows = read_results([path])
                _, header, table = build_report(rows)
            except DataError:
                return
        assert all(math.isfinite(row["rmse"]) for row in rows)
        assert all(len(line) == len(header) for line in table)

    def test_append_to_an_empty_file_writes_the_header(self, tmp_path):
        path = tmp_path / "r.csv"
        path.touch()
        training.append_results(path, "a", "", "60/30", [scored("test", 0.4)])
        assert read_results([path]) == [
            {"method": "a", "config": "", "setting": "60/30", "split": "test", "rmse": 0.4}
        ]

    def test_one_row_per_report_that_scored(self, tmp_path):
        path = tmp_path / "r.csv"
        empty = training.MetricsReport("valid", math.nan, np.full(4, math.nan), 0, 0)
        training.append_results(path, "arima", "p=2,d=1,q=1", "12/4", [empty])
        assert not path.exists()  # no rows write no file
        reports = [scored("train", 0.1234567), empty, scored("test", 2.0)]
        training.append_results(path, "arima", "p=2,d=1,q=1", "12/4", reports)
        assert path.read_bytes() == (
            b"method,config,setting,split,rmse\r\n"
            b'arima,"p=2,d=1,q=1",12/4,train,0.123457\r\narima,"p=2,d=1,q=1",12/4,test,2.000000\r\n'
        )

    def test_write_and_read_round_trip(self, tmp_path):
        training.append_results(tmp_path / "r.csv", "a", "p=2", "60/30", [scored("valid", 0.4)])
        training.append_results(tmp_path / "r.csv", "a", "p=2", "60/30", [scored("test", 0.4)])
        back = read_results([tmp_path / "r.csv"])
        assert len(back) == 2
        text = write_report(back, tmp_path / "table.csv")
        assert "a (p=2)" in text
        assert (tmp_path / "table.csv").exists()
