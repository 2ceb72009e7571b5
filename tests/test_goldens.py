"""Seeded runs reproduce tests/goldens.json (see make_goldens.py).

When this environment matches the one the goldens were made under, every
hash and every float must match exactly.  Otherwise the floats must match
to 1e-9 relative, and the hash comparison is skipped with a reason that
names each field that differs.
"""

import json
import math

import pytest

import make_goldens

# the fields of the environment record that seeded bits depend on.  The
# core counts are not among them: BLAS runs on one thread, each evaluation
# chunk writes only its own rows, whichever thread runs it, and every
# chunk layout the core count picks starts its chunks on multiples of 16
# windows, which keeps each window's bits.
BIT_FIELDS = ("numpy", "blas_name", "blas_version", "blas_threads")


@pytest.fixture(scope="module")
def golden():
    return json.loads(make_goldens.GOLDENS.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def fresh():
    return make_goldens.pinned_record()


def mismatches(fresh, golden):
    have, want = fresh["environment"], golden["environment"]
    return [
        f"{k} {want.get(k)!r} in the goldens, {have.get(k)!r} here" for k in BIT_FIELDS if have.get(k) != want.get(k)
    ]


def hashes(record):
    out = {f"runs.{name}.{file}": h for name, run in record["runs"].items() for file, h in run["sha256"].items()}
    for part in ("lstm", "arima"):
        out.update({f"{part}.{name}": h for name, h in record[part]["sha256"].items()})
    return out


def floats(record):
    out = {f"runs.{name}.test_rmse": run["test_rmse"] for name, run in record["runs"].items()}
    out["lstm.test_rmse"] = record["lstm"]["test_rmse"]
    out["arima.rmse"] = record["arima"]["rmse"]
    return out


def test_the_record_covers_what_the_goldens_hold(fresh, golden):
    assert hashes(fresh).keys() == hashes(golden).keys()
    assert floats(fresh).keys() == floats(golden).keys()
    assert fresh["arima"]["windows"] == golden["arima"]["windows"] == 933


def test_floats_match_the_goldens(fresh, golden):
    got, want = floats(fresh), floats(golden)
    if mismatches(fresh, golden):
        for key, value in want.items():
            assert math.isclose(float(got[key]), float(value), rel_tol=1e-9, abs_tol=0.0), key
    else:
        assert got == want


def test_hashes_match_the_goldens(fresh, golden):
    reasons = mismatches(fresh, golden)
    if reasons:
        pytest.skip("environment differs from the goldens': " + "; ".join(reasons))
    assert hashes(fresh) == hashes(golden)
