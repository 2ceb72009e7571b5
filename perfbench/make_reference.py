"""Regenerate ``reference.json``: the per-epoch composite training loss of
each train workload at the default seed, which default-seed benchmark
runs are checked against.  Only rerun it when the model's maths changes
on purpose.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 perfbench/make_reference.py
"""

import json
import tempfile

from fuzzformer import training

from workloads import DEFAULT_SEED, EPOCH_CAP, REFERENCE_PATH, WORKLOADS, build_dataset, run_config


def main():
    reference = {}
    for workload in (w for w in WORKLOADS if w.endswith("-train")):
        cfg = run_config(workload, DEFAULT_SEED, EPOCH_CAP)
        with tempfile.TemporaryDirectory() as out_dir:
            result = training.train(cfg, build_dataset(DEFAULT_SEED), out_dir, log=print)
        reference[workload] = {
            "seed": DEFAULT_SEED,
            "composite": [rec["composite"] for rec in result.history],
        }
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
