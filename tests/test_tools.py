"""The digest tools that bit-for-bit claims rest on: each gives the same
digest twice, and ``tools/train_digest.py`` computes what the benchmark's
``train`` workload runs, so a change to the benchmark cannot leave the tool
behind."""

import hashlib
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tools():
    """The two tools, loaded by path, and the benchmark's workloads.  A tool
    puts the repository on ``sys.path`` and pins the BLAS thread count in the
    environment when loaded; both are undone after this module's tests."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sys, "path", list(sys.path))
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            patch.setenv(var, "1")
        loaded = {name: _load(name) for name in ("decode_digest", "train_digest")}
        loaded["workloads"] = importlib.import_module("perfbench.workloads")
        loaded["calibration"] = importlib.import_module("perfbench.calibration")
        yield loaded


def test_digests_are_deterministic(tools):
    decode = tools["decode_digest"].digests(9601, 10)
    assert set(decode) == {"greedy", "beam5"}
    assert tools["decode_digest"].digests(9601, 10) == decode
    train = tools["train_digest"].digests(2301, 3)
    assert set(train) == {"loss_sum", "params", "next_draw"}
    assert tools["train_digest"].digests(2301, 3) == train


def test_train_digest_matches_the_train_workload(tools, tmp_path):
    no_calibration = tools["calibration"].NoCalibration()
    work = tools["workloads"].Train(no_calibration)
    work.setup(2301, tmp_path, tools["calibration"].LapTimer(no_calibration))
    total = 0.0
    for k in range(3):
        total += work.run_unit(k).output
    params = hashlib.sha256()
    for name, value in work.model.store.value_arrays().items():
        params.update(name.encode())
        params.update(value.tobytes())
    assert tools["train_digest"].digests(2301, 3) == {
        "loss_sum": repr(total),
        "params": params.hexdigest(),
        "next_draw": repr(work.rng.random()),
    }
