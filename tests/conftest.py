"""Shared fixtures.

The thread caps must land in the environment before numpy's first import
anywhere in the test session, so they are set at conftest import time.
Everything heavy (meshes, offline artifact directories) is session-scoped
and built lazily on first use.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from rb_operon.examples import build_problem, example_spec
from rb_operon.pipeline import apply_overrides

TINY1 = {"h": 1.0 / 12.0, "n_pool": 24, "n_train": 16, "n_val": 8,
         "n_test": 8, "greedy_fixed_n": 2, "pod_fixed_n": 2}
TINY2 = {"n": 8, "n_pool": 24, "sweep_subset": 24, "greedy_fixed_n": 8,
         "r_f_max": 6, "r_g_max": 3, "n_train": 16, "n_val": 8, "n_test": 8}
TINY3 = {"h": 1.0 / 12.0, "n_pool": 24, "n_train": 16, "n_val": 8,
         "n_test": 8, "greedy_fixed_n": 3, "pod_fixed_n": 3,
         "eim_q": 8, "eim_train": 48}


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(123)


@pytest.fixture(scope="session")
def tiny_problem1():
    """Coarse inclusion benchmark, cheap enough for per-module tests."""
    spec = apply_overrides(example_spec(1), TINY1)
    return build_problem(spec)


@pytest.fixture(scope="session")
def tiny_problem2():
    spec = apply_overrides(example_spec(2), {"n": 8, "n_pool": 16,
                                             "n_train": 24, "n_val": 8,
                                             "n_test": 8})
    return build_problem(spec)


@pytest.fixture(scope="session")
def tiny_problem3():
    spec = apply_overrides(example_spec(3), TINY3)
    return build_problem(spec)


@pytest.fixture(scope="session")
def tiny1_dir(tmp_path_factory):
    """Finished offline stage of the coarse inclusion benchmark."""
    from rb_operon.pipeline import run_offline

    out = tmp_path_factory.mktemp("tiny1")
    return str(run_offline(1, str(out), seed=0, pod=True,
                           overrides=TINY1).path)


@pytest.fixture(scope="session")
def tiny2_dir(tmp_path_factory):
    """Finished greedy-only offline stage of the coarse data benchmark."""
    from rb_operon.pipeline import run_offline

    out = tmp_path_factory.mktemp("tiny2")
    return str(run_offline(2, str(out), seed=0, pod=False,
                           overrides=TINY2).path)


@pytest.fixture(scope="session")
def tiny3_dir(tmp_path_factory):
    """Finished greedy-only offline stage of the coarse radius benchmark."""
    from rb_operon.pipeline import run_offline

    out = tmp_path_factory.mktemp("tiny3")
    return str(run_offline(3, str(out), seed=0, pod=False,
                           overrides=TINY3).path)
