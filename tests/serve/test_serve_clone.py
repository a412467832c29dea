"""``clone_model`` (the in-memory codec round trip) equals a disk snapshot round trip.

Refit policies clone the served model with :func:`repro.serve.snapshot.roundtrip`
instead of writing a snapshot and loading it back.  For CND-IDS and every
detector the serving CLI offers, the in-memory clone must be the object
``load_snapshot(save_snapshot(model))`` would give: the same attribute types
and order, array dtypes and memory layout, generator states and scores, both
as cloned and after one more round of training.  It must also share no array,
instance or generator with the original.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.model import CNDIDS
from repro.novelty import HBOS
from repro.serve.cli import DETECTOR_FACTORIES
from repro.serve.lifecycle.policy import clone_model
from repro.serve.snapshot import SnapshotError, load_snapshot, roundtrip, save_snapshot


def _disk_clone(model, tmp_path):
    return load_snapshot(save_snapshot(model, tmp_path / "snapshot"))


def _assert_same_graph(memory, disk) -> None:
    """Walk both object graphs in step and require identical types and values."""
    seen: set[int] = set()

    def walk(a, b, path: str) -> None:
        assert type(a) is type(b), f"{path}: {type(a).__name__} != {type(b).__name__}"
        if id(a) in seen:
            return
        seen.add(id(a))
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype, path
            assert a.shape == b.shape, path
            assert a.flags.c_contiguous == b.flags.c_contiguous, path
            assert a.flags.f_contiguous == b.flags.f_contiguous, path
            assert a.flags.writeable and b.flags.writeable, path
            np.testing.assert_array_equal(a, b, err_msg=path)
        elif isinstance(a, np.random.Generator):
            assert a.bit_generator.state == b.bit_generator.state, path
        elif isinstance(a, (list, tuple)):
            assert len(a) == len(b), path
            for i, (x, y) in enumerate(zip(a, b)):
                walk(x, y, f"{path}[{i}]")
        elif isinstance(a, dict):
            assert list(a) == list(b), path
            for key in a:
                walk(a[key], b[key], f"{path}[{key!r}]")
        elif type(a).__module__.startswith("repro."):
            assert list(vars(a)) == list(vars(b)), path
            for name in vars(a):
                walk(vars(a)[name], vars(b)[name], f"{path}.{name}")
        else:
            assert a == b or (a != a and b != b), path

    walk(memory, disk, "model")


def _mutable_parts(model) -> tuple[list[np.ndarray], set[int]]:
    """Every ndarray, and the ids of every instance and generator, reachable from ``model``."""
    arrays: list[np.ndarray] = []
    objects: set[int] = set()
    stack = [model]
    while stack:
        value = stack.pop()
        if isinstance(value, np.ndarray):
            arrays.append(value)
        elif isinstance(value, (list, tuple)):
            stack.extend(value)
        elif isinstance(value, dict):
            stack.extend(value.values())
        elif isinstance(value, np.random.Generator) or type(value).__module__.startswith(
            "repro."
        ):
            if id(value) not in objects:
                objects.add(id(value))
                stack.extend(getattr(value, "__dict__", {}).values())
    return arrays, objects


def _assert_shares_nothing(clone, original) -> None:
    clone_arrays, clone_objects = _mutable_parts(clone)
    original_arrays, original_objects = _mutable_parts(original)
    assert clone_arrays and not clone_objects & original_objects
    for a in clone_arrays:
        for b in original_arrays:
            assert not np.may_share_memory(a, b)


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(21)
    X_train = rng.normal(size=(300, 6))
    X_more = rng.normal(0.5, 1.2, size=(240, 6))
    X_query = np.vstack([rng.normal(size=(60, 6)), rng.normal(5.0, 1.0, size=(30, 6))])
    return X_train, X_more, X_query


@pytest.fixture(scope="module")
def cndids(tiny_scenario):
    model = CNDIDS(tiny_scenario.n_features, epochs=2, random_state=3)
    model.setup(tiny_scenario.clean_normal)
    model.fit_experience(tiny_scenario[0].X_train)
    return model


class TestCNDIDSClone:
    def test_matches_disk_round_trip(self, cndids, tmp_path):
        _assert_same_graph(clone_model(cndids), _disk_clone(cndids, tmp_path))

    def test_scores_match_before_and_after_training(self, cndids, tiny_scenario, tmp_path):
        memory, disk = clone_model(cndids), _disk_clone(cndids, tmp_path)
        X_test = tiny_scenario[1].X_test
        expected = cndids.score_samples(X_test)
        np.testing.assert_array_equal(memory.score_samples(X_test), expected)
        np.testing.assert_array_equal(disk.score_samples(X_test), expected)
        for model in (memory, disk):
            model.fit_experience(tiny_scenario[1].X_train)
        np.testing.assert_array_equal(memory.score_samples(X_test), disk.score_samples(X_test))
        _assert_same_graph(memory, disk)
        # Training the clone left the original untouched.
        np.testing.assert_array_equal(cndids.score_samples(X_test), expected)

    def test_shares_nothing_with_the_original(self, cndids):
        _assert_shares_nothing(clone_model(cndids), cndids)


class TestDetectorClones:
    @pytest.mark.parametrize("name", sorted(DETECTOR_FACTORIES))
    def test_matches_disk_round_trip(self, name, data, tmp_path):
        X_train, X_more, X_query = data
        detector = DETECTOR_FACTORIES[name]().fit(X_train)
        memory, disk = roundtrip(detector), _disk_clone(detector, tmp_path)
        _assert_same_graph(memory, disk)
        _assert_shares_nothing(memory, detector)
        expected = detector.score_samples(X_query)
        np.testing.assert_array_equal(memory.score_samples(X_query), expected)
        np.testing.assert_array_equal(disk.score_samples(X_query), expected)
        memory.fit(X_more)
        disk.fit(X_more)
        np.testing.assert_array_equal(memory.score_samples(X_query), disk.score_samples(X_query))
        _assert_same_graph(memory, disk)


class TestCodecNormalisation:
    def test_numpy_scalars_come_back_as_from_disk(self, data, tmp_path):
        detector = HBOS(n_bins=10).fit(data[0])
        detector.threshold_ = np.float64(detector.threshold_)  # a float subclass
        detector.extra_scale = np.float32(0.5)
        detector.extra_count = np.int64(3)
        memory, disk = roundtrip(detector), _disk_clone(detector, tmp_path)
        _assert_same_graph(memory, disk)
        assert type(memory.threshold_) is float
        assert type(memory.extra_scale) is np.float32
        assert type(memory.extra_count) is np.int64

    def test_array_layout_follows_the_npz(self, data, tmp_path):
        detector = HBOS(n_bins=10).fit(data[0])
        base = np.arange(24.0).reshape(4, 6)
        detector.fortran = np.asfortranarray(base)
        detector.strided = base[:, ::2]
        detector.shared_a = detector.shared_b = base.copy()
        memory, disk = roundtrip(detector), _disk_clone(detector, tmp_path)
        _assert_same_graph(memory, disk)
        assert memory.fortran.flags.f_contiguous and not memory.fortran.flags.c_contiguous
        assert memory.strided.flags.c_contiguous
        assert memory.shared_a is memory.shared_b

    def test_unserializable_state_is_refused(self, data):
        detector = HBOS(n_bins=10).fit(data[0])
        detector.callback = print
        with pytest.raises(SnapshotError, match="callback"):
            roundtrip(detector)
