"""SEM checkpointing: save/load, crash recovery, atomicity, legacy
formats and malformed input."""

import json
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ConvergenceCriteria, knors
from repro.core import init_centroids
from repro.drivers.common import NumericsLoop
from repro.errors import (
    ConfigError,
    CorruptionError,
    IoSubsystemError,
    KnorError,
)
from repro.runtime import KmeansMM, run_mm_sem
from repro.sem.checkpoint import (
    CheckpointState,
    has_checkpoint,
    load_checkpoint,
    save_checkpoint,
)


def make_state(it=3):
    rng = np.random.default_rng(0)
    return CheckpointState(
        iteration=it,
        algorithm="kmeans",
        arrays={
            "centroids": rng.normal(size=(4, 3)),
            "prev_centroids": rng.normal(size=(4, 3)),
            "assignment": rng.integers(0, 4, 100).astype(np.int32),
            "ub": rng.random(100),
            "sums": rng.normal(size=(4, 3)),
            "counts": rng.integers(1, 50, 4).astype(np.int64),
        },
        scalars={},
        n_changed=17,
        params={"n": 100, "d": 3, "k": 4, "pruning": "mti"},
    )


class TestCheckpointFiles:
    def test_roundtrip(self, tmp_path):
        state = make_state()
        save_checkpoint(tmp_path, state)
        assert has_checkpoint(tmp_path)
        back = load_checkpoint(tmp_path)
        assert back.iteration == 3
        assert back.n_changed == 17
        assert back.algorithm == "kmeans"
        for name in ("centroids", "assignment", "ub"):
            np.testing.assert_array_equal(
                back.arrays[name], state.arrays[name]
            )
        assert back.params["pruning"] == "mti"

    def test_unpruned_state_has_no_bounds(self, tmp_path):
        state = make_state()
        for name in ("ub", "sums", "counts"):
            del state.arrays[name]
        save_checkpoint(tmp_path, state)
        back = load_checkpoint(tmp_path)
        assert set(back.arrays) == {
            "centroids", "prev_centroids", "assignment",
        }

    def test_overwrite_keeps_latest(self, tmp_path):
        save_checkpoint(tmp_path, make_state(it=3))
        save_checkpoint(tmp_path, make_state(it=7))
        assert load_checkpoint(tmp_path).iteration == 7

    def test_missing_raises(self, tmp_path):
        assert not has_checkpoint(tmp_path)
        with pytest.raises(IoSubsystemError):
            load_checkpoint(tmp_path)

    def test_corrupt_manifest_raises(self, tmp_path):
        save_checkpoint(tmp_path, make_state())
        (tmp_path / "checkpoint.json").write_text("{not json")
        with pytest.raises(IoSubsystemError):
            load_checkpoint(tmp_path)

    def test_wrong_version_raises(self, tmp_path):
        save_checkpoint(tmp_path, make_state())
        m = json.loads((tmp_path / "checkpoint.json").read_text())
        m["format_version"] = 99
        (tmp_path / "checkpoint.json").write_text(json.dumps(m))
        with pytest.raises(IoSubsystemError):
            load_checkpoint(tmp_path)

    def test_no_tmp_files_left(self, tmp_path):
        save_checkpoint(tmp_path, make_state())
        assert not list(tmp_path.glob("*.tmp"))

    def test_roundtrip_preserves_dtypes_and_shapes(self, tmp_path):
        state = make_state()
        save_checkpoint(tmp_path, state)
        back = load_checkpoint(tmp_path)
        assert list(back.arrays) == list(state.arrays)
        for name, want in state.arrays.items():
            got = back.arrays[name]
            assert got.dtype == want.dtype, name
            assert got.shape == want.shape, name

    def test_no_ub_but_sums_roundtrip(self, tmp_path):
        """Pruning state without bounds (the v1 format conflated
        has_ub with has_sums and silently dropped this case)."""
        state = make_state()
        del state.arrays["ub"]
        save_checkpoint(tmp_path, state)
        back = load_checkpoint(tmp_path)
        assert "ub" not in back.arrays
        for name in ("sums", "counts"):
            np.testing.assert_array_equal(
                back.arrays[name], state.arrays[name]
            )
        assert back.arrays["counts"].dtype == np.int64

    def test_ub_without_sums_roundtrip(self, tmp_path):
        state = make_state()
        del state.arrays["sums"], state.arrays["counts"]
        save_checkpoint(tmp_path, state)
        back = load_checkpoint(tmp_path)
        np.testing.assert_array_equal(
            back.arrays["ub"], state.arrays["ub"]
        )
        assert "sums" not in back.arrays and "counts" not in back.arrays

    @pytest.mark.parametrize("drop", ["sums", "counts"])
    def test_sums_counts_must_travel_together(self, overlapping, drop):
        """An MTI restore needs the bounds *and* the persistent
        sums/counts; a snapshot missing one fails typed, naming it."""
        c0 = init_centroids(overlapping, 4, "random", seed=0)
        loop = NumericsLoop(overlapping, c0, "mti")
        loop.step()
        snap = loop.export_state()
        del snap[drop]
        with pytest.raises(ConfigError, match=drop):
            NumericsLoop(overlapping, c0, "mti").restore_state(snap)

    def test_v1_checkpoint_still_loads(self, tmp_path):
        """Back-compat: the single-npz version-1 layout."""
        state = make_state()
        np.savez(tmp_path / "checkpoint.npz", **state.arrays)
        (tmp_path / "checkpoint.json").write_text(json.dumps({
            "format_version": 1,
            "iteration": state.iteration,
            "n_changed": state.n_changed,
            "has_pruning_state": True,
            "params": state.params,
        }))
        assert has_checkpoint(tmp_path)
        back = load_checkpoint(tmp_path)
        assert back.iteration == state.iteration
        assert back.algorithm == "kmeans"
        for name in ("ub", "sums"):
            np.testing.assert_array_equal(
                back.arrays[name], state.arrays[name]
            )

    def test_old_arrays_collected_after_save(self, tmp_path):
        save_checkpoint(tmp_path, make_state(it=3))
        save_checkpoint(tmp_path, make_state(it=7))
        npz = list(tmp_path.glob("checkpoint-*.npz"))
        assert len(npz) == 1


class TestMidSaveCrashes:
    """A crash at any stage of the save protocol must leave a
    loadable checkpoint directory (satellite of the fault layer; the
    crash points are driven by FaultPlan in the integration tests and
    exercised directly here)."""

    @pytest.mark.parametrize(
        "crash_point", ["arrays-written", "manifest-tmp-written"]
    )
    def test_pre_commit_crash_keeps_previous(self, tmp_path, crash_point):
        from repro.errors import WorkerCrashError

        save_checkpoint(tmp_path, make_state(it=3))
        with pytest.raises(WorkerCrashError):
            save_checkpoint(
                tmp_path, make_state(it=7), crash_point=crash_point
            )
        assert has_checkpoint(tmp_path)
        back = load_checkpoint(tmp_path)
        assert back.iteration == 3
        np.testing.assert_array_equal(
            back.arrays["centroids"], make_state(it=3).arrays["centroids"]
        )

    def test_post_commit_crash_keeps_new(self, tmp_path):
        from repro.errors import WorkerCrashError

        save_checkpoint(tmp_path, make_state(it=3))
        with pytest.raises(WorkerCrashError):
            save_checkpoint(
                tmp_path, make_state(it=7),
                crash_point="committed-no-gc",
            )
        assert load_checkpoint(tmp_path).iteration == 7

    def test_crash_on_first_save_leaves_no_checkpoint(self, tmp_path):
        from repro.errors import WorkerCrashError

        with pytest.raises(WorkerCrashError):
            save_checkpoint(
                tmp_path, make_state(it=3),
                crash_point="arrays-written",
            )
        assert not has_checkpoint(tmp_path)
        with pytest.raises(IoSubsystemError):
            load_checkpoint(tmp_path)

    def test_next_save_collects_crash_leftovers(self, tmp_path):
        from repro.errors import WorkerCrashError

        save_checkpoint(tmp_path, make_state(it=3))
        with pytest.raises(WorkerCrashError):
            save_checkpoint(
                tmp_path, make_state(it=5),
                crash_point="arrays-written",
            )
        save_checkpoint(tmp_path, make_state(it=7))
        assert load_checkpoint(tmp_path).iteration == 7
        assert len(list(tmp_path.glob("checkpoint-*.npz"))) == 1
        assert not list(tmp_path.glob("*.tmp"))


class TestKnorsRecovery:
    @pytest.mark.parametrize("pruning", ["mti", None])
    def test_crash_and_resume_matches_uninterrupted(
        self, matrix_path, overlapping, tmp_path, pruning
    ):
        """Kill the run at iteration 4, resume, and land on the exact
        same final clustering as an uninterrupted run."""
        c0 = init_centroids(overlapping, 6, "random", seed=3)
        ckpt = tmp_path / "ckpt"
        full = knors(matrix_path, 6, init=c0, pruning=pruning)

        # "Crash": cap at 4 iterations, checkpointing every 2.
        knors(
            matrix_path, 6, init=c0, pruning=pruning,
            checkpoint_dir=ckpt, checkpoint_interval=2,
            criteria=ConvergenceCriteria(max_iters=4),
        )
        assert has_checkpoint(ckpt)
        assert load_checkpoint(ckpt).iteration == 4

        resumed = knors(
            matrix_path, 6, init=c0, pruning=pruning,
            checkpoint_dir=ckpt, checkpoint_interval=2, resume=True,
        )
        np.testing.assert_array_equal(
            resumed.assignment, full.assignment
        )
        np.testing.assert_allclose(
            resumed.centroids, full.centroids, atol=1e-9
        )
        # The resumed run only performed the remaining iterations.
        assert resumed.iterations == full.iterations - 4

    def test_resume_without_checkpoint_starts_fresh(
        self, matrix_path, overlapping, tmp_path
    ):
        c0 = init_centroids(overlapping, 4, "random", seed=1)
        res = knors(
            matrix_path, 4, init=c0,
            checkpoint_dir=tmp_path / "empty", resume=True,
            criteria=ConvergenceCriteria(max_iters=5),
        )
        assert res.iterations == 5 or res.converged

    def test_checkpoint_written_at_interval(
        self, matrix_path, overlapping, tmp_path
    ):
        c0 = init_centroids(overlapping, 4, "random", seed=1)
        ckpt = tmp_path / "c"
        knors(
            matrix_path, 4, init=c0, checkpoint_dir=ckpt,
            checkpoint_interval=3,
            criteria=ConvergenceCriteria(max_iters=7),
        )
        state = load_checkpoint(ckpt)
        assert state.iteration in (3, 6)


# ---------------------------------------------------------------------------
# Legacy formats and malformed input


def write_version(directory, version, state=None):
    """Write ``state`` as a format-``version`` (1-4) checkpoint.

    v4 is the writer's own output. The arrays file layout is unchanged
    since v2, so v3/v2 only rewrite the manifest, and v1 also renames
    the arrays file to the single ``checkpoint.npz``.
    """
    state = state or make_state()
    save_checkpoint(directory, state)
    if version == 4:
        return
    path = directory / "checkpoint.json"
    m = json.loads(path.read_text())
    legacy = {
        "format_version": version,
        "iteration": m["iteration"],
        "n_changed": m["n_changed"],
        "params": m["params"],
    }
    if version == 1:
        (directory / m["arrays"]).rename(directory / "checkpoint.npz")
        legacy["has_pruning_state"] = "ub" in state.arrays
    else:
        legacy.update(
            seq=m["seq"], arrays=m["arrays"],
            has_ub="ub" in state.arrays, has_sums="sums" in state.arrays,
        )
    if version == 3:
        legacy.update(
            file_crc32=m["file_crc32"], array_crc32=m["array_crc32"]
        )
    path.write_text(json.dumps(legacy))


def arrays_file(directory):
    m = json.loads((directory / "checkpoint.json").read_text())
    return directory / m.get("arrays", "checkpoint.npz")


def _manifest_bytes(raw):
    def mutate(directory):
        (directory / "checkpoint.json").write_bytes(raw)
    return mutate


def _edit(key, value=None, *, drop=False):
    def mutate(directory):
        path = directory / "checkpoint.json"
        m = json.loads(path.read_text())
        if drop:
            del m[key]
        else:
            m[key] = value
        path.write_text(json.dumps(m))
    return mutate


def _truncate_arrays(directory):
    path = arrays_file(directory)
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


def _drop_ub_array(directory):
    path = arrays_file(directory)
    with np.load(path) as data:
        kept = {name: data[name] for name in data.files if name != "ub"}
    np.savez(path, **kept)


_MALFORMED = [
    ("invalid-utf8", 4,
     _manifest_bytes(b'{"format_version": 4, "x": "\xff"}'), "manifest"),
    ("json-list-v3", 3, _manifest_bytes(b"[3, 4]"), "manifest"),
    ("json-list-v4", 4, _manifest_bytes(b"[3, 4]"), "manifest"),
    *[
        (f"missing-{key}-v{version}", version, _edit(key, drop=True), key)
        for version in (3, 4)
        for key in ("iteration", "array_crc32", "file_crc32",
                    "n_changed", "params")
    ],
    ("missing-has_ub-v3", 3, _edit("has_ub", drop=True), "has_ub"),
    ("missing-has_sums-v2", 2, _edit("has_sums", drop=True), "has_sums"),
    ("missing-algorithm-v4", 4, _edit("algorithm", drop=True),
     "algorithm"),
    ("iteration-str-v3", 3, _edit("iteration", "x"), "iteration"),
    ("iteration-str-v4", 4, _edit("iteration", "x"), "iteration"),
    ("truncated-v1", 1, _truncate_arrays, "checkpoint.npz"),
    ("truncated-v2", 2, _truncate_arrays, "checkpoint-"),
    ("has_ub-no-ub-v1", 1, _drop_ub_array, "ub"),
    ("has_ub-no-ub-v2", 2, _drop_ub_array, "ub"),
    ("scalars-list-v4", 4, _edit("scalars", [1, 2]), "scalars"),
    ("crc-str-v4", 4,
     _edit("array_crc32", {"centroids": "x"}), "centroids"),
]


class TestMalformedCheckpoints:
    """Every malformed input fails typed (IoSubsystemError for the
    manifest, CorruptionError for the arrays), naming the directory
    and the bad key or array; ``has_checkpoint`` never raises."""

    @pytest.mark.parametrize(
        "version,mutate,names",
        [case[1:] for case in _MALFORMED],
        ids=[case[0] for case in _MALFORMED],
    )
    def test_fails_typed_naming_the_input(
        self, tmp_path, version, mutate, names
    ):
        write_version(tmp_path, version)
        mutate(tmp_path)
        assert isinstance(has_checkpoint(tmp_path), bool)
        with pytest.raises((IoSubsystemError, CorruptionError)) as err:
            load_checkpoint(tmp_path)
        assert str(tmp_path) in str(err.value)
        assert names in str(err.value)

    def test_non_object_manifest_is_no_checkpoint(self, tmp_path):
        write_version(tmp_path, 4)
        (tmp_path / "checkpoint.json").write_text("[3, 4]")
        assert has_checkpoint(tmp_path) is False

    @pytest.mark.parametrize("version", [1, 2, 3, 4])
    def test_every_version_loads(self, tmp_path, version):
        state = make_state()
        write_version(tmp_path, version, state)
        back = load_checkpoint(tmp_path)
        assert (back.iteration, back.algorithm) == (3, "kmeans")
        assert list(back.arrays) == list(state.arrays)
        for name, want in state.arrays.items():
            np.testing.assert_array_equal(back.arrays[name], want)


# Any JSON value a manifest key could be retyped to, or deleted.
_DELETE = object()
_JSON_VALUES = st.one_of(
    st.just(_DELETE), st.none(), st.booleans(), st.integers(),
    st.floats(allow_nan=True), st.text(max_size=6),
    st.lists(st.integers(), max_size=3),
    st.dictionaries(st.text(max_size=4), st.integers(), max_size=3),
)


def _load_typed(directory):
    """Load, letting only KnorError subclasses escape."""
    assert isinstance(has_checkpoint(directory), bool)
    try:
        load_checkpoint(directory)
    except KnorError:
        pass


class TestLoaderFuzz:
    """ROADMAP item 4: random damage to v1-v4 checkpoints never makes
    the loader raise anything but a KnorError, and a damaged v3/v4
    arrays file is always caught by its CRC32."""

    @settings(max_examples=200, deadline=None)
    @given(
        version=st.integers(1, 4),
        target=st.sampled_from(["manifest", "arrays"]),
        truncate=st.booleans(),
        where=st.floats(0.0, 1.0, exclude_max=True),
        bit=st.integers(0, 7),
    )
    def test_byte_damage(self, version, target, truncate, where, bit):
        with tempfile.TemporaryDirectory() as tmp:
            directory = Path(tmp)
            write_version(directory, version)
            path = (
                directory / "checkpoint.json"
                if target == "manifest"
                else arrays_file(directory)
            )
            raw = bytearray(path.read_bytes())
            at = int(where * len(raw))
            if truncate:
                del raw[at:]
            else:
                raw[at] ^= 1 << bit
            path.write_bytes(bytes(raw))
            if target == "arrays" and version >= 3:
                with pytest.raises(CorruptionError):
                    load_checkpoint(directory)
            else:
                _load_typed(directory)

    @settings(max_examples=200, deadline=None)
    @given(version=st.integers(1, 4), data=st.data(), value=_JSON_VALUES)
    def test_key_deleted_or_retyped(self, version, data, value):
        with tempfile.TemporaryDirectory() as tmp:
            directory = Path(tmp)
            write_version(directory, version)
            path = directory / "checkpoint.json"
            manifest = json.loads(path.read_text())
            key = data.draw(st.sampled_from(sorted(manifest)))
            if value is _DELETE:
                del manifest[key]
            else:
                manifest[key] = value
            path.write_text(json.dumps(manifest))
            _load_typed(directory)


#: A format-v3 checkpoint written by the last v3 writer: iteration 4 of
#: ``knors(fixture_data(), 5, init="random", seed=1)`` with
#: ``checkpoint_interval=2`` (pruning "mti", so it carries ub, sums and
#: counts).
V3_FIXTURE = Path(__file__).parent / "data" / "knors_v3_checkpoint"


def fixture_data():
    """The 240 x 3 dataset the v3 fixture was written on."""
    rng = np.random.default_rng(20170626)
    centers = rng.random((5, 3)) * 6.0
    return np.repeat(centers, 48, axis=0) + rng.random((240, 3)) * 4.0


class TestCrossFormatResume:
    """knors resumes bit-identically from every checkpoint it can
    meet: the committed v3 fixture, a v2 derived from it, and a v4
    written by ``run_mm_sem(KmeansMM(...))``."""

    KW = dict(init="random", seed=1)
    STOP = ConvergenceCriteria(max_iters=4)

    @pytest.fixture(scope="class")
    def x(self):
        return fixture_data()

    @pytest.fixture(scope="class")
    def full(self, x):
        return knors(x, 5, **self.KW)

    @pytest.fixture(scope="class")
    def fresh_resume(self, x, tmp_path_factory):
        """Stop at iteration 4 under today's writer, then resume."""
        ckpt = tmp_path_factory.mktemp("fresh")
        knors(x, 5, checkpoint_dir=ckpt, checkpoint_interval=2,
              criteria=self.STOP, **self.KW)
        return knors(x, 5, checkpoint_dir=ckpt, resume=True, **self.KW)

    def _assert_resumed(self, resumed, full, fresh):
        np.testing.assert_array_equal(resumed.assignment, full.assignment)
        np.testing.assert_array_equal(resumed.centroids, full.centroids)
        assert resumed.iterations == full.iterations - 4
        np.testing.assert_array_equal(resumed.centroids, fresh.centroids)
        assert resumed.iterations == fresh.iterations
        assert resumed.sim_seconds == fresh.sim_seconds

    def test_knors_writes_v4_kmeans(self, x, tmp_path):
        knors(x, 5, checkpoint_dir=tmp_path, checkpoint_interval=2,
              criteria=self.STOP, **self.KW)
        m = json.loads((tmp_path / "checkpoint.json").read_text())
        assert m["format_version"] == 4
        assert m["algorithm"] == "kmeans"
        assert set(m["array_crc32"]) == {
            "centroids", "prev_centroids", "assignment",
            "ub", "sums", "counts",
        }

    def test_v3_fixture_resumes(self, x, full, fresh_resume, tmp_path):
        ckpt = tmp_path / "v3"
        shutil.copytree(V3_FIXTURE, ckpt)
        m = json.loads((ckpt / "checkpoint.json").read_text())
        assert m["format_version"] == 3
        resumed = knors(x, 5, checkpoint_dir=ckpt, resume=True, **self.KW)
        self._assert_resumed(resumed, full, fresh_resume)

    def test_v2_from_fixture_resumes(self, x, full, fresh_resume, tmp_path):
        ckpt = tmp_path / "v2"
        shutil.copytree(V3_FIXTURE, ckpt)
        path = ckpt / "checkpoint.json"
        m = json.loads(path.read_text())
        del m["file_crc32"], m["array_crc32"]
        m["format_version"] = 2
        path.write_text(json.dumps(m))
        resumed = knors(x, 5, checkpoint_dir=ckpt, resume=True, **self.KW)
        self._assert_resumed(resumed, full, fresh_resume)

    def test_resume_from_kmeans_mm_checkpoint(
        self, x, full, fresh_resume, tmp_path
    ):
        run_mm_sem(
            KmeansMM(x, 5, pruning="mti", criteria=self.STOP, **self.KW),
            checkpoint_dir=tmp_path, checkpoint_interval=2,
        )
        resumed = knors(
            x, 5, checkpoint_dir=tmp_path, resume=True, **self.KW
        )
        self._assert_resumed(resumed, full, fresh_resume)
