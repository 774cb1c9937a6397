"""Lifecycle suite for :mod:`repro.utils.segment`, over both backings.

Every shared-array publication (CSR graphs, the fleet table store, the
distance store) rides on one segment primitive, so its contract is
pinned once here, parametrised over ``shm`` and ``file``: byte-identical
round trips, write-protected 8-aligned views, stale generations and
foreign bytes rejected, attach-after-unlink is ``FileNotFoundError``
(the fleet's respawn race relies on it), attachments outlive the
creator's unlink, ``release()`` is idempotent, nothing leaks.  On top:
the commit protocol seen through the distance store (a killed build
never leaves a torn file), its per-row structural check at attach, and
mapping lifetimes (attachments unmap when dropped; the attach cache is
bounded).
"""

from __future__ import annotations

import dataclasses
import os
import sys
from multiprocessing import shared_memory
from pathlib import Path

import numpy as np
import pytest

from repro.faults import FaultInjected, FaultPlan, FaultSpec
from repro.graph.core import Graph
from repro.graph.distance_store import attach_distance_store, build_distance_store
from repro.serve.fleet.store import attach_tables, publish_tables
from repro.serve.tables import EstimatorTable, log_spaced_sizes
from repro.topology.kary import kary_tree
from repro.topology.powerlaw import as_like_graph
from repro.utils import segment

SHM_DIR = Path("/dev/shm")

ARRAYS = {
    "ints": np.arange(10, dtype=np.int64),
    "grid": np.arange(12, dtype=np.int32).reshape(3, 4),
    "floats": np.linspace(0.0, 1.0, 5),
    "bytes": np.arange(3, dtype=np.uint8),
    "empty": np.empty(0, dtype=np.int32),
}


@pytest.fixture(params=["shm", "file"])
def backing(request):
    return request.param


def _publish(backing, tmp_path, **kwargs):
    path = str(tmp_path / "seg.bin") if backing == "file" else None
    return segment.publish(ARRAYS, path=path, **kwargs)


def _shm_entries() -> set:
    if not SHM_DIR.is_dir():  # pragma: no cover - non-Linux
        return set()
    return {p.name for p in SHM_DIR.glob("psm_*")}


def _mappings(fragment: str) -> int:
    with open("/proc/self/maps") as fh:
        return sum(1 for line in fh if fragment in line)


class TestRoundTrip:
    def test_roundtrip_is_byte_identical(self, backing, tmp_path):
        handle = _publish(
            backing, tmp_path, generation=4, fingerprint="abc", meta={"k": [1, "x"]}
        )
        try:
            attached = segment.attach(handle.descriptor)
            assert attached.descriptor == handle.descriptor
            assert attached.descriptor.backing == backing
            assert attached.meta == {"k": [1, "x"]}
            assert set(attached.arrays) == set(ARRAYS)
            for name, original in ARRAYS.items():
                view = attached.arrays[name]
                assert view.dtype == original.dtype
                assert view.shape == original.shape
                assert view.tobytes() == original.tobytes()
        finally:
            handle.release()

    def test_views_are_write_protected_aligned_and_zero_copy(
        self, backing, tmp_path
    ):
        handle = _publish(backing, tmp_path)
        try:
            arrays = segment.attach(handle.descriptor).arrays
            for name, view in arrays.items():
                assert not view.flags.writeable
                assert view.base is not None
                assert view.ctypes.data % 8 == 0, name
            with pytest.raises(ValueError, match="read-only"):
                arrays["ints"][0] = 99
        finally:
            handle.release()


class TestAttachChecks:
    def test_stale_generation_is_rejected(self, backing, tmp_path):
        handle = _publish(backing, tmp_path, generation=2)
        try:
            stale = dataclasses.replace(handle.descriptor, generation=7)
            with pytest.raises(ValueError, match="generation"):
                segment.attach(stale)
        finally:
            handle.release()

    def test_foreign_bytes_are_rejected(self, backing, tmp_path):
        if backing == "file":
            bogus = tmp_path / "bogus.bin"
            bogus.write_bytes(b"\x00" * 64)
            descriptor = segment.Descriptor("file", str(bogus), 0, "", 64)
            with pytest.raises(ValueError, match="segment"):
                segment.attach(descriptor)
            return
        raw = shared_memory.SharedMemory(create=True, size=64)
        try:
            descriptor = segment.Descriptor("shm", raw.name, 0, "", 64)
            with pytest.raises(ValueError, match="segment"):
                segment.attach(descriptor)
        finally:
            raw.close()
            raw.unlink()

    def test_truncated_file_is_rejected(self, tmp_path):
        handle = _publish("file", tmp_path)
        with open(handle.descriptor.name, "r+b") as fh:
            fh.truncate(handle.descriptor.nbytes - 8)
        with pytest.raises(ValueError, match="bytes"):
            segment.attach(handle.descriptor)
        handle.release()


class TestUnlinkSemantics:
    def test_attach_after_unlink_raises_file_not_found(self, backing, tmp_path):
        handle = _publish(backing, tmp_path)
        handle.unlink()
        with pytest.raises(FileNotFoundError):
            segment.attach(handle.descriptor)

    def test_attachments_survive_the_creator_unlink(self, backing, tmp_path):
        handle = _publish(backing, tmp_path)
        arrays = segment.attach(handle.descriptor).arrays
        handle.release()
        assert arrays["grid"].tobytes() == ARRAYS["grid"].tobytes()

    def test_release_is_idempotent(self, backing, tmp_path):
        handle = _publish(backing, tmp_path)
        handle.release()
        handle.release()
        handle.unlink()

    def test_nothing_leaks(self, backing, tmp_path):
        shm_before = _shm_entries()
        files_before = set(os.listdir(tmp_path))
        handle = _publish(backing, tmp_path)
        segment.attach(handle.descriptor)
        handle.release()
        with pytest.raises(RuntimeError):
            with segment.create(
                {"x": (np.int64, (4,))},
                path=str(tmp_path / "aborted.bin") if backing == "file" else None,
            ):
                raise RuntimeError("build died")
        assert _shm_entries() == shm_before
        assert set(os.listdir(tmp_path)) == files_before


class TestCommitProtocol:
    def test_file_appears_only_at_commit(self, tmp_path):
        path = tmp_path / "seg.bin"
        with segment.create({"x": (np.int64, (4,))}, path=str(path)) as writer:
            writer.arrays["x"][:] = 7
            assert not path.exists()
            handle = writer.commit()
        assert path.exists()
        assert os.listdir(tmp_path) == ["seg.bin"]
        assert segment.attach(handle.descriptor).arrays["x"].tolist() == [7] * 4
        handle.release()

    def test_killed_store_build_leaves_no_torn_file(self, tmp_path):
        graph = as_like_graph(300, rng=5)
        path = tmp_path / "store.dist"
        plan = FaultPlan([FaultSpec("distance_store.write_rows", "raise")])
        with plan.activate(), pytest.raises(FaultInjected):
            build_distance_store(graph, str(path), sources=[0, 1, 2])
        assert not path.exists()
        assert os.listdir(tmp_path) == []

    def test_killed_rebuild_keeps_the_earlier_generation(self, tmp_path):
        graph = as_like_graph(300, rng=5)
        path = str(tmp_path / "store.dist")
        old = build_distance_store(graph, path, sources=[0, 1, 2], generation=1)
        expected = np.array(old.distances)
        old.close()
        plan = FaultPlan([FaultSpec("distance_store.write_rows", "raise")])
        with plan.activate(), pytest.raises(FaultInjected):
            build_distance_store(graph, path, sources=[3, 4], generation=2)
        kept = attach_distance_store(path, expected_generation=1)
        assert np.array_equal(kept.distances, expected)
        assert os.listdir(tmp_path) == ["store.dist"]
        kept.close()

    def test_zeroed_rows_are_rejected_at_attach(self, tmp_path):
        graph = as_like_graph(300, rng=5)
        path = str(tmp_path / "store.dist")
        store = build_distance_store(graph, path, sources=[4, 9])
        rows_at = store.descriptor.nbytes - store.distances.nbytes * 2
        store.close()
        with open(path, "r+b") as fh:
            fh.seek(rows_at)
            fh.write(b"\x00" * (os.path.getsize(path) - rows_at))
        with pytest.raises(ValueError, match="distance store"):
            attach_distance_store(path)


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="reads /proc/self/maps"
)
class TestMappingLifetime:
    def test_dropped_attachments_unmap(self):
        handle = segment.publish(ARRAYS)
        try:
            baseline = _mappings("/dev/shm/")
            for _ in range(5):
                attached = segment.attach(handle.descriptor)
                assert attached.arrays["ints"][3] == 3
                del attached
            assert _mappings("/dev/shm/") == baseline
        finally:
            handle.release()

    def test_dropped_graph_attachments_unmap(self):
        baseline = _mappings("/dev/shm/")
        for depth in range(2, 7):
            handle = kary_tree(2, depth).graph.to_shared()
            graph = Graph.from_shared(handle.descriptor)
            handle.release()
            assert graph.num_nodes == 2 ** (depth + 1) - 1
            del graph
        assert _mappings("/dev/shm/") == baseline

    def test_retired_table_generations_unmap(self):
        sizes = log_spaced_sizes(1, 100, points_per_decade=4)
        table = EstimatorTable(
            name="arpa",
            mode="distinct",
            sizes=sizes,
            tree_size=np.sqrt(sizes.astype(float)),
            mean_path=np.full(sizes.shape, 3.0),
            source="closed-form",
        )
        baseline = _mappings("/dev/shm/")
        for generation in range(1, 6):
            handle = publish_tables({("arpa", "distinct"): table}, generation)
            tables = attach_tables(handle.descriptor)
            handle.release()
            assert tables[("arpa", "distinct")].lookup(10) == table.lookup(10)
            del tables
        assert _mappings("/dev/shm/") == baseline

    def test_attach_cache_misses_a_rebuilt_file(self, tmp_path):
        # Same path, same generation, new content: a pooled worker must
        # not keep serving the replaced file's rows.
        path = str(tmp_path / "seg.bin")
        first = segment.publish({"x": np.zeros(3)}, generation=1, path=path)
        old = segment.cached_attach(first.descriptor, segment.attach)
        second = segment.publish({"x": np.ones(3)}, generation=1, path=path)
        new = segment.cached_attach(second.descriptor, segment.attach)
        try:
            assert old.arrays["x"].tolist() == [0.0] * 3
            assert new.arrays["x"].tolist() == [1.0] * 3
        finally:
            segment._CACHE.clear()
            second.release()

    def test_attach_cache_is_bounded(self):
        handles = [segment.publish(ARRAYS) for _ in range(3 * segment._CACHE_SIZE)]
        try:
            baseline = _mappings("/dev/shm/")
            first = segment.cached_attach(handles[0].descriptor, segment.attach)
            assert segment.cached_attach(handles[0].descriptor, segment.attach) is first
            del first
            for handle in handles:
                segment.cached_attach(handle.descriptor, segment.attach)
            assert _mappings("/dev/shm/") <= baseline + segment._CACHE_SIZE
        finally:
            segment._CACHE.clear()
            for handle in handles:
                handle.release()
