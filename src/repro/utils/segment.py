"""One shared-array segment: named numpy arrays behind a JSON header.

CSR graphs (:meth:`repro.graph.core.Graph.to_shared`), the fleet's
table store (:mod:`repro.serve.fleet.store`) and the distance store
(:mod:`repro.graph.distance_store`) all publish through this module:
arrays plus JSON metadata, stamped with a generation, written once by
an owner and attached read-only, zero-copy, by any number of readers.
The backing is POSIX shared memory, or a regular file when the caller
passes ``path=``.

Layout: ``[u64 header_len][JSON header][pad to 8][arrays]``.  The
header holds ``magic``, ``version``, ``generation``, ``fingerprint``,
each array's ``name``/``dtype``/``shape``/``offset`` (8-aligned,
relative to the end of the padded header) and the publisher's ``meta``.

Commit protocol: :func:`create` returns a :class:`SegmentWriter` whose
views the caller fills; only :meth:`SegmentWriter.commit` yields the
:class:`Descriptor`.  A file segment is filled at ``<path>.tmp-<pid>``,
fsynced and renamed onto ``path``, so no reader can open a half-written
file and a failed build leaves an earlier generation at ``path``
untouched.  :func:`attach` checks magic, version, size and generation.
Attached views pin the mapping themselves: it outlives the owner's
:meth:`Handle.unlink` (POSIX semantics, which make generation swaps
zero-downtime) and is unmapped when the last view dies.

Two CPython edges of the shm backing are handled here: attaching
registers the segment with the resource tracker as if the attacher
owned it (Python < 3.13), undone by :func:`_untrack_attachment`; and a
``SharedMemory`` whose buffer is still exported raises ``BufferError``
on close (also from ``__del__`` at shutdown), avoided by
:func:`_take_mapping`, which moves the mmap off the object at once.
"""

from __future__ import annotations

import json
import math
import mmap
import os
import struct
from collections import OrderedDict
from dataclasses import dataclass, replace
from multiprocessing import shared_memory
from typing import Any, Callable, Dict, Mapping, Optional, Set, Tuple, Union

import numpy as np

__all__ = [
    "Descriptor",
    "Handle",
    "Segment",
    "SegmentWriter",
    "attach",
    "cached_attach",
    "create",
    "fill_views",
    "publish",
]

MAGIC = "repro-segment"
VERSION = 1

_HEADER_LEN = struct.Struct("<Q")

#: Decoded attachments :func:`cached_attach` keeps per process (LRU).
_CACHE_SIZE = 8
_CACHE: "OrderedDict[Tuple, Any]" = OrderedDict()

#: Names of shm segments this process created and has not unlinked.  A
#: same-process attachment must keep the tracker registration the
#: creation made (the tracker's cache is a set, so the attach register
#: deduplicated into it).
_CREATED: Set[str] = set()


def _align8(n: int) -> int:
    return (n + 7) & ~7


@dataclass(frozen=True)
class Descriptor:
    """Picklable token of one committed segment (what crosses processes).

    ``name`` is the shm name or file path; ``nbytes`` counts the header.
    """

    backing: str
    name: str
    generation: int
    fingerprint: str
    nbytes: int


@dataclass(frozen=True)
class Segment:
    """A read-only attachment: its descriptor, metadata and views."""

    descriptor: Descriptor
    meta: Dict[str, Any]
    arrays: Dict[str, np.ndarray]


class Handle:
    """The owner's side of a committed segment: unlink it when it retires.

    The owner holds no mapping after commit, so ``unlink()`` (alias
    ``release()``) is the whole lifecycle; attachers never unlink.
    """

    __slots__ = ("descriptor", "_shm", "_unlinked")

    def __init__(self, descriptor: Descriptor, shm=None) -> None:
        self.descriptor = descriptor
        self._shm = shm
        self._unlinked = False

    def unlink(self) -> None:
        """Remove the segment's name system-wide (idempotent)."""
        if self._unlinked:
            return
        self._unlinked = True
        try:
            if self._shm is not None:
                _CREATED.discard(self._shm.name)
                self._shm.unlink()
            else:
                os.unlink(self.descriptor.name)
        except FileNotFoundError:
            pass

    release = unlink


class SegmentWriter:
    """An uncommitted segment: fill :attr:`arrays`, then :meth:`commit`.

    Use as a context manager: leaving the block without ``commit()``
    (an exception included) aborts and deletes the bytes.  ``path`` is
    the temporary file of a file-backed writer, which build workers in
    other processes fill through :func:`fill_views`.
    """

    def __init__(self, descriptor, mapping, shm, tmp_path, fd) -> None:
        self._descriptor = descriptor
        self.path = tmp_path
        self._mapping: Optional[mmap.mmap] = mapping
        self._shm = shm
        self._fd = fd
        self.arrays = _decode(mapping, descriptor.name)[1]

    def commit(self) -> Handle:
        """Publish the filled arrays; the descriptor is valid from now."""
        if self._mapping is None:
            raise ValueError(f"segment {self._descriptor.name!r} is closed")
        if self._fd is not None:
            self._mapping.flush()
            os.fsync(self._fd)
            os.replace(self.path, self._descriptor.name)
        self._close()
        return Handle(self._descriptor, self._shm)

    def abort(self) -> None:
        """Delete the uncommitted bytes (idempotent)."""
        if self._mapping is not None:
            self._close()
            pending = replace(self._descriptor, name=self.path or self._descriptor.name)
            Handle(pending, self._shm).unlink()

    def _close(self) -> None:
        # Views already handed out keep the mapping alive until they die.
        self._mapping = None
        self.arrays = {}
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def __enter__(self) -> "SegmentWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.abort()


def _untrack_attachment(shm: shared_memory.SharedMemory) -> None:
    # Compare the public ``.name`` (no leading slash): ``_name`` keeps
    # the POSIX slash and would never match, turning a same-process
    # attach into a spurious unregister.
    if shm.name in _CREATED:
        return
    try:
        from multiprocessing import resource_tracker

        if resource_tracker._resource_tracker._pid is None:
            return  # inherited tracker: the registration is the parent's
        resource_tracker.unregister(shm._name, "shared_memory")
    except (ImportError, AttributeError):  # pragma: no cover - non-POSIX
        pass


def _take_mapping(shm: shared_memory.SharedMemory) -> mmap.mmap:
    """Detach ``shm``'s mmap so views, not the object, own the mapping."""
    mapping = shm._mmap
    shm._buf.release()
    shm._buf = None
    shm._mmap = None
    shm.close()  # only the file descriptor is left to close
    return mapping


def _open(backing: str, name: str, write: bool) -> mmap.mmap:
    if backing == "shm":
        shm = shared_memory.SharedMemory(name=name)
        _untrack_attachment(shm)
        return _take_mapping(shm)
    with open(name, "r+b" if write else "rb") as fh:
        # An empty file raises ValueError here, like any foreign bytes.
        access = mmap.ACCESS_WRITE if write else mmap.ACCESS_READ
        return mmap.mmap(fh.fileno(), 0, access=access)


def _decode(
    mapping: mmap.mmap, name: str
) -> Tuple[Dict[str, Any], Dict[str, np.ndarray], int]:
    """Header, one view per array and total size, after layout checks."""
    try:
        (header_len,) = _HEADER_LEN.unpack_from(mapping, 0)
        start = _HEADER_LEN.size
        header = json.loads(mapping[start : start + header_len].decode("utf-8"))
    except (struct.error, ValueError):
        header = None
    if (
        not isinstance(header, dict)
        or header.get("magic") != MAGIC
        or header.get("version") != VERSION
    ):
        raise ValueError(f"{name!r} is not a version-{VERSION} repro segment")
    data_start = _align8(_HEADER_LEN.size + header_len)
    nbytes = data_start + int(header["data_bytes"])
    if nbytes > len(mapping):
        raise ValueError(f"segment {name!r} is {len(mapping)} bytes, not {nbytes}")
    arrays = {}
    for spec in header["arrays"]:
        shape = tuple(spec["shape"])
        arrays[spec["name"]] = np.frombuffer(
            mapping,
            dtype=np.dtype(spec["dtype"]),
            count=math.prod(shape),
            offset=data_start + int(spec["offset"]),
        ).reshape(shape)
    return header, arrays, nbytes


def create(
    layout: Mapping[str, Tuple[Any, Tuple[int, ...]]],
    *,
    generation: int = 0,
    fingerprint: str = "",
    meta: Optional[Mapping[str, Any]] = None,
    path: Optional[str] = None,
) -> SegmentWriter:
    """An uncommitted segment of ``{name: (dtype, shape)}`` arrays.

    ``path`` selects the file backing; ``meta`` (JSON-serialisable)
    comes back verbatim as :attr:`Segment.meta`.
    """
    specs, data_bytes = [], 0
    for name, (dtype, shape) in layout.items():
        dtype, shape = np.dtype(dtype), [int(s) for s in shape]
        specs.append(
            {"name": name, "dtype": dtype.str, "shape": shape, "offset": data_bytes}
        )
        data_bytes = _align8(data_bytes + dtype.itemsize * math.prod(shape))
    header = json.dumps(
        {
            "magic": MAGIC,
            "version": VERSION,
            "generation": int(generation),
            "fingerprint": str(fingerprint),
            "arrays": specs,
            "data_bytes": data_bytes,
            "meta": dict(meta or {}),
        },
        sort_keys=True,
    ).encode("utf-8")
    total = _align8(_HEADER_LEN.size + len(header)) + data_bytes
    shm = tmp_path = fd = None
    if path is None:
        shm = shared_memory.SharedMemory(create=True, size=total)
        _CREATED.add(shm.name)
        mapping = _take_mapping(shm)
        backing, name = "shm", shm.name
    else:
        backing, name = "file", os.fspath(path)
        tmp_path = f"{name}.tmp-{os.getpid()}"
        fd = os.open(tmp_path, os.O_RDWR | os.O_CREAT | os.O_TRUNC, 0o644)
        os.ftruncate(fd, total)
        mapping = mmap.mmap(fd, total)
    _HEADER_LEN.pack_into(mapping, 0, len(header))
    mapping[_HEADER_LEN.size : _HEADER_LEN.size + len(header)] = header
    descriptor = Descriptor(backing, name, int(generation), str(fingerprint), total)
    return SegmentWriter(descriptor, mapping, shm, tmp_path, fd)


def publish(arrays: Mapping[str, np.ndarray], **options: Any) -> Handle:
    """Copy ``arrays`` into a new segment and commit it (one copy).

    ``options`` are :func:`create`'s keywords.
    """
    arrays = {name: np.asarray(arr) for name, arr in arrays.items()}
    layout = {name: (arr.dtype, arr.shape) for name, arr in arrays.items()}
    with create(layout, **options) as writer:
        for name, arr in arrays.items():
            writer.arrays[name][...] = arr
        return writer.commit()


def attach(
    target: Union[Descriptor, str], generation: Optional[int] = None
) -> Segment:
    """Map a committed segment read-only.

    ``target`` is a :class:`Descriptor` (whose generation is enforced)
    or a file path (generation enforced only when given).  Raises
    :class:`FileNotFoundError` once the owner has unlinked the segment
    and :class:`ValueError` for anything that is not a matching
    version-``VERSION`` segment.
    """
    if isinstance(target, Descriptor):
        backing, name = target.backing, target.name
        if generation is None:
            generation = target.generation
    else:
        backing, name = "file", os.fspath(target)
    mapping = _open(backing, name, write=False)
    header, arrays, nbytes = _decode(mapping, name)
    if generation is not None and int(header["generation"]) != int(generation):
        raise ValueError(
            f"segment {name!r} holds generation {header['generation']}, "
            f"expected {generation}"
        )
    for view in arrays.values():
        view.flags.writeable = False
    descriptor = Descriptor(
        backing, name, int(header["generation"]), header["fingerprint"], nbytes
    )
    return Segment(descriptor, header["meta"], arrays)


def fill_views(path: str) -> Dict[str, np.ndarray]:
    """Writable views over the uncommitted file at ``SegmentWriter.path``.

    Build workers in other processes fill their slices through these.
    """
    return _decode(_open("file", path, write=True), path)[1]


def cached_attach(descriptor: Descriptor, decode: Callable[[Descriptor], Any]) -> Any:
    """``decode(descriptor)``, memoized per (name, generation).

    The one worker-side attach cache: pooled workers reuse a decoded
    graph or store across tasks.  LRU-bounded, so a long-lived worker
    does not keep every segment it ever saw mapped.  A segment name
    always decodes to one kind of object, so the key omits ``decode``.
    A file path can be re-committed under the same generation, so file
    keys also carry the file's identity: a rebuilt file is a miss.
    """
    key: Tuple = (descriptor.name, int(descriptor.generation))
    if descriptor.backing == "file":
        stat = os.stat(descriptor.name)
        key += (stat.st_ino, stat.st_mtime_ns)
    value = _CACHE.get(key)
    if value is None:
        value = decode(descriptor)
        _CACHE[key] = value
        while len(_CACHE) > _CACHE_SIZE:
            _CACHE.popitem(last=False)
    else:
        _CACHE.move_to_end(key)
    return value
