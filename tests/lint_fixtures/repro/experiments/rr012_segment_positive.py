"""RR012 positive fixture: segment and table-store handle misuse."""

from repro.utils import segment


def table_store_leaks(tables):
    handle = publish_tables(tables, generation=1)  # expect: RR012
    return len(tables)


def segment_used_after_unlink(arrays):
    handle = segment.publish(arrays)
    handle.unlink()
    return handle.descriptor  # expect: RR012


def segment_handle_crosses_submit(arrays, executor, work):
    handle = segment.publish(arrays)
    future = executor.submit(work, handle)  # expect: RR012
    handle.release()
    return future


def publish_tables(tables, generation):
    return segment.publish(tables, generation=generation)
