"""RR012 negative fixture: disciplined segment and table-store handles."""

from repro.utils import segment


def swap_generations(old_handle, tables, notify):
    new_handle = publish_tables(tables, generation=2)
    try:
        notify(new_handle.descriptor)
    finally:
        old_handle.release()
    return new_handle


def ships_descriptor(arrays, executor, work):
    handle = segment.publish(arrays)
    try:
        return executor.submit(work, handle.descriptor).result()
    finally:
        handle.release()


def publish_elsewhere(arrays):
    # Not the segment module's publish: no handle to track.
    result = arrays.publish()
    return len(result)


def publish_tables(tables, generation):
    return segment.publish(tables, generation=generation)
