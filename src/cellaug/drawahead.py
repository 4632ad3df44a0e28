"""Draw-ahead: a training run's random draws, made on a second core.

A trainer's draws (batch orders, dropout multipliers, latent noise) depend
on nothing that its steps compute, so they can be made before the steps
that read them. draw_ahead forks one child per training run. The child
owns copies of the run's generators and runs the producer, a Python
generator that yields exactly the draws the trainer makes, in its order,
one record of arrays per step or epoch. The child copies each record into
a ring of slots in a shared anonymous mmap, about RING_BYTES in all. Two
pipes pass the slots back and forth, one byte per slot: `full` from child
to parent, `free` from parent to child. The parent reads views of the
ring and never calls the generators, so every draw, and every value
computed from one, is the same bit for bit as when the producer runs
inline.

With no os.fork or os.sched_getaffinity, one usable CPU, or no record to
draw, the producer runs inline in the caller, and the records are its own
arrays.

The child runs the producer only: numpy's generators and elementwise
ufuncs, with no BLAS call and no import. That is why forking while
OpenBLAS threads exist is safe here, though Python 3.12 warns on any fork
of a multi-threaded process: no lock that a BLAS thread may hold at the
fork is ever taken in the child. The child never returns into the caller:
it ends with os._exit, writes nothing to stderr, and exits when the
parent's end of `free` closes. The parent kills and reaps it on every exit
from the `with` block. A child that ends before the parent has read every
record raises ChildProcessError, an OSError.
"""

from __future__ import annotations

import gc
import itertools
import mmap
import os
import signal
import warnings
from collections.abc import Iterator
from contextlib import contextmanager
from typing import NoReturn

import numpy as np

RING_BYTES = 1 << 21  # the ring's size, once a slot holds a whole record
SLOT_BYTES = 1 << 18  # a slot holds as many records as fit, and at least one

Record = tuple[np.ndarray, ...]


def _forks(count: int) -> bool:
    """Whether a run that reads `count` records draws them in a child."""
    return (count > 0 and hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) > 1)


def _produce(records: Iterator[Record], views: list[list[np.ndarray]], count: int,
             full_w: int, free_r: int, parent_fds: tuple[int, int]) -> NoReturn:
    """The child: close the parent's pipe ends, fill the slots of `views`
    with `records` in turn, passing each filled slot on `full_w` and, past
    the first round, waiting on `free_r` for the parent to hand a slot back;
    then exit."""
    slots, per_slot = len(views), len(views[0][0])
    status = 1
    try:
        for fd in parent_fds:
            os.close(fd)
        gc.disable()  # a collection would write to the pages shared with the parent
        for r, record in enumerate(records):
            j = r % per_slot
            if j == 0 and r >= slots * per_slot and not os.read(free_r, 1):
                break  # the parent is gone
            for view, array in zip(views[r // per_slot % slots], record):
                np.copyto(view[j, : len(array)], array, casting="no")
            if j == per_slot - 1 or r == count - 1:
                os.write(full_w, b"\0")
        status = 0
    finally:
        os._exit(status)


@contextmanager
def draw_ahead(records: Iterator[Record], count: int) -> Iterator[Iterator[Record]]:
    """An iterator over the first `count` records of the producer `records`.

    A forked run returns each record array at its shape and dtype in the
    first record, which the parent draws, holding a shorter one (a short
    last batch) in its leading rows, so the reader slices an array to the
    length it expects. So no later array may be longer than in the first
    record, nor of another dtype: the child then exits 1. A record stays
    valid until the next one is read.
    """
    records = itertools.islice(records, count)
    first = next(records, None) if _forks(count) else None
    if first is None:
        yield records
        return
    # In a slot, each record array has a block of per_slot rows of its shape,
    # at a 64-byte-aligned offset.
    sizes = [array.nbytes for array in first]
    per_slot = max(1, min(count, SLOT_BYTES // sum(sizes)))
    blocks = [-(-per_slot * size // 64) * 64 for size in sizes]
    slots = max(2, min(-(-count // per_slot), RING_BYTES // sum(blocks)))
    ring = mmap.mmap(-1, slots * sum(blocks))
    offsets = itertools.accumulate([0] + blocks * slots)
    views = [[np.frombuffer(ring, array.dtype, per_slot * array.size, next(offsets))
              .reshape(per_slot, *array.shape) for array in first] for _ in range(slots)]
    full_r, full_w = os.pipe()
    free_r, free_w = os.pipe()
    try:
        with warnings.catch_warnings():
            # Python 3.12's warning on forking a multi-threaded process; see above.
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
    except OSError:
        for fd in (full_r, full_w, free_r, free_w):
            os.close(fd)
        raise
    if pid == 0:
        _produce(itertools.chain([first], records), views, count, full_w, free_r, (full_r, free_w))
    os.close(full_w)
    os.close(free_r)
    reaped = False

    def read() -> Iterator[Record]:
        nonlocal reaped
        for r in range(count):
            j = r % per_slot
            if j == 0:
                try:
                    if r and r + (slots - 1) * per_slot < count:
                        os.write(free_w, b"\0")  # the slot just read is the child's to refill
                    filled = os.read(full_r, 1)
                except BrokenPipeError:  # the child is gone
                    filled = b""
                if not filled:
                    _, status = os.waitpid(pid, 0)
                    reaped = True
                    code = os.waitstatus_to_exitcode(status)
                    how = (f"was killed by signal {-code}" if code < 0
                           else f"exited with status {code}")
                    raise ChildProcessError(
                        f"the process making a training run's random draws (pid {pid}) {how}; "
                        f"{r} of {count} records were read")
            yield tuple(view[j] for view in views[r // per_slot % slots])

    try:
        yield read()
    finally:
        os.close(full_r)
        os.close(free_w)
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
