"""One scratch buffer for the row-chunked loops of a training run.

The block solves, the autoencoder passes and the rating gathers each walk
their rows a chunk at a time, and each chunk needs the same temporaries as
the one before. A fresh array per chunk above glibc's mmap threshold (128 KiB
at start) is mapped and page-faulted in again on every chunk, so these loops
write their temporaries into views of one buffer, which `train()` creates once
and hands to every phase.
"""

from __future__ import annotations

import math
import mmap
from contextlib import contextmanager

import numpy as np

ALIGN = 8  # floats: each view starts 64 bytes past the last, as aligned as a fresh array


def _anonymous(n: int) -> np.ndarray:
    """n float64s of private anonymous memory, each 4 KiB page mapped when it is
    first written. np.empty asks the kernel for transparent huge pages from
    4 MiB up, so one float written would make its whole 2 MiB resident, and a
    phase that leaves part of the buffer unwritten would hold it anyway."""
    return np.frombuffer(mmap.mmap(-1, 8 * n, flags=mmap.MAP_PRIVATE), dtype=np.float64)


class Scratch:
    """A flat float64 buffer that hands out views.

    `take` returns C-contiguous views that overlap nothing taken before and
    not yet given back; `frame` gives back, when its block ends, every view
    taken inside it. A take that does not fit replaces the buffer with one
    just large enough: views already handed out keep the old one alive until
    they are dropped. So a Scratch shared by a run's phases grows to the
    largest set of temporaries one phase holds at once, the first time that
    phase runs, and every later chunk, call and epoch reuses the same memory.

    No view may be returned to a caller: the next phase writes over it.
    """

    def __init__(self) -> None:
        self._buffer = np.empty(0)
        self._top = 0

    @property
    def size(self) -> int:
        """The buffer's length in float64s."""
        return self._buffer.size

    def take(self, *shapes, dtype=np.float64) -> list[np.ndarray]:
        """One new view of each shape, of `dtype`, above every view still taken."""
        itemsize = np.dtype(dtype).itemsize
        counts = [math.prod(shape) for shape in shapes]
        spans = [-(-count * itemsize // (8 * ALIGN)) * ALIGN for count in counts]
        end = self._top + sum(spans)
        if end > self._buffer.size:
            self._buffer = _anonymous(end)
        views = []
        for shape, count, span in zip(shapes, counts, spans):
            region = self._buffer[self._top:self._top + span].view(dtype)
            views.append(region[:count].reshape(shape))
            self._top += span
        return views

    @contextmanager
    def frame(self):
        """Give back, when the block ends, every view taken inside it."""
        top = self._top
        try:
            yield self
        finally:
            self._top = top
