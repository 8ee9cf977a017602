"""Worker count reported in benchmark machine records."""
from __future__ import annotations

__all__ = ["worker_count"]


def worker_count() -> int:
    """Always 1: the hypothesis audit runs its samples serially.

    A thread pool over samples measured slower than the serial loop on a
    2-core box, so it was removed.  The function stays because benchmark
    machine records report it.  The library does use threads elsewhere:
    large block stacks are split across cores inside ``core`` (see its
    module docstring), which this count does not describe.
    """
    return 1
