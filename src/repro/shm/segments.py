"""What perfbench still imports from the deleted shared-memory transport.

mp rounds run on a thread team inside one process (:mod:`.pool`), so
no graph or colors array is ever published to shared memory.  Both
names below go when perfbench next changes.
"""

from __future__ import annotations

import os

__all__ = ["SharedGraph", "shm_available"]


def shm_available() -> bool:  # perfbench imports it; goes when perfbench next changes
    return os.access("/dev/shm", os.W_OK)


class SharedGraph:  # perfbench patches for_graph; goes when perfbench next changes
    @classmethod
    def for_graph(cls, graph):
        return graph
