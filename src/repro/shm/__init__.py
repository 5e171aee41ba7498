"""The thread team mp rounds run on, under the names perfbench imports.

See :mod:`repro.shm.pool`; DESIGN.md §12 describes the execution model.
"""

from .pool import WarmPool, pick_context, shutdown_warm_pool, warm_pool
from .segments import SharedGraph, shm_available

__all__ = ["SharedGraph", "WarmPool", "pick_context", "shm_available",
           "shutdown_warm_pool", "warm_pool"]
