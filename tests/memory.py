"""The one tracemalloc protocol of the memory tests.

``traced_peak`` traces only what its function allocates, so an instance built
before the call is not counted: a peak is the transient above what is stored.
"""

import tracemalloc

import numpy as np


def stored_bytes(prob):
    """The bytes of every array an instance keeps (for the finite sum, Q packed)."""
    return sum(v.nbytes for v in vars(prob).values() if isinstance(v, np.ndarray))


def traced_peak(fn):
    """``fn()`` and the peak bytes tracemalloc saw allocated while it ran."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
