"""Traced-memory readings for the memory tests, the one place that traces.

A reading collects garbage first: a full collection empties the
interpreter's free lists, whose reuse tracemalloc would not see, so a
reading does not depend on what ran before it. It collects again before
it reads what the call kept, so kept is what the call left alive, not
the free lists it filled. Each call is run once untraced before it is
traced, so no traced run builds a first-call cache (the RK4 combiners,
the history row format).
"""

import gc
import tracemalloc


def _reading(call, arg):
    gc.collect()
    tracemalloc.start()
    try:
        result = call(arg)  # alive at the reading
        gc.collect()
        return tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


def readings(call, *args):
    """``(kept, peak)`` traced bytes of ``call(arg)`` for each of ``args``:
    what it left allocated, its result included, and its peak. Each runs
    once untraced, in the order given, before any is traced."""
    for arg in args:
        call(arg)
    return [_reading(call, arg) for arg in args]


def growth(call, sizes):
    """Traced peak growth a station between two runs, and their peaks:
    ``sizes`` is two ``(arg, stations)`` pairs, ``call(arg)`` a run of
    that many stations, and the growth is the difference of the peaks over
    the difference of the station counts, which cancels what every run
    holds whatever its length."""
    (a0, n0), (a1, n1) = sizes
    (_, p0), (_, p1) = readings(call, a0, a1)
    return (p1 - p0) / (n1 - n0), [p0, p1]
