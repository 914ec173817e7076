"""The process-wide pool of worker threads and the slab rule of the passes on it.

The coefficient pass, transport, the record and the Maxwellian fit share the
pool.  numpy's FFTs, ufuncs and einsums release the GIL, so independent blocks
of a field run in parallel.  The pool is made at first use: importing landau
starts no thread.
"""

import os

# Phase-space points per slab of the record's and the fit's slab passes,
# rounded down to whole rows of the first x axis, at least one row.  The size
# depends on the grid alone, so neither pass depends on the number of threads.
# A slab's temporaries live in its worker thread's malloc arena, and larger
# slabs grow the arenas past what a coefficient block needs: after 5
# near_vacuum bench rounds the process peaked at 89.0 MB RSS with slabs of 2^16
# points and 94.7 MB with 2^17, and at 88.2 and 88.1 MB with one arena
# (MALLOC_ARENA_MAX=1).  On 2 threads (medians of 15 records at t = 0.5), 2^16
# points took 414-479 ms against 381-422 ms on the free_stream bench grid,
# where a slab is one row and its halo two more, and 65-73 ms against 70-80 ms
# on near_vacuum's.  The maxwellian_fit bench process peaks at 57.9 MB with the
# fit on these slabs, each reduced against per-axis powers (medians of 10 runs),
# against 65.0 MB when each slab took products with full-grid feature fields
# and 69.6 MB with full-grid passes.  The record's
# f-sharp distance shifts slabs of the first velocity axis under the same rule
# (velocity_slab_rows), so that its temporaries too are a slab's.
SLAB_POINTS = 2 ** 16

_POOL = None
_THREADS = 0


def pool():
    """The worker threads, pool_threads() of them, made at first use.

    Work goes to it through pool_map.  Its users: the coefficient pass
    (coefficients.coefficient_pass), whose blocks come in multiples of
    pool_threads(); the transport shifts, on chunks of the first velocity
    axis; the record's slab pass, its f-sharp distance on the
    velocity_slab_rows, and the bound pass of its coefficient sups; and the
    slab passes of maxwellian.fit_maxwellian (its start and every model
    evaluation).
    """
    global _POOL
    if _POOL is None:
        from concurrent.futures import ThreadPoolExecutor
        _POOL = ThreadPoolExecutor(pool_threads())
    return _POOL


def pool_map(fn, items):
    """[fn(item) for item in items], the calls run on pool(), in the order of items.

    A concurrent.futures worker lets go of its task, the function and its
    argument, only after the caller has the task's result.  A closure's last
    reference to a field could then drop on a worker thread after the caller
    has gone on, at a moment that depends on scheduling, and whether the
    caller's next field found that memory free or grew the heap would differ
    from run to run: on 2 busy CPUs, processes running the same free_stream
    bench rounds peaked at 125 MB RSS or at 141 MB.  So the workers are handed
    only an index into a job list, which the caller empties once it holds
    every result, and the last reference to anything fn holds drops on the
    calling thread.
    """
    jobs = _Jobs(fn, list(items))
    try:
        return list(pool().map(jobs, range(len(jobs.items))))
    finally:
        jobs.fn = jobs.items = None


class _Jobs:
    """fn and its items, called by index."""

    def __init__(self, fn, items):
        self.fn, self.items = fn, items

    def __call__(self, i):
        return self.fn(self.items[i])


def pool_threads():
    """The number of threads of pool(): one per CPU the process may run on."""
    global _THREADS
    if not _THREADS:
        cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else range(os.cpu_count())
        _THREADS = len(cpus)
    return _THREADS


def slab_rows(grid):
    """The slabs of a field on grid, as slices of its first axis.

    SLAB_POINTS of phase space in whole rows of the first x axis, the last
    slab partial; with d_x = 0, one slab holds the field.
    """
    if grid.d_x == 0:
        return [slice(None)]
    return _rows(grid.n_x, grid.n_x ** (grid.d_x - 1) * grid.n_v ** grid.d_v)


def velocity_slab_rows(grid):
    """The slabs of a field on grid under the same rule, as slices of its first velocity axis."""
    return _rows(grid.n_v, grid.n_x ** grid.d_x * grid.n_v ** (grid.d_v - 1))


def _rows(n, row_points):
    """Slices of n rows of row_points points each, SLAB_POINTS points a slice, at least one row."""
    size = max(1, SLAB_POINTS // row_points)
    return [slice(lo, min(n, lo + size)) for lo in range(0, n, size)]


def _forget_pool():
    global _POOL
    _POOL = None


# A forked child has none of its parent's threads, so it makes its own pool.
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)
