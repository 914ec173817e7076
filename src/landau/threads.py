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
# on near_vacuum's.  The maxwellian_fit bench process peaks at 64.8 MB with the
# fit on these slabs, against 69.6 MB with full-grid passes.
SLAB_POINTS = 2 ** 16

_POOL = None
_THREADS = 0


def pool():
    """The worker threads, one per CPU the process may run on, made at first use.

    Its users: the coefficient pass (coefficients.coefficient_pass), the
    transport shifts, the record's slab pass, and the slab passes of
    maxwellian.fit_maxwellian (its start and every model evaluation).
    """
    global _POOL, _THREADS
    if _POOL is None:
        from concurrent.futures import ThreadPoolExecutor
        cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else range(os.cpu_count())
        _THREADS = len(cpus)
        _POOL = ThreadPoolExecutor(_THREADS)
    return _POOL


def pool_threads():
    """The number of threads of pool()."""
    pool()
    return _THREADS


def slab_rows(grid):
    """The slabs of a field on grid, as slices of its first axis.

    SLAB_POINTS of phase space in whole rows of the first x axis, the last
    slab partial; with d_x = 0, one slab holds the field.
    """
    if grid.d_x == 0:
        return [slice(None)]
    n = grid.n_x
    size = max(1, SLAB_POINTS // (n ** (grid.d_x - 1) * grid.n_v ** grid.d_v))
    return [slice(lo, min(n, lo + size)) for lo in range(0, n, size)]


def _forget_pool():
    global _POOL
    _POOL = None


# A forked child has none of its parent's threads, so it makes its own pool.
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)
