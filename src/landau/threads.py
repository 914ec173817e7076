"""The process-wide pool of worker threads: the coefficient pass, transport and the record share it.

numpy's FFTs and ufuncs release the GIL, so independent blocks of a field run
in parallel.  The pool is made at first use: importing landau starts no thread.
"""

import os

_POOL = None
_THREADS = 0


def pool():
    """The worker threads, one per CPU the process may run on, made at first use."""
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


def _forget_pool():
    global _POOL
    _POOL = None


# A forked child has none of its parent's threads, so it makes its own pool.
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)
