"""Counter-based random number streams.

All randomness flows through Philox4x64 keyed by the master seed. Each
logical consumer gets a disjoint region of the counter space:

* purpose   -- a small integer mixed into the key via SeedSequence spawn_key,
               separating path increments from endpoint draws etc.
* path index -- selects a 2**192-sized counter block, so path ``i`` owns a
               private stream that does not depend on how many paths are
               drawn or in which order.

This makes every path individually reproducible from
``(master_seed, purpose, path_index)`` alone.

``path_increments`` draws on several threads: its rows go out in
``ROW_BLOCK``-path blocks from one shared counter, and each thread (the
caller's included) draws the blocks it takes with its own Philox, reset to
each path's counter block. A path's draws depend on nothing but its key and
index, and every thread writes only its own rows, so the bytes cannot depend
on the thread count or on which thread took which block. The count is every
core the process may run on (``taskset`` lowers it), but a draw whose paths
hold fewer than ``THREADED_ROW_MIN`` normals each stays on the caller's
thread: numpy releases the GIL while it draws normals and copies rows, but
not while a thread resets its Philox to the next path.
"""

import itertools
import os

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

GENERATOR_ID = "philox4x64/seedseq-purpose-key/counter-block-2^192-per-path/v1"

# purpose tags
PATHS = 0
ENDPOINTS = 1
INITIAL_STATE = 2
PROBES = 3


def philox_key(master_seed: int, purpose: int = PATHS) -> np.ndarray:
    """Derive the 128-bit Philox key for one purpose stream."""
    ss = SeedSequence(entropy=int(master_seed), spawn_key=(int(purpose),))
    return ss.generate_state(2, np.uint64)


def stream(master_seed: int, purpose: int = PATHS, index: int = 0) -> Generator:
    """Generator for counter block ``index`` of a purpose stream."""
    key = philox_key(master_seed, purpose)
    return Generator(Philox(key=key, counter=int(index) << 192))


# Rows drawn at a time into a C-contiguous scratch block when ``out`` is
# step-major, then copied into place: 32 rows of 512 steps x 4 modes are
# 512 KB, small enough to stay in cache between the draw and the copy.
ROW_BLOCK = 32

# Normals per path below which ``path_increments`` draws on the caller's
# thread alone. Resetting the Philox to a path holds the GIL for about 10 us;
# on a 2-core Xeon VM (numpy 2.4.6) two threads drew 512 paths 0.6-0.9x as
# fast as one at 64-512 normals per path, about even at 768, and 1.3-1.8x as
# fast from 1024 up, at 64 and at 1024 paths alike.
THREADED_ROW_MIN = 1024


def _is_step_major(out, shape) -> bool:
    """False for a path-major ``out``, True for a step-major one, else ValueError."""
    if (
        isinstance(out, np.ndarray)
        and out.shape == shape
        and out.dtype == np.float64
    ):
        if out.flags.c_contiguous:
            return False
        n, _, n_modes = shape
        if out[:, :1].flags.c_contiguous and out.strides[1] >= n * n_modes * out.itemsize:
            return True
    raise ValueError(
        f"out must be a float64 array of shape {shape}, C-contiguous or "
        "step-major (every out[:, k] C-contiguous and disjoint)"
    )


def available_cores() -> int:
    """Number of cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_pool = None  # ThreadPoolExecutor for path_increments, built on first use


def _forget_pool() -> None:
    # A forked child inherits the pool but none of its threads: a draw
    # queued there would wait forever, so the child builds its own.
    global _pool
    _pool = None


if hasattr(os, "register_at_fork"):  # not on Windows, which has no fork
    os.register_at_fork(after_in_child=_forget_pool)


def _executor():
    """The shared pool of one thread per available core but the caller's."""
    global _pool
    if _pool is None:
        from concurrent.futures import ThreadPoolExecutor

        _pool = ThreadPoolExecutor(
            max_workers=available_cores() - 1, thread_name_prefix="spdebridge-rng"
        )
    return _pool


def _draw_blocks(key, idx, out, step_major: bool, blocks) -> None:
    """Draw the rows of each block that ``blocks`` hands out until it runs past ``idx``."""
    n_steps, n_modes = out.shape[1:]
    block = np.empty((min(ROW_BLOCK, idx.size), n_steps, n_modes)) if step_major else None
    # One (path, step) row of n_modes doubles as a single item: numpy copies
    # the scratch block into the strided step-major ``out`` item by item,
    # about a third faster than 8 bytes at a time, and the bytes are the same.
    item = np.dtype((np.void, 8 * n_modes))
    bitgen = Philox(key=key)
    gen = Generator(bitgen)
    state = bitgen.state
    # ``blocks`` is one itertools.count shared by every thread: each ``next``
    # is a single C call under the GIL, so no two threads take one block.
    for lo in blocks:
        if lo >= idx.size:
            return
        dest = out[lo : lo + ROW_BLOCK]
        rows = block[: len(dest)] if step_major else dest
        for row, i in enumerate(idx[lo : lo + ROW_BLOCK]):
            # Same state as Philox(key=key, counter=i << 192): counter block
            # i, empty output buffer.
            state["state"]["counter"] = np.array([0, 0, 0, i], dtype=np.uint64)
            state["buffer_pos"] = 4
            state["has_uint32"] = 0
            bitgen.state = state
            gen.standard_normal(out=rows[row])
        if step_major:
            dest.view(item)[...] = rows.view(item)


def path_increments(
    master_seed: int, path_indices, n_steps: int, n_modes: int, *, out=None
) -> np.ndarray:
    """Standard-normal increments for the given paths, shape (n, n_steps, n_modes).

    Path ``i`` always receives the same draws regardless of which other
    paths are requested alongside it. If ``out`` is given it is filled and
    returned. It must be a float64 array of exactly that shape, in one of
    two layouts:

    * path-major: C-contiguous, each path's draws one contiguous block;
    * step-major: every step's (n, n_modes) block ``out[:, k]`` C-contiguous
      and the blocks disjoint, as in
      ``np.empty((n_steps, n, n_modes)).transpose(1, 0, 2)`` or a leading
      slice of it.

    Both layouts receive the same values; step-major rows are drawn
    ``ROW_BLOCK`` at a time into a path-major scratch block and copied in.

    Rows go out ``ROW_BLOCK`` at a time from one shared counter to T
    threads, the caller's among them, with T the cores available but no
    more than there are blocks, and T = 1 below ``THREADED_ROW_MIN``
    normals per path. A thread that stalls takes fewer blocks and holds no
    other thread up. Each thread draws with its own Philox and scratch
    block into its own rows, so the result is the same at every T; at T = 1
    the caller draws every block itself and no pool is built.
    """
    key = philox_key(master_seed, PATHS)
    idx = np.asarray(path_indices, dtype=np.int64)
    if np.any(idx < 0):
        raise ValueError("path indices must be non-negative")
    shape = (idx.size, n_steps, n_modes)
    if out is None:
        out = np.empty(shape)
    step_major = _is_step_major(out, shape)
    blocks = itertools.count(0, ROW_BLOCK)
    n_threads = 1
    if n_steps * n_modes >= THREADED_ROW_MIN:
        n_threads = min(available_cores(), -(-idx.size // ROW_BLOCK))
    workers = [
        _executor().submit(_draw_blocks, key, idx, out, step_major, blocks)
        for _ in range(n_threads - 1)
    ]
    try:
        _draw_blocks(key, idx, out, step_major, blocks)
    finally:
        for worker in workers:
            worker.result()
    return out
