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

Prefix property: a path's first k x J normals do not depend on how many
are drawn, so a pass that stops at its last read node k draws k steps and
gets the leading k steps of the full draw, bit for bit.

``path_increments`` is a single-threaded loop: it resets one Philox to each
path's counter block in turn, and stores the normals step-major, those of
step k of all its paths one contiguous block, as the stepper reads them.
``forward.run_pass`` draws different paths on different threads by calling
it once per unit of paths. Its ``sink`` hands out each block of rows as it
is drawn, which is how the forward paths dump writes its increments without
a copy of its own.
"""

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


# Rows drawn at a time into a C-contiguous scratch block, then copied into
# the step-major ``out`` (and handed to a sink, if any): 32 rows of 512
# steps x 4 modes are 512 KB, small enough to stay in cache between the
# draw and the copy.
ROW_BLOCK = 32


def _check_step_major(out, shape) -> None:
    """ValueError unless ``out`` is a step-major float64 array of ``shape``."""
    n, n_steps, n_modes = shape
    if not (
        isinstance(out, np.ndarray)
        and out.shape == shape
        and out.dtype == np.float64
        and (
            n_steps == 0
            or (out[:, :1].flags.c_contiguous and out.strides[1] >= n * n_modes * out.itemsize)
        )
    ):
        raise ValueError(
            f"out must be a step-major float64 array of shape {shape} "
            "(every out[:, k] C-contiguous and disjoint)"
        )


def path_increments(
    master_seed: int, path_indices, n_steps: int, n_modes: int, *, out=None, sink=None
) -> np.ndarray:
    """Standard-normal increments for the given paths, shape (n, n_steps, n_modes).

    Path ``i`` always receives the same draws regardless of which other
    paths are requested alongside it. The array is step-major: every step's
    (n, n_modes) block ``out[:, k]`` is C-contiguous and the blocks are
    disjoint, as in ``np.empty((n_steps, n, n_modes)).transpose(1, 0, 2)``
    or a leading slice of it. If ``out`` is given it must be a float64 array
    of exactly that shape and layout (any, at zero steps); it is filled and
    returned. Rows are drawn ``ROW_BLOCK`` at a time into a C-contiguous
    scratch block and copied in.

    With ``sink``, each block of up to ``ROW_BLOCK`` rows is also handed to
    ``sink(r, rows)`` as soon as it is drawn: ``rows`` is the C-contiguous
    scratch block, valid inside the call only, and holds the normals of
    ``path_indices[r : r + len(rows)]``.
    """
    key = philox_key(master_seed, PATHS)
    idx = np.asarray(path_indices, dtype=np.int64)
    if np.any(idx < 0):
        raise ValueError("path indices must be non-negative")
    shape = (idx.size, n_steps, n_modes)
    if out is None:
        out = np.empty((n_steps, idx.size, n_modes)).transpose(1, 0, 2)
    _check_step_major(out, shape)
    block = np.empty((min(ROW_BLOCK, idx.size), n_steps, n_modes))
    # One (path, step) row of n_modes doubles as a single item: numpy copies
    # the scratch block into the strided step-major ``out`` item by item,
    # about a third faster than 8 bytes at a time, and the bytes are the same.
    item = np.dtype((np.void, 8 * n_modes))
    bitgen = Philox(key=key)
    gen = Generator(bitgen)
    state = bitgen.state
    for lo in range(0, idx.size, ROW_BLOCK):
        dest = out[lo : lo + ROW_BLOCK]
        rows = block[: len(dest)]
        for row, i in enumerate(idx[lo : lo + ROW_BLOCK]):
            # Same state as Philox(key=key, counter=i << 192): counter block
            # i, empty output buffer.
            state["state"]["counter"] = np.array([0, 0, 0, i], dtype=np.uint64)
            state["buffer_pos"] = 4
            state["has_uint32"] = 0
            bitgen.state = state
            gen.standard_normal(out=rows[row])
        if sink is not None:
            sink(lo, rows)
        dest.view(item)[...] = rows.view(item)
    return out
