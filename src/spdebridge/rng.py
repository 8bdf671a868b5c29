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


def path_increments(
    master_seed: int, path_indices, n_steps: int, n_modes: int, *, out=None
) -> np.ndarray:
    """Standard-normal increments for the given paths, shape (n, n_steps, n_modes).

    Path ``i`` always receives the same draws regardless of which other
    paths are requested alongside it. If ``out`` is given it must be a
    C-contiguous float64 array of exactly that shape; it is filled and
    returned.
    """
    key = philox_key(master_seed, PATHS)
    idx = np.asarray(path_indices, dtype=np.int64)
    if np.any(idx < 0):
        raise ValueError("path indices must be non-negative")
    shape = (idx.size, n_steps, n_modes)
    if out is None:
        out = np.empty(shape)
    elif (
        not isinstance(out, np.ndarray)
        or out.shape != shape
        or out.dtype != np.float64
        or not out.flags.c_contiguous
    ):
        raise ValueError(f"out must be a C-contiguous float64 array of shape {shape}")
    bitgen = Philox(key=key)
    gen = Generator(bitgen)
    state = bitgen.state
    for row, i in enumerate(idx):
        # Same state as Philox(key=key, counter=i << 192): counter block i,
        # empty output buffer.
        state["state"]["counter"] = np.array([0, 0, 0, i], dtype=np.uint64)
        state["buffer_pos"] = 4
        state["has_uint32"] = 0
        bitgen.state = state
        gen.standard_normal(out=out[row])
    return out
