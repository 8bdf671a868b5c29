"""Time grids for path simulation."""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

UNIFORM = "uniform"
GEOMETRIC = "geometric"


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing nodes from 0 to the horizon.

    ``kind`` is "uniform" or "geometric"; geometric grids refine toward the
    horizon (step sizes nonincreasing, strictly decreasing in the tail),
    which conditioned simulations require.
    """

    nodes: np.ndarray
    kind: str

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=np.float64)
        object.__setattr__(self, "nodes", nodes)
        if nodes.ndim != 1 or nodes.size < 2:
            raise DomainError("grid needs at least two nodes")
        if nodes[0] != 0.0:
            raise DomainError("grid must start at 0")
        steps = np.diff(nodes)
        if np.any(steps <= 0.0):
            raise DomainError("grid nodes must be strictly increasing")
        if self.kind not in (UNIFORM, GEOMETRIC):
            raise DomainError(f"unknown grid kind {self.kind!r}")
        # tolerance covers cumsum rounding jitter in nominally equal steps
        slack = 32.0 * np.finfo(float).eps * nodes[-1]
        if self.kind == GEOMETRIC and np.any(np.diff(steps) > slack):
            raise DomainError("geometric grid steps must not increase toward the horizon")
        nodes.setflags(write=False)

    @property
    def horizon(self) -> float:
        return float(self.nodes[-1])

    @property
    def n_steps(self) -> int:
        return self.nodes.size - 1

    @property
    def steps(self) -> np.ndarray:
        return np.diff(self.nodes)


def uniform_grid(horizon: float, n_steps: int) -> TimeGrid:
    if horizon <= 0.0 or n_steps < 1:
        raise DomainError("horizon must be positive and n_steps >= 1")
    return TimeGrid(np.linspace(0.0, horizon, n_steps + 1), UNIFORM)


def geometric_grid(horizon: float, n_steps: int, ratio: float = 0.7) -> TimeGrid:
    """Uniform body with a geometrically shrinking tail toward the horizon.

    Tail steps decay by ``ratio`` per step until they reach the floor
    max(1e-6 * horizon, horizon / (50 * n_steps)), so that grid refinement
    genuinely shrinks the final step.
    """
    if horizon <= 0.0 or n_steps < 2:
        raise DomainError("horizon must be positive and n_steps >= 2")
    if not (0.0 < ratio < 1.0):
        raise DomainError("ratio must lie in (0, 1)")
    final_step_floor = max(1e-6 * horizon, horizon / (50.0 * n_steps))

    def tail_length(dt_head: float) -> int:
        if dt_head <= final_step_floor:
            return 1
        m = int(np.floor(np.log(final_step_floor / dt_head) / np.log(ratio)))
        return int(np.clip(m, 1, n_steps - 1))

    dt_head = horizon / n_steps
    for _ in range(3):
        m = tail_length(dt_head)
        tail_factor = ratio * (1.0 - ratio**m) / (1.0 - ratio)
        dt_head = horizon / ((n_steps - m) + tail_factor)
    steps = np.concatenate(
        [
            np.full(n_steps - m, dt_head),
            dt_head * ratio ** np.arange(1, m + 1, dtype=np.float64),
        ]
    )
    nodes = np.concatenate([[0.0], np.cumsum(steps)])
    nodes[-1] = horizon
    return TimeGrid(nodes, GEOMETRIC)
