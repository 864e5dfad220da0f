import numpy as np
import pytest

from typicality.sampling import sample_states


def _draw_states(sub, seed, start, count):
    """(coords, rho) of states ``start .. start + count - 1`` on ``sub``, as
    ``sample_states`` draws them, stacked into two arrays."""
    stacks = [(c.copy(), rho.copy()) for _, c, rho in sample_states(sub, seed, start, count)]
    return tuple(np.concatenate(parts) for parts in zip(*stacks))


@pytest.fixture
def draw_states():
    return _draw_states
