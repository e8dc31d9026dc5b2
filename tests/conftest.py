import numpy as np
import pytest

from catcodes import PauliChannel


def random_channels(seed: int, count: int) -> list[PauliChannel]:
    """Seeded Dirichlet draws over the Pauli simplex."""
    rng = np.random.default_rng(seed)
    return [PauliChannel(*(float(x) for x in rng.dirichlet([1.0] * 4))) for _ in range(count)]


# Channels at the edges of the rate formulas: no amplitude flips (q_x = 0),
# the noiseless channel, p = 1 (depolarizing, two-Pauli, pure bit flip),
# p_x = p_y (beta = 0, as on every depolarizing channel) and p_i = p_z
# (1 - q_x - 2 p_z = 0).
EDGE_CHANNELS = [
    PauliChannel(0.9, 0.0, 0.0, 0.1),
    PauliChannel(1.0, 0.0, 0.0, 0.0),
    PauliChannel(0.0, 1 / 3, 1 / 3, 1 / 3),
    PauliChannel(0.0, 0.5, 0.0, 0.5),
    PauliChannel(0.0, 1.0, 0.0, 0.0),
    PauliChannel(0.81, 0.19 / 3, 0.19 / 3, 0.19 / 3),
    PauliChannel(0.3, 0.25, 0.15, 0.3),
]


@pytest.fixture
def channels20() -> list[PauliChannel]:
    return random_channels(20260826, 20)
