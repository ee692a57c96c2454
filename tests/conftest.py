import json

import numpy as np
import pytest

from multifractal import WeightedSystem, load_system


def dump_system(sys_: WeightedSystem) -> str:
    """The system as the JSON text load_system reads back."""
    doc = {"probs": list(sys_.probs), "ratios": list(sys_.ratios)}
    if sys_.translations is not None:
        doc["translations"] = list(sys_.translations)
    return json.dumps(doc, indent=2) + "\n"


@pytest.fixture
def s1() -> WeightedSystem:
    """Two maps of ratio 1/2 tiling [0, 1], weights (1/3, 2/3)."""
    return WeightedSystem(probs=(1 / 3, 2 / 3), ratios=(0.5, 0.5),
                          translations=(0.0, 0.5))


@pytest.fixture
def uniform2() -> WeightedSystem:
    """Lebesgue measure as a binary self-similar system."""
    return WeightedSystem(probs=(0.5, 0.5), ratios=(0.5, 0.5),
                          translations=(0.0, 0.5))


def make_random_system(rng: np.random.Generator) -> WeightedSystem:
    """Random OSC system with m in 2..4, weights clipped away from 0."""
    m = int(rng.integers(2, 5))
    p = rng.dirichlet(np.ones(m) * 2.0)
    p = np.clip(p, 0.02, None)
    p = p / p.sum()
    r = rng.uniform(0.05, (1.0 / m) * 0.98, size=m)
    slack = 1.0 - r.sum()
    gaps = rng.dirichlet(np.ones(m)) * slack
    t = np.concatenate([[0.0], np.cumsum(r[:-1] + gaps[:-1])])
    return WeightedSystem(probs=tuple(p), ratios=tuple(r),
                          translations=tuple(t))


def make_equal_ratio_system(rng: np.random.Generator) -> WeightedSystem:
    """Random m in 2..4 maps sharing one ratio, weights clipped away from 0."""
    m = int(rng.integers(2, 5))
    r = float(rng.uniform(0.05, 0.98 / m))
    probs = np.clip(rng.dirichlet(np.full(m, 2.0)), 0.02, None)
    probs = probs / probs.sum()
    return load_system({"probs": probs.tolist(), "ratios": [r] * m})


@pytest.fixture
def random_system():
    return make_random_system
