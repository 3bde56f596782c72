import numpy as np
import pytest

from sibsonmi.core import Joint3, Kernel
from sibsonmi.errors import ShapeMismatchError
from sibsonmi.instances import reference_joint


@pytest.fixture
def ref():
    return reference_joint()


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def copy_joint(m: int = 2) -> Joint3:
    """X = Y = Z uniform over m symbols."""
    labels = tuple(str(i) for i in range(m))
    probs = np.zeros((m, m, m))
    for i in range(m):
        probs[i, i, i] = 1.0 / m
    return Joint3(labels, labels, labels, probs)


def compose(first: Kernel, second: Kernel) -> Kernel:
    """The kernel ``first`` followed by ``second`` (fully reachable)."""
    if second.in_labels != first.out_labels:
        raise ShapeMismatchError("kernels do not chain")
    return Kernel(
        first.in_labels, second.out_labels, first.rows @ second.rows, first.reachable
    )
