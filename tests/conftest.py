import numpy as np
import pytest

from sibsonmi.core import EventMask, Joint2, Joint3, Kernel, require_conformal
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


def independent_joint2(px, py) -> Joint2:
    """The product of two marginals, on labels "0", "1", ..."""
    px = np.asarray(px, float)
    py = np.asarray(py, float)
    labels = [tuple(str(i) for i in range(len(p))) for p in (px, py)]
    return Joint2(*labels, np.outer(px, py))


def event_slice(e: EventMask, j: Joint3, z) -> np.ndarray:
    """The (x, y) slice of the event at a fixed z symbol."""
    require_conformal(e, j)
    return e.mask[:, :, j.z_labels.index(z)]


def event_slice_zy(e: EventMask, j: Joint3, z, y) -> np.ndarray:
    """The x slice of the event at fixed (z, y) symbols."""
    require_conformal(e, j)
    return e.mask[:, j.y_labels.index(y), j.z_labels.index(z)]
