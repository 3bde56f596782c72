import numpy as np
import pytest

from sibsonmi.core import EventMask, Joint2, Joint3, Kernel, _order, require_conformal
from sibsonmi.errors import ShapeMismatchError
from sibsonmi.instances import reference_joint
from sibsonmi.oracles import (
    _auto_step,
    batch_renyi_from_defs,
    minimize_on_simplex,
)


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


def sibson_mi_oracle(jxy: Joint2, a, step: float | None = None):
    """min over output pmfs Q of D_a(P_XY || P_X x Q), definitionally,
    on the simplex grid of the oracles.  Returns ``(value, argmin_q)``.
    """
    av = _order(a, "sibson_mi_oracle").value
    p = jxy.probs.ravel()
    px = jxy.probs.sum(axis=1)
    ny = jxy.probs.shape[1]

    def f_batch(qs: np.ndarray) -> np.ndarray:
        ms = (px[None, :, None] * qs[:, None, :]).reshape(qs.shape[0], -1)
        return batch_renyi_from_defs(p, ms, av)

    q, val = minimize_on_simplex(f_batch, ny, step=_auto_step(ny, step))
    return val, q
