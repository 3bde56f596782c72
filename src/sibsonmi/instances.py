"""Named distributions shared by the test suite, the selftest battery
and the documentation examples."""

from __future__ import annotations

import numpy as np

from .core import Joint2, Joint3, Joint4, Kernel, Pmf, markov_extend


def _labels(k: int) -> tuple[str, ...]:
    return tuple(str(i) for i in range(k))


def reference_joint() -> Joint3:
    """The worked 2x2x2 example used throughout the documentation.

    Z is a fair coin; given Z = '0' the pair (X, Y) is a perfectly
    correlated fair coin, given Z = '1' X and Y are independent fair
    coins.  All cell weights are exact binary fractions.
    """
    probs = np.zeros((2, 2, 2))
    probs[0, 0, 0] = probs[1, 1, 0] = 0.25
    probs[:, :, 1] = 0.125
    return Joint3(_labels(2), _labels(2), _labels(2), probs)


def z_constant_joint(jxy: Joint2) -> Joint3:
    """Embed a two-way joint as a Joint3 with a single Z symbol."""
    return Joint3(
        jxy.x_labels, jxy.y_labels, ("z",), jxy.probs[:, :, None]
    )


def asymmetric_joint() -> Joint3:
    """A fixed joint whose kernel-minimised conditional measure changes
    under the X <-> Y swap by more than 1e-3 (the Z-minimised one never
    does).  Noisy non-uniform rows; deterministic channels turn out to
    be accidentally symmetric here, so the noise is load-bearing.
    """
    pz = np.array([0.5, 0.5])
    cx0 = np.array([1, 1, 1]) / 3
    ky0 = np.array([[0.75, 0.25], [0.25, 0.75], [0.5, 0.5]])
    cx1 = np.array([0.5, 0.25, 0.25])
    ky1 = np.array([[0.875, 0.125], [0.125, 0.875], [0.5, 0.5]])
    probs = np.zeros((3, 2, 2))
    probs[:, :, 0] = pz[0] * cx0[:, None] * ky0
    probs[:, :, 1] = pz[1] * cx1[:, None] * ky1
    return Joint3(_labels(3), _labels(2), _labels(2), probs)


def random_pmf(rng: np.random.Generator, k: int) -> Pmf:
    return Pmf(_labels(k), rng.dirichlet(np.ones(k)))


def random_joint2(rng: np.random.Generator, nx: int, ny: int) -> Joint2:
    probs = rng.dirichlet(np.ones(nx * ny)).reshape(nx, ny)
    return Joint2(_labels(nx), _labels(ny), probs)


def random_joint3(
    rng: np.random.Generator,
    shape: tuple[int, int, int],
    zero_cells: int = 0,
    concentration: float = 1.0,
) -> Joint3:
    """A Dirichlet-random joint, optionally with a few cells zeroed out
    (and renormalised) to exercise the support-handling paths."""
    nx, ny, nz = shape
    cells = nx * ny * nz
    probs = rng.dirichlet(np.full(cells, concentration))
    if zero_cells:
        drop = rng.choice(cells, size=min(zero_cells, cells - 1), replace=False)
        probs[drop] = 0.0
        probs /= probs.sum()
    return Joint3(_labels(nx), _labels(ny), _labels(nz), probs.reshape(shape))


def random_kernel(rng: np.random.Generator, n_in: int, n_out: int) -> Kernel:
    rows = rng.dirichlet(np.ones(n_out), size=n_in)
    return Kernel(_labels(n_in), _labels(n_out), rows)


def random_markov_joint(
    rng: np.random.Generator, shape: tuple[int, int, int]
) -> Joint3:
    """A joint of exact product form P_Z P(x|z) P(y|z)."""
    nx, ny, nz = shape
    pz = rng.dirichlet(np.ones(nz))
    cx = rng.dirichlet(np.ones(nx), size=nz)
    cy = rng.dirichlet(np.ones(ny), size=nz)
    probs = np.einsum("z,zx,zy->xyz", pz, cx, cy)
    return Joint3(_labels(nx), _labels(ny), _labels(nz), probs)


def random_markov_joint4(
    rng: np.random.Generator, shape: tuple[int, int, int, int]
) -> tuple[Joint4, Kernel]:
    """A random four-way joint satisfying (Z,W) - X - Y by construction,
    returned together with the X -> Y channel that built it."""
    nw, nx, ny, nz = shape
    base = Joint3(
        _labels(nw),
        _labels(nx),
        _labels(nz),
        rng.dirichlet(np.ones(nw * nx * nz)).reshape(nw, nx, nz),
    )
    channel = random_kernel(rng, nx, ny)
    return markov_extend(base, channel), channel
