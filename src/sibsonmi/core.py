"""Finite-alphabet probability primitives.

Pmfs, two/three/four-way joint distributions, row-stochastic kernels,
boolean event masks, and the divergence order parameter.  Arrays are
float64, validated on construction and frozen (read-only) afterwards;
every operation is a pure function, so concurrent use is unrestricted.

Conditioning symbols with zero marginal mass are *flagged unreachable*
rather than given a default row: every expression in this package
weights z-terms by P_Z(z), so unreachable rows can never contribute,
and inventing a row would silently change divergences of order > 1.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Iterable

import numpy as np

from .errors import (
    PreconditionError,
    ResourceLimitError,
    ShapeMismatchError,
    ValidationError,
)

MASS_TOL = 1e-12
MARKOV_TOL = 1e-10  # largest Markov-chain defect accepted as a factorisation
CHECK_TOL = 1e-9  # slack every checked inequality of the package allows
DEFAULT_CELL_CAP = 10_000_000

AXES = ("x", "y", "z")


def _check_labels(labels, name: str) -> tuple:
    labels = tuple(labels)
    if len(set(labels)) != len(labels):
        raise ValidationError(f"{name} contains duplicate symbols: {labels!r}")
    if not labels:
        raise ValidationError(f"{name} must not be empty")
    return labels


def _check_finite(values: np.ndarray, what: str) -> None:
    if not np.isfinite(values).all():  # one mask at a time, none kept
        idx = tuple(np.argwhere(~np.isfinite(values))[0].tolist())
        raise ValidationError(
            f"{what} has a non-finite entry {idx} = {float(values[idx])!r}"
        )


def _check_measure(values: np.ndarray, what: str) -> None:
    """Finite and nonnegative entries: a measure, of any total mass."""
    _check_finite(values, what)
    if np.any(values < 0):
        idx = tuple(map(int, np.unravel_index(int(np.argmin(values)), values.shape)))
        raise ValidationError(
            f"{what} violates nonnegativity: entry {idx} = {float(values[idx])!r}"
        )


def _as_array(measure) -> np.ndarray:
    """A Pmf, a joint or an array-like as a float64 array, unchecked."""
    return np.asarray(measure.probs if hasattr(measure, "probs") else measure, dtype=float)


def _alphabet(measure) -> tuple | None:
    """The label tuples a Pmf or a joint carries, one per axis; None for
    an unlabelled array."""
    axes = ("labels", "x_labels", "y_labels", "z_labels")
    return tuple(getattr(measure, a) for a in axes if hasattr(measure, a)) or None


def _same_alphabet(a: tuple | None, b: tuple | None) -> None:
    """The one gate pairing two inputs' labels: alphabets ``a`` and ``b``
    (as ``_alphabet`` gives them) that are both given must be equal, else
    ``ShapeMismatchError``. Arrays are read position by position, so a
    position pairs the same symbol only on one labelled alphabet; an
    unlabelled input pairs by position and passes."""
    if a is not None and b is not None and a != b:
        raise ShapeMismatchError(f"labelled inputs live on different alphabets: {a!r} vs {b!r}")


def _weights(weights, n: int) -> np.ndarray:
    """One weight per each of ``n`` measures: a measure of positive mass."""
    w = np.array(weights, dtype=float)
    if w.shape != (n,):
        raise ShapeMismatchError(f"{n} measures need one weight each, got shape {w.shape}")
    _check_measure(w, "weights")
    if not w.sum() > 0:
        raise ValidationError("weights need a positive sum")
    return w


def _check_mass(probs: np.ndarray, what: str) -> None:
    _check_measure(probs, what)
    total = float(probs.sum())
    if abs(total - 1.0) > MASS_TOL:
        raise ValidationError(
            f"{what} violates normalisation: total mass {total!r} "
            f"differs from 1 by more than {MASS_TOL}"
        )


def _labelled_probs(probs, *axes, copy: bool = True) -> tuple:
    """Validate a probability array against its labelled axes.

    ``axes`` holds one ``(name, labels)`` pair per array axis, ``name``
    being what error messages call the labels.  Returns the checked
    label tuples followed by one read-only float64 copy of ``probs``
    (a pmf for one axis, a joint pmf for more); without ``copy``,
    ``probs`` must be a float64 array and is itself checked and frozen.
    """
    labels = [_check_labels(symbols, name) for name, symbols in axes]
    shape = tuple(map(len, labels))
    p = np.array(probs, dtype=float) if copy else probs
    if p.shape != shape:
        raise ShapeMismatchError(
            f"pmf needs {shape[0]} entries, got shape {p.shape}"
            if len(shape) == 1
            else f"joint needs shape {shape}, got {p.shape}"
        )
    _check_mass(p, "pmf" if len(shape) == 1 else "joint pmf")
    p.flags.writeable = False
    return (*labels, p)


class Alpha:
    """Divergence order: a finite positive real != 1, or a symbolic limit.

    The order-1 (Kullback-Leibler) and sup-order points are never reached
    by plugging 1 or inf into the finite-order formulas; they are the
    distinguished instances ``Alpha.ONE`` and ``Alpha.INFINITY`` and all
    consumers dispatch on them explicitly.
    """

    __slots__ = ("value",)

    ONE: "Alpha"
    INFINITY: "Alpha"

    def __init__(self, value: float):
        v = float(value)
        if math.isnan(v) or v <= 0:
            raise ValidationError(f"order must be a positive real, got {value!r}")
        if v == 1.0:
            raise ValidationError(
                "order 1 is the symbolic Alpha.ONE, not a finite order"
            )
        if math.isinf(v):
            raise ValidationError(
                "infinite order is the symbolic Alpha.INFINITY"
            )
        self.value = v

    @property
    def is_one(self) -> bool:
        return self.value == 1.0

    @property
    def is_inf(self) -> bool:
        return math.isinf(self.value)

    @property
    def is_finite(self) -> bool:
        return not (self.is_one or self.is_inf)

    @classmethod
    def coerce(cls, a) -> "Alpha":
        """Accept an Alpha, a number, or a string: a number, 'one' or 'inf'.

        The exact float 1.0 maps to ``Alpha.ONE`` so that grids spanning
        (0, 1] can be passed directly; a string means what its number
        means, so "1.0" is ``Alpha.ONE`` too.
        """
        if isinstance(a, Alpha):
            return a
        if isinstance(a, str):
            key = a.strip().lower()
            try:
                a = float({"one": 1.0, "oo": math.inf}.get(key, key))
            except ValueError:
                raise ValidationError(
                    f"order must be a number, 'one' or 'inf', got {a!r}"
                ) from None
        v = float(a)
        if v == 1.0:
            return cls.ONE
        if math.isinf(v) and v > 0:
            return cls.INFINITY
        return cls(v)

    def __repr__(self) -> str:
        if self.is_one:
            return "Alpha.ONE"
        if self.is_inf:
            return "Alpha.INFINITY"
        return f"Alpha({self.value!r})"

    def __str__(self) -> str:
        if self.is_one:
            return "one"
        if self.is_inf:
            return "inf"
        # the short form only where it reads back as the same order, so
        # distinct orders never share a label
        short = f"{self.value:g}"
        return short if float(short) == self.value else repr(self.value)

    def __eq__(self, other) -> bool:
        return isinstance(other, Alpha) and self.value == other.value

    def __hash__(self) -> int:
        return hash(("Alpha", self.value))


def _symbolic_alpha(v: float) -> Alpha:
    a = object.__new__(Alpha)
    a.value = v
    return a


Alpha.ONE = _symbolic_alpha(1.0)
Alpha.INFINITY = _symbolic_alpha(math.inf)


def _order(a, what: str, above_one: bool = False, sup: bool = False) -> Alpha:
    """``Alpha.coerce(a)`` if the function ``what`` is defined on it: a
    finite order, above 1 with ``above_one``, or with ``sup`` the sup order;
    any other order raises ``ValidationError`` naming ``what`` and it."""
    a = Alpha.coerce(a)
    if (a.is_finite and (a.value > 1.0 or not above_one)) or (sup and a.is_inf):
        return a
    orders = ("an order" if sup else "a finite order") + (" above 1" if above_one else "")
    raise ValidationError(f"{what} needs {orders}, got order {a}")


class Pmf:
    """Probability vector over a finite, ordered, labelled alphabet."""

    __slots__ = ("labels", "probs")

    def __init__(self, labels: Iterable, probs):
        self.labels, self.probs = _labelled_probs(probs, ("pmf labels", labels))

    def __len__(self) -> int:
        return len(self.labels)

    def __repr__(self) -> str:
        pairs = ", ".join(
            f"{l!r}: {p:.6g}" for l, p in zip(self.labels, self.probs)
        )
        return f"Pmf({pairs})"


class Joint2:
    """Joint pmf over a product of two labelled alphabets."""

    __slots__ = ("x_labels", "y_labels", "probs")

    def __init__(self, x_labels: Iterable, y_labels: Iterable, probs):
        self.x_labels, self.y_labels, self.probs = _labelled_probs(
            probs, ("x_labels", x_labels), ("y_labels", y_labels)
        )

    @property
    def shape(self) -> tuple[int, int]:
        return self.probs.shape

    def marginal_x(self) -> Pmf:
        return Pmf(self.x_labels, self.probs.sum(axis=1))

    def marginal_y(self) -> Pmf:
        return Pmf(self.y_labels, self.probs.sum(axis=0))

    def kernel_y_given_x(self) -> "Kernel":
        return _rows_to_kernel(self.x_labels, self.y_labels, self.probs)

    def swap_xy(self) -> "Joint2":
        return Joint2(self.y_labels, self.x_labels, self.probs.T)

    def __repr__(self) -> str:
        return f"Joint2(shape={self.shape})"


class Kernel:
    """Row-stochastic conditional distribution (one output pmf per input).

    ``reachable[i]`` marks whether input symbol i can occur; unreachable
    rows are stored as all zeros and skipped by every consumer.
    """

    __slots__ = ("in_labels", "out_labels", "rows", "reachable")

    def __init__(self, in_labels, out_labels, rows, reachable=None):
        self.in_labels = _check_labels(in_labels, "kernel in_labels")
        self.out_labels = _check_labels(out_labels, "kernel out_labels")
        r = np.array(rows, dtype=float)
        expected = (len(self.in_labels), len(self.out_labels))
        if r.shape != expected:
            raise ShapeMismatchError(
                f"kernel needs shape {expected}, got {r.shape}"
            )
        if reachable is None:
            reach = np.ones(len(self.in_labels), dtype=bool)
        else:
            reach = np.array(reachable, dtype=bool)
            if reach.shape != (len(self.in_labels),):
                raise ShapeMismatchError("reachable flag has wrong length")
        _check_measure(r, "kernel")
        sums = r.sum(axis=1)
        if np.any(np.abs(sums[reach] - 1.0) > MASS_TOL):
            raise ValidationError(
                "a reachable kernel row deviates from unit mass by more "
                f"than {MASS_TOL}"
            )
        if np.any(sums[~reach] > 0):
            raise ValidationError("unreachable kernel rows must be all zero")
        r.flags.writeable = False
        reach.flags.writeable = False
        self.rows = r
        self.reachable = reach

    def __repr__(self) -> str:
        return f"Kernel({len(self.in_labels)}x{len(self.out_labels)})"


def _rows_to_kernel(in_labels, out_labels, mass: np.ndarray) -> Kernel:
    """Normalise joint rows to a kernel, flagging zero-mass rows."""
    totals = mass.sum(axis=1)
    reach = totals > 0
    rows = np.zeros_like(mass)
    rows[reach] = mass[reach] / totals[reach, None]
    return Kernel(in_labels, out_labels, rows, reach)


def _log(a: np.ndarray, fill: float = -math.inf) -> np.ndarray:
    """Elementwise log of the positive entries, ``fill`` elsewhere.

    The logs are written in place under a mask, so an array costs one
    result and one boolean mask, not a compressed copy and its log too.
    """
    out = np.full(a.shape, fill)
    np.log(a, out=out, where=a > 0)
    return out


# the largest block of P(x,y|z), in cells, the structure given z and the
# per-z kernels on it derive at once (for an order grid, orders x cells);
# a joint with more cells is taken one block of z symbols at a time
_BLOCK_CELLS = 1 << 16


class _GivenZ:
    """Read-only conditional structure of a joint given each z symbol.

    It holds no joint-sized array of its own: ``probs`` is the joint's
    array, and ``cxy_block(b)`` derives P(.,.|z) for a block ``b`` of z
    symbols on demand, so a joint costs one array, not two. ``blocks()``
    is the one split of the z axis into blocks of ``_BLOCK_CELLS`` cells,
    and ``per_z`` the one walk of a per-z kernel over it. ``pz``,
    ``reach``, ``cx`` and ``cy`` are the other arrays of
    ``Joint3.conditionals_given_z``, ``cx`` and ``cy`` summed one block at
    a time; ``lpz``, ``lcx`` and ``lcy`` their logs. Zero masses have
    ``lpz`` -inf but ``lcx`` and ``lcy`` 0, so a term weighting
    ``_log(cxy)`` by a positive order is -inf off the support of
    P(.,.|z) and never NaN. ``ratio_block`` is the one per-z ratio
    P(x,y|z) / (P(x|z) P(y|z)), or its log, on a block.

    The rest is filled on first use and kept: ``cxy``, the whole
    P(.,.|z) of ``conditionals_given_z``; ``cmi``, I(X;Y|Z); and
    ``leakage``, the sup-order leakage parts of ``sibson``.
    """

    __slots__ = ("probs", "pz", "reach", "cx", "cy", "lpz", "lcx", "lcy",
                 "cxy", "cmi", "leakage")

    def __init__(self, probs: np.ndarray):
        pz = probs.sum(axis=(0, 1))
        nx, ny, nz = probs.shape
        self.probs, self.pz, self.reach = probs, pz, pz > 0
        cx, cy = np.empty((nz, nx)), np.empty((nz, ny))
        for b in self.blocks():
            cxy = self.cxy_block(b)
            cx[b], cy[b] = cxy.sum(axis=2), cxy.sum(axis=1)
            del cxy  # one block alive at a time
        self.cx, self.cy = cx, cy
        self.lpz = _log(pz)
        self.lcx, self.lcy = _log(cx, 0.0), _log(cy, 0.0)
        for name in ("pz", "reach", "cx", "cy", "lpz", "lcx", "lcy"):
            getattr(self, name).flags.writeable = False
        self.cxy = self.cmi = self.leakage = None

    def blocks(self) -> list:
        """Slices of the z axis of at most ``_BLOCK_CELLS`` cells each (one
        z at least, and one slice when the whole joint fits), read at call
        time: the blocks the structure is built in and its kernels run on."""
        nx, ny, nz = self.probs.shape
        step = max(1, _BLOCK_CELLS // (nx * ny))
        return [slice(lo, lo + step) for lo in range(0, nz, step)]

    @staticmethod
    def orders_per_chunk(cells: int) -> int:
        """How many orders of an order grid a kernel takes at once on a
        block of ``cells`` cells: ``_BLOCK_CELLS`` (orders x cells) at
        most, read at call time, and one order at least."""
        return max(1, _BLOCK_CELLS // cells)

    def per_z(self, kernel, axis: int = 0) -> np.ndarray:
        """``kernel(b)`` over the ``blocks()`` ``b``, joined along ``axis``,
        the z axis of its results.

        A kernel reduces each z symbol's slice on its own, so the blocks
        give the bits of one whole-joint pass while its temporaries,
        ``cxy_block(b)`` among them, stay the size of one block.
        """
        return np.concatenate([kernel(b) for b in self.blocks()], axis=axis)

    def cxy_block(self, b) -> np.ndarray:
        """P(x,y|z) for the z symbols ``b`` (a slice or an index array) as
        a new z-major (z, x, y) array, all zero for an unreachable z. Each
        cell is the one quotient P(x,y,z) / P_Z(z), so a block has the bits
        of the same rows of the whole array."""
        p = np.moveaxis(self.probs[:, :, b], 2, 0)
        out = np.zeros(p.shape)
        np.divide(p, self.pz[b, None, None], out=out,
                  where=self.reach[b, None, None])
        return out

    def ratio_block(self, b, cxy: np.ndarray, log: bool) -> np.ndarray:
        """P(x,y|z) / (P(x|z) P(y|z)) on the z symbols ``b``, whose
        ``cxy_block(b)`` is ``cxy``, where P(x,y|z) > 0 and 0 elsewhere,
        or with ``log`` its log and 0 elsewhere. A cell whose product
        underflows to 0 under a positive P(x,y|z) takes its log-ratio from
        logs, log P(x,y|z) - log P(x|z) - log P(y|z), and its ratio reads inf
        where that log passes the float range; every other cell is the plain
        ratio.
        """
        prod = self.cx[b, :, None] * self.cy[b, None, :]
        pos, ok = cxy > 0, prod > 0
        out = np.full(cxy.shape, 1.0 if log else 0.0)
        np.divide(cxy, prod, out=out, where=pos & ok)
        if log:
            np.log(out, out=out)
        under = pos & ~ok
        if under.any():
            z, x, y = np.nonzero(under)
            lr = np.log(cxy[z, x, y]) - self.lcx[b][z, x] - self.lcy[b][z, y]
            if not log:
                with np.errstate(over="ignore"):
                    lr = np.exp(lr)
            out[z, x, y] = lr
        return out


class Joint3:
    """Joint pmf over X x Y x Z, the carrier of every conditional measure.

    The joint keeps a read-only copy of ``probs``. ``_copy=False`` is for
    a caller that hands over a float64 array nothing else references, as
    ``cli.load_joint`` does with its decoded buffer: the array is checked
    as a copy would be and frozen, and becomes the joint's own.
    """

    __slots__ = ("x_labels", "y_labels", "z_labels", "probs", "_given_z")

    def __init__(self, x_labels, y_labels, z_labels, probs, *, _copy=True):
        self.x_labels, self.y_labels, self.z_labels, self.probs = _labelled_probs(
            probs, ("x_labels", x_labels), ("y_labels", y_labels),
            ("z_labels", z_labels), copy=_copy,
        )
        self._given_z = None

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.probs.shape

    def labels_for(self, axis: str) -> tuple:
        return {
            "x": self.x_labels,
            "y": self.y_labels,
            "z": self.z_labels,
        }[_norm_axis(axis)]

    def marginal_x(self) -> Pmf:
        return Pmf(self.x_labels, self.probs.sum(axis=(1, 2)))

    def marginal_y(self) -> Pmf:
        return Pmf(self.y_labels, self.probs.sum(axis=(0, 2)))

    def marginal_z(self) -> Pmf:
        return Pmf(self.z_labels, self.probs.sum(axis=(0, 1)))

    def marginal_xy(self) -> Joint2:
        return Joint2(self.x_labels, self.y_labels, self.probs.sum(axis=2))

    def marginal_xz(self) -> Joint2:
        return Joint2(self.x_labels, self.z_labels, self.probs.sum(axis=1))

    def marginal_yz(self) -> Joint2:
        return Joint2(self.y_labels, self.z_labels, self.probs.sum(axis=0))

    def swap_xy(self) -> "Joint3":
        return Joint3(
            self.y_labels,
            self.x_labels,
            self.z_labels,
            np.transpose(self.probs, (1, 0, 2)),
        )

    def _z_structure(self) -> _GivenZ:
        """The conditional structure given z, built once per joint."""
        if self._given_z is None:
            self._given_z = _GivenZ(self.probs)
        return self._given_z

    def conditionals_given_z(self):
        """Per-z conditional structure used throughout the measures.

        Returns ``(pz, reach, cxy, cx, cy)`` where ``cxy[z]`` is the
        conditional joint over (x, y) given z, ``cx``/``cy`` its
        marginals, and unreachable z have all-zero slices.  The arrays
        are read-only and shared by every call on this joint.  The
        measures themselves read the structure one z-block at a time, so
        the whole ``cxy``, a second joint-sized array, is built only
        here, on the first call, and then kept.
        """
        s = self._z_structure()
        if s.cxy is None:
            cxy = s.cxy_block(slice(None))
            cxy.flags.writeable = False
            s.cxy = cxy
        return s.pz, s.reach, s.cxy, s.cx, s.cy

    def __repr__(self) -> str:
        return f"Joint3(shape={self.shape})"


def _norm_axis(axis: str) -> str:
    a = str(axis).lower()
    if a not in AXES:
        raise ShapeMismatchError(f"axis must be one of {AXES}, got {axis!r}")
    return a


def marginal(j: Joint3, axes):
    """Marginal of ``j`` onto the given subset of axes.

    One axis yields a Pmf, two a Joint2 (in x-y-z order), and all three
    return ``j`` itself.
    """
    kept = frozenset(_norm_axis(a) for a in axes)
    if not kept:
        raise ShapeMismatchError("axes must be a nonempty subset of x, y, z")
    if kept == {"x", "y", "z"}:
        return j
    if len(kept) == 1:
        (axis,) = kept
        return {"x": j.marginal_x, "y": j.marginal_y, "z": j.marginal_z}[axis]()
    if kept == {"x", "y"}:
        return j.marginal_xy()
    if kept == {"x", "z"}:
        return j.marginal_xz()
    return j.marginal_yz()


def conditional(j: Joint3, target: str, given: str) -> Kernel:
    """Kernel P(target | given) with zero-mass rows flagged unreachable."""
    t, g = _norm_axis(target), _norm_axis(given)
    if t == g:
        raise ShapeMismatchError("target and conditioning axes must differ")
    other = ({"x", "y", "z"} - {t, g}).pop()
    sum_axis = AXES.index(other)
    pair = j.probs.sum(axis=sum_axis)
    # pair now has axes in x-y-z order restricted to {t, g}
    first = min(AXES.index(t), AXES.index(g))
    mass = pair if AXES.index(g) == first else pair.T
    return _rows_to_kernel(j.labels_for(g), j.labels_for(t), mass)


def markov_product(j: Joint3) -> Joint3:
    """The product P_Z(z) P(x|z) P(y|z) built from j's own conditionals."""
    s = j._z_structure()
    probs = np.einsum("z,zx,zy->xyz", s.pz, s.cx, s.cy)
    return Joint3(j.x_labels, j.y_labels, j.z_labels, probs)


def absolutely_continuous(p, q) -> bool:
    """True iff every cell where q vanishes carries no p-mass."""
    pa, qa = _as_array(p), _as_array(q)
    if pa.shape != qa.shape:
        raise ShapeMismatchError(
            f"shapes {pa.shape} and {qa.shape} do not match"
        )
    _same_alphabet(_alphabet(p), _alphabet(q))
    return not bool(np.any((qa <= 0) & (pa > 0)))


class EventMask:
    """Subset of X x Y x Z as a boolean array conformal with a Joint3;
    any other dtype raises ``ValidationError`` rather than being cast."""

    __slots__ = ("mask",)

    def __init__(self, mask):
        m = np.array(mask)
        if m.dtype != bool:
            raise ValidationError(f"event mask must be boolean, got dtype {m.dtype}")
        if m.ndim != 3:
            raise ShapeMismatchError(
                f"event mask must be 3-dimensional, got {m.ndim}"
            )
        m.flags.writeable = False
        self.mask = m

    @classmethod
    def full(cls, shape) -> "EventMask":
        return cls(np.ones(shape, dtype=bool))

    @classmethod
    def empty(cls, shape) -> "EventMask":
        return cls(np.zeros(shape, dtype=bool))

    @classmethod
    def from_predicate(cls, j: Joint3, fn: Callable) -> "EventMask":
        """Build a mask from a Python predicate over label triples, calling
        it once per cell. The CLI's ``--event`` does not come through here:
        ``cli.parse_event`` evaluates the expression as array operations."""
        m = np.zeros(j.shape, dtype=bool)
        for ix, lx in enumerate(j.x_labels):
            for iy, ly in enumerate(j.y_labels):
                for iz, lz in enumerate(j.z_labels):
                    m[ix, iy, iz] = bool(fn(lx, ly, lz))
        return cls(m)

    @property
    def shape(self):
        return self.mask.shape

    def count(self) -> int:
        return int(self.mask.sum())

    def __repr__(self) -> str:
        return f"EventMask(shape={self.shape}, true={self.count()})"


def require_conformal(e: EventMask, j) -> None:
    if e.shape != j.shape:
        raise ShapeMismatchError(
            f"event shape {e.shape} does not match joint shape {j.shape}"
        )


def tensor_power(j: Joint3, n: int) -> Joint3:
    """The n-fold product of ``j`` over product alphabets.

    Cell (x_1..x_n, y_1..y_n, z_1..z_n) carries the product of the
    per-coordinate probabilities.  Raises ResourceLimitError before
    allocating anything above DEFAULT_CELL_CAP cells.
    """
    if n < 1:
        raise ValidationError(f"tensor power needs n >= 1, got {n}")
    if n == 1:
        return j
    nx, ny, nz = j.shape
    cells = (nx * ny * nz) ** n
    if cells > DEFAULT_CELL_CAP:
        raise ResourceLimitError(
            f"tensor power would need {cells} cells, cap is {DEFAULT_CELL_CAP}"
        )
    acc = j.probs
    for _ in range(n - 1):
        acc = np.multiply.outer(acc, j.probs)
    # acc axes: (x1, y1, z1, x2, y2, z2, ...) -> group by role
    perm = (
        [3 * i for i in range(n)]
        + [3 * i + 1 for i in range(n)]
        + [3 * i + 2 for i in range(n)]
    )
    probs = np.transpose(acc, perm).reshape(nx**n, ny**n, nz**n)
    return Joint3(
        tuple(itertools.product(j.x_labels, repeat=n)),
        tuple(itertools.product(j.y_labels, repeat=n)),
        tuple(itertools.product(j.z_labels, repeat=n)),
        probs,
    )


class Joint4:
    """Joint pmf over W x X x Y x Z used by the four-variable inequalities."""

    __slots__ = ("w_labels", "x_labels", "y_labels", "z_labels", "probs")

    def __init__(self, w_labels, x_labels, y_labels, z_labels, probs):
        (self.w_labels, self.x_labels, self.y_labels, self.z_labels,
         self.probs) = _labelled_probs(
            probs, ("w_labels", w_labels), ("x_labels", x_labels),
            ("y_labels", y_labels), ("z_labels", z_labels),
        )

    @property
    def shape(self):
        return self.probs.shape

    def marginal_wxz(self) -> Joint3:
        """(W, X, Z) marginal as a Joint3 with W, X in the x, y slots."""
        return Joint3(
            self.w_labels, self.x_labels, self.z_labels, self.probs.sum(axis=2)
        )

    def marginal_wyz(self) -> Joint3:
        """(W, Y, Z) marginal as a Joint3 with W, Y in the x, y slots."""
        return Joint3(
            self.w_labels, self.y_labels, self.z_labels, self.probs.sum(axis=1)
        )

    def markov_defect_zw_x_y(self) -> float:
        """Max deviation from the (Z,W) - X - Y factorisation.

        Zero means P(w,x,y,z) = P(w,x,z) P(y|x) exactly, i.e. Y depends
        on (W, Z) only through X.
        """
        pwxz = self.probs.sum(axis=2)
        px = self.probs.sum(axis=(0, 2, 3))
        pxy = self.probs.sum(axis=(0, 3))
        k_y_given_x = np.zeros_like(pxy)
        pos = px > 0
        k_y_given_x[pos] = pxy[pos] / px[pos, None]
        rebuilt = np.einsum("wxz,xy->wxyz", pwxz, k_y_given_x)
        return float(np.max(np.abs(self.probs - rebuilt)))

    def is_markov_zw_x_y(self) -> bool:
        return self.markov_defect_zw_x_y() <= MARKOV_TOL

    def __repr__(self) -> str:
        return f"Joint4(shape={self.shape})"


def _zw_x_y_chain(j4: Joint4) -> Joint4:
    """``j4`` if it is a (Z,W) - X - Y chain within MARKOV_TOL, else PreconditionError."""
    if not j4.is_markov_zw_x_y():
        raise PreconditionError(f"joint does not factor as P(w,x,z) P(y|x) within {MARKOV_TOL}")
    return j4


def _channel(channel: Kernel, x_labels: tuple, px: np.ndarray) -> np.ndarray:
    """The rows of a channel on the X axis of a joint, ``x_labels`` with
    marginal ``px``; ShapeMismatchError unless that is the channel's input
    alphabet, ValidationError if X puts mass on an unreachable row."""
    if channel.in_labels != x_labels:
        raise ShapeMismatchError("channel input alphabet must equal the joint's X axis")
    if np.any((px > 0) & ~channel.reachable):
        raise ValidationError("joint puts mass on an unreachable channel row")
    return channel.rows


def markov_extend(base: Joint3, channel: Kernel) -> Joint4:
    """Attach Y to a (W, X, Z) joint through an X -> Y channel.

    ``base`` axes are read as (W, X, Z); the result satisfies the
    (Z,W) - X - Y Markov chain by construction.
    """
    rows = _channel(channel, base.y_labels, base.probs.sum(axis=(0, 2)))
    probs = np.einsum("wxz,xy->wxyz", base.probs, rows)
    return Joint4(
        base.x_labels, base.y_labels, channel.out_labels, base.z_labels, probs
    )
