"""Numerical evaluation of iterated integrals and generating series on
rectangular (theta, t) grids.

The time recursion is evaluated innermost-first with a cumulative
composite trapezoid rule, which delivers every partial integral from 0 to
t_k in one pass at O(h^2).  Partial theta-derivatives of an evaluated map
are distributed over the input-letter occurrences of each word
(``expand_derivative``); derivative orders attach to those occurrences as
decorations, since the drift signal is constant and absorbs none.

A series is evaluated over a trie of decorated words: each node holds the
coefficient of the word ending there, and a node's sum is its coefficient
plus one cumulative integral of the sum over its child steps (letter,
order) of the letter's signal times the child's sum.  The integral is
linear, so this is one integration pass per node with children rather
than one per child.  Summation order is fixed - a depth-first walk with
children in first-insertion order, inserted in canonical word order, then
lexicographic operator terms, then ``expand_derivative`` order - so
repeated runs are bit-identical.

Grids and fields are laid out (theta..., t), time last.  The iterated
integral code works time-leading, (t, theta...): ``cumulative_trapezoid``
integrates along axis 0, so each of its steps runs over contiguous rows.
Signal samples enter as moved-axis views and coefficients with shape
(1, theta...); a result is moved back to grid layout once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from . import expr as ex
from .diffop import MultiIndex, mi_abs, mi_zero
from .series import GenSeries
from .words import DRIFT, Letter, Word

__all__ = [
    "Grid", "GridField", "InputSignal", "DecoratedWord", "EvaluationError",
    "cumulative_trapezoid", "expand_derivative", "iterated_integral",
    "evaluate_series", "chen_coefficients", "write_csv",
]


class EvaluationError(Exception):
    pass


@dataclass(frozen=True)
class Grid:
    """Uniform rectangular grid on [a_k, b_k] x ... x [0, T]."""

    theta_axes: tuple[tuple[float, float, int], ...]
    t_end: float
    n_t: int

    def __post_init__(self):
        for a, b, n in self.theta_axes:
            if n < 2:
                raise EvaluationError("each theta axis needs at least 2 points")
            if not b > a:
                raise EvaluationError("theta interval must have positive length")
        if self.n_t < 2:
            raise EvaluationError("time axis needs at least 2 points")
        if not self.t_end > 0:
            raise EvaluationError("time horizon must be positive")

    @property
    def dim(self) -> int:
        return len(self.theta_axes)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(n for _, _, n in self.theta_axes) + (self.n_t,)

    def theta_points(self, axis: int) -> np.ndarray:
        a, b, n = self.theta_axes[axis]
        return np.linspace(a, b, n)

    def theta_spacing(self, axis: int) -> float:
        a, b, n = self.theta_axes[axis]
        return (b - a) / (n - 1)

    @property
    def t_points(self) -> np.ndarray:
        return np.linspace(0.0, self.t_end, self.n_t)

    @property
    def dt(self) -> float:
        return self.t_end / (self.n_t - 1)

    def meshes(self, with_t: bool = True) -> dict[str, np.ndarray]:
        """Broadcastable coordinate arrays keyed by variable name."""
        ndim = self.dim + (1 if with_t else 0)
        out: dict[str, np.ndarray] = {}
        for k in range(self.dim):
            shape = [1] * ndim
            shape[k] = self.theta_axes[k][2]
            out[f"theta_{k + 1}"] = self.theta_points(k).reshape(shape)
        if with_t:
            shape = [1] * ndim
            shape[-1] = self.n_t
            out["t"] = self.t_points.reshape(shape)
        return out

    @classmethod
    def from_spec(cls, spec: str) -> "Grid":
        """Parse "a:b:n,...,0:T:nt" (theta axes first, time axis last)."""
        axes = []
        for chunk in spec.split(","):
            parts = chunk.split(":")
            if len(parts) != 3:
                raise EvaluationError(f"bad grid axis {chunk!r}; expected a:b:n")
            try:
                a, b, n = float(parts[0]), float(parts[1]), int(parts[2])
            except ValueError:
                raise EvaluationError(
                    f"bad grid axis {chunk!r}; a and b must be numbers and n "
                    "an integer") from None
            if not (math.isfinite(a) and math.isfinite(b)):
                raise EvaluationError(f"bad grid axis {chunk!r}; bounds must be finite")
            axes.append((a, b, n))
        if len(axes) < 2:
            raise EvaluationError("grid needs at least one theta axis and a time axis")
        t0, t1, nt = axes[-1]
        if t0 != 0.0:
            raise EvaluationError("the time axis must start at 0")
        return cls(tuple(axes[:-1]), t1, nt)


class GridField:
    """Complex samples of a scalar field on a grid."""

    __slots__ = ("grid", "values")

    def __init__(self, grid: Grid, values: np.ndarray):
        values = np.asarray(values, dtype=np.complex128)
        if values.shape != grid.shape:
            raise EvaluationError(
                f"field shape {values.shape} does not match grid {grid.shape}")
        self.grid = grid
        self.values = values

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))

    def __sub__(self, other: "GridField") -> "GridField":
        return GridField(self.grid, self.values - other.values)


def cumulative_trapezoid(f: np.ndarray, dt: float) -> np.ndarray:
    """Running integral along axis 0, the time axis; entry 0 is 0.

    The result is a new C-contiguous complex array.  The interval sums,
    their scaling by dt/2 and the running sum are all formed in place in
    it, so the outer time axis makes every step one pass over contiguous
    rows.  Per element the arithmetic is (f_k + f_{k+1}) * (dt/2) summed
    in time order."""
    out = np.empty(f.shape, dtype=np.complex128)
    out[0] = 0
    steps = out[1:]
    np.add(f[:-1], f[1:], out=steps)
    steps *= 0.5 * dt
    np.cumsum(steps, axis=0, out=steps)
    return out


MAX_SAMPLED_FD_ORDER = 4


class InputSignal:
    """A control input u(theta, t), symbolic or sampled.

    Symbolic signals support exact theta-derivatives of any order; sampled
    signals fall back to second-order central differences, capped at total
    derivative order 4 beyond which finite differences of samples are
    numerically meaningless.  Derivative samples are not cached here; a
    caller that reuses one holds it itself.
    """

    __slots__ = ("expr", "field")

    def __init__(self, expr: ex.Expr | None = None,
                 field: GridField | None = None):
        if (expr is None) == (field is None):
            raise EvaluationError("pass exactly one of expr= or field=")
        self.expr = expr
        self.field = field

    @classmethod
    def symbolic(cls, e) -> "InputSignal":
        return cls(expr=ex.simplify(ex.as_expr(e)))

    @classmethod
    def sampled(cls, field: GridField) -> "InputSignal":
        return cls(field=field)

    @classmethod
    def zero(cls) -> "InputSignal":
        return cls(expr=ex.ZERO)

    @property
    def is_symbolic(self) -> bool:
        return self.expr is not None

    def derivative_values(self, grid: Grid, order: MultiIndex) -> np.ndarray:
        """Samples of the order-th theta-derivative, broadcast to grid shape."""
        if self.is_symbolic:
            e = self.expr
            for axis, k in enumerate(order):
                if k:
                    e = ex.differentiate(e, f"theta_{axis + 1}", k)
            values = np.asarray(ex.evaluate(e, grid.meshes()), dtype=np.complex128)
            values = np.broadcast_to(values, grid.shape)
        else:
            if self.field.grid.shape != grid.shape:
                raise EvaluationError("sampled signal lives on a different grid")
            if mi_abs(tuple(order)) > MAX_SAMPLED_FD_ORDER:
                raise EvaluationError(
                    f"derivative order {tuple(order)} exceeds the sampled-signal "
                    f"cap of {MAX_SAMPLED_FD_ORDER}")
            values = self.field.values
            for axis, k in enumerate(order):
                h = grid.theta_spacing(axis)
                for _ in range(k):
                    values = np.gradient(values, h, axis=axis, edge_order=2)
        return values


Binding = Mapping[int, InputSignal]


def _as_binding(u: Union[InputSignal, Binding], alphabet) -> Binding:
    if isinstance(u, InputSignal):
        ids = sorted(l.index for l in alphabet if not l.is_drift)
        if not ids:
            return {}
        return {i: u for i in ids}
    return dict(u)


# ---------------------------------------------------------------------------
# decorated words and derivative distribution

# A decorated word is a tuple of (letter, order) pairs; drift letters carry
# order None, input letters carry a theta multi-index.
DecoratedWord = tuple[tuple[Letter, Optional[MultiIndex]], ...]


def undecorated(w: Word, dim: int) -> DecoratedWord:
    z = mi_zero(dim)
    return tuple((l, None if l.is_drift else z) for l in w)


def _compositions(total: int, parts: int):
    """All ways to write total as an ordered sum of `parts` nonnegative
    integers, in a fixed deterministic order."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def expand_derivative(w: Word, alpha: MultiIndex) -> list[tuple[int, DecoratedWord]]:
    """Distribute the derivative D^alpha over the input-letter occurrences
    of w, returning (multinomial weight, decorated word) terms.

    Derivatives falling on the drift letter vanish, so a pure-drift word
    with a nonzero alpha expands to nothing.
    """
    dim = len(alpha)
    positions = [i for i, l in enumerate(w.letters) if not l.is_drift]
    if mi_abs(alpha) == 0:
        return [(1, undecorated(w, dim))]
    if not positions:
        return []
    per_axis: list[list[tuple[int, tuple[int, ...]]]] = []
    for k in alpha:
        axis_terms = []
        for comp in _compositions(k, len(positions)):
            weight = math.factorial(k)
            for m in comp:
                weight //= math.factorial(m)
            axis_terms.append((weight, comp))
        per_axis.append(axis_terms)

    out: list[tuple[int, DecoratedWord]] = []

    def build(axis: int, weight: int, orders: list[list[int]]):
        if axis == dim:
            decorated = []
            slot = 0
            for l in w.letters:
                if l.is_drift:
                    decorated.append((l, None))
                else:
                    decorated.append((l, tuple(orders[a][slot] for a in range(dim))))
                    slot += 1
            out.append((weight, tuple(decorated)))
            return
        for wgt, comp in per_axis[axis]:
            build(axis + 1, weight * wgt, orders + [list(comp)])

    build(0, 1, [])
    return out


# ---------------------------------------------------------------------------
# iterated integrals, time-leading: (t, theta...)

def _to_grid(values: np.ndarray | complex, grid: Grid) -> GridField:
    """A time-leading result as an owned, C-contiguous grid-shaped field."""
    full = np.broadcast_to(values, (grid.n_t,) + grid.shape[:-1])
    return GridField(grid, np.moveaxis(full, 0, -1).copy())


def _integral_from_cache(dw: DecoratedWord, binding: Binding, grid: Grid,
                         cache: dict) -> np.ndarray:
    if not dw:
        return np.ones((grid.n_t,) + (1,) * grid.dim, dtype=np.complex128)
    key = dw
    hit = cache.get(key)
    if hit is not None:
        return hit
    head, tail = dw[0], dw[1:]
    inner = _integral_from_cache(tail, binding, grid, cache)
    letter, order = head
    if letter.is_drift:
        integrand = inner
    else:
        try:
            signal = binding[letter.index]
        except KeyError:
            raise EvaluationError(
                f"input letter {letter.text()} is not bound to a signal") from None
        if (signal, order) not in cache:
            cache[signal, order] = np.moveaxis(
                signal.derivative_values(grid, order), -1, 0)
        integrand = cache[signal, order] * inner
    value = cumulative_trapezoid(integrand, grid.dt)
    cache[key] = value
    return value


def iterated_integral(w: Union[Word, DecoratedWord],
                      u: Union[InputSignal, Binding], grid: Grid,
                      cache: dict | None = None) -> GridField:
    """E_w[u] on the grid: the time recursion integrates the leftmost
    letter's signal against the integral of the remainder.  A cache passed
    in keeps the integrals of decorated suffixes and the signal samples
    they used, for reuse across calls."""
    if isinstance(w, Word):
        dw = undecorated(w, grid.dim)
        letters = set(w.letters)
    else:
        dw = w
        letters = {l for l, _ in w}
    binding = _as_binding(u, letters | {DRIFT})
    if cache is None:
        cache = {}
    return _to_grid(_integral_from_cache(dw, binding, grid, cache), grid)


class _TrieNode:
    """A decorated prefix: the summed coefficient of the word ending here
    and the children keyed by the next (letter, order) step, in insertion
    order."""

    __slots__ = ("coef", "children")

    def __init__(self):
        self.coef: np.ndarray | None = None
        self.children: dict[tuple[Letter, Optional[MultiIndex]], _TrieNode] = {}


def _accumulate(total: np.ndarray | None,
                part: np.ndarray | None) -> np.ndarray | None:
    """total + part, in place when total (owned) already has the result
    shape; None is the empty sum."""
    if total is None:
        return part
    if part is None:
        return total
    if total.shape == np.broadcast_shapes(total.shape, part.shape):
        total += part
        return total
    return total + part


class _Derivatives:
    """Derivative samples of the bound signals, each computed once and
    held only while an unvisited trie edge still needs it."""

    def __init__(self, binding: Binding, grid: Grid):
        self.binding, self.grid = binding, grid
        self.uses: dict = {}
        self.held: dict = {}

    def count(self, letter: Letter, order: MultiIndex) -> None:
        key = (self.binding[letter.index], order)
        self.uses[key] = self.uses.get(key, 0) + 1

    def take(self, letter: Letter, order: MultiIndex) -> np.ndarray:
        """The (t, theta...) samples of the letter's order-th derivative, a
        view that keeps the zero strides of a broadcast signal."""
        key = (self.binding[letter.index], order)
        values = self.held.pop(key, None)
        if values is None:
            values = np.moveaxis(key[0].derivative_values(self.grid, order), -1, 0)
        self.uses[key] -= 1
        if self.uses[key]:
            self.held[key] = values
        return values


def _node_sum(node: _TrieNode, derivatives: _Derivatives,
              grid: Grid) -> np.ndarray | None:
    """sum_w a_{p w} E_w for the node's prefix p, time-leading: its
    coefficient plus one integration pass over the summed integrands of
    its children (the drift child's sum, u_l^(o) times an input child's
    sum)."""
    integrand = None
    for (letter, order), child in node.children.items():
        inner = _node_sum(child, derivatives, grid)
        if not letter.is_drift:
            inner = derivatives.take(letter, order) * inner
        integrand = _accumulate(integrand, inner)
    if integrand is None:
        return node.coef
    integrand = np.broadcast_to(integrand, (grid.n_t,) + integrand.shape[1:])
    return _accumulate(cumulative_trapezoid(integrand, grid.dt), node.coef)


def evaluate_series(c: GenSeries, u: Union[InputSignal, Binding],
                    grid: Grid) -> GridField:
    """Evaluate the input-output map of c: sum over words and operator
    terms of coefficient(theta) times the decorated iterated integrals.

    The coefficients are free of t and the cumulative integral is linear,
    so sum_w a_w E_{l w} = I[u_l sum_w a_w E_w] and I[f] + I[g] = I[f + g]:
    the terms are gathered in a trie of decorated words, and each node
    with children sums their integrands and integrates once, holding one
    time-leading grid array per level of the depth-first walk.  A signal
    derivative is computed once and released after the last edge that
    uses it.  The result is an owned array in grid layout."""
    if grid.dim != c.dim:
        raise EvaluationError(
            f"grid dim {grid.dim} does not match series dim {c.dim}")
    binding = _as_binding(u, c.alphabet)
    needed = {l.index for w in c.coeffs for l in w.input_letters()}
    missing = needed - set(binding)
    if missing:
        raise EvaluationError(
            f"unbound input letters: {sorted('x%d' % i for i in missing)}")
    theta_meshes = grid.meshes(with_t=False)
    coef_shape = (1,) * (grid.dim + 1)  # (t, theta...) of a constant
    derivatives = _Derivatives(binding, grid)
    root = _TrieNode()
    for w in sorted(c.coeffs, key=Word.sort_key):
        for alpha, coeff in c.coeffs[w].sorted_terms():
            terms = expand_derivative(w, alpha)
            if not terms:
                continue
            a = np.asarray(ex.evaluate(coeff, theta_meshes), dtype=np.complex128)
            a = a[np.newaxis] if a.ndim else a.reshape(coef_shape)
            for weight, dw in terms:
                node = root
                for step in dw:
                    if step not in node.children:
                        node.children[step] = _TrieNode()
                        if not step[0].is_drift:
                            derivatives.count(*step)
                    node = node.children[step]
                node.coef = _accumulate(node.coef, a * weight)
    total = _node_sum(root, derivatives, grid)
    return _to_grid(0j if total is None else total, grid)


def chen_coefficients(n: int, u: Union[InputSignal, Binding], grid: Grid,
                      alphabet: Sequence[Letter] | None = None
                      ) -> dict[Word, GridField]:
    """All E_w[u] for |w| <= n over the given alphabet (default: the drift
    letter plus every bound input letter; a bare signal binds x1)."""
    if alphabet is None:
        if isinstance(u, InputSignal):
            alphabet = [DRIFT, Letter(1)]
        else:
            alphabet = [DRIFT] + [Letter(i) for i in sorted(u)]
    binding = _as_binding(u, alphabet)
    letters = sorted(set(alphabet) | {DRIFT}, key=Letter.sort_key)
    cache: dict = {}
    out: dict[Word, GridField] = {}
    level = [Word()]
    out[Word()] = iterated_integral(Word(), binding, grid, cache)
    for _ in range(n):
        nxt = []
        for w in level:
            for l in letters:
                nw = Word((l,) + w.letters)
                nxt.append(nw)
                out[nw] = iterated_integral(nw, binding, grid, cache)
        level = nxt
    return out


# ---------------------------------------------------------------------------
# export

def write_csv(field: GridField, fh) -> None:
    """theta coordinates, t, re, im; theta-outer / t-inner row order,
    17 significant digits."""
    grid = field.grid
    names = [f"theta_{k + 1}" for k in range(grid.dim)]
    fh.write(",".join(names + ["t", "re", "im"]) + "\n")
    axes = [[f"{x:.17g}" for x in grid.theta_points(k).tolist()]
            for k in range(grid.dim)]
    t = [f"{x:.17g}" for x in grid.t_points.tolist()]
    flat = field.values.reshape(-1, grid.n_t)
    theta_shape = tuple(n for _, _, n in grid.theta_axes)
    for row, idx in enumerate(np.ndindex(theta_shape)):
        prefix = ",".join([axes[k][i] for k, i in enumerate(idx)])
        values = flat[row]
        fh.write("".join([f"{prefix},{tj},{re:.17g},{im:.17g}\n" for tj, re, im
                          in zip(t, values.real.tolist(), values.imag.tolist())]))
