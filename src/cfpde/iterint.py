"""Numerical evaluation of iterated integrals and generating series on
rectangular (theta, t) grids.

The time recursion is evaluated innermost-first with a cumulative
composite trapezoid rule, which delivers every partial integral from 0 to
t_k in one pass at O(h^2).  Partial theta-derivatives of an evaluated map
are distributed over the input-letter occurrences of each word
(``expand_derivative``); derivative orders attach to those occurrences as
decorations, since the drift signal is constant and absorbs none.

A series is evaluated over a trie of decorated words, each node holding
the coefficient of the word ending there, walked depth first with
children in first-insertion order (canonical word order, then
lexicographic operator terms, then ``expand_derivative`` order), so
repeated runs are bit-identical.  The walk takes one of two paths, and
the input alone decides which:

* Separable.  When every input letter the series uses is bound to a
  symbolic signal whose canonical form over (theta, t) has no atom mixing
  theta and t, each signal splits once as u = sum_g F_g(theta) G_g(t),
  grouped by time monomial g, unless the time words would outnumber the
  trie's edges by far (see ``_MAX_VISITS_PER_EDGE``).  The coefficients are free of t and the
  trapezoid rule is linear, I[a(theta) b(t)] = a(theta) I[b](t), so
  y = sum_tau A_tau(theta) E_tau(t) over time words tau: the walk sums
  A_tau on the theta axes, each E_tau is one trapezoid pass on a 1-D
  time array shared along suffixes, and one matrix product contracts
  the two into grid layout.
* Grid.  Sampled signals and mixed ones such as sin(theta_1 - t): a
  node's sum is its coefficient plus one cumulative integral of the sum
  over its child steps (letter, order) of the letter's signal times the
  child's sum, one pass per node with children.  These arrays are
  time-leading, (t, theta...): ``cumulative_trapezoid`` integrates along
  axis 0, so each of its steps runs over contiguous rows.  Signal
  samples enter as moved-axis views and coefficients with shape
  (1, theta...); a result is moved back to grid layout once.

Both paths apply the same trapezoid rule to the same integrands, so
they agree up to rounding.  Grids and fields are laid out (theta..., t),
time last.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Optional, Sequence, Union

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


def _check_spacing(length: float, n: int) -> None:
    try:
        spacing = length / (n - 1)
    except OverflowError:  # n itself is beyond a float
        spacing = 0.0
    if not 0 < spacing < math.inf:
        raise EvaluationError("grid spacing must be a positive finite float")


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
            if not math.isfinite(b - a):
                raise EvaluationError("theta interval is too long for a float")
            _check_spacing(b - a, n)
        if self.n_t < 2:
            raise EvaluationError("time axis needs at least 2 points")
        if not self.t_end > 0:
            raise EvaluationError("time horizon must be positive")
        _check_spacing(self.t_end, self.n_t)
        # numpy's own ceiling on one array: its byte count must fit in intp
        points = math.prod(self.shape)
        if points * np.dtype(np.complex128).itemsize > np.iinfo(np.intp).max:
            raise EvaluationError(
                f"grid has {points} points, more complex values than one "
                "numpy array can hold")

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

    def __init__(self, binding: Binding, grid: Grid, root: _TrieNode):
        self.binding, self.grid = binding, grid
        self.uses: dict = {}
        self.held: dict = {}
        self._count(root)

    def _count(self, node: _TrieNode) -> None:
        for (letter, order), child in node.children.items():
            if not letter.is_drift:
                key = (self.binding[letter.index], order)
                self.uses[key] = self.uses.get(key, 0) + 1
            self._count(child)

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


def _build_trie(c: GenSeries, grid: Grid) -> _TrieNode:
    """The trie of decorated words of c, each node's coefficient summed
    with shape (1, theta...)."""
    theta_meshes = grid.meshes(with_t=False)
    coef_shape = (1,) * (grid.dim + 1)  # (t, theta...) of a constant
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
                    node = node.children[step]
                node.coef = _accumulate(node.coef, a * weight)
    return root


# ---------------------------------------------------------------------------
# separable inputs: u_l(theta, t) = sum_g F_{l,g}(theta) G_g(t)

def _split(signal: InputSignal, dim: int) -> list | None:
    """[(g, F_g)] with u = sum_g F_g(theta) G_g(t): g is a time monomial
    (t exponent, atoms in t alone) and F_g a Poly in theta_1..theta_dim.
    None for a sampled signal, one canonical does not take, or one with
    an atom whose argument mixes theta and t."""
    if not signal.is_symbolic:
        return None
    try:
        p = ex.canonical(signal.expr, dim + 1, t=True)
    except ex.ExprError:
        return None
    t_name = f"theta_{dim + 1}"
    groups: dict = {}
    for (e, atoms), c in p.sorted_items():
        in_t, in_theta = [], []
        for atom in atoms:
            names = ex.variables(atom[1])
            if t_name not in names:
                in_theta.append(atom)
            elif len(names) == 1:
                in_t.append(atom)
            else:
                return None
        g = (e[dim], tuple(in_t))
        groups.setdefault(g, {})[e[:dim] + (0,), tuple(in_theta)] = c
    return [(g, ex.Poly(dim + 1, terms).embed(dim)) for g, terms in groups.items()]


class _Separable:
    """A separable evaluation, y = sum_tau A_tau(theta) E_tau(t).  Time
    monomials are interned as time letters, 0 being the drift's 1;
    A_tau sums, per time word tau, weight * coefficient * the product of
    the input steps' theta factors."""

    def __init__(self, binding: Binding, splits: dict, grid: Grid):
        self.binding, self.splits, self.grid = binding, splits, grid
        self.meshes = grid.meshes(with_t=False)
        self.letters: dict = {(0, ()): 0}
        self.factors: dict = {}  # (signal, order) -> [(time letter, samples)]
        self.sums: dict = {}  # tau -> A_tau
        self.integrals: dict = {}  # tau -> E_tau

    def steps(self, letter: Letter, order: MultiIndex) -> list:
        """(time letter, theta samples of d^order F_g) per nonzero group
        of the letter's signal, each derivative chain built once."""
        signal = self.binding[letter.index]
        key = (signal, order)
        if key not in self.factors:
            out = []
            for g, f in self.splits[signal]:
                for axis, k in enumerate(order):
                    for _ in range(k):
                        f = f.derivative(axis)
                if f.terms:
                    out.append((self.letters.setdefault(g, len(self.letters)),
                                np.asarray(ex.evaluate(f, self.meshes),
                                           dtype=np.complex128)))
            self.factors[key] = out
        return self.factors[key]

    def walk(self, node: _TrieNode, product, tau: tuple) -> None:
        if node.coef is not None:
            part = node.coef[0] if product is None else node.coef[0] * product
            if tau in self.sums:
                self.sums[tau] += part
            else:
                self.sums[tau] = np.array(np.broadcast_to(part, self.grid.shape[:-1]))
        for (letter, order), child in node.children.items():
            if letter.is_drift:
                self.walk(child, product, tau + (0,))
                continue
            for g, factor in self.steps(letter, order):
                self.walk(child, factor if product is None else product * factor,
                          tau + (g,))

    def integral(self, tau: tuple, g_values: list) -> np.ndarray:
        """E_tau(t) = I[G_{tau_0} E_{tau[1:]}] on (n_t,) arrays: one
        cumulative_trapezoid pass per distinct nonempty suffix."""
        if not tau:
            return np.ones(self.grid.n_t, dtype=np.complex128)
        hit = self.integrals.get(tau)
        if hit is None:
            inner = self.integral(tau[1:], g_values)
            g = g_values[tau[0]]
            hit = self.integrals[tau] = cumulative_trapezoid(
                inner if g is None else g * inner, self.grid.dt)
        return hit

    def field(self, root: _TrieNode) -> GridField:
        """Walk the trie, then contract A and E by one matrix product
        straight into grid layout."""
        self.walk(root, None, ())
        grid = self.grid
        out = np.zeros(grid.shape, dtype=np.complex128)
        if self.sums:
            t_axis = (0,) * grid.dim
            t = {f"theta_{grid.dim + 1}": grid.t_points}
            g_values = [None] + [np.asarray(ex.evaluate(
                ex.Poly(grid.dim + 1, {(t_axis + (e_t,), atoms): 1 + 0j}), t),
                dtype=np.complex128) for e_t, atoms in list(self.letters)[1:]]
            times = np.stack([self.integral(tau, g_values) for tau in self.sums])
            weights = np.stack([a.reshape(-1) for a in self.sums.values()])
            np.matmul(weights.T, times, out=out.reshape(-1, grid.n_t))
        return GridField(grid, out)


# The separable walk visits a trie edge once per choice of time monomial
# along its prefix, and the contraction takes at most one matrix row per
# visit, where the grid walk makes about one full-grid pass per edge.  A
# matrix-product row costs a few percent of such a pass, so past this
# many visits per edge (inputs with many time monomials on words with
# several input letters: the visits grow as their power) the grid walk
# is the cheaper one.
_MAX_VISITS_PER_EDGE = 32


def _visits(node: _TrieNode, groups) -> int:
    """Edges a walk visits when each step is taken groups(step) ways."""
    return sum(groups(step) * (1 + _visits(child, groups))
               for step, child in node.children.items())


def evaluate_series(c: GenSeries, u: Union[InputSignal, Binding],
                    grid: Grid) -> GridField:
    """Evaluate the input-output map of c: sum over words and operator
    terms of coefficient(theta) times the decorated iterated integrals.

    The terms are gathered in a trie of decorated words.  When every
    input letter the series uses is bound to a symbolic signal with no
    atom mixing theta and t, each signal is split once as
    sum_g F_g(theta) G_g(t), and the walk carries the product of the
    theta factors d^o F_g and the time word tau of the G_g (1 for drift):
    y = sum_tau A_tau(theta) E_tau(t), with every E_tau a trapezoid pass
    on a 1-D time array, shared along suffixes.  That walk takes an input
    edge once per time monomial g of the prefix's choices, so it is used
    only while it visits at most _MAX_VISITS_PER_EDGE times as many
    edges as the trie has.  Otherwise (sampled or mixed signals, or that
    many time words) each trie node with children sums its children's
    time-leading integrands and integrates once, since
    sum_w a_w E_{l w} = I[u_l sum_w a_w E_w] and I[f] + I[g] = I[f + g];
    a signal derivative is computed once and released after its last
    edge.  The coefficients are free of t and the trapezoid rule is
    linear, so I[a(theta) b(t)] = a(theta) I[b](t) and both paths give
    the same values up to rounding.  The result is an owned array in grid
    layout."""
    if grid.dim != c.dim:
        raise EvaluationError(
            f"grid dim {grid.dim} does not match series dim {c.dim}")
    binding = _as_binding(u, c.alphabet)
    needed = {l.index for w in c.coeffs for l in w.input_letters()}
    missing = needed - set(binding)
    if missing:
        raise EvaluationError(
            f"unbound input letters: {sorted('x%d' % i for i in missing)}")
    root = _build_trie(c, grid)
    splits = {binding[i]: _split(binding[i], grid.dim) for i in needed}
    if all(split is not None for split in splits.values()):
        def groups(step):
            letter = step[0]
            return 1 if letter.is_drift else len(splits[binding[letter.index]])

        if _visits(root, groups) <= _MAX_VISITS_PER_EDGE * _visits(root, lambda _: 1):
            return _Separable(binding, splits, grid).field(root)
    derivatives = _Derivatives(binding, grid, root)
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
#
# write_csv prints every value as format(x, ".17g") does.  For zeros and
# for 2^-19 <= |x| < 2^53 it computes the digits in numpy, one block of
# whole theta rows at a time: x = D * 10^(k-16) with k = floor(log10 |x|)
# and D the 17-digit integer nearest to |x| * 10^(16-k), ties to even.
#
# * k comes exactly from the exponent bits: a binade [2^e, 2^(e+1)) holds
#   at most one power of ten 10^j, and x steps to decade j when it is at
#   least the double nearest 10^j.  That double is not below 10^j for
#   j = -5..16 (1e-6 is, and stays out of the range).  p = 16 - k lies
#   in [1, 22], so 10^p is an exact double.
# * Dekker's two-product gives |x| * 10^p = prod + err exactly.  prod is
#   an even integer (it is >= 10^16 > 2^53), so prod + rint(err) rounds
#   the exact product half to even.  D never reaches 10^17: 17 digits
#   tell adjacent doubles apart, so no double below 10^(k+1) rounds up
#   to it.
# * Each value gets a 48-byte cell that holds every character its text
#   could need, and a mask, looked up by re/im, sign, decade and number
#   of significant digits, keeps the ones it does need.  One boolean
#   index over a block of lines then packs them.  Cell columns: 0-6 the
#   separator, the sign and "0.", "0.0", ... right-justified; 7 the
#   first digit; 8-23 the other sixteen; 27 '.'; 28-43 the sixteen
#   again, for the digits after a '.'; 44-47 "e-05" or "e-06".  For the
#   common |x| < 1 each value is one unbroken run of kept bytes, which
#   is what keeps the packing fast.

_K_MIN = -6  # decades k = -6..15 cover [2^-19, 2^53)
_ZERO, _OTHER, _CODES = 22, 23, 24  # codes: k - _K_MIN, zero, format()
_CELL, _FIRST, _DOT = 48, 7, 27
_CSV_BLOCK = 2048  # values per block, rounded down to whole theta rows


def _two_split(a):
    """Veltkamp's split a = hi + lo into halves of 26 bits."""
    c = 134217729.0 * a
    hi = c - (c - a)
    return hi, a - hi


class _CsvTables(NamedTuple):
    binade_code: np.ndarray  # by sign and exponent bits: the binade's code
    binade_step: np.ndarray  # double nearest a power of ten inside it, or nan
    scale: np.ndarray  # by code: 10^(16-k) and its two halves
    scale_hi: np.ndarray
    scale_lo: np.ndarray
    is_other: np.ndarray
    lead: np.ndarray  # by code and re/im: cell bytes 0-7 (uint64)
    exponent: np.ndarray  # cell bytes 44-47 (uint32)
    mask: np.ndarray  # by code, re/im and significant digits: a V48 mask
    digits4: np.ndarray  # "0000".."9999" as uint32
    zeros4: np.ndarray  # trailing zeros of 0..9999, 4 for 0


@functools.cache
def _csv_tables() -> _CsvTables:
    """Built on first use, so that a process that writes no CSV never
    holds them."""
    code = np.full(2048, _OTHER, dtype=np.intp)
    step = np.full(2048, np.nan)  # nan never compares true
    code[0], step[0] = _ZERO, 5e-324  # zero; subnormals step to _OTHER
    decades = {k: float(f"1e{k}") for k in range(_K_MIN, 17)}
    for e in range(1023 - 19, 1023 + 53):
        low = 2.0 ** (e - 1023)
        k = max(j for j, d in decades.items() if d <= low)
        code[e] = k - _K_MIN
        if decades[k + 1] < 2 * low:
            step[e] = decades[k + 1]
    scale = np.tile([float(10 ** (16 - k)) for k in range(_K_MIN, 16)] + [1.0, 1.0], 2)

    heads, masks = bytearray(), bytearray()
    for im, neg, c in np.ndindex(2, 2, _CODES):
        k = c + _K_MIN
        lead = b"," * im + b"-" * neg
        if c == _ZERO:
            lead += b"0"
        elif -4 <= k < 0:
            lead += b"0." + b"0" * (-k - 1)
        heads += lead.rjust(_FIRST, b"\0") + b"\0"
        for s in range(18):
            runs = [(_FIRST - len(lead), _FIRST)]
            if -4 <= k < 0:  # 0.00ddd
                runs.append((_FIRST, _FIRST + s))
            elif k < -4:  # d.ddde-0k
                runs += [(_FIRST, _FIRST + 1), (_DOT, _DOT + s * (s > 1)), (44, 48)]
            elif c < _ZERO:  # ddd.ddd
                runs.append((_FIRST, _FIRST + k + 1))
                if s > k + 1:
                    runs += [(_DOT, _DOT + 1), (_DOT + k + 1, _DOT + s)]
            row = bytearray(_CELL)
            for lo, hi in runs:
                row[lo:hi] = b"\1" * (hi - lo)
            masks += row
    exponents = [b"e-06" if c % _CODES == 0 else b"e-05" for c in range(4 * _CODES)]
    q = np.arange(10000)
    digits4 = np.empty((10000, 4), dtype=np.uint8)
    zeros4 = np.zeros(10000, dtype=np.intp)
    for j in range(4):
        q, digit = np.divmod(q, 10)
        digits4[:, 3 - j] = digit + ord("0")
        zeros4 += (zeros4 == j) & (digit == 0)
    return _CsvTables(
        np.concatenate([code, code + _CODES]), np.concatenate([step, step]),
        scale, *_two_split(scale), np.arange(2 * _CODES) % _CODES == _OTHER,
        np.frombuffer(heads, dtype=np.uint64),
        np.frombuffer(b"".join(exponents), dtype=np.uint32),
        np.frombuffer(masks, dtype=f"V{_CELL}"),
        digits4.view(np.uint32)[:, 0], zeros4)


_IM = np.array([0, 2 * _CODES])


def _format_block(x: np.ndarray, cells: np.ndarray, mask: np.ndarray,
                  groups: np.ndarray) -> None:
    """Fill the (n, 2, 48) cells and masks of the (n, 2) re/im values x;
    groups is a work buffer for 8n integers."""
    t = _csv_tables()
    ax = np.abs(x)
    top = x.view(np.uint64) >> 52
    code = t.binade_code.take(top)
    code += ax >= t.binade_step.take(top)
    other = t.is_other.take(code)
    if other.any():
        ax[other] = 1.0
    prod = ax * t.scale.take(code)
    a_hi, a_lo = _two_split(ax)
    s_hi, s_lo = t.scale_hi.take(code), t.scale_lo.take(code)
    err = ((a_hi * s_hi - prod) + a_hi * s_lo + a_lo * s_hi) + a_lo * s_lo
    big = prod.astype(np.int64)
    big += np.rint(err).astype(np.int64)
    first, rest = np.divmod(big, 10 ** 16)
    hi, lo = np.divmod(rest, 10 ** 8)
    g = groups[:4 * x.size].reshape(x.shape + (4,))
    np.divmod(hi, 10 ** 4, out=(g[..., 0], g[..., 1]))
    np.divmod(lo, 10 ** 4, out=(g[..., 2], g[..., 3]))
    rest16 = t.digits4.take(g).view("V16")[..., 0]
    cells[..., _FIRST + 1:_FIRST + 17].view("V16")[..., 0] = rest16
    cells[..., _DOT + 1:_DOT + 17].view("V16")[..., 0] = rest16
    code += _IM
    cells[..., :8].view(np.uint64)[..., 0] = t.lead.take(code)
    np.add(first, ord("0"), out=cells[..., _FIRST], casting="unsafe")
    cells[..., 44:].view(np.uint32)[..., 0] = t.exponent.take(code)
    zeros = t.zeros4.take(g)
    trailing = zeros[..., 0]
    for j in (1, 2, 3):  # a group of four zeros passes the count on
        trailing = zeros[..., j] + (zeros[..., j] >> 2) * trailing
    code *= 18
    code += 17 - trailing
    mask.view(f"V{_CELL}")[..., 0] = t.mask.take(code)
    if other.any():
        for i, j in zip(*np.nonzero(other)):
            text = b"," * j + format(float(x[i, j]), ".17g").encode()
            cells[i, j, :len(text)] = np.frombuffer(text, dtype=np.uint8)
            mask[i, j] = False
            mask[i, j, :len(text)] = True


def _text_columns(strings: list[str], lead: bytes, right: bool,
                  width: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """lead + s + ',' for each string, justified in a common width of at
    least width, with its mask."""
    texts = [lead + s.encode() + b"," for s in strings]
    width = max(width, *map(len, texts))
    padded = [t.rjust(width, b"\0") if right else t.ljust(width, b"\0")
              for t in texts]
    chars = np.frombuffer(b"".join(padded), dtype=np.uint8).reshape(-1, width)
    return chars, chars != 0


def write_csv(field: GridField, fh) -> None:
    """theta coordinates, t, re, im; theta-outer / t-inner row order.

    Every number is printed as format(x, ".17g") prints it, byte for
    byte: the correctly rounded 17-significant-digit decimal (exact ties
    to even) without trailing zeros, in exponent form below 1e-4.  Zeros
    and values with 2^-19 <= |x| < 2^53 are formatted in numpy; all
    others (smaller or larger magnitudes, subnormals, inf, nan) and the
    coordinates go through format() one at a time."""
    grid = field.grid
    nt = grid.n_t
    theta_shape = tuple(n for _, _, n in grid.theta_axes)
    n_rows = math.prod(theta_shape)
    # each line starts with the newline that ends the one before it
    fh.write(",".join([f"theta_{k + 1}" for k in range(grid.dim)] + ["t", "re", "im"]))
    columns = [_text_columns([f"{x:.17g}" for x in grid.theta_points(k).tolist()],
                             b"" if k else b"\n", right=not k)
               for k in range(grid.dim)]
    t_width = 25  # the longest ".17g" text of a double, and ','
    edges = np.cumsum([0] + [chars.shape[1] for chars, _ in columns] + [t_width]).tolist()
    head = -(-edges[-1] // 8) * 8  # cells start on 8-byte boundaries
    # a block is `rows` whole theta rows, or `span` time points of one
    # row when a row alone holds more than a block
    span = min(nt, _CSV_BLOCK // 2)
    rows = max(1, _CSV_BLOCK // (2 * nt))
    text = np.zeros((rows, span, head + 2 * _CELL), dtype=np.uint8)
    keep = np.zeros(text.shape, dtype=bool)
    cells = text[:, :, head:].reshape(rows * span, 2, _CELL)
    cells[..., _DOT] = ord(".")
    cell_keep = keep[:, :, head:].reshape(rows * span, 2, _CELL)
    groups = np.empty(8 * rows * span, dtype=np.int64)
    values = field.values.reshape(n_rows, nt)
    t_points = grid.t_points
    t_cols = slice(edges[-2], edges[-1])
    for r0 in range(0, n_rows, rows):
        m = min(rows, n_rows - r0)
        index = np.unravel_index(np.arange(r0, r0 + m), theta_shape)
        for k, (chars, chars_keep) in enumerate(columns):
            text[:m, :, edges[k]:edges[k + 1]] = chars[index[k]][:, None]
            keep[:m, :, edges[k]:edges[k + 1]] = chars_keep[index[k]][:, None]
        for c0 in range(0, nt, span):
            n = min(span, nt - c0)
            if r0 == 0 or span < nt:  # the time column changes only between spans
                text[:m, :n, t_cols], keep[:m, :n, t_cols] = _text_columns(
                    [f"{x:.17g}" for x in t_points[c0:c0 + n].tolist()], b"",
                    right=False, width=t_width)
            x = np.ascontiguousarray(values[r0:r0 + m, c0:c0 + n])
            _format_block(x.view(np.float64).reshape(m * n, 2), cells[:m * n],
                          cell_keep[:m * n], groups)
            packed = text[:m, :n].reshape(-1)[keep[:m, :n].reshape(-1)]
            fh.write(packed.tobytes().decode("ascii"))
    fh.write("\n")
