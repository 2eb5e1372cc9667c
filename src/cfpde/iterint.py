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
repeated runs are bit-identical.  Each input signal is split, at each
theta-derivative order o the trie asks of it, as
d^o u = sum_g d^o F_g(theta) G_g(t) (``_source``): exactly by
``expr.split_time`` when no atom mixes theta and t; otherwise from
samples at time nodes (Chebyshev points on [0, T] fine enough for every
order, or the grid's times; a sampled signal's own times, differenced on
the theta axes), in one low-rank time basis.  The coefficients are free
of t and the trapezoid rule is linear, I[a(theta) b(t)] = a(theta)
I[b](t), so y = sum_tau A_tau(theta) E_tau(t) over time words tau: the
walk sums A_tau on the theta axes, each E_tau is one trapezoid pass on a
1-D time array shared along suffixes, and the field keeps A and E as its
factors, contracted a run of theta rows at a time (GridField.rows) when
it is written or read.  Grids and fields are laid out (theta..., t),
time last.

``iterated_integral`` is the one-word case: E_w[u] for a plain word w is
the evaluation of the series {w: identity}, so the trie walk is the only
evaluator.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Optional, Union

import numpy as np

from . import expr as ex
from .diffop import MultiIndex, identity, mi_abs
from .series import GenSeries
from .words import Letter, Word

__all__ = [
    "Grid", "GridField", "InputSignal", "DecoratedWord", "EvaluationError",
    "cumulative_trapezoid", "expand_derivative", "iterated_integral",
    "evaluate_series", "write_csv",
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


_AXIS_RE = re.compile(rf"(-?{ex.NUMBER}):(-?{ex.NUMBER}):(0|[1-9][0-9]*)")


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
        """Parse "a:b:n,...,0:T:nt" (theta axes first, time axis last): a
        and b numbers as expressions spell them, with an optional '-', and
        n digits with no leading zero; no other spelling."""
        axes = []
        for chunk in spec.split(","):
            m = _AXIS_RE.fullmatch(chunk)
            if m is None:
                raise EvaluationError(
                    f"bad grid axis {chunk!r}; expected a:b:n, a and b numbers and "
                    "n an integer")
            try:
                a, b, n = float(m[1]), float(m[2]), int(m[3])
            except ValueError:  # more digits than int() converts
                raise EvaluationError(f"bad grid axis {chunk!r}; n is too long") from None
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
    """Complex samples of a scalar field on a grid.

    A field holds either its samples or, from a separable evaluation, the
    two factors of y = sum_tau A_tau(theta) E_tau(t): weights, one column
    per time word tau over the theta points in grid order (one row per
    theta row of the field), and times, one row per tau over the time
    points.  ``rows`` gives a run of the field's theta rows, a factored
    field's formed in the caller's buffer, so that ``write_csv`` never
    holds all of it.  ``values`` is the full array: for a factored field
    it is built once, each row by the product ``rows`` forms it with, and
    kept in place of the factors, so a library caller's samples and the
    CSV's agree bit for bit."""

    __slots__ = ("grid", "_values", "_factors")

    def __init__(self, grid: Grid, values: np.ndarray):
        values = np.ascontiguousarray(values, dtype=np.complex128)
        if values.shape != grid.shape:
            raise EvaluationError(
                f"field shape {values.shape} does not match grid {grid.shape}")
        self.grid = grid
        self._values = values
        self._factors = None

    @classmethod
    def factored(cls, grid: Grid, weights: np.ndarray, times: np.ndarray) -> "GridField":
        """The field weights @ times, from complex (theta points, k) weights
        and (k, n_t) times.  When every imaginary part of both is zero
        (+0.0 or -0.0) their real parts are kept instead: the product is
        then real, its imaginary parts +0.0, at half the size and a quarter
        of the arithmetic."""
        if not (weights.imag.any() or times.imag.any()):
            weights, times = weights.real.copy(), times.real.copy()
        field = cls.__new__(cls)
        field.grid = grid
        field._values = None
        field._factors = (weights, times)
        return field

    @property
    def is_real(self) -> bool:
        """Whether every imaginary part is +0.0: the factors are real, or
        no held imaginary part is nonzero, -0.0 or nan."""
        if self._factors is not None:
            return self._factors[1].dtype == np.float64
        return not self._values.imag.view(np.uint64).any()

    def rows(self, r0: int, r1: int, out: np.ndarray | None = None) -> np.ndarray:
        """The (r1 - r0, n_t) samples of theta rows r0..r1-1 in grid order.
        Held samples give a view, and out is not used.  A factored field's
        rows are formed in out[:r1 - r0], float64 when the field is real
        and complex128 otherwise, a vector-matrix product per row: a first
        matrix-matrix product would start BLAS's level-3 buffers, about
        0.6 MB more resident memory."""
        if self._factors is None:
            return self._values.reshape(-1, self.grid.n_t)[r0:r1]
        weights, times = self._factors
        block = out[:r1 - r0]
        for w, row in zip(weights[r0:r1], block):
            np.matmul(w, times, out=row)
        return block

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            out = np.empty(self.grid.shape, dtype=np.complex128)
            flat = out.reshape(-1, self.grid.n_t)
            row = np.empty((1, self.grid.n_t), dtype=self._factors[1].dtype)
            for r in range(len(flat)):
                flat[r] = self.rows(r, r + 1, row)[0]
            self._values, self._factors = out, None
        return self._values

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))


def cumulative_trapezoid(f: np.ndarray, dt: float) -> np.ndarray:
    """Running integral along axis 0, the time axis; entry 0 is 0.

    The result is a new C-contiguous array, real for real f and complex
    otherwise.  The interval sums, their scaling by dt/2 and the running
    sum are all formed in place in it, so the outer time axis makes every
    step one pass over contiguous rows.  Per element the arithmetic is
    (f_k + f_{k+1}) * (dt/2) summed in time order."""
    out = np.empty(f.shape, dtype=np.result_type(f, 1.0))
    out[0] = 0
    steps = out[1:]
    np.add(f[:-1], f[1:], out=steps)
    steps *= 0.5 * dt
    np.cumsum(steps, axis=0, out=steps)
    return out


MAX_SAMPLED_FD_ORDER = 4


def _theta_differences(values: np.ndarray, order: MultiIndex, grid: Grid) -> np.ndarray:
    """d^order of samples on the leading theta axes by repeated central
    differences (second order at the edges), up to MAX_SAMPLED_FD_ORDER."""
    if mi_abs(tuple(order)) > MAX_SAMPLED_FD_ORDER:
        raise EvaluationError(
            f"derivative order {tuple(order)} exceeds the sampled-signal "
            f"cap of {MAX_SAMPLED_FD_ORDER}")
    for axis, k in enumerate(order):
        for _ in range(k):
            values = np.gradient(values, grid.theta_spacing(axis), axis=axis, edge_order=2)
    return values


class InputSignal:
    """A control input u(theta, t), symbolic or sampled.

    Symbolic signals support exact theta-derivatives of any order; sampled
    signals fall back to second-order central differences, capped at total
    derivative order 4 beyond which finite differences of samples are
    numerically meaningless.  Derivative samples are not cached here; a
    caller that reuses one holds it itself.
    """

    __slots__ = ("expr", "field")

    def __init__(self, expr: ex.Poly | None = None,
                 field: GridField | None = None):
        if (expr is None) == (field is None):
            raise EvaluationError("pass exactly one of expr= or field=")
        self.expr = expr
        self.field = field

    @classmethod
    def symbolic(cls, e) -> "InputSignal":
        return cls(expr=ex.simplify(e))

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
            e = ex.theta_derivative(self.expr, order)
            return np.broadcast_to(np.asarray(ex.evaluate(e, grid.meshes()),
                                              dtype=np.complex128), grid.shape)
        if self.field.grid.shape != grid.shape:
            raise EvaluationError("sampled signal lives on a different grid")
        return _theta_differences(self.field.values, order, grid)


Binding = Mapping[int, InputSignal]


def _as_binding(u: Union[InputSignal, Binding], alphabet) -> Binding:
    if isinstance(u, InputSignal):
        return {l.index: u for l in alphabet if not l.is_drift}
    return dict(u)


# ---------------------------------------------------------------------------
# decorated words and derivative distribution

# A decorated word is a tuple of (letter, order) pairs; drift letters carry
# order None, input letters carry a theta multi-index.
DecoratedWord = tuple[tuple[Letter, Optional[MultiIndex]], ...]


def _compositions(total: int, parts: int):
    """All ways to write total as an ordered sum of `parts` nonnegative
    integers, in a fixed deterministic order."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def expand_derivative(w: Word, alpha: MultiIndex) -> list[tuple[int, DecoratedWord]]:
    """Distribute the derivative D^alpha over the input-letter occurrences
    of w, returning (multinomial weight, decorated word) terms.

    Derivatives falling on the drift letter vanish, so a pure-drift word
    with a nonzero alpha expands to nothing, and alpha = 0 gives w with
    order 0 on each input letter, weight 1.
    """
    n = w.input_letter_count()
    # per axis, each split of its order over the input letters with its
    # multinomial weight
    per_axis = [[(math.factorial(k) // math.prod(map(math.factorial, comp)), comp)
                 for comp in _compositions(k, n)] for k in alpha]
    out: list[tuple[int, DecoratedWord]] = []
    # axis 0 varies slowest; a loop, not a self-referencing closure, so
    # that a call leaves no reference cycle for the collector
    for choice in itertools.product(*per_axis):
        weight = math.prod(wgt for wgt, _ in choice)
        orders = iter(zip(*(comp for _, comp in choice)))
        out.append((weight, tuple((l, None) if l.is_drift else (l, next(orders))
                                  for l in w.letters)))
    return out


# ---------------------------------------------------------------------------
# the trie of decorated words

class _TrieNode:
    """A decorated prefix: the summed coefficient of the word ending here,
    and the children keyed by the next (letter, order) step in insertion order."""

    __slots__ = ("coef", "children")

    def __init__(self):
        self.coef: np.ndarray | None = None
        self.children: dict[tuple[Letter, Optional[MultiIndex]], _TrieNode] = {}


def _build_trie(c: GenSeries, grid: Grid) -> tuple[_TrieNode, dict]:
    """The trie of decorated words of c, each node's coefficient summed
    on the theta axes, and its (letter, order) steps in first use."""
    theta_meshes = grid.meshes(with_t=False)
    root, steps = _TrieNode(), {}
    for w in sorted(c.coeffs, key=Word.sort_key):
        for alpha, coeff in c.coeffs[w].sorted_terms():
            terms = expand_derivative(w, alpha)
            if not terms:
                continue
            a = np.asarray(ex.evaluate(coeff, theta_meshes), dtype=np.complex128)
            for weight, dw in terms:
                node = root
                for step in dw:
                    steps[step] = None
                    if step not in node.children:
                        node.children[step] = _TrieNode()
                    node = node.children[step]
                node.coef = a * weight if node.coef is None else node.coef + a * weight
    return root, steps


# ---------------------------------------------------------------------------
# input splits: d^o u_l(theta, t) = sum_g d^o F_{l,g}(theta) G_g(t)

def _split(signal: InputSignal, dim: int) -> list | None:
    """[(G, F)] with u = sum G(t) F(theta), ``expr.split_time`` of the
    signal's Poly on dim theta axes: each G a time monomial, each F a
    Poly in theta_1..theta_dim.  None for a sampled signal, one with theta
    beyond dim, or one with an atom whose argument mixes theta and t."""
    if not signal.is_symbolic or any(k > dim for k in ex.theta_indices(signal.expr)):
        return None
    return ex.split_time(signal.expr.embed(dim))


def _sample_split(split: list, order: MultiIndex, grid: Grid) -> list:
    """(G, theta samples of d^order F, (n_t,) samples of G) for each group
    of a split whose derivative is not zero."""
    meshes, t = grid.meshes(with_t=False), {"t": grid.t_points}
    return [(g, np.asarray(ex.evaluate(d, meshes), dtype=np.complex128),
             np.broadcast_to(np.asarray(ex.evaluate(g, t), dtype=np.complex128), (grid.n_t,)))
            for g, f in split if (d := ex.theta_derivative(f, order)).terms]


_EPS = float(np.finfo(np.float64).eps)


def _resolves(values: np.ndarray, n: int) -> bool:
    """Whether (rows, m = 2n - 1) samples at m Chebyshev points need only
    n: the interpolants' coefficients k >= n, sum_j'' f_j cos(k arccos x_j),
    are at most m eps times the largest, so a mode aliased at n shows."""
    m = values.shape[-1]
    vandermonde = np.cos(np.arange(m) * (np.pi - np.pi * np.arange(m) / (m - 1))[:, None])
    vandermonde[[0, -1]] *= 0.5
    c = np.abs(values @ vandermonde)
    c[:, [0, -1]] *= 0.5
    return bool(np.max(c[:, n:]) <= m * _EPS * np.max(c))


def _lagrange(nodes: np.ndarray, t: np.ndarray) -> np.ndarray:
    """(n, len(t)) samples of the Lagrange basis at the n Chebyshev points
    nodes, by the barycentric formula with weights (-1)^j halved at both
    ends (Berrut & Trefethen, SIAM Review 2004); exactly 1 or 0 at a node."""
    w = np.where(np.arange(len(nodes)) % 2, -1.0, 1.0)
    w[[0, -1]] *= 0.5
    d = t - nodes[:, None]
    hit = d == 0
    q = w[:, None] / np.where(hit, 1.0, d)
    return np.where(hit.any(axis=0), hit, q / q.sum(axis=0))


def _low_rank(samples: list, key) -> tuple:
    """(keys, weights, times), samples[i] = weights[i] @ times, for (rows,
    n) samples at n time nodes: the right singular vectors of the stacked
    samples, each scaled to its largest value, with sigma > max(rows, n)
    eps sigma_1.  Samples not all finite keep every node, keyed (n, j)."""
    rows, n = samples[0].shape
    if not all(np.isfinite(v).all() for v in samples):
        return [(n, j) for j in range(n)], samples, np.eye(n)
    stack = np.concatenate([v / (np.max(np.abs(v)) or 1.0) for v in samples])
    _, s, vh = np.linalg.svd(stack if stack.imag.any() else stack.real, full_matrices=False)
    vh = vh[:np.count_nonzero(s > max(rows, n) * _EPS * s[0])]
    return [(key, j) for j in range(len(vh))], [v @ vh.conj().T for v in samples], vh


def _interpolate(signal: InputSignal, orders: list, grid: Grid) -> tuple:
    """(keys, order -> weights, times) of d^o u = sum_j d^o u(theta, t_j)
    l_j(t) at the fewest Chebyshev points on [0, T], n = 9, 17, 33, ...,
    that resolve every order, l_j their Lagrange basis, or at the grid's
    times once n would be no fewer, made low-rank (``_low_rank``)."""
    polys = {o: p for o in orders if (p := ex.theta_derivative(signal.expr, o)).terms}
    if not polys:
        return [], {}, None
    meshes, shape = grid.meshes(), grid.shape[:-1]

    def at(times):
        meshes["t"] = times.reshape((1,) * grid.dim + (-1,))
        return {o: np.broadcast_to(np.asarray(ex.evaluate(p, meshes), dtype=np.complex128),
                                   shape + times.shape).reshape(-1, len(times))
                for o, p in polys.items()}

    n, basis, values = 9, None, {}
    while n < grid.n_t:
        # symmetric, so 0 and T are exact; the last level's n points are the even ones
        nodes = (1 + np.sin(np.pi * np.arange(2 - 2 * n, 2 * n - 1, 2) / (4 * n - 4))) \
            * (0.5 * grid.t_end)
        new = at(nodes[1::2] if values else nodes)
        for o, v in values.items():
            new[o], odd = np.empty((len(v), len(nodes)), dtype=np.complex128), new[o]
            new[o][:, ::2], new[o][:, 1::2] = v, odd
        values = new
        if all(_resolves(v, n) for v in values.values()):
            values = {o: v[:, ::2] for o, v in values.items()}
            basis = _lagrange(nodes[::2], grid.t_points)
            break
        n = 2 * n - 1
    else:
        values = at(grid.t_points)
    keys, weights, times = _low_rank(list(values.values()), signal)
    return keys, dict(zip(values, weights)), times if basis is None else times @ basis


def _source(signal: InputSignal, orders: list, grid: Grid) -> dict:
    """o -> [(key, theta samples of d^o F_g, (n_t,) samples of G_g)] for
    each order o asked, equal keys naming equal G_g: exact (``_split``),
    interpolated (``_interpolate``), or a sampled field's factors or
    low-rank form, differenced on the theta axes."""
    if signal.is_symbolic:
        split = _split(signal, grid.dim)
        if split is not None:  # [] is the zero input
            return {o: _sample_split(split, o, grid) for o in orders}
        keys, weights, times = _interpolate(signal, orders, grid)
    else:
        field = signal.field
        if field.grid.shape != grid.shape:
            raise EvaluationError("sampled signal lives on a different grid")
        if field._factors is None:
            keys, (columns,), times = _low_rank([field._values.reshape(-1, grid.n_t)], signal)
        else:
            columns, times = field._factors
            keys = [(signal, j) for j in range(len(times))]
        columns = columns.reshape(grid.shape[:-1] + (-1,))
        weights = {o: _theta_differences(columns, o, grid) for o in orders}
    shape = grid.shape[:-1] + (-1,)
    return {o: list(zip(keys, np.moveaxis(weights[o].reshape(shape), -1, 0), times))
            if o in weights else [] for o in orders}


_WALK_NUMBERS = 2 ** 22  # the numbers a walk may hold on any grid: 64 MiB complex


def _walk_size(node: _TrieNode, groups) -> int:
    """Steps a walk below node takes, each step taken groups(step) ways."""
    return sum(groups(step) * (1 + _walk_size(child, groups))
               for step, child in node.children.items())


class _Separable:
    """A separable evaluation, y = sum_tau A_tau(theta) E_tau(t).  Time
    factors G are interned as time letters, 0 being the drift's 1, which
    an input's constant G shares; A_tau sums, per time word tau, weight *
    coefficient * the product of the input steps' theta factors."""

    def __init__(self, groups: dict, grid: Grid):
        self.groups, self.grid = groups, grid  # input step -> its split's groups
        self.letters: dict = {ex.ONE.embed(grid.dim): 0}
        self.times: list = [None]  # by time letter: G_g's samples, None for 1
        self.factors: dict = {}  # input step -> [(time letter, theta samples)]
        self.sums: dict = {}  # tau -> A_tau
        self.integrals: dict = {}  # tau -> E_tau

    def steps(self, step) -> list:
        """(time letter, theta samples of d^order F_g) per nonzero group
        of an input step's split, the time letters interned in walk order."""
        if step not in self.factors:
            out = []
            for g, theta, time in self.groups[step]:
                if g not in self.letters:
                    self.letters[g] = len(self.letters)
                    self.times.append(time)
                out.append((self.letters[g], theta))
            self.factors[step] = out
        return self.factors[step]

    def walk(self, node: _TrieNode, product, tau: tuple) -> None:
        if node.coef is not None:
            part = node.coef if product is None else node.coef * product
            if tau in self.sums:
                self.sums[tau] += part
            else:
                self.sums[tau] = np.array(np.broadcast_to(part, self.grid.shape[:-1]))
        for step, child in node.children.items():
            if step[0].is_drift:
                self.walk(child, product, tau + (0,))
                continue
            for g, factor in self.steps(step):
                self.walk(child, factor if product is None else product * factor,
                          tau + (g,))

    def integral(self, tau: tuple) -> np.ndarray:
        """E_tau(t) = I[G_{tau_0} E_{tau[1:]}] on (n_t,) arrays: one
        cumulative_trapezoid pass per distinct nonempty suffix."""
        if not tau:
            return np.ones(self.grid.n_t, dtype=np.complex128)
        hit = self.integrals.get(tau)
        if hit is None:
            inner = self.integral(tau[1:])
            g = self.times[tau[0]]
            hit = self.integrals[tau] = cumulative_trapezoid(
                inner if g is None else g * inner, self.grid.dt)
        return hit

    def field(self, root: _TrieNode) -> GridField:
        """Walk the trie, and return A and E as the factors of the field:
        their product is formed a run of theta rows at a time, when the
        field is written or its values are asked for."""
        self.walk(root, None, ())
        grid = self.grid
        k = len(self.sums)
        times = np.empty((k, grid.n_t), dtype=np.complex128)
        weights = np.empty((math.prod(grid.shape[:-1]), k), dtype=np.complex128)
        for j, tau in enumerate(list(self.sums)):
            times[j] = self.integral(tau)
            # longer words reuse the row, and the integral's own array goes
            self.integrals[tau] = times[j]
            weights[:, j] = self.sums.pop(tau).reshape(-1)
        return GridField.factored(grid, weights, times)


def evaluate_series(c: GenSeries, u: Union[InputSignal, Binding],
                    grid: Grid) -> GridField:
    """Evaluate the input-output map of c: sum over words and operator
    terms of coefficient(theta) times the decorated iterated integrals.

    The terms are gathered in a trie of decorated words, and each input
    signal the series uses is split once (``_source``), so that the walk
    gives y = sum_tau A_tau(theta) E_tau(t) over time words tau (see the
    module docstring).  An input edge is taken once per group of its
    signal's split: an input of rank r takes each of its edges r times,
    and a word with k input letters is walked up to r^k ways.  A walk
    that would hold more numbers, (theta rows + times) per step, than a
    full grid per trie edge, or 2^22 if more, is refused with an
    EvaluationError.  The field is returned factored (see GridField)."""
    if grid.dim != c.dim:
        raise EvaluationError(
            f"grid dim {grid.dim} does not match series dim {c.dim}")
    binding = _as_binding(u, c.alphabet)
    needed = {l.index for w in c.coeffs for l in w.input_letters()}
    missing = needed - set(binding)
    if missing:
        raise EvaluationError(
            f"unbound input letters: {sorted('x%d' % i for i in missing)}")
    root, steps = _build_trie(c, grid)
    orders = {binding[i]: {} for i in needed}  # signal -> the orders asked of it
    for letter, order in steps:
        if not letter.is_drift:
            orders[binding[letter.index]][order] = None
    sources = {signal: _source(signal, list(asked), grid) for signal, asked in orders.items()}
    groups = {(l, o): sources[binding[l.index]][o] for l, o in steps if not l.is_drift}
    rows = math.prod(grid.shape[:-1])
    size = (rows + grid.n_t) * _walk_size(
        root, lambda step: len(groups[step]) if step in groups else 1)
    budget = max(rows * grid.n_t * _walk_size(root, lambda step: 1), _WALK_NUMBERS)
    if size > budget:
        raise EvaluationError(
            f"the inputs' splits make the walk hold up to {size} numbers, more "
            f"than {budget} (a full grid per trie edge, or 2^22)")
    return _Separable(groups, grid).field(root)


def iterated_integral(w: Word, u: Union[InputSignal, Binding], grid: Grid) -> GridField:
    """E_w[u] on the grid, the iterated time integral of the plain word w:
    evaluate_series of the one-word series {w: identity}, whose alphabet
    is w's letters (a bare signal binds each of them)."""
    c = GenSeries(grid.dim, {w: identity(grid.dim)}, len(w), w.letters)
    return evaluate_series(c, u, grid)


# ---------------------------------------------------------------------------
# export
#
# write_csv prints every value as format(x, ".17g") does.  For zeros and
# for 2^-19 <= |x| < 2^53 it computes the digits in numpy, one chunk of
# lines at a time: x = D * 10^(k-16) with k = floor(log10 |x|)
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
#   index over a chunk of lines then packs them.  Cell columns: 0-6 the
#   separator, the sign and "0.", "0.0", ... right-justified; 7 the
#   first digit; 8-23 the other sixteen; 27 '.'; 28-43 the sixteen
#   again, for the digits after a '.'; 44-47 "e-05" or "e-06".  For the
#   common |x| < 1 each value is one unbroken run of kept bytes, which
#   is what keeps the packing fast.

_K_MIN = -6  # decades k = -6..15 cover [2^-19, 2^53)
_ZERO, _OTHER, _CODES = 22, 23, 24  # codes: k - _K_MIN, zero, format()
_CELL, _FIRST, _DOT = 48, 7, 27
_CSV_LINES = 1024  # complex lines whose bytes a chunk's text holds


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
    decades = np.array([float(f"1e{k}") for k in range(_K_MIN, 17)])
    e = np.arange(1023 - 19, 1023 + 53)
    low = np.ldexp(1.0, e - 1023)
    d = np.searchsorted(decades, low, side="right") - 1  # last decade <= low
    code[e] = d
    step[e] = np.where(decades[d + 1] < 2 * low, decades[d + 1], np.nan)
    scale = np.tile([float(10 ** (16 - k)) for k in range(_K_MIN, 16)] + [1.0, 1.0], 2)

    # every (re/im, sign, code, significant digits) at once, in that
    # index order; p is the byte position in a cell
    im, neg, c, s, p = np.ix_(range(2), range(2), range(_CODES), range(18), range(_CELL))
    k = c + _K_MIN
    fraction = (-4 <= k) & (k < 0)  # 0.00ddd
    small = k < -4  # d.ddde-0k
    whole = (0 <= k) & (c < _ZERO)  # ddd.ddd
    lead = im + neg + (c == _ZERO) + np.where(fraction, 1 - k, 0)  # ",-0.00"
    mask = ((_FIRST - lead <= p) & (p < _FIRST)
            | fraction & (_FIRST <= p) & (p < _FIRST + s)
            | small & ((p == _FIRST) | (_DOT <= p) & (p < _DOT + s * (s > 1)) | (44 <= p))
            | whole & ((_FIRST <= p) & (p < _FIRST + k + 1)
                       | (s > k + 1) & ((p == _DOT) | (_DOT + k + 1 <= p) & (p < _DOT + s))))
    # the lead right-justified in bytes 0-6: its separator, sign, then
    # "0" and for a fraction ".00..."
    at = p[..., :8] - (_FIRST - lead)
    heads = np.where(at < im, ord(","), np.where(
        at < im + neg, ord("-"), np.where(at == im + neg + 1, ord("."), ord("0"))))
    heads = np.where((0 <= at) & (p[..., :8] < _FIRST), heads, 0).astype(np.uint8)
    exponents = np.tile(np.where(np.arange(_CODES) == 0, b"e-06", b"e-05"), 4)
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
        heads.reshape(-1, 8).view(np.uint64)[:, 0],
        exponents.view(np.uint32),
        mask.astype(np.uint8).reshape(-1, _CELL).view(f"V{_CELL}")[:, 0],
        digits4.view(np.uint32)[:, 0], zeros4)


_IM = np.array([0, 2 * _CODES])


def _format_block(x: np.ndarray, cells: np.ndarray, mask: np.ndarray,
                  groups: np.ndarray) -> None:
    """Fill the (n, m, 48) cells and masks of the (n, m) values x, whose
    columns are re and, when m = 2, im; groups is a work buffer for 4nm
    integers."""
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
    code += _IM[:x.shape[1]]
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


def _text_columns(points: np.ndarray, lead: bytes, right: bool,
                  width: int = 0) -> np.ndarray:
    """lead + format(x, ".17g") + ',' for each point, NUL-padded to a
    common width of at least width, as one void item per point.  No text
    holds a NUL, so a byte of it is kept exactly when it is not NUL."""
    texts = [lead + f"{x:.17g}".encode() + b"," for x in points.tolist()]
    width = max(width, *map(len, texts))
    padded = [t.rjust(width, b"\0") if right else t.ljust(width, b"\0")
              for t in texts]
    return np.frombuffer(b"".join(padded), dtype=f"V{width}")


def write_csv(field: GridField, fh) -> bool:
    """theta coordinates, t, re, im; theta-outer / t-inner row order.
    Returns whether every value written was finite.

    Every number is printed as format(x, ".17g") prints it, byte for
    byte: the correctly rounded 17-significant-digit decimal (exact ties
    to even) without trailing zeros, in exponent form below 1e-4.  Zeros
    and values with 2^-19 <= |x| < 2^53 are formatted in numpy; all
    others (smaller or larger magnitudes, subnormals, inf, nan) and the
    coordinates go through format() one at a time.

    The line layout is chosen once for the field.  When every imaginary
    part is +0.0 (GridField.is_real) the im column is the constant text
    "0", which is how +0.0 prints, and only the real parts are formatted;
    otherwise each line has a re and an im cell.  The field is then
    printed in chunks of lines, each filling a text buffer that holds the
    bytes of _CSV_LINES complex lines: runs of whole theta rows, taken
    with GridField.rows (a factored field's formed in one buffer that the
    next run overwrites), or spans of time points when one row alone is
    longer than a chunk."""
    grid = field.grid
    nt = grid.n_t
    # each line starts with the newline that ends the one before it
    fh.write(",".join([f"theta_{k + 1}" for k in range(grid.dim)] + ["t", "re", "im"]))
    columns = [_text_columns(grid.theta_points(k), b"" if k else b"\n", right=not k)
               for k in range(grid.dim)]
    t_width = 25  # the longest ".17g" text of a double, and ','
    edges = np.cumsum([0] + [chars.itemsize for chars in columns] + [t_width]).tolist()
    head = -(-edges[-1] // 8) * 8  # cells start on 8-byte boundaries
    budget = _CSV_LINES * (head + 2 * _CELL)
    real = field.is_real
    n_cells = 1 if real else 2
    # lines of a re and an im cell, or of a re cell and an 8-byte slot
    # holding ",0"; a chunk is rows x span of them
    width = head + n_cells * _CELL + 8 * real
    span = min(nt, budget // width)
    rows = max(1, budget // width // nt)
    text = np.zeros((rows * span, width), dtype=np.uint8)
    keep = np.zeros((rows * span, width), dtype=bool)
    # each coordinate column's text, one void item per line
    coords = [text[:, a:b].view(f"V{b - a}")[:, 0] for a, b in zip(edges, edges[1:])]
    cells = text[:, head:head + n_cells * _CELL].reshape(-1, n_cells, _CELL)
    cell_keep = keep[:, head:head + n_cells * _CELL].reshape(-1, n_cells, _CELL)
    cells[..., _DOT] = ord(".")
    if real:
        text[:, -8:-6] = np.frombuffer(b",0", dtype=np.uint8)
        keep[:, -8:-6] = True
    # the time column is formatted once when its text fits in the budget,
    # else for each span of time points of every row
    t_points = grid.t_points
    t_all = _text_columns(t_points, b"", False, t_width) if nt * t_width <= budget else None
    if span == nt:  # every chunk holds whole rows
        coords[-1].reshape(rows, nt)[:] = t_all
    # a factored field's rows are formed here; held ones are views
    out = None if field._factors is None else np.empty(
        (rows, nt), dtype=np.float64 if real else np.complex128)
    groups = np.empty(4 * text.shape[0] * n_cells, dtype=np.int64)
    n_rows = math.prod(grid.shape[:-1])
    finite = True
    for r0 in range(0, n_rows, rows):
        block = field.rows(r0, min(r0 + rows, n_rows), out)
        m = len(block)
        # the theta texts of each row, broadcast along it
        index = np.unravel_index(np.arange(r0, r0 + m), grid.shape[:-1])
        for coord, at, chars in zip(coords, index, columns):
            coord[:m * span].reshape(m, span)[:] = chars[at, None]
        for c0 in range(0, nt, span):
            n = min(span, nt - c0)
            lines = m * n
            if span < nt:
                coords[-1][:n] = (_text_columns(t_points[c0:c0 + n], b"", False, t_width)
                                  if t_all is None else t_all[c0:c0 + n])
            np.not_equal(text[:lines, :head], 0, out=keep[:lines, :head])
            part = block[:, c0:c0 + n]
            x = np.ascontiguousarray(part.real if real else part).view(np.float64)
            _format_block(x.reshape(lines, n_cells), cells[:lines], cell_keep[:lines], groups)
            finite = finite and bool(np.isfinite(x).all())
            fh.write(text[:lines].reshape(-1)[keep[:lines].reshape(-1)].tobytes().decode("ascii"))
    fh.write("\n")
    return finite
