"""Reverse-mode automatic differentiation over dense float64 arrays.

Every operation evaluates eagerly and passes its values and a
vector-Jacobian product to ``_node``, the one constructor of graph nodes
(``custom_op`` is its public name for fused kernels).  When gradients are
enabled and an input requires them, ``_node`` records a closure that
hands each such input its gradient.  ``backward`` on a scalar root then
runs the closures in reverse topological order.  Fan-out accumulates additively.
``backward`` frees the graph as it goes: once a node's closure has run,
the node drops the closure and its parent links, so the activations die
by reference counting as soon as the caller lets go of the root instead
of waiting for the cyclic garbage collector.  A graph is therefore
backpropagated once; build it again for a second pass.  Because each
step's activations now go back to the allocator at once, importing this
module raises glibc's mmap and trim thresholds (where ``mallopt``
exists): with the defaults, glibc hands large freed blocks back to the
OS and the next batch faults the same pages in again.  It also caps glibc
at one malloc arena, so the threads that ``training.score_split`` runs
evaluation chunks on share one heap rather than each growing an arena of
its own.

The two modes, graph recording (``no_grad``) and the finite probes
(``no_finite_probes``), are context variables, not module globals: a
block entered in one thread leaves every other thread's modes alone, and
a task run under ``contextvars.copy_context()`` sees its caller's modes.

Shape mismatches raise :class:`ShapeError` naming the offending
operation.  NaN/Inf is caught in one of three ways:

* Per-op probes.  ``_node`` checks every forward value and
  ``Tensor._accum`` every gradient it receives, and the first non-finite
  array raises :class:`NonFiniteError` naming the op.  They are on
  except inside ``no_finite_probes``, which in this package only the
  two functions below enter.
* One check per training step.  ``train_step`` runs the forward pass and
  ``backward`` with the probes off, then checks the loss and every
  parameter gradient once; Adam steps only when all are finite.
  Otherwise it clears the gradients, restores the dropout generator and
  replays the batch with the probes on, so the error names the op (or
  the ARIX rule) just as a probed run would.  Hence the one difference
  from a probed step: a non-finite intermediate that reaches neither the
  loss nor any parameter gradient no longer stops training.
* One check per forward-only pass.  ``checked_forward`` runs a pass
  (``predict``, the forecast bundle, the cluster warm-up encode) with
  the probes off and tests every array it returns; when one is
  non-finite it replays the pass with the probes on, whose error is
  raised.  Likewise, a non-finite intermediate that reaches no returned
  array no longer raises: a rule at infinite Mahalanobis distance, say,
  gets membership exactly 0.
"""

from __future__ import annotations

import contextlib
import contextvars
import copy
import ctypes
import sys

import numpy as np

from .exceptions import DataError, NonFiniteError, NumericError
from .exceptions import PositiveDefinitenessError, ShapeError

_GRAD_ENABLED = contextvars.ContextVar("grad_enabled", default=True)
_PROBES_ON = contextvars.ContextVar("probes_on", default=True)

# glibc <malloc.h> parameter numbers
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8


def _keep_freed_memory() -> None:
    """Keep freed activation buffers in the heap for the next batch."""
    if not sys.platform.startswith("linux"):
        return
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:  # no glibc-compatible libc: leave the allocator alone
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # 32 MiB: the ceiling glibc itself uses for its dynamic mmap threshold
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 512 << 20)
    # one arena: a thread of its own would otherwise get a heap of its own
    mallopt(_M_ARENA_MAX, 1)


_keep_freed_memory()


def grad_enabled() -> bool:
    return _GRAD_ENABLED.get()


@contextlib.contextmanager
def _switched_off(mode):
    token = mode.set(False)
    try:
        yield
    finally:
        mode.reset(token)


def no_grad():
    """Disable graph recording inside the block (evaluation mode)."""
    return _switched_off(_GRAD_ENABLED)


def no_finite_probes():
    """Skip the per-op NaN/Inf probes of ``_node`` and ``_accum`` inside the block."""
    return _switched_off(_PROBES_ON)


def _all_finite(x) -> bool:
    # the entrywise test itself: a probe through the sum needs an errstate
    # context on every node, since finite entries can overflow the sum,
    # and the entrywise test after it whenever they do
    return bool(np.isfinite(x).all())


class Tensor:
    """A node of the computation graph: values, gradient, and provenance."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_op")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None
        self._op = "leaf"

    def item(self) -> float:
        return float(self.data)

    def _accum(self, g) -> None:
        if _PROBES_ON.get() and not _all_finite(g):
            raise NonFiniteError(f"{self._op}: non-finite gradient", op=self._op)
        if self.grad is None:
            # copy: g may be a (read-only) view of another node's buffer
            self.grad = np.array(g, dtype=np.float64)
        else:
            self.grad += g

    def __repr__(self):
        return f"Tensor(op={self._op!r}, shape={self.data.shape}, requires_grad={self.requires_grad})"

    def __getitem__(self, key):
        return getitem(self, key)


def astensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def parameter(data) -> Tensor:
    """Leaf tensor holding trainable weights."""
    return Tensor(np.array(data, dtype=np.float64), requires_grad=True)


def _node(op: str, data, inputs, vjp) -> Tensor:
    """Build a graph node: the one place an op output is created.

    Probes the forward values for NaN/Inf (see the module docstring),
    then, when the tape is active and some input requires a gradient,
    records the inputs and one closure that gives each such input its
    entry of ``vjp(out.grad)``.
    ``vjp`` returns one gradient array (or None) per input, in order.
    """
    if _PROBES_ON.get() and not _all_finite(data):
        raise NonFiniteError(f"{op}: non-finite values in forward pass", op=op)
    out = Tensor(data)
    out._op = op
    if _GRAD_ENABLED.get():
        inputs = tuple(inputs)
        tracked = tuple(p for p in inputs if p.requires_grad)
        if tracked:
            out.requires_grad = True
            out._parents = tracked

            def _backward():
                for inp, g in zip(inputs, vjp(out.grad)):
                    if g is not None and inp.requires_grad:
                        inp._accum(g)

            out._backward = _backward
    return out


def custom_op(op: str, data, inputs, vjp) -> Tensor:
    """Wrap externally computed values as a graph node (public ``_node``).

    ``vjp(g)`` must return one gradient array (or None) per input, in
    order.  Used for fused kernels whose backward pass is hand-written.
    """
    return _node(op, data, inputs, vjp)


def backward(root: Tensor) -> None:
    """Populate ``grad`` of every tensor the scalar root depends on."""
    if root.data.size != 1:
        raise ShapeError(f"backward: root must be scalar, got shape {root.data.shape}")
    if root.requires_grad and root._op != "leaf" and root._backward is None:
        raise RuntimeError("backward: graph already freed by an earlier backward")
    # Iterative post-order: graphs unrolled over long horizons get deep.
    topo = []
    visited = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    root._accum(np.ones_like(root.data))
    # silence numpy warnings here: _accum turns non-finite adjoints into
    # NonFiniteError, which is the designed failure surface
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for node in reversed(topo):
            if node._backward is not None:
                node._backward()
                # each closure refers to its own node: break the cycle
                node._backward = None
                node._parents = ()


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum an upstream gradient down to the shape it was broadcast from."""
    if g.shape == tuple(shape):
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, d in enumerate(shape) if d == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _binary(op, a, b, fwd, da, db) -> Tensor:
    a, b = astensor(a), astensor(b)
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            data = fwd(a.data, b.data)
    except ValueError as exc:
        raise ShapeError(f"{op}: incompatible shapes {a.data.shape} and {b.data.shape}") from exc

    def vjp(g):
        return (
            _unbroadcast(da(g, a.data, b.data), a.data.shape) if a.requires_grad else None,
            _unbroadcast(db(g, a.data, b.data), b.data.shape) if b.requires_grad else None,
        )

    return _node(op, data, (a, b), vjp)


def add(a, b):
    return _binary("add", a, b, lambda x, y: x + y, lambda g, x, y: g, lambda g, x, y: g)


def sub(a, b):
    return _binary("sub", a, b, lambda x, y: x - y, lambda g, x, y: g, lambda g, x, y: -g)


def mul(a, b):
    return _binary("mul", a, b, lambda x, y: x * y, lambda g, x, y: g * y, lambda g, x, y: g * x)


def div(a, b):
    return _binary(
        "div", a, b, lambda x, y: x / y, lambda g, x, y: g / y, lambda g, x, y: -g * x / (y * y)
    )


def neg(a):
    a = astensor(a)
    return _node("neg", -a.data, (a,), lambda g: (-g,))


def matmul(a, b):
    a, b = astensor(a), astensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(
            f"matmul: operands must have ndim >= 2, got {a.data.shape} and {b.data.shape}"
        )
    try:
        data = np.matmul(a.data, b.data)
    except ValueError as exc:
        raise ShapeError(f"matmul: incompatible shapes {a.data.shape} and {b.data.shape}") from exc

    def vjp(g):
        return (
            _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.data.shape)
            if a.requires_grad else None,
            _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.data.shape)
            if b.requires_grad else None,
        )

    return _node("matmul", data, (a, b), vjp)


def swapaxes(a, axis1, axis2):
    a = astensor(a)
    return _node(
        "swapaxes", np.swapaxes(a.data, axis1, axis2), (a,),
        lambda g: (np.swapaxes(g, axis1, axis2),),
    )


def reshape(a, shape):
    a = astensor(a)
    try:
        data = a.data.reshape(shape)
    except ValueError as exc:
        raise ShapeError(f"reshape: cannot view {a.data.shape} as {shape}") from exc
    return _node("reshape", data, (a,), lambda g: (g.reshape(a.data.shape),))


def getitem(a, key):
    """Basic and integer-array indexing; backward scatter-adds."""
    a = astensor(a)
    try:
        data = a.data[key]
    except IndexError as exc:
        raise ShapeError(f"getitem: invalid index for shape {a.data.shape}") from exc

    def vjp(g):
        full = np.zeros_like(a.data)
        np.add.at(full, key, g)
        return (full,)

    return _node("getitem", np.array(data, dtype=np.float64), (a,), vjp)


def concat(tensors, axis=0):
    tensors = [astensor(t) for t in tensors]
    try:
        data = np.concatenate([t.data for t in tensors], axis=axis)
    except ValueError as exc:
        raise ShapeError("concat: inconsistent shapes") from exc
    ends = np.cumsum([t.data.shape[axis] for t in tensors])
    return _node("concat", data, tensors, lambda g: np.split(g, ends[:-1], axis=axis))


def stack(tensors, axis=0):
    tensors = [astensor(t) for t in tensors]
    try:
        data = np.stack([t.data for t in tensors], axis=axis)
    except ValueError as exc:
        raise ShapeError("stack: inconsistent shapes") from exc

    def vjp(g):
        return [np.take(g, i, axis) if t.requires_grad else None for i, t in enumerate(tensors)]

    return _node("stack", data, tensors, vjp)


def _restore_reduced(g, shape, axis):
    if axis is not None:
        axes = axis if isinstance(axis, tuple) else (axis,)
        g = np.expand_dims(g, tuple(a % len(shape) for a in axes))
    return np.broadcast_to(g, shape)


def tsum(a, axis=None):
    a = astensor(a)
    return _node("sum", np.sum(a.data, axis=axis), (a,), lambda g: (_restore_reduced(g, a.data.shape, axis),))


def tmean(a, axis=None):
    a = astensor(a)
    data = np.mean(a.data, axis=axis)
    count = a.data.size / max(np.size(data), 1)  # entries averaged into each output
    return _node("mean", data, (a,), lambda g: (_restore_reduced(g, a.data.shape, axis) / count,))


def exp(a):
    a = astensor(a)
    with np.errstate(over="ignore"):
        data = np.exp(a.data)
    return _node("exp", data, (a,), lambda g: (g * data,))


def log(a):
    a = astensor(a)
    with np.errstate(divide="ignore", invalid="ignore"):
        data = np.log(a.data)
    return _node("log", data, (a,), lambda g: (g / a.data,))


def tanh(a):
    a = astensor(a)
    data = np.tanh(a.data)
    return _node("tanh", data, (a,), lambda g: (g * (1.0 - data * data),))


def sigmoid(a):
    a = astensor(a)
    with np.errstate(over="ignore"):
        data = 1.0 / (1.0 + np.exp(-a.data))
    return _node("sigmoid", data, (a,), lambda g: (g * data * (1.0 - data),))


def softmax(a, axis=-1):
    """Numerically stabilized softmax along ``axis``."""
    a = astensor(a)
    shifted = a.data - np.max(a.data, axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e / np.sum(e, axis=axis, keepdims=True)
    return _node("softmax", s, (a,), lambda g: (s * (g - np.sum(g * s, axis=axis, keepdims=True)),))


def clip_min(a, floor: float):
    """max(a, floor) elementwise; gradient passes only where a > floor."""
    a = astensor(a)
    return _node("clip_min", np.maximum(a.data, floor), (a,), lambda g: (g * (a.data > floor),))


def solve_vec(a, b):
    """Batched linear solve ``a^-1 b`` with b a (broadcastable) stack of vectors.

    ``a`` has shape (..., D, D) and ``b`` shape (..., D); batch dimensions
    broadcast against each other per numpy rules.
    """
    a, b = astensor(a), astensor(b)
    A, B = a.data, b.data
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise ShapeError(f"solve_vec: matrix operand must be square, got {A.shape}")
    if B.ndim < 1 or B.shape[-1] != A.shape[-1]:
        raise ShapeError(f"solve_vec: incompatible shapes {A.shape} and {B.shape}")
    try:
        Ym = np.linalg.solve(A, B[..., None])
    except np.linalg.LinAlgError as exc:
        raise PositiveDefinitenessError(f"solve_vec: singular matrix ({exc})") from exc

    def vjp(g):
        Gb = np.linalg.solve(np.swapaxes(A, -1, -2), g[..., None])
        return (
            _unbroadcast(-(Gb @ np.swapaxes(Ym, -1, -2)), A.shape) if a.requires_grad else None,
            _unbroadcast(Gb[..., 0], B.shape) if b.requires_grad else None,
        )

    return _node("solve_vec", Ym[..., 0], (a, b), vjp)


def logdet(a):
    """log det of a (batch of) positive-definite matrices."""
    a = astensor(a)
    sign, ld = np.linalg.slogdet(a.data)
    if np.any(sign <= 0):
        raise PositiveDefinitenessError("logdet: matrix is not positive definite")
    return _node(
        "logdet", ld, (a,),
        lambda g: (np.asarray(g)[..., None, None] * np.swapaxes(np.linalg.inv(a.data), -1, -2),),
    )


def dropout(a, rate: float, rng: np.random.Generator | None):
    """Inverted dropout, masks drawn from ``rng``: identity if it is None, zero at rate >= 1."""
    a = astensor(a)
    if rng is None or rate <= 0.0:
        return a
    if rate >= 1.0:
        return mul(a, np.zeros_like(a.data))
    mask = (rng.random(a.data.shape) >= rate) / (1.0 - rate)
    return mul(a, mask)


class Adam:
    """Adam with bias correction; ``step`` consumes and clears gradients."""

    def __init__(self, params, learning_rate=1e-3):
        self.params = list(params)
        self.learning_rate = float(learning_rate)
        self.step_count = 0
        self.first_moment = [np.zeros_like(p.data) for p in self.params]
        self.second_moment = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        self.step_count += 1
        t = self.step_count
        b1, b2, eps = 0.9, 0.999, 1e-8  # the defaults of Kingma & Ba
        for i, p in enumerate(self.params):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            m = self.first_moment[i]
            v = self.second_moment[i]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            m_hat = m / (1.0 - b1**t)
            v_hat = v / (1.0 - b2**t)
            p.data -= self.learning_rate * m_hat / (np.sqrt(v_hat) + eps)
        self.zero_grad()

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None


def train_step(opt: Adam, loss_fn, rng: np.random.Generator | None, where: str):
    """One Adam step on the scalar loss of ``loss_fn``, checked once.

    ``loss_fn()`` builds the graph, drawing its dropout masks from
    ``rng`` (None when it draws none), and returns (loss tensor, extra);
    ``extra`` is returned.  Forward and backward run with the per-op
    probes off and numpy's floating-point warnings silenced.  When the
    loss or a gradient of ``opt.params`` is non-finite, Adam does not
    step: the gradients are cleared, ``rng`` is put back to its state
    before the step and the batch is replayed with the probes on and the
    warnings still silenced, whose error is raised.  A finite gradient
    entry too large to square (above ~1.3e154) would make Adam's second
    moment infinite and freeze that entry, so it too stops the step, with
    a ``NonFiniteError`` whose ``op`` is ``"adam"``.  Every ``NumericError`` of the step is raised
    with ``where`` in front of its message.
    """
    state = None if rng is None else rng.bit_generator.state
    oversized = False
    try:
        with no_finite_probes(), np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            loss, extra = loss_fn()
            backward(loss)
            finite = _all_finite(loss.data)
            for p in opt.params:
                # a finite sum of squares certifies every entry and its
                # square; only a non-finite one, which finite squares can
                # reach by overflow, pays for the test of the largest entry
                if not finite or p.grad is None or np.isfinite(np.vdot(p.grad, p.grad)):
                    continue
                largest = np.abs(p.grad).max()
                if not np.isfinite(largest):
                    finite = False
                elif not np.isfinite(largest * largest):
                    oversized = True
    except NumericError:  # possibly a symptom of an unprobed NaN upstream
        finite = False
    if finite and not oversized:
        opt.step()
        return extra
    opt.zero_grad()
    if finite:
        raise NonFiniteError(
            f"{where}: adam: a gradient entry is too large to square", op="adam"
        )
    if rng is not None:
        rng.bit_generator.state = state
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            loss, _ = loss_fn()
            backward(loss)
        raise NonFiniteError("non-finite loss or gradient, yet no op's probe fired on replay")
    except NumericError as exc:
        opt.zero_grad()
        message = f"{where}: {exc}"
        if isinstance(exc, NonFiniteError):
            raise NonFiniteError(message, op=exc.op, rule=exc.rule) from exc
        raise NumericError(message) from exc


def checked_forward(run):
    """The arrays of the forward-only pass ``run()``, checked once.

    ``run()`` returns an array or a tuple of arrays.  It runs under
    ``no_grad`` with the per-op probes off and numpy's floating-point
    warnings silenced, and every array it returns is tested for NaN/Inf.
    When one is non-finite, or the pass raises a ``NumericError`` (the
    ARIX recursion checks its forecast without probes, so a NaN from an
    earlier op can surface there first), the pass is replayed under
    ``no_grad`` with the probes on and the caller's errstate, and the
    replay's error is raised: the one a probed pass raises, naming the
    op or the ARIX rule.
    """
    try:
        with no_grad(), no_finite_probes(), np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            out = run()
        if all(_all_finite(a) for a in (out if isinstance(out, tuple) else (out,))):
            return out
    except NumericError:  # possibly a symptom of an unprobed NaN upstream
        pass
    with no_grad():
        run()
    raise NonFiniteError("non-finite forward output, yet no op's probe fired on replay")


def uniform_init(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    """Uniform in [-1/sqrt(fan_in), +1/sqrt(fan_in)]."""
    bound = 1.0 / np.sqrt(max(fan_in, 1))
    return rng.uniform(-bound, bound, size=shape)


class Parameters:
    """Registry of a model's trainable tensors, each made once by ``new``
    under a dotted name; ``named`` lists them in creation order.

    ``source`` is a generator that ``new`` draws each tensor from, or the
    name -> array mapping of the checkpoint at ``path``, whose array
    ``new`` takes after a shape check (``DataError`` if missing or of
    another shape): a loaded model allocates nothing its file does not
    hold.  ``scope`` gives a view that prefixes every name.
    """

    def __init__(self, source, path=""):
        self.source = source
        self.path = path
        self.prefix = ""
        self.named = []

    def scope(self, prefix: str) -> "Parameters":
        inner = copy.copy(self)  # shares ``named`` and the source
        inner.prefix = f"{self.prefix}{prefix}."
        return inner

    def new(self, name: str, shape, fan_in: int = 1, init=None) -> Tensor:
        """Tensor ``name`` of ``shape``, drawn as ``init(rng)``, by default
        ``uniform_init`` at ``fan_in``, or taken from the checkpoint."""
        name, shape = self.prefix + name, tuple(shape)
        if isinstance(self.source, np.random.Generator):
            data = uniform_init(self.source, shape, fan_in) if init is None else init(self.source)
        elif name not in self.source:
            raise DataError(f"{self.path}: missing tensor {name!r}")
        else:
            data = self.source[name]
            if data.shape != shape:
                raise DataError(
                    f"{self.path}: tensor {name!r} has shape {data.shape}, expected {shape}"
                )
        tensor = parameter(data)
        self.named.append((name, tensor))
        return tensor
