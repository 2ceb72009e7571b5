"""Outside-in tracing of fuzzformer's layers.

The program is not edited.  ``Tracer.install`` replaces the module and
class attributes that fuzzformer reads at call time with timing wrappers,
and ``uninstall`` puts the originals back.  Two views are recorded:

* Layer spans.  Every wrapped layer call is a span on one stack; a
  span's self time is its duration minus the spans nested in it, so the
  self times of all layers partition the covered wall time.
* Autodiff ops.  The 19 graph ops are timed as a cross-cut: their time
  stays inside the calling layer's self time and is also summed per op.

Backward time is charged per layer by tagging graph nodes: when a layer
call returns with gradients enabled, the graph is walked from its output
back to its inputs and each node's ``_backward`` closure not yet claimed
by an inner layer is replaced by a timer charged to this layer and to
the node's op.  ``backward`` itself claims any node left untagged.

The tracer's own bookkeeping (graph walks, counters) is excluded from
every self time.  Only the main thread is traced; fuzzformer has no
queue and no second thread, so time spent waiting for a layer is zero by
construction and is reported as such.
"""

import dataclasses
import functools
import os
import time

from fuzzformer import arix, attention, baselines, checkpoint, data, encoder, fuzzy, losses
from fuzzformer import autodiff as ad
from fuzzformer import model as model_mod
from fuzzformer import svgplot, training
from fuzzformer.kernels import arima as arima_kernels
from fuzzformer.kernels import lstm as lstm_kernels

# autodiff function name -> op name recorded on the nodes it creates
OPS = {
    "matmul": "matmul",
    "mul": "mul",
    "add": "add",
    "sub": "sub",
    "neg": "neg",
    "div": "div",
    "tsum": "sum",
    "tmean": "mean",
    "getitem": "getitem",
    "stack": "stack",
    "concat": "concat",
    "reshape": "reshape",
    "swapaxes": "swapaxes",
    "tanh": "tanh",
    "softmax": "softmax",
    "log": "log",
    "clip_min": "clip_min",
    "solve_vec": "solve_vec",
    "logdet": "logdet",
}

# Computed (not measured) flop model of the fused kernels.  GEMMs count
# 2 flops per multiply-add; elementwise work counts one flop per
# arithmetic operation or transcendental call, per hidden unit and step.
LSTM_FWD_ELEMENTWISE = 27  # gate pre-activation sums, 3 sigmoids, 2 tanh, cell and hidden update
LSTM_BWD_ELEMENTWISE = 25  # tanh(c), cell/hidden adjoints, 4 gate derivatives
SOFTMAX_FLOPS = 5  # scale, max shift, exp, row sum, divide: per score


def _sdpa_flops(q_shape, k_shape, v_shape, backward):
    n, dk = q_shape[-2:]
    m, dv = v_shape[-2], v_shape[-1]
    batch = 1
    for d in q_shape[:-2]:
        batch *= d
    if backward:  # dV, dW, softmax adjoint, dQ, dK
        return batch * (4 * n * m * dv + SOFTMAX_FLOPS * n * m + 4 * n * m * dk)
    return batch * (2 * n * m * dk + SOFTMAX_FLOPS * n * m + 2 * n * m * dv)


def _nbytes(values):
    return sum(v.nbytes for v in values if hasattr(v, "nbytes"))


def _tensors(obj, depth=0):
    """Tensors held by an argument or result (through containers and dataclasses)."""
    if isinstance(obj, ad.Tensor):
        yield obj
        return
    if depth >= 4:
        return
    if isinstance(obj, (list, tuple)):
        items = obj
    elif isinstance(obj, dict):
        items = obj.values()
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        items = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
    else:
        return
    for item in items:
        yield from _tensors(item, depth + 1)


class _Frame:
    __slots__ = ("name", "start", "child", "nodes")

    def __init__(self, name):
        self.name = name
        self.start = time.perf_counter()
        self.child = 0.0
        self.nodes = 0


class Tracer:
    """Span stack, per-layer self times and counters of one traced run."""

    def __init__(self):
        self.enabled = False
        self.stack = []
        self.self_s = {}
        self.calls = {}
        self.nodes = {}
        self.counts = {}
        self.op_calls = {}
        self.op_fwd_s = {}
        self.op_bwd_s = {}
        self.toplevel = []  # (end, duration) of every outermost span
        self._saved = []

    # -- accounting -----------------------------------------------------
    def _add(self, table, key, value):
        table[key] = table.get(key, 0) + value

    def _close(self, frame):
        end = time.perf_counter()
        self.stack.pop()
        duration = end - frame.start
        own = duration - frame.child
        self._add(self.self_s, frame.name, own)
        self._add(self.calls, frame.name, 1)
        self._add(self.nodes, frame.name, frame.nodes)
        if self.stack:
            self.stack[-1].child += duration
        else:
            self.toplevel.append((end, duration))
        return own

    # -- wrappers -------------------------------------------------------
    def _span(self, name, fn, on_enter=None, on_exit=None):
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            frame = _Frame(name(args, kwargs) if callable(name) else name)
            tracer.stack.append(frame)
            try:
                if on_enter is not None:
                    t0 = time.perf_counter()
                    on_enter(args, kwargs)
                    frame.child += time.perf_counter() - t0
                out = fn(*args, **kwargs)
                t0 = time.perf_counter()
                if ad.grad_enabled():
                    tracer._tag(frame.name, out, args, kwargs)
                if on_exit is not None:
                    on_exit(args, kwargs, out)
                frame.child += time.perf_counter() - t0
                return out
            finally:
                tracer._close(frame)

        return span

    def _op(self, op, fn):
        tracer = self

        @functools.wraps(fn)
        def timed_op(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            tracer._add(tracer.op_fwd_s, op, time.perf_counter() - t0)
            tracer._add(tracer.op_calls, op, 1)
            if tracer.stack:
                tracer.stack[-1].nodes += 1
            return out

        return timed_op

    def _timed_backward(self, layer, node):
        tracer = self
        closure = node._backward
        op = node._op
        counts = ()
        if op == "scaled_dot_attention" and len(node._parents) == 3:
            q, k, v = (p.data.shape for p in node._parents)
            counts = (("attention.flop", _sdpa_flops(q, k, v, backward=True)),)

        def timed():
            frame = _Frame(layer + ".bwd")
            tracer.stack.append(frame)
            try:
                closure()
            finally:
                tracer._add(tracer.op_bwd_s, op, tracer._close(frame))
                for key, value in counts:
                    tracer._add(tracer.counts, key, value)

        timed.perfbench_layer = layer
        return timed

    def _tag(self, layer, out, args, kwargs):
        """Claim the untagged graph nodes between a call's inputs and its output."""
        stop = {id(t) for t in _tensors((args, kwargs))}
        todo = list(_tensors(out))
        seen = set()
        while todo:
            node = todo.pop()
            key = id(node)
            if key in seen or key in stop:
                continue
            seen.add(key)
            if node._backward is not None and not hasattr(node._backward, "perfbench_layer"):
                node._backward = self._timed_backward(layer, node)
            todo.extend(node._parents)

    # -- counters taken at layer boundaries ------------------------------
    def _before_backward(self, args, kwargs):
        root = args[0]
        todo, seen, graph_nodes = [root], set(), 0
        while todo:
            node = todo.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            if node._backward is not None:
                graph_nodes += 1
                if not hasattr(node._backward, "perfbench_layer"):
                    node._backward = self._timed_backward("autodiff", node)
            todo.extend(node._parents)
        self._add(self.counts, "autodiff.graph_nodes", graph_nodes)
        self._add(self.counts, "autodiff.steps", 1)

    def _after_lstm_forward(self, args, kwargs, out):
        x, _wx, wh, _b = args
        n, b, d_in = x.shape
        dh = wh.shape[0]
        flop = 2 * n * b * 4 * dh * (d_in + dh) + LSTM_FWD_ELEMENTWISE * n * b * dh
        self._add(self.counts, "kernels.lstm.flop", flop)
        self._add(self.counts, "kernels.lstm.bytes", _nbytes(args) + _nbytes(out))

    def _after_lstm_backward(self, args, kwargs, out):
        x, _wx, wh = args[:3]
        n, b, d_in = x.shape
        dh = wh.shape[0]
        # dwh and dh_next per step, then dx, dwx and db over all steps
        flop = 2 * n * b * 4 * dh * (2 * dh + 2 * d_in) + n * b * 4 * dh
        flop += LSTM_BWD_ELEMENTWISE * n * b * dh
        self._add(self.counts, "kernels.lstm.flop", flop)
        self._add(self.counts, "kernels.lstm.bytes", _nbytes(args) + _nbytes(out))

    def _after_sdpa(self, args, kwargs, out):
        q, k, v = (ad.astensor(t).data.shape for t in args[:3])
        self._add(self.counts, "attention.flop", _sdpa_flops(q, k, v, backward=False))

    def _after_save(self, args, kwargs, out):
        self._add(self.counts, "checkpoint.bytes", os.path.getsize(args[0]))
        self._add(self.counts, "checkpoint.saves", 1)

    def _after_arima(self, args, kwargs, out):
        _preds, ok = out
        self._add(self.counts, "baselines.arima_windows", ok.size)
        self._add(self.counts, "baselines.arima_ok", int(ok.sum()))

    # -- install / uninstall -------------------------------------------
    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self):
        def evaluate_name(args, kwargs):
            split = kwargs.get("split", args[2] if len(args) > 2 else None)
            return "training.valid" if split == "valid" else "training.evaluate"

        spans = [
            (data, "make_synthetic", "data.prepare", None, None),
            (data, "prepare_dataset", "data.prepare", None, None),
            (data.WindowedDataset, "batch", "data.batch", None, None),
            (encoder.Encoder, "__call__", "encoder", None, None),
            (attention.MultiHeadAttention, "__call__", "attention", None, None),
            (attention, "scaled_dot_attention", "attention.sdpa", None, self._after_sdpa),
            (fuzzy, "covariances_graph", "fuzzy", None, None),
            (fuzzy, "memberships_graph", "fuzzy", None, None),
            (fuzzy, "bhattacharyya_pairs_graph", "fuzzy", None, None),
            (fuzzy, "clusters_from_params", "fuzzy.export", None, None),
            (training, "bhattacharyya", "fuzzy.export", None, None),
            (arix, "winner_forecast_graph", "arix", None, None),
            (arix, "all_rules_forecast_graph", "arix", None, None),
            (losses, "mse_loss", "losses", None, None),
            (losses, "fcm_loss", "losses", None, None),
            (losses, "overlap_loss", "losses", None, None),
            (losses, "balance_loss", "losses", None, None),
            (training, "composite_loss", "losses", None, None),
            (model_mod.FuzzformerModel, "training_forward", "model.training_forward", None, None),
            (model_mod.FuzzformerModel, "evaluation_forward", "model.evaluation_forward", None, None),
            (training, "evaluate_split", evaluate_name, None, None),
            (training, "save_checkpoint", "checkpoint.save", None, self._after_save),
            (checkpoint, "save_checkpoint", "checkpoint.save", None, self._after_save),
            (checkpoint, "load_checkpoint", "checkpoint.load", None, None),
            (svgplot, "line_plot", "svgplot", None, None),
            (svgplot, "scatter_plot", "svgplot", None, None),
            (baselines, "evaluate_arima_windows", "baselines.arima", None, self._after_arima),
            (arima_kernels, "hr_fit", "kernels.arima.hr_fit", None, None),
            (arima_kernels, "arma_residuals", "kernels.arima.residuals", None, None),
            (arima_kernels, "arma_predict", "kernels.arima.predict", None, None),
            (arima_kernels, "companion_stable", "kernels.arima.stable", None, None),
            (lstm_kernels, "lstm_forward", "kernels.lstm.fwd", None, self._after_lstm_forward),
            (lstm_kernels, "lstm_backward", "kernels.lstm.bwd", None, self._after_lstm_backward),
            (ad, "backward", "autodiff.backward", self._before_backward, None),
            (ad.Adam, "step", "autodiff.adam", None, None),
        ]
        for owner, attr, name, on_enter, on_exit in spans:
            self._patch(owner, attr, self._span(name, getattr(owner, attr), on_enter, on_exit))
        for attr, op in OPS.items():
            self._patch(ad, attr, self._op(op, getattr(ad, attr)))
        self._patch(ad, "custom_op", self._op("custom_op", ad.custom_op))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------
    def coverage(self, start, end):
        """Share of the wall time between ``start`` and ``end`` spent inside layer spans."""
        covered = sum(d for stop, d in self.toplevel if start < stop <= end)
        return covered / (end - start)

    def per_layer(self, overhead_ratio, coverage):
        """Every per-layer metric as name -> (value, unit)."""
        s, calls, counts = self.self_s.get, self.calls.get, self.counts.get
        out = {
            "trace.overhead_ratio": (overhead_ratio, "1"),
            "trace.span_coverage": (coverage, "1"),
            "trace.wait_s": (0.0, "s"),
            "autodiff.nodes_per_step": (counts("autodiff.graph_nodes", 0) / max(counts("autodiff.steps", 0), 1), "count"),
            "autodiff.backward_s": (s("autodiff.backward", 0.0) + s("autodiff.bwd", 0.0), "s"),
            "autodiff.adam_s": (s("autodiff.adam", 0.0), "s"),
        }
        for op in OPS.values():
            out[f"autodiff.op.{op}.calls"] = (self.op_calls.get(op, 0), "count")
            out[f"autodiff.op.{op}.fwd_s"] = (self.op_fwd_s.get(op, 0.0), "s")
            out[f"autodiff.op.{op}.bwd_s"] = (self.op_bwd_s.get(op, 0.0), "s")
        out.update({
            "kernels.lstm.calls": (calls("kernels.lstm.fwd", 0), "count"),
            "kernels.lstm.fwd_s": (s("kernels.lstm.fwd", 0.0), "s"),
            "kernels.lstm.bwd_s": (s("kernels.lstm.bwd", 0.0), "s"),
            "kernels.lstm.gflop_computed": (counts("kernels.lstm.flop", 0) / 1e9, "GFLOP"),
            "kernels.lstm.mb_computed": (counts("kernels.lstm.bytes", 0) / 1e6, "MB"),
            "attention.fwd_s": (s("attention", 0.0), "s"),
            "attention.bwd_s": (s("attention.bwd", 0.0), "s"),
            "attention.sdpa_fwd_s": (s("attention.sdpa", 0.0), "s"),
            "attention.sdpa_bwd_s": (s("attention.sdpa.bwd", 0.0), "s"),
            "attention.gflop_computed": (counts("attention.flop", 0) / 1e9, "GFLOP"),
            "arix.fwd_s": (s("arix", 0.0), "s"),
            "arix.bwd_s": (s("arix.bwd", 0.0), "s"),
            "arix.nodes_per_call": (self.nodes.get("arix", 0) / max(calls("arix", 0), 1), "count"),
            "encoder.fwd_s": (s("encoder", 0.0), "s"),
            "encoder.bwd_s": (s("encoder.bwd", 0.0), "s"),
            "fuzzy.fwd_s": (s("fuzzy", 0.0), "s"),
            "fuzzy.bwd_s": (s("fuzzy.bwd", 0.0), "s"),
            "fuzzy.export_s": (s("fuzzy.export", 0.0), "s"),
            "losses.fwd_s": (s("losses", 0.0), "s"),
            "losses.bwd_s": (s("losses.bwd", 0.0), "s"),
            "model.training_forward_s": (s("model.training_forward", 0.0), "s"),
            "model.evaluation_forward_s": (s("model.evaluation_forward", 0.0), "s"),
            "model.bwd_s": (
                s("model.training_forward.bwd", 0.0) + s("model.evaluation_forward.bwd", 0.0), "s"
            ),
            "data.batch_s": (s("data.batch", 0.0), "s"),
            "data.prepare_s": (s("data.prepare", 0.0), "s"),
            "training.valid_s": (s("training.valid", 0.0), "s"),
            "checkpoint.save_s": (s("checkpoint.save", 0.0), "s"),
            "checkpoint.load_s": (s("checkpoint.load", 0.0), "s"),
            "checkpoint.bytes": (counts("checkpoint.bytes", 0) / max(counts("checkpoint.saves", 0), 1), "bytes"),
            "svgplot.render_s": (s("svgplot", 0.0), "s"),
            "baselines.arima_s": (s("baselines.arima", 0.0), "s"),
            "baselines.arima_ok_ratio": (
                counts("baselines.arima_ok", 0) / max(counts("baselines.arima_windows", 0), 1), "1"
            ),
            "kernels.arima.calls": (calls("kernels.arima.hr_fit", 0), "count"),
            "kernels.arima.hr_fit_s": (s("kernels.arima.hr_fit", 0.0), "s"),
            "kernels.arima.residuals_s": (s("kernels.arima.residuals", 0.0), "s"),
            "kernels.arima.predict_s": (s("kernels.arima.predict", 0.0), "s"),
            "kernels.arima.stable_s": (s("kernels.arima.stable", 0.0), "s"),
        })
        return out
