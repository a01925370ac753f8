"""Outside-in tracing: time calls into evanom's public module functions.

`Tracer.install()` replaces every public function of the measured layer
modules with a wrapper that records a span (name, start, end, parent)
and, for autodiff ops, wraps the returned tensor's backward closure so
backward time is attributed to the op. The replacement is done wherever
the function object is bound in an `evanom.*` module namespace, so names
imported with `from .x import f` are traced too. `uninstall()` restores
the originals. Wrappers change no argument and no array, so traced and
untraced runs compute the same bits.
"""
from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("simulate", "events", "representation", "autodiff", "msnet",
          "gan", "pipeline", "io")

# Every public autodiff op: each returns a Tensor whose `_back` closure
# is the op's backward.
OPS = ("add", "mul", "sigmoid", "tanh", "leaky_relu", "concat", "conv2d",
       "conv_transpose2d", "channel_mix", "dense", "reshape", "mse_loss",
       "bce_with_logits", "l1_norm")


def _flops(op, args, out) -> int:
    """Forward multiply-add work (2 flops each) from argument shapes."""
    w = args[1].shape
    if op == "conv2d":              # w (O, C, kh, kw); out (N, O, Ho, Wo)
        return 2 * out.data.size * w[1] * w[2] * w[3]
    if op == "conv_transpose2d":    # w (C, O, kh, kw); x (N, C, H, W)
        return 2 * args[0].data.size * w[1] * w[2] * w[3]
    if op == "channel_mix":         # w (O, C); out (N, O, H, W)
        return 2 * out.data.size * w[1]
    if op == "dense":               # w (D, M); out (N, M)
        return 2 * out.data.size * w[0]
    raise ValueError(f"no flop count for {op}")


FLOP_OPS = ("conv2d", "conv_transpose2d", "channel_mix", "dense")

# Layer functions whose result length is a work count worth recording.
COUNTED = {"simulate.render_scene": lambda r: len(r[0]),
           "representation.sliding_windows": len,
           "events.parse_event_csv": len,
           "pipeline.score_sequence": len}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent index]
        self._stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._patched: list[tuple[dict, str, object]] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int):
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    def _timed(self, name, fn):
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return wrapper

    def _wrap(self, name, fn):
        layer, fname = name.split(".", 1)
        if layer == "autodiff" and fname in OPS:
            return self._wrap_op(fname, fn)
        timed = self._timed(name, fn)
        count = COUNTED.get(name)
        if count is None:
            return timed

        def counted(*args, **kwargs):
            out = timed(*args, **kwargs)
            self.counts[name] += count(out)
            return out
        return counted

    def _wrap_op(self, op, fn):
        name = f"autodiff.{op}"
        timed = self._timed(name, fn)

        def wrapper(*args, **kwargs):
            out = timed(*args, **kwargs)
            self.counts[name] += 1
            if op in FLOP_OPS:
                self.counts[f"{name}.flops"] += _flops(op, args, out)
            if out._back is not None:
                out._back = self._timed(f"{name}.bwd", out._back)
            return out
        return wrapper

    def install(self):
        originals = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"evanom.{layer}")
            for fname, fn in vars(mod).items():
                if (not fname.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    originals[id(fn)] = self._wrap(f"{layer}.{fname}", fn)
        for modname, mod in list(sys.modules.items()):
            if modname != "evanom" and not modname.startswith("evanom."):
                continue
            ns = vars(mod)
            for attr, val in list(ns.items()):
                wrapper = originals.get(id(val))
                if wrapper is not None:
                    self._patched.append((ns, attr, val))
                    ns[attr] = wrapper

    def uninstall(self):
        for ns, attr, fn in reversed(self._patched):
            ns[attr] = fn
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def totals(self) -> dict[str, float]:
        """Inclusive seconds per span name."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _ in self.spans:
            out[name] += end - start
        return out


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metric values (see BENCHMARK.json `per_layer`)."""
    tot, cnt = tracer.totals(), tracer.counts
    m = {}
    for op in OPS:
        m[f"autodiff.fwd_s.{op}"] = tot.get(f"autodiff.{op}", 0.0)
        m[f"autodiff.bwd_s.{op}"] = tot.get(f"autodiff.{op}.bwd", 0.0)
        m[f"autodiff.calls.{op}"] = cnt.get(f"autodiff.{op}", 0)
    for op in FLOP_OPS:
        m[f"autodiff.flops.{op}"] = cnt.get(f"autodiff.{op}.flops", 0)
    spans = {
        "autodiff.backward_s": "autodiff.backward",
        "autodiff.adam_s": "autodiff.adam_step",
        "msnet.train_s": "msnet.train_ms",
        "gan.train_s": "gan.train_gan",
        "gan.d_losses_s": "gan.d_losses",
        "gan.g_loss_s": "gan.g_loss",
        "gan.prepare_s": "gan.prepare_batches",
        "gan.g_forward_s": "gan.g_forward_t",
        "representation.windows_s": "representation.sliding_windows",
        "simulate.render_s": "simulate.render_scene",
        "events.parse_s": "events.parse_event_csv",
        "pipeline.score_s": "pipeline.score_sequence",
        "pipeline.evaluate_s": "pipeline.evaluate",
        "io.evck_write_s": "io.write_evck",
        "io.evck_read_s": "io.read_evck",
    }
    for metric, span in spans.items():
        m[metric] = tot.get(span, 0.0)
    m["representation.windows"] = cnt.get("representation.sliding_windows", 0)
    m["simulate.events"] = cnt.get("simulate.render_scene", 0)
    m["events.parsed"] = cnt.get("events.parse_event_csv", 0)
    m["pipeline.frames"] = cnt.get("pipeline.score_sequence", 0)
    return m
