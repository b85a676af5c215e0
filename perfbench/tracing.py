"""Spans around tokentab's public functions, recorded from outside the program.

``Tracer.install`` replaces each instrumented function at every name a
tokentab module binds it to (callers import by name, so patching only the
defining module would miss them) and each instrumented method on its
class. Spans (name, start, end, parent, operation id) are kept in memory;
``Tracer.uninstall`` puts the originals back.
"""

from __future__ import annotations

import statistics
import sys
import time
import tracemalloc
from collections import defaultdict

# span name -> (defining module, function name)
FUNCTIONS = {
    "cli.main": ("tokentab.cli", "main"),
    "prior.pretrain": ("tokentab.prior", "pretrain"),
    "prior.sample_task": ("tokentab.prior", "sample_task"),
    "training.run_protocol": ("tokentab.training", "run_protocol"),
    "training.finetune": ("tokentab.training", "finetune"),
    "training.total_loss": ("tokentab.training", "total_loss"),
    "tokenizer.orthogonal_loss": ("tokentab.tokenizer", "orthogonal_loss"),
    "metrics.roc_auc_ovo": ("tokentab.metrics", "roc_auc_ovo"),
    "data.load_csv": ("tokentab.data", "load_csv"),
    "data.fit_schema": ("tokentab.data", "fit_schema"),
    "data.encode": ("tokentab.data", "encode"),
    "data.split_train_test": ("tokentab.data", "split_train_test"),
    "checkpoint.load": ("tokentab.checkpoint", "load_checkpoint"),
    "checkpoint.rebuild": ("tokentab.checkpoint", "rebuild_model"),
    "checkpoint.save": ("tokentab.checkpoint", "save_checkpoint"),
}

# span name -> (defining module, class, method name)
METHODS = {
    "autodiff.backward": ("tokentab.autodiff", "Tensor", "backward"),
    "autodiff.tape_trace": ("tokentab.autodiff", "ComputationTape", "trace"),
    "model.encoder_layer": ("tokentab.model", "EncoderLayer", "forward"),
    "model.predict_logits": ("tokentab.model", "InContextClassifier", "predict_logits"),
    "model.predict_proba": ("tokentab.model", "InContextClassifier", "predict_proba"),
    "model.state_arrays": ("tokentab.model", "InContextClassifier", "state_arrays"),
    "tokenizer.embed_rows": ("tokentab.tokenizer", "FeatureTokenizer", "embed_rows"),
    "optim.step": ("tokentab.optim", "Adam", "step"),
}

MIB = 1024.0 * 1024.0


class Tracer:
    """Span and counter recorder for one traced loop of operations."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index, op id]
        self._stack: list[int] = []
        self.op = -1
        self.tensors = 0              # Tensor constructions so far
        self._step_mark = 0
        # per op id: lists of per-step / per-call observations
        self.step_tensors: dict[int, list[int]] = defaultdict(list)
        self.tape_nodes: dict[int, list[int]] = defaultdict(list)
        self.proba_peak = 0           # bytes, over the first traced call
        self._restore: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _span(self, name, fn):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.perf_counter(), None,
                          stack[-1] if stack else None, self.op])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index][2] = time.perf_counter()
                stack.pop()
        return wrapper

    def _trace_wrapper(self, fn):
        def trace(cls, root):
            tape = fn(cls, root)
            self.tape_nodes[self.op].append(len(tape.nodes))
            return tape
        return trace

    def _proba_wrapper(self, fn):
        # tracemalloc slows every allocation, so only the first traced
        # call pays for it; the peak is deterministic, one call suffices
        def predict_proba(*args, **kwargs):
            if self.op != 0:
                return fn(*args, **kwargs)
            tracemalloc.start()
            base = tracemalloc.get_traced_memory()[0]
            try:
                return fn(*args, **kwargs)
            finally:
                self.proba_peak = max(self.proba_peak,
                                      tracemalloc.get_traced_memory()[1] - base)
                tracemalloc.stop()
        return predict_proba

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "tokentab" or name.startswith("tokentab.")]
        for span, (module, attr) in FUNCTIONS.items():
            original = getattr(sys.modules[module], attr)
            wrapped = self._span(span, original)
            bound = [m for m in modules if m.__dict__.get(attr) is original]
            for m in bound:
                self._set(m, attr, wrapped)
        for span, (module, cls_name, attr) in METHODS.items():
            cls = getattr(sys.modules[module], cls_name)
            raw = cls.__dict__[attr]
            if span == "autodiff.tape_trace":    # a classmethod
                fn = classmethod(self._span(span, self._trace_wrapper(raw.__func__)))
            elif span == "model.predict_proba":
                fn = self._proba_wrapper(self._span(span, raw))
            else:
                fn = self._span(span, raw)
            self._set(cls, attr, fn)
        self._install_counters()

    def _install_counters(self) -> None:
        autodiff = sys.modules["tokentab.autodiff"]
        optim = sys.modules["tokentab.optim"]
        init = autodiff.Tensor.__dict__["__init__"]
        zero_grad = optim.Adam.__dict__["zero_grad"]
        step = optim.Adam.step   # already the span wrapper

        def counting_init(tensor, *args, **kwargs):
            self.tensors += 1
            init(tensor, *args, **kwargs)

        def marking_zero_grad(opt):
            self._step_mark = self.tensors
            zero_grad(opt)

        def counting_step(opt):
            self.step_tensors[self.op].append(self.tensors - self._step_mark)
            step(opt)

        self._set(autodiff.Tensor, "__init__", counting_init)
        self._set(optim.Adam, "zero_grad", marking_zero_grad)
        self._set(optim.Adam, "step", counting_step)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- aggregation -------------------------------------------------------

    def per_op(self) -> dict[int, dict[str, dict[str, float]]]:
        """op id -> span name -> {"calls", "total_s", "self_s"}."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[int, dict] = defaultdict(
            lambda: defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}))
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            entry = out[op][name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[i]
        return out

    def covered_s(self) -> float:
        """Wall time inside top-level spans, summed over the loop."""
        return sum(end - start for _, start, end, parent, _ in self.spans
                   if parent is None)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\top\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name}\t{start!r}\t{end!r}\t"
                         f"{'' if parent is None else parent}\t{op}\n")


# per-layer metric -> (unit, span, field of the span's per-call totals);
# span None marks a counter read by ``layer_values`` directly
PER_LAYER = [
    ("autodiff.backward_s", "s", "autodiff.backward", "self_s"),
    ("autodiff.tape_trace_s", "s", "autodiff.tape_trace", "self_s"),
    ("autodiff.tensors_per_step", "count", None, None),
    ("autodiff.tape_nodes_per_step", "count", None, None),
    ("model.encoder_layer_s", "s", "model.encoder_layer", "self_s"),
    ("model.encoder_layer_calls", "count", "model.encoder_layer", "calls"),
    ("model.predict_logits_self_s", "s", "model.predict_logits", "self_s"),
    ("model.predict_proba_s", "s", "model.predict_proba", "total_s"),
    ("model.predict_proba_calls", "count", "model.predict_proba", "calls"),
    ("model.state_arrays_s", "s", "model.state_arrays", "self_s"),
    ("tokenizer.embed_rows_s", "s", "tokenizer.embed_rows", "self_s"),
    ("tokenizer.embed_rows_calls", "count", "tokenizer.embed_rows", "calls"),
    ("tokenizer.orthogonal_loss_s", "s", "tokenizer.orthogonal_loss", "self_s"),
    ("optim.step_s", "s", "optim.step", "self_s"),
    ("prior.pretrain_s", "s", "prior.pretrain", "self_s"),
    ("prior.sample_task_s", "s", "prior.sample_task", "self_s"),
    ("training.run_protocol_s", "s", "training.run_protocol", "self_s"),
    ("training.finetune_s", "s", "training.finetune", "self_s"),
    ("training.total_loss_s", "s", "training.total_loss", "self_s"),
    ("metrics.roc_auc_ovo_s", "s", "metrics.roc_auc_ovo", "self_s"),
    ("metrics.roc_auc_ovo_calls", "count", "metrics.roc_auc_ovo", "calls"),
    ("data.load_csv_s", "s", "data.load_csv", "self_s"),
    ("data.fit_schema_s", "s", "data.fit_schema", "self_s"),
    ("data.encode_s", "s", "data.encode", "self_s"),
    ("data.split_train_test_s", "s", "data.split_train_test", "self_s"),
    ("checkpoint.load_s", "s", "checkpoint.load", "self_s"),
    ("checkpoint.rebuild_s", "s", "checkpoint.rebuild", "self_s"),
    ("checkpoint.save_s", "s", "checkpoint.save", "self_s"),
    ("cli.self_s", "s", "cli.main", "self_s"),
]


def layer_values(tracer: Tracer, per_op: dict, op: int) -> dict[str, float]:
    """Every PER_LAYER value of one traced call (0 for a span never entered)."""
    spans = per_op.get(op, {})
    tensors = tracer.step_tensors.get(op, [])
    nodes = tracer.tape_nodes.get(op, [])
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    out = {name: spans.get(span, empty)[field]
           for name, _unit, span, field in PER_LAYER if span is not None}
    out["autodiff.tensors_per_step"] = sum(tensors) / len(tensors) if tensors else 0
    out["autodiff.tape_nodes_per_step"] = sum(nodes) / len(nodes) if nodes else 0
    return out
