"""In-memory spans and call counts for the traced run.

A traced pass rebinds each measured function under every name that the
package's code looks it up by, records one span per call (name, start,
end, parent span, pass id) or only a call count, and restores the
original bindings when the pass ends. Spans stay in memory until the
benchmark writes them out at the end of the run.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index, pass id, rows]
        self.counts = Counter()  # (pass id, name) -> calls
        self.pass_id = -1
        self._stack = []

    def span(self, name, fn, rows_arg=None):
        """Wrap ``fn`` to record a span per call; ``rows_arg`` names the
        positional argument whose leading dimension is recorded as rows."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rows = args[rows_arg].shape[0] if rows_arg is not None else 0
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.pass_id, rows]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()

        return traced

    def count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[(self.pass_id, name)] += 1
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def installed(self, quantmeu, pass_id):
        """Rebind the measured functions of ``quantmeu`` for one pass."""
        self.pass_id = pass_id
        undo = []

        def rebind(fn, wrapper):
            # every binding in the package's modules: callers such as
            # `engine.simulate_pairs` or `net._kernels.loss_grad_batch`
            # look the name up in their own module's namespace
            for mod in list(sys.modules.values()):
                if not getattr(mod, "__name__", "").startswith("quantmeu"):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        undo.append((mod, attr, value))
                        setattr(mod, attr, wrapper)

        def rebind_method(cls, attr, name):
            raw = cls.__dict__[attr]
            undo.append((cls, attr, raw))
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self.span(name, raw.__func__)))
            else:
                setattr(cls, attr, self.span(name, raw))

        k, m, n, e = quantmeu._kernels, quantmeu.models, quantmeu.net, quantmeu.engine
        try:
            rebind(quantmeu.special.normal_quantile,
                   self.count("special.normal_quantile", quantmeu.special.normal_quantile))
            for name, fn in [
                ("models.simulate_pairs", m.simulate_pairs),
                ("_kernels.loss_grad_batch", k.loss_grad_batch),
                ("net.train", n.train),
                ("net.save_net", n.save_net),
                ("net.load_net", n.load_net),
                ("engine.build_training_table", e.build_training_table),
                ("engine.expected_utility", e.expected_utility),
                ("engine.optimize_decision", e.optimize_decision),
                ("engine.posterior_sample", e.posterior_sample),
                ("svgplot.line_plot", quantmeu.svgplot.line_plot),
            ]:
                rebind(fn, self.span(name, fn))
            rebind(k.forward_batch,
                   self.span("_kernels.forward_batch", k.forward_batch, rows_arg=4))
            rebind_method(quantmeu.tables.TrainingTable, "to_csv", "tables.to_csv")
            rebind_method(quantmeu.tables.TrainingTable, "from_csv", "tables.from_csv")
            yield self
        finally:
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)

    def pass_summary(self, pass_id):
        """Per-layer totals of one pass: seconds, self seconds and calls per
        span name, with forward-kernel calls split by whether they ran under
        ``net.train`` (validation) or not (prediction) as [calls, rows, s]."""
        spans = self.spans
        total = defaultdict(float)
        child = defaultdict(float)
        calls = Counter()
        fwd = {"validation": [0, 0, 0.0], "prediction": [0, 0, 0.0]}
        for name, start, end, parent, pid, rows in spans:
            if pid != pass_id:
                continue
            dur = end - start
            total[name] += dur
            calls[name] += 1
            if parent >= 0:
                child[spans[parent][0]] += dur
            if name == "_kernels.forward_batch":
                kind = "prediction"
                p = parent
                while p >= 0:
                    if spans[p][0] == "net.train":
                        kind = "validation"
                        break
                    p = spans[p][3]
                fwd[kind][0] += 1
                fwd[kind][1] += rows
                fwd[kind][2] += dur
        counts = {name: c for (pid, name), c in self.counts.items() if pid == pass_id}
        return {
            "s": dict(total),
            "self_s": {name: total[name] - child[name] for name in total},
            "calls": dict(calls),
            "counts": counts,
            "forward": fwd,
        }

    def dump(self):
        return [{"name": n, "start": s, "end": e, "parent": p, "pass": pid, "rows": r}
                for n, s, e, p, pid, r in self.spans]
