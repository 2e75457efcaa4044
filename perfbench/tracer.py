"""Out-of-program tracing of dmjoint: wrappers installed on module attributes.

Every dmjoint module looks its collaborators up as module globals at call
time, so replacing an attribute (``sampler.update_xi``, ``cli.run_chain``,
``io.write_chain`` ...) lets the benchmark see every call without changing
the package. Three kinds of wrapper are used:

* ``span``: records (name, start, end, parent span, operation id) and keeps
  count / total / self time. Used at layer boundaries (cli, baselines,
  sampler loops, io, predict, prep, simulate).
* ``kernel``: count / total / self time only, attributed to the sampler loop
  that encloses the call. Used for the per-iteration blocks.
* ``count`` and ``elements``: call count (and input elements), attributed
  to the enclosing sampler loop. Used where a clock read would cost as much
  as the call.

A span's or kernel's self time is its duration minus the time of the traced
calls made inside it.
"""

from __future__ import annotations

import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from dmjoint import baselines, cli, sampler
from dmjoint import io as dio

LOOPS = ("sampler.run_chain", "baselines.run_balance_selection")
BLOCKS = ("update_alpha", "update_zeta_phi", "update_c", "update_u", "update_xi")
MOVES = ("alpha", "add", "delete", "within", "xi")
PREDICT_CALLS = ("predict.predict_y", "predict.fitted_y", "predict.pointwise_loglik",
                 "baselines.two_step_fitted_y", "baselines.two_step_predict_y")

# (module, attribute, traced name, kind)
CATALOGUE = [
    (cli, "cmd_simulate", "cli.simulate", "span"),
    (cli, "cmd_fit", "cli.fit", "span"),
    (cli, "cmd_predict", "cli.predict", "span"),
    (cli, "cmd_evaluate", "cli.evaluate", "span"),
    (cli, "gen_replicate", "simulate.gen_replicate", "span"),
    (cli, "preprocess", "prep.preprocess", "span"),
    (cli, "run_chain", "sampler.run_chain", "span"),
    (cli, "run_two_step", "baselines.run_two_step", "span"),
    (cli, "predict_y", "predict.predict_y", "span"),
    (cli, "fitted_y", "predict.fitted_y", "span"),
    (cli, "pointwise_loglik", "predict.pointwise_loglik", "span"),
    (cli, "two_step_fitted_y", "baselines.two_step_fitted_y", "span"),
    (cli, "two_step_predict_y", "baselines.two_step_predict_y", "span"),
    (baselines, "run_dm_only", "baselines.run_dm_only", "span"),
    (baselines, "run_chain", "sampler.run_chain", "span"),
    (baselines, "run_balance_selection", "baselines.run_balance_selection", "span"),
    (dio, "write_replicate", "io.write_replicate", "span"),
    (dio, "read_train", "io.read_train", "span"),
    (dio, "read_test", "io.read_test", "span"),
    (dio, "read_truth", "io.read_truth", "span"),
    (dio, "write_chain", "io.write_chain", "span"),
    (dio, "read_chain", "io.read_chain", "span"),
    (dio, "write_matrix", "io.write_matrix", "span"),
    (dio, "read_matrix", "io.read_matrix", "span"),
    *[(sampler, b, "sampler." + b, "kernel") for b in BLOCKS],
    (sampler, "log_marginal_y", "model.log_marginal_y", "kernel"),
    (sampler, "zero_replace", "model.zero_replace", "kernel"),
    (sampler, "standardize_columns", "model.standardize_columns", "kernel"),
    (sampler, "gammaln", "sampler.gammaln", "elements"),
    (sampler, "spike_slab_logprior", "model.spike_slab_logprior", "count"),
    (sampler, "beta_binomial_logprior", "model.beta_binomial_logprior", "count"),
]


class Patch:
    """Replaces module attributes on enter and restores the originals on exit."""

    def __init__(self, replacements):
        self.replacements = replacements  # [(module, attr, new)]
        self.saved = []

    def __enter__(self):
        for module, attr, new in self.replacements:
            self.saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, new)
        return self

    def __exit__(self, *exc):
        for module, attr, old in reversed(self.saved):
            setattr(module, attr, old)
        self.saved.clear()


def capture_read_chain(sink: list) -> Patch:
    """Keep every chain ``io.read_chain`` returns, so checks see what predict read."""
    original = dio.read_chain

    def read_chain(*args, **kwargs):
        out = original(*args, **kwargs)
        sink.append(out[0])
        return out

    return Patch([(dio, "read_chain", read_chain)])


class Tracer:
    """Spans and per-kernel counters for one process, kept in memory."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans = []
        self.op = None
        self._frames = []  # per active timed call: [child seconds]
        self._span = None  # id of the innermost open span
        self._loop = None  # name of the innermost running sampler loop
        self.reset()

    def reset(self):
        """Start the counters of a new operation; spans are kept."""
        self.timed = defaultdict(lambda: [0, 0.0, 0.0])  # (loop, name) -> count, s, self s
        self.counted = defaultdict(lambda: [0, 0])  # (loop, name) -> calls, elements
        self.iters = defaultdict(int)  # loop -> sampler iterations
        self.accept = defaultdict(lambda: [0, 0])  # move -> accepted, proposed
        self.samples_fitted = 0
        self.distinct_models = 0
        self.chain_bytes = 0

    def patch(self) -> Patch:
        return Patch([(m, a, self._wrap(getattr(m, a), name, kind))
                      for m, a, name, kind in CATALOGUE])

    def _wrap(self, fn, name, kind):
        tracer = self
        if kind == "count":
            def counted(*args, **kwargs):
                tracer.counted[(tracer._loop, name)][0] += 1
                return fn(*args, **kwargs)
            return counted
        if kind == "elements":
            def counted_elements(x, *args, **kwargs):
                entry = tracer.counted[(tracer._loop, name)]
                entry[0] += 1
                entry[1] += np.size(x)
                return fn(x, *args, **kwargs)
            return counted_elements

        is_span = kind == "span"
        is_loop = name in LOOPS

        def timed(*args, **kwargs):
            frame = [0.0]
            frames = tracer._frames
            parent = frames[-1] if frames else None
            frames.append(frame)
            loop = tracer._loop
            if is_loop:
                tracer._loop = name
            if is_span:
                span_id, parent_span = len(tracer.spans), tracer._span
                tracer.spans.append(None)
                tracer._span = span_id
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                dur = end - start
                frames.pop()
                if parent is not None:
                    parent[0] += dur
                tracer._loop = loop
                entry = tracer.timed[(loop, name)]
                entry[0] += 1
                entry[1] += dur
                entry[2] += dur - frame[0]
                if is_span:
                    tracer._span = parent_span
                    tracer.spans[span_id] = {
                        "id": span_id, "name": name, "parent": parent_span,
                        "op": tracer.op, "start": start - tracer.t0,
                        "end": end - tracer.t0}
            tracer._after(name, args, out)
            return out
        return timed

    def _after(self, name, args, out):
        """Exact counts read from a traced call's arguments and result."""
        if name in LOOPS:
            self.iters[name] += out.config.iterations
            for move, (acc, prop) in out.accept.items():
                self.accept[move][0] += acc
                self.accept[move][1] += prop
        elif name in PREDICT_CALLS:
            chain = args[0].stage2 if name.startswith("baselines.") else args[0]
            self.samples_fitted += chain.n_samples
            self.distinct_models = max(self.distinct_models,
                                       len(np.unique(chain.xi, axis=0)))
        elif name == "io.write_chain":
            self.chain_bytes += sum(p.stat().st_size for p in Path(args[0]).iterdir()
                                    if p.is_file())

    # -- summaries ---------------------------------------------------------

    def total_s(self, name) -> float:
        return sum(v[1] for (_, n), v in self.timed.items() if n == name)

    def calls(self, name) -> int:
        return sum(v[0] for (_, n), v in self.timed.items() if n == name)

    def _per_iter(self, table, name, column) -> float:
        """Column total over calls made inside sampler loops, per loop iteration."""
        inside = [(loop, v) for (loop, n), v in table.items() if n == name and loop]
        total = sum(v[column] for _, v in inside)
        iters = sum(self.iters[loop] for loop, _ in inside)
        return total / iters if iters else 0.0

    def ms_per_iter(self, name) -> float:
        """Milliseconds per iteration of the sampler loops that make the call."""
        return 1e3 * self._per_iter(self.timed, name, 1)

    def calls_per_iter(self, name) -> float:
        timed = any(n == name for _, n in self.timed)
        return self._per_iter(self.timed if timed else self.counted, name, 0)

    def elems_per_iter(self, name) -> float:
        return self._per_iter(self.counted, name, 1)

    def loop_self_ms_per_iter(self) -> float:
        """run_chain time not spent in its five block updates, per iteration."""
        loop = "sampler.run_chain"
        if not self.iters[loop]:
            return 0.0
        blocks = sum(v[1] for (lp, n), v in self.timed.items()
                     if lp == loop and n.split(".", 1)[1] in BLOCKS)
        return 1e3 * (self.total_s(loop) - blocks) / self.iters[loop]

    def layer_metrics(self) -> dict:
        """Every per-layer figure of one operation: name -> (value, unit)."""
        run_iters = self.iters["sampler.run_chain"]
        m = {"sampler.run_chain.ms_per_iter":
             (1e3 * self.total_s("sampler.run_chain") / run_iters if run_iters else 0.0, "ms")}
        for b in BLOCKS:
            m[f"sampler.{b}.ms_per_iter"] = (self.ms_per_iter("sampler." + b), "ms")
        m["sampler.loop_self.ms_per_iter"] = (self.loop_self_ms_per_iter(), "ms")
        m["sampler.within.proposals_per_iter"] = (
            self.accept["within"][1] / run_iters if run_iters else 0.0, "1/iter")
        for move in MOVES:
            acc, prop = self.accept[move]
            m[f"sampler.{move}.accept_rate"] = (acc / prop if prop else 0.0, "ratio")
            m[f"sampler.{move}.proposed"] = (prop, "count")
        m["sampler.gammaln.calls_per_iter"] = (self.calls_per_iter("sampler.gammaln"), "1/iter")
        m["sampler.gammaln.elems_per_iter"] = (self.elems_per_iter("sampler.gammaln"), "1/iter")
        for name in ("model.log_marginal_y", "model.spike_slab_logprior",
                     "model.beta_binomial_logprior"):
            m[name + ".calls_per_iter"] = (self.calls_per_iter(name), "1/iter")
        for name in ("model.log_marginal_y", "model.zero_replace",
                     "model.standardize_columns"):
            m[name + ".ms_per_iter"] = (self.ms_per_iter(name), "ms")
        for name in ("baselines.run_dm_only", "baselines.run_balance_selection",
                     "baselines.two_step_fitted_y", "baselines.two_step_predict_y",
                     "predict.predict_y", "predict.fitted_y", "predict.pointwise_loglik",
                     "io.write_chain", "io.read_chain", "prep.preprocess",
                     "cli.fit", "cli.predict"):
            m[name + ".s"] = (self.total_s(name), "s")
        m["predict.samples_fitted"] = (self.samples_fitted, "count")
        m["predict.distinct_models"] = (self.distinct_models, "count")
        m["io.write_chain.bytes"] = (self.chain_bytes, "B")
        m["io.write_matrix.calls"] = (self.calls("io.write_matrix"), "count")
        m["io.read_matrix.calls"] = (self.calls("io.read_matrix"), "count")
        return m

    def kernel_table(self) -> list:
        rows = [{"loop": loop, "name": name, "calls": c, "total_s": t, "self_s": s}
                for (loop, name), (c, t, s) in self.timed.items()]
        rows += [{"loop": loop, "name": name, "calls": c, "elements": e}
                 for (loop, name), (c, e) in self.counted.items()]
        return rows
