"""In-memory span recorder for the traced benchmark run.

The benchmark traces qopnet from the outside: ``install`` replaces the
module and class attributes that pipeline code looks up at call time
(``verify.synthetic_expansion``, ``synth.eval_tensor``,
``netcore.ReluNetwork.forward``, ``ddfloat.mul_f64``, ...) with wrappers
that open a span, call the original, and close the span.  Nothing under
``src/`` changes.

A span is ``[name, start, end, parent]`` with ``perf_counter`` times and
``parent`` the index of the enclosing span (None for the root).  Spans stay
in memory and are written once, after the run, by ``write_jsonl``.  A
span's self time is its duration minus the durations of its direct
children, so the self times of one run add up to its root span.
"""

import collections
import contextlib
import functools
import inspect
import json
import os
import resource
import time

# layer metrics derived from the spans; (name, unit) in report order
LAYER_METRICS = (
    ("netcore.forward_s", "s"),
    ("netcore.forward_calls", "count"),
    ("netcore.forward_unit_points", "count"),
    ("netcore.forward_unit_points_per_s", "1/s"),
    ("netcore.forward_flops", "flop-computed"),
    ("netcore.forward_bytes", "B-computed"),
    ("netcore.forward_minor_faults", "count"),
    ("netcore.forward_dd_s", "s"),
    ("netcore.forward_dd_calls", "count"),
    ("netcore.forward_dd_unit_points", "count"),
    ("netcore.forward_dd_unit_points_per_s", "1/s"),
    ("netcore.forward_dd_minor_faults", "count"),
    ("ddfloat.mul_f64_s", "s"),
    ("ddfloat.add_dd_s", "s"),
    ("ddfloat.relu_dd_s", "s"),
    ("ddfloat.calls", "count"),
    ("netcore.passes_per_row", "count"),
    ("synth.build_s", "s"),
    ("synth.basis_s", "s"),
    ("synth.basis_calls", "count"),
    ("synth.gadget_cache_hits", "count"),
    ("synth.gadget_cache_misses", "count"),
    ("netcore.parallel_s", "s"),
    ("netcore.parallel_calls", "count"),
    ("netcore.layer_inits", "count"),
    ("netcore.save_s", "s"),
    ("netcore.load_s", "s"),
    ("netcore.json_bytes", "B"),
    ("cli.synth_s", "s"),
    ("cli.eval_s", "s"),
    ("cli.verify_s", "s"),
    ("cli.self_s", "s"),
    ("multiindex.select_s", "s"),
    ("multiindex.select_calls", "count"),
    ("multiindex.tail_s", "s"),
    ("multiindex.pvolume_s", "s"),
    ("orthopoly.target_s", "s"),
    ("orthopoly.reference_s", "s"),
    ("orthopoly.reference_calls", "count"),
    ("sampling.points_s", "s"),
    ("sampling.points", "count"),
    ("verify.study_self_s", "s"),
    ("trace.root_s", "s"),
    ("trace.self_sum_s", "s"),
    ("trace.overhead_s", "s"),
)


class Tracer:
    """Spans and counters of one traced run."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.counts = collections.Counter()
        self._stack = []

    def open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        if self._stack.pop() != idx:
            raise RuntimeError(f"span {self.spans[idx][0]} closed out of order")

    @contextlib.contextmanager
    def span(self, name):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def wrap(self, name, fn, after=None, faults=False):
        """fn with a span around every call.

        after(args, kwargs, result) runs outside the span, so its cost lands
        in the caller's self time; faults=True counts the minor page faults
        taken inside the span.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            flt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt \
                if faults else 0
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if faults:
                self.counts[name + ".minor_faults"] += \
                    resource.getrusage(resource.RUSAGE_SELF).ru_minflt - flt
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def self_times(self):
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent is not None:
                covered[parent] += end - start
        return [(end - start) - c
                for (_, start, end, _), c in zip(self.spans, covered)]

    def totals(self):
        """name -> (calls, inclusive seconds, self seconds)."""
        out = {}
        for (name, start, end, _), own in zip(self.spans, self.self_times()):
            calls, incl, self_s = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, incl + (end - start), self_s + own)
        return out

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"run": self.run_id, "name": name,
                                     "start": start, "end": end,
                                     "parent": parent}) + "\n")


def _patch(owner, attr, tracer, name, **kw):
    setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), **kw))


def install(tracer):
    """Wrap every traced boundary of the imported qopnet modules."""
    from qopnet import (ddfloat, multiindex, netcore, orthopoly, sampling,
                        synth, verify)

    def forward_stats(prefix, fn, with_cost):
        default_chunk = inspect.signature(fn).parameters["chunk"].default

        def after(args, kwargs, result):
            net, points = args[0], args[1]
            npts = len(points)
            chunk = args[2] if len(args) > 2 else \
                kwargs.get("chunk", default_chunk)
            chunks = -(-npts // chunk)
            units = sum(layer.units for layer in net.layers)
            tracer.counts[prefix + ".unit_points"] += units * npts
            if not with_cost:
                return
            flops = 0
            nbytes = 0
            for layer in net.layers:
                nnz = layer.nonzero_weights
                relu = int(layer.relu_rows.sum())
                flops += npts * (2 * nnz + layer.units + relu)
                # CSR data + indices + row pointers and the bias, once per
                # chunk; activations read and written once per point
                nbytes += chunks * (12 * nnz + 12 * layer.units + 4) \
                    + 8 * npts * (layer.fan_in + layer.units)
            tracer.counts[prefix + ".flops"] += flops
            tracer.counts[prefix + ".bytes"] += nbytes
        return after

    def count_points(args, kwargs, result):
        tracer.counts["sampling.points"] += len(result)

    def count_bytes(args, kwargs, result):
        tracer.counts["netcore.json_bytes"] += os.path.getsize(args[1])

    for owner, attr, name in (
            (verify, "convergence_study", "verify.study"),
            (verify, "synthetic_expansion", "orthopoly.target"),
            (orthopoly, "synthetic_expansion", "orthopoly.target"),
            (orthopoly.QuasiOptimalExpansion, "evaluate", "orthopoly.target"),
            (orthopoly.QuasiOptimalExpansion, "evaluate_dd",
             "orthopoly.target"),
            (orthopoly, "eval_tensor", "orthopoly.reference"),
            (orthopoly, "eval_tensor_dd", "orthopoly.reference"),
            (synth, "eval_tensor", "orthopoly.reference"),
            (synth, "eval_tensor_dd", "orthopoly.reference"),
            (multiindex, "enumerate_quasi_optimal", "multiindex.select"),
            (multiindex, "tail_sum", "multiindex.tail"),
            (multiindex, "estimate_sublevel_volume", "multiindex.pvolume"),
            (synth, "expansion_network", "synth.build"),
            (synth, "tensor_basis_network", "synth.basis"),
            (netcore, "parallel", "netcore.parallel"),
            (netcore, "load_network", "netcore.load"),
            (ddfloat, "mul_f64", "ddfloat.mul_f64"),
            (ddfloat, "add_dd", "ddfloat.add_dd"),
            (ddfloat, "relu_dd", "ddfloat.relu_dd")):
        _patch(owner, attr, tracer, name)
    _patch(netcore, "save_network", tracer, "netcore.save", after=count_bytes)
    _patch(sampling.SamplerSpec, "points", tracer, "sampling.points",
           after=count_points)
    _patch(netcore.ReluNetwork, "forward", tracer, "netcore.forward",
           after=forward_stats("netcore.forward",
                               netcore.ReluNetwork.forward, True),
           faults=True)
    _patch(netcore.ReluNetwork, "forward_dd", tracer, "netcore.forward_dd",
           after=forward_stats("netcore.forward_dd",
                               netcore.ReluNetwork.forward_dd, False),
           faults=True)

    layer_init = netcore.Layer.__init__

    @functools.wraps(layer_init)
    def counted_init(self, *args, **kwargs):
        tracer.counts["netcore.layer_inits"] += 1
        layer_init(self, *args, **kwargs)

    netcore.Layer.__init__ = counted_init


def layer_metrics(tracer, operations):
    """Per-layer values of one traced run, keyed as in LAYER_METRICS.

    ``operations`` is the number of study rows or CLI commands the run
    attempted; it is the denominator of netcore.passes_per_row.
    """
    from qopnet import synth

    tot = tracer.totals()
    cnt = tracer.counts

    def calls(name):
        return tot.get(name, (0, 0.0, 0.0))[0]

    def incl(name):
        return tot.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return tot.get(name, (0, 0.0, 0.0))[2]

    def rate(prefix):
        seconds = incl(prefix)
        return cnt[prefix + ".unit_points"] / seconds if seconds > 0 else 0.0

    caches = [synth.square_network.cache_info(),
              synth.pairwise_product_network.cache_info()]
    root = [s for s in tracer.spans if s[3] is None]
    if len(root) != 1:
        raise RuntimeError(f"expected one root span, found {len(root)}")
    root_s = root[0][2] - root[0][1]
    values = {
        "netcore.forward_s": own("netcore.forward"),
        "netcore.forward_calls": calls("netcore.forward"),
        "netcore.forward_unit_points": cnt["netcore.forward.unit_points"],
        "netcore.forward_unit_points_per_s": rate("netcore.forward"),
        "netcore.forward_flops": cnt["netcore.forward.flops"],
        "netcore.forward_bytes": cnt["netcore.forward.bytes"],
        "netcore.forward_minor_faults": cnt["netcore.forward.minor_faults"],
        "netcore.forward_dd_s": own("netcore.forward_dd"),
        "netcore.forward_dd_calls": calls("netcore.forward_dd"),
        "netcore.forward_dd_unit_points":
            cnt["netcore.forward_dd.unit_points"],
        "netcore.forward_dd_unit_points_per_s": rate("netcore.forward_dd"),
        "netcore.forward_dd_minor_faults":
            cnt["netcore.forward_dd.minor_faults"],
        "ddfloat.mul_f64_s": own("ddfloat.mul_f64"),
        "ddfloat.add_dd_s": own("ddfloat.add_dd"),
        "ddfloat.relu_dd_s": own("ddfloat.relu_dd"),
        "ddfloat.calls": sum(calls("ddfloat." + k)
                             for k in ("mul_f64", "add_dd", "relu_dd")),
        "netcore.passes_per_row":
            (calls("netcore.forward") + calls("netcore.forward_dd"))
            / operations,
        "synth.build_s": own("synth.build"),
        "synth.basis_s": incl("synth.basis"),
        "synth.basis_calls": calls("synth.basis"),
        "synth.gadget_cache_hits": sum(c.hits for c in caches),
        "synth.gadget_cache_misses": sum(c.misses for c in caches),
        "netcore.parallel_s": own("netcore.parallel"),
        "netcore.parallel_calls": calls("netcore.parallel"),
        "netcore.layer_inits": cnt["netcore.layer_inits"],
        "netcore.save_s": own("netcore.save"),
        "netcore.load_s": own("netcore.load"),
        "netcore.json_bytes": cnt["netcore.json_bytes"],
        "cli.synth_s": incl("cli.synth"),
        "cli.eval_s": incl("cli.eval"),
        "cli.verify_s": incl("cli.verify"),
        "cli.self_s": sum(own("cli." + k) for k in ("synth", "eval", "verify")),
        "multiindex.select_s": own("multiindex.select"),
        "multiindex.select_calls": calls("multiindex.select"),
        "multiindex.tail_s": own("multiindex.tail"),
        "multiindex.pvolume_s": own("multiindex.pvolume"),
        "orthopoly.target_s": own("orthopoly.target"),
        "orthopoly.reference_s": own("orthopoly.reference"),
        "orthopoly.reference_calls": calls("orthopoly.reference"),
        "sampling.points_s": own("sampling.points"),
        "sampling.points": cnt["sampling.points"],
        "verify.study_self_s": own("verify.study"),
        "trace.root_s": root_s,
        "trace.self_sum_s": sum(tracer.self_times()),
    }
    return values
