"""Per-layer tracing for the benchmark's traced run.

Wraps the public functions of tropwfst.semiring, .wfst, .transforms and
.decoder, plus tropwfst.cli.main, from outside the program: each wrapper
replaces the function under every name that any tropwfst module bound
it to (transforms.gamma as well as semiring.gamma). A wrapper records
calls, its span and the part of that span spent in wrapped children, so
self time is span minus children. A function that no longer exists is
simply not wrapped, and its metrics are left out of the report.
"""

import inspect
import sys
from time import perf_counter

LAYERS = ("semiring", "wfst", "transforms", "decoder")


def _computed_mb(args, kwargs, result):
    a, b = args[0], args[1]
    return {"computed_mb": a.shape[0] * a.shape[1] * b.shape[1] * 8 / 1e6}


# Counters read from a traced call's arguments and result.
HOOKS = {
    "semiring.minplus_mul": _computed_mb,
    "transforms.compute_potentials":
        lambda args, kwargs, res: {"sweeps": res.iterations_to_fixpoint},
    "transforms.remove_epsilons":
        lambda args, kwargs, res: {"arcs_in": len(args[0].arcs),
                                   "arcs_out": len(res.arcs)},
    "decoder.viterbi_decode":
        lambda args, kwargs, res: {"frames": len(args[2])},
    "decoder.prune_indicator":
        lambda args, kwargs, res: {"survivors": res.support.size},
}


class Stat:
    __slots__ = ("calls", "span", "children", "counters")

    def __init__(self):
        self.calls = 0
        self.span = 0.0
        self.children = 0.0
        self.counters = {}


class Tracer:
    def __init__(self):
        self.stats = {}
        self._open = []  # child time accumulated by each open span

    def _wrap(self, key, fn):
        stat = self.stats[key] = Stat()
        hook = HOOKS.get(key)
        open_spans = self._open

        def traced(*args, **kwargs):
            open_spans.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = perf_counter() - t0
                stat.calls += 1
                stat.span += span
                stat.children += open_spans.pop()
                if open_spans:
                    open_spans[-1] += span
            if hook is not None:
                try:
                    counts = hook(args, kwargs, result)
                except (AttributeError, IndexError, TypeError):
                    counts = {}
                for name, value in counts.items():
                    stat.counters[name] = stat.counters.get(name, 0) + value
            return result

        return traced

    def install(self):
        """Wrap the functions in every tropwfst module that imports them."""
        targets = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"tropwfst.{layer}")
            for name, obj in vars(mod).items() if mod else ():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    targets[obj] = f"{layer}.{name}"
        cli = sys.modules.get("tropwfst.cli")
        if cli is not None and inspect.isfunction(getattr(cli, "main", None)):
            targets[cli.main] = "cli.main"
        wrappers = {fn: self._wrap(key, fn) for fn, key in targets.items()}
        for modname, mod in list(sys.modules.items()):
            if modname != "tropwfst" and not modname.startswith("tropwfst."):
                continue
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, name, wrappers[obj])

    def metrics(self, ops, search_errors, op_p50_ms):
        """Per-layer metrics, normalised per operation or per call, and the
        names of those left out because their function no longer exists."""
        out, absent = {}, []

        def put(name, unit, key, value):
            if key is None or key in self.stats:
                out[name] = {"value": float(value(self.stats.get(key))), "unit": unit}
            else:
                absent.append(name)

        def per_call(counter):
            return lambda s: s.counters.get(counter, 0) / s.calls if s.calls else 0.0

        def calls(s):
            return s.calls / ops

        def ms(s):
            return 1000 * s.span / ops

        def self_ms(s):
            return 1000 * (s.span - s.children) / ops

        put("semiring.minplus_mul.calls", "count/op", "semiring.minplus_mul", calls)
        put("semiring.minplus_mul.ms", "ms/op", "semiring.minplus_mul", ms)
        put("semiring.minplus_mul.computed_mb", "MB/op", "semiring.minplus_mul",
            lambda s: s.counters.get("computed_mb", 0) / ops)
        put("semiring.maxplus_mul.calls", "count/op", "semiring.maxplus_mul", calls)
        put("semiring.maxplus_mul.ms", "ms/op", "semiring.maxplus_mul", ms)
        put("semiring.gamma.calls", "count/op", "semiring.gamma", calls)
        put("semiring.gamma.ms", "ms/op", "semiring.gamma", ms)
        put("semiring.gamma.self_ms", "ms/op", "semiring.gamma", self_ms)
        put("semiring.delta.calls", "count/op", "semiring.delta", calls)
        put("semiring.delta.ms", "ms/op", "semiring.delta", ms)
        put("wfst.parse_text.ms", "ms/op", "wfst.parse_text", ms)
        put("wfst.serialize_text.ms", "ms/op", "wfst.serialize_text", ms)
        put("wfst.build_matrices.calls", "count/op", "wfst.build_matrices", calls)
        put("wfst.build_matrices.ms", "ms/op", "wfst.build_matrices", ms)
        put("wfst.validate.ms", "ms/op", "wfst.validate", ms)
        put("transforms.compute_potentials.ms", "ms/op",
            "transforms.compute_potentials", ms)
        put("transforms.compute_potentials.sweeps", "sweeps/call",
            "transforms.compute_potentials", per_call("sweeps"))
        put("transforms.push_weights.self_ms", "ms/op", "transforms.push_weights",
            self_ms)
        put("transforms.remove_epsilons.self_ms", "ms/op",
            "transforms.remove_epsilons", self_ms)
        put("transforms.trim.ms", "ms/op", "transforms.trim", ms)
        put("transforms.rmepsilon.arcs_in", "arcs/call", "transforms.remove_epsilons",
            per_call("arcs_in"))
        put("transforms.rmepsilon.arcs_out", "arcs/call", "transforms.remove_epsilons",
            per_call("arcs_out"))
        put("decoder.viterbi_decode.ms", "ms/op", "decoder.viterbi_decode", ms)
        put("decoder.viterbi_decode.us_per_frame", "us/frame", "decoder.viterbi_decode",
            lambda s: 1e6 * s.span / s.counters["frames"]
            if s.counters.get("frames") else 0.0)
        put("decoder.decode_with_metrics.ms", "ms/op", "decoder.decode_with_metrics", ms)
        put("decoder.decode_with_metrics.self_ms", "ms/op",
            "decoder.decode_with_metrics", self_ms)
        put("decoder.prune_indicator.calls", "count/op", "decoder.prune_indicator", calls)
        put("decoder.prune_indicator.ms", "ms/op", "decoder.prune_indicator", ms)
        put("decoder.metric_nu.ms", "ms/op", "decoder.metric_nu", ms)
        put("decoder.metric_entropy.ms", "ms/op", "decoder.metric_entropy", ms)
        put("decoder.parse_observation_model.ms", "ms/op",
            "decoder.parse_observation_model", ms)
        put("decoder.survivors_mean", "states", "decoder.prune_indicator",
            per_call("survivors"))
        put("decoder.search_errors", "count", None, lambda s: search_errors)
        put("cli.main.calls", "count/op", "cli.main", calls)
        put("cli.main.self_ms", "ms/op", "cli.main", self_ms)
        put("trace.op_p50_ms", "ms", None, lambda s: op_p50_ms)
        return out, absent
