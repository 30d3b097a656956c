"""Per-layer tracing from outside the package.

`install` replaces each module-level public function of the vrpcast layers
with a wrapper that records a span (name, start, end, parent) in memory.  A
function imported by name into another module (such as `load_csv` in `cli`
and `pipeline`) is replaced under every name, with one wrapper.  Spans are
written out once, when the run ends.
"""

import functools
import importlib
import inspect
from time import perf_counter

LAYERS = ("data_ingest", "stat_tests", "lag_select", "series_ops", "kernels",
          "mlp", "trainers", "pipeline", "cli")
# private functions traced as well, for the per-layer metrics that need them
PRIVATE = {("pipeline", "_write_artifacts")}

NAME, START, END, PARENT, INFO = range(5)
UNITS = {
    "kernels.jacobian_calls": "count", "kernels.jacobian_s": "s", "kernels.jacobian_gb": "GB",
    "kernels.forward_calls": "count", "kernels.forward_s": "s", "mlp.self_s": "s",
    "trainers.fits": "count", "trainers.epochs": "count", "trainers.max_epoch_stops": "count",
    "trainers.jacobians_per_epoch": "ratio", "trainers.lm_self_s": "s",
    "trainers.scg_self_s": "s", "trainers.scg_jacobians_per_iter": "ratio",
    "lag_select.entropy_profile_s": "s", "stat_tests.kpss_s": "s",
    "series_ops.extract_patterns_s": "s", "data_ingest.load_csv_s": "s",
    "pipeline.evaluate_s": "s", "pipeline.write_artifacts_s": "s",
}


def _span_name(fn):
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def _jacobian_info(args, kwargs, result):
    return result[1].nbytes


def _train_info(args, kwargs, result):
    config = args[2] if len(args) > 2 else kwargs["config"]
    report = result[1]
    return (config.algorithm, report.epochs_used, report.converged, config.max_epochs)


class Tracer:
    """Spans of one process, kept in a list in call order; a span's parent
    is the index of the span open when it started, or -1."""

    def __init__(self):
        self.spans = []
        self._open = []
        self.jacobian = self.forward = None

    def wrap(self, fn, name, info=None):
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, open_[-1] if open_ else -1, None]
            open_.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                open_.pop()
            if info is not None:
                span[INFO] = info(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap the layers' functions in place."""
        modules = {name: importlib.import_module(f"vrpcast.{name}") for name in LAYERS}
        kernels = modules["kernels"]
        self.jacobian = _span_name(kernels.residuals_and_jacobian)
        self.forward = _span_name(kernels.forward_batch)
        infos = {self.jacobian: _jacobian_info, "trainers.train": _train_info}
        wrappers = {}
        for short, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if not inspect.isfunction(obj) or not obj.__module__.startswith("vrpcast."):
                    continue
                if attr.startswith("_") and (short, attr) not in PRIVATE:
                    continue
                if obj not in wrappers:
                    name = _span_name(obj)
                    wrappers[obj] = self.wrap(obj, name, infos.get(name))
                setattr(module, attr, wrappers[obj])

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start,end,parent\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i},{s[NAME]},{s[START]!r},{s[END]!r},{s[PARENT]}\n")

    def metrics(self, first, last):
        """Per-layer metrics over spans[first:last] (one round)."""
        spans = self.spans[first:last]
        child = [0.0] * len(spans)
        fit = [-1] * len(spans)     # index of the enclosing trainers.train span
        for i, s in enumerate(spans):
            parent = s[PARENT] - first
            if parent >= 0:
                child[parent] += s[END] - s[START]
                fit[i] = fit[parent]
            if s[NAME] == "trainers.train":
                fit[i] = i

        def total(name):
            return sum(s[END] - s[START] for s in spans if s[NAME] == name)

        def self_time(pred):
            return sum(s[END] - s[START] - child[i] for i, s in enumerate(spans) if pred(s[NAME]))

        # a fit that raised has no report and is not counted
        fits = [s[INFO] for s in spans if s[NAME] == "trainers.train" and s[INFO]]
        jac_by_algo = {}
        for i, s in enumerate(spans):
            if s[NAME] == self.jacobian and fit[i] >= 0 and spans[fit[i]][INFO]:
                algo = spans[fit[i]][INFO][0]
                jac_by_algo[algo] = jac_by_algo.get(algo, 0) + 1
        lm_epochs = sum(f[1] for f in fits if f[0] != "scg")
        scg_iters = sum(f[1] for f in fits if f[0] == "scg")
        lm_jacobians = sum(n for a, n in jac_by_algo.items() if a != "scg")

        def ratio(num, den):
            return num / den if den else 0.0

        return {
            "kernels.jacobian_calls": sum(1 for s in spans if s[NAME] == self.jacobian),
            "kernels.jacobian_s": total(self.jacobian),
            "kernels.jacobian_gb": sum(s[INFO] for s in spans if s[NAME] == self.jacobian) / 1e9,
            "kernels.forward_calls": sum(1 for s in spans if s[NAME] == self.forward),
            "kernels.forward_s": total(self.forward),
            "mlp.self_s": self_time(lambda n: n.startswith("mlp.")),
            "trainers.fits": len(fits),
            "trainers.epochs": sum(f[1] for f in fits),
            "trainers.max_epoch_stops": sum(1 for f in fits if not f[2] and f[1] == f[3]),
            "trainers.jacobians_per_epoch": ratio(lm_jacobians, lm_epochs),
            "trainers.lm_self_s": self_time(lambda n: n == "trainers.lm_least_squares"),
            "trainers.scg_self_s": self_time(lambda n: n == "trainers.scg_minimize"),
            "trainers.scg_jacobians_per_iter": ratio(jac_by_algo.get("scg", 0), scg_iters),
            "lag_select.entropy_profile_s": total("lag_select.entropy_profile"),
            "stat_tests.kpss_s": total("stat_tests.kpss_level"),
            "series_ops.extract_patterns_s": total("series_ops.extract_patterns"),
            "data_ingest.load_csv_s": total("data_ingest.load_csv"),
            "pipeline.evaluate_s": total("pipeline.evaluate"),
            "pipeline.write_artifacts_s": total("pipeline._write_artifacts"),
        }
