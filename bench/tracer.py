"""Per-layer tracing for the zetapoly benchmark.

Run as a script, this file executes one zetapoly CLI command with timing and
counting wrappers around the public functions and operators of every module
of the package, then writes the recorded spans to a JSON file:

    python bench/tracer.py --job-id 3 --spans spans.json -- rv --weight 26 --d 60

The wrappers are installed on the imported modules from here; the package
source is never edited.  Each name is patched where it is looked up, so a
function bound by ``from .habiro import chebyshev_T`` in another module is
wrapped there too, and an operator alias such as ``RatPoly.__rmul__`` shares
the wrapper of ``__mul__``.

``summarize`` turns the span files of a traced run into the per-layer metrics
that ``run.py --trace 1`` prints.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter
from pathlib import Path

LAYERS = ("exactcore", "periods", "rvtransform", "zerocert", "modforms", "habiro", "cli")

# Dunder methods that do a layer's work; the rest (construction, equality,
# hashing, repr) are charged to the caller.
OPERATORS = frozenset({
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__",
    "__pow__", "__divmod__", "__floordiv__", "__mod__", "__call__",
})

CACHED = ("cyclotomic_poly", "qpochhammer", "chebyshev_T")  # lru_caches in habiro

# Metric groups measured as inclusive time of their outermost spans.
GROUPS = {
    "zerocert.roots": ("zerocert.roots_numeric",),
    "zerocert.sturm": (
        "zerocert.unit_circle_certify", "zerocert.critical_line_certify", "zerocert.sturm_count",
    ),
    "modforms.eigenform": ("modforms.eigenform",),
    "modforms.lambda_numeric": ("modforms.lambda_numeric",),
    "habiro.psi_toric": ("habiro.psi_toric",),
}

# (name, unit) of every per-layer metric, in output order.  `<layer>.busy_s`
# is self time (span time minus child spans); `<layer>.incl_s` and the
# group `.busy_s` metrics are inclusive time of outermost spans.
PER_LAYER = (
    ("periods.busy_s", "s"),
    ("periods.incl_s", "s"),
    ("periods.relations_kernel.calls", "count"),
    ("periods.relations_kernel.unique_frac", "frac"),
    ("periods.slash_action.calls", "count"),
    ("rvtransform.busy_s", "s"),
    ("rvtransform.incl_s", "s"),
    ("rvtransform.rv_polynomial.calls", "count"),
    ("rvtransform.max_d", "degree"),
    ("zerocert.busy_s", "s"),
    ("zerocert.incl_s", "s"),
    ("zerocert.roots.busy_s", "s"),
    ("zerocert.roots.calls", "count"),
    ("zerocert.roots.max_degree", "degree"),
    ("zerocert.sturm.busy_s", "s"),
    ("modforms.busy_s", "s"),
    ("modforms.incl_s", "s"),
    ("modforms.eigenform.busy_s", "s"),
    ("modforms.lambda_numeric.calls", "count"),
    ("modforms.lambda_numeric.busy_s", "s"),
    ("habiro.busy_s", "s"),
    ("habiro.incl_s", "s"),
    ("habiro.make.calls", "count"),
    ("habiro.psi_toric.busy_s", "s"),
    ("habiro.cache_hit_frac", "frac"),
    ("exactcore.busy_s", "s"),
    ("exactcore.mul.calls", "count"),
    ("exactcore.mul.coeff_ops", "count"),
    ("exactcore.divmod.calls", "count"),
    ("exactcore.divmod.coeff_ops", "count"),
    ("exactcore.max_degree", "degree"),
    ("exactcore.max_coeff_bits", "bits"),
    ("cli.busy_s", "s"),
    ("cli.bytes_written", "bytes"),
    ("trace.jobs_s", "s"),
    ("trace.overhead_frac", "frac"),
)


class Recorder:
    """Spans (name, start, end, parent) and counters of one traced job."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = []
        self.parent = []
        self.start = []
        self.end = []
        self._stack = [-1]
        self.counts = Counter()
        self.kernel_args = set()

    def wrap(self, name, fn, after=None):
        """Return fn wrapped in a span; `after(args, kwargs, result)` runs in a child
        span named trace.count, so counting is not charged to the layer."""
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        if after is not None:
            after = self.wrap("trace.count", after)
        names, parent, start, end, stack = self.name, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            names.append(nid)
            parent.append(stack[-1])
            start.append(clock())
            end.append(0)
            stack.append(i)
            try:
                result = fn(*args, **kwargs)
                if after is not None and result is not NotImplemented:
                    after(args, kwargs, result)
                return result
            finally:
                stack.pop()
                end[i] = clock()

        return traced

    # -- counters at layer boundaries ----------------------------------

    def _sizes(self, polys):
        counts = self.counts
        for p in polys:
            coeffs = p.coeffs
            counts["max_degree"] = max(counts["max_degree"], len(coeffs) - 1)
            for c in coeffs:
                bits = max(c.numerator.bit_length(), c.denominator.bit_length())
                if bits > counts["max_coeff_bits"]:
                    counts["max_coeff_bits"] = bits

    def count_mul(self, args, kwargs, result):
        a, b = args
        polys = [a, result]
        if hasattr(b, "coeffs"):
            polys.append(b)
            ops = len(a.coeffs) * len(b.coeffs)
        else:
            ops = len(a.coeffs)
        self.counts["mul.calls"] += 1
        self.counts["mul.coeff_ops"] += ops
        self._sizes(polys)

    def count_divmod(self, args, kwargs, result):
        a, b = args
        quot, rem = result
        lb = len(b.coeffs) if hasattr(b, "coeffs") else 1
        self.counts["divmod.calls"] += 1
        self.counts["divmod.coeff_ops"] += max(0, len(a.coeffs) - lb + 1) * lb
        self._sizes([a, quot, rem] + ([b] if hasattr(b, "coeffs") else []))

    def count_kernel(self, args, kwargs, result):
        w = args[0] if args else kwargs["w"]
        parity = args[1] if len(args) > 1 else kwargs.get("parity", "all")
        self.kernel_args.add((w, parity))

    def count_rv(self, args, kwargs, result):
        d = args[1] if len(args) > 1 else kwargs["d"]
        self.counts["max_d"] = max(self.counts["max_d"], d)

    def count_roots(self, args, kwargs, result):
        p = args[0] if args else kwargs["p"]
        degree = p.degree if hasattr(p, "degree") else len(p) - 1
        self.counts["roots.max_degree"] = max(self.counts["roots.max_degree"], degree)

    def hooks(self):
        return {
            "exactcore.RatPoly.__mul__": self.count_mul,
            "exactcore.RatPoly.__divmod__": self.count_divmod,
            "periods.relations_kernel": self.count_kernel,
            "rvtransform.rv_polynomial": self.count_rv,
            "zerocert.roots_numeric": self.count_roots,
        }


def install(rec: Recorder) -> dict:
    """Wrap every public function, classmethod and operator defined in the
    zetapoly modules, rebind each reference to them, and return the original
    lru_cache objects whose statistics the trace reports."""
    package = importlib.import_module("zetapoly")
    modules = {layer: importlib.import_module(f"zetapoly.{layer}") for layer in LAYERS}
    caches = {name: getattr(modules["habiro"], name) for name in CACHED}
    hooks = rec.hooks()
    wrapped = {}  # id(original) -> (original, wrapper)

    def wrapper_for(name, fn):
        if id(fn) not in wrapped:
            wrapped[id(fn)] = (fn, rec.wrap(name, fn, hooks.get(name)))
        return wrapped[id(fn)][1]

    for layer, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if isinstance(obj, type):
                _patch_class(layer, obj, wrapper_for)
            elif callable(obj):
                wrapper_for(f"{layer}.{attr}", obj)
    for mod in (package, *modules.values()):
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrapped and wrapped[id(obj)][0] is obj:
                setattr(mod, attr, wrapped[id(obj)][1])
    return caches


def _patch_class(layer, cls, wrapper_for):
    for attr, member in list(vars(cls).items()):
        if attr.startswith("_") and attr not in OPERATORS:
            continue
        kind = type(member) if isinstance(member, (classmethod, staticmethod)) else None
        fn = member.__func__ if kind else member
        if not inspect.isfunction(fn):
            continue
        wrapper = wrapper_for(f"{layer}.{cls.__name__}.{attr}", fn)
        setattr(cls, attr, kind(wrapper) if kind else wrapper)


def dump(rec: Recorder, caches: dict, job_id: int, path: Path) -> None:
    payload = {
        "job": job_id,
        "names": rec.names,
        "name": rec.name,
        "parent": rec.parent,
        "start": rec.start,
        "end": rec.end,
        "counts": dict(rec.counts),
        "kernel_args": sorted(rec.kernel_args),
        "caches": {n: list(c.cache_info()[:2]) for n, c in caches.items()},
    }
    path.write_text(json.dumps(payload))


def main(argv) -> int:
    if len(argv) < 5 or argv[0] != "--job-id" or argv[2] != "--spans" or argv[4] != "--":
        print("usage: tracer.py --job-id N --spans FILE -- <zetapoly args>", file=sys.stderr)
        return 2
    job_id, path, cli_args = int(argv[1]), Path(argv[3]), argv[5:]
    rec = Recorder()
    caches = install(rec)
    cli = importlib.import_module("zetapoly.cli")
    try:
        return cli.main(cli_args)
    finally:
        dump(rec, caches, job_id, path)


# ---------------------------------------------------------------------
# aggregation (benchmark side)
# ---------------------------------------------------------------------


def summarize(span_files, speeds, bytes_written: int, untraced_wall_s: float, traced_wall_s: float) -> dict:
    """Per-layer metrics {name: value} over the span files of one traced run.
    Span times are scaled by `speeds`, one per file (see run.speed)."""
    keys = list(LAYERS) + list(GROUPS)
    bit = {key: 1 << i for i, key in enumerate(keys)}
    busy = Counter()
    incl = Counter()
    calls = Counter()
    counts = Counter()
    maxima = Counter()
    unique_kernels = 0
    cache_hits = cache_lookups = 0
    jobs_ns = 0
    for path, speed in zip(span_files, speeds):
        data = json.loads(Path(path).read_text())
        names = data["names"]
        name_bits = []
        for name in names:
            b = bit.get(name.split(".")[0], 0)
            for group, members in GROUPS.items():
                if name in members:
                    b |= bit[group]
            name_bits.append(b)
        nid, parent, start, end = data["name"], data["parent"], data["start"], data["end"]
        n = len(nid)
        dur = [(end[i] - start[i]) * speed for i in range(n)]
        child = [0] * n
        mask = [0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
                mask[i] = mask[p] | name_bits[nid[p]]
        # counting time under each span, kept out of inclusive times
        counting = [dur[i] if names[nid[i]] == "trace.count" else 0 for i in range(n)]
        for i in range(n - 1, -1, -1):
            if parent[i] >= 0:
                counting[parent[i]] += counting[i]
        for i in range(n):
            name = names[nid[i]]
            calls[name] += 1
            busy[name.split(".")[0]] += dur[i] - child[i]
            outer = name_bits[nid[i]] & ~mask[i]
            if outer:
                for key in keys:
                    if outer & bit[key]:
                        incl[key] += dur[i] - counting[i]
            if parent[i] < 0 and name == "cli.main":
                jobs_ns += dur[i]
        for key, value in data["counts"].items():
            if key.startswith("max") or key.endswith("max_degree"):
                maxima[key] = max(maxima[key], value)
            else:
                counts[key] += value
        unique_kernels += len(data["kernel_args"])
        for hits, misses in data["caches"].values():
            cache_hits += hits
            cache_lookups += hits + misses

    kernel_calls = calls["periods.relations_kernel"]
    metrics = {f"{layer}.busy_s": busy[layer] / 1e9 for layer in LAYERS}
    # exactcore calls no other layer and cli is the root, so their
    # inclusive time says nothing their self time does not
    metrics.update({f"{layer}.incl_s": incl[layer] / 1e9 for layer in LAYERS[1:-1]})
    metrics.update({f"{group}.busy_s": incl[group] / 1e9 for group in GROUPS})
    metrics.update({
        "periods.relations_kernel.calls": kernel_calls,
        "periods.relations_kernel.unique_frac": unique_kernels / kernel_calls if kernel_calls else 0.0,
        "periods.slash_action.calls": calls["periods.slash_action"],
        "rvtransform.rv_polynomial.calls": calls["rvtransform.rv_polynomial"],
        "rvtransform.max_d": maxima["max_d"],
        "zerocert.roots.calls": calls["zerocert.roots_numeric"],
        "zerocert.roots.max_degree": maxima["roots.max_degree"],
        "modforms.lambda_numeric.calls": calls["modforms.lambda_numeric"],
        "habiro.make.calls": calls["habiro.HabiroTrunc.make"],
        "habiro.cache_hit_frac": cache_hits / cache_lookups if cache_lookups else 0.0,
        "exactcore.mul.calls": counts["mul.calls"],
        "exactcore.mul.coeff_ops": counts["mul.coeff_ops"],
        "exactcore.divmod.calls": counts["divmod.calls"],
        "exactcore.divmod.coeff_ops": counts["divmod.coeff_ops"],
        "exactcore.max_degree": maxima["max_degree"],
        "exactcore.max_coeff_bits": maxima["max_coeff_bits"],
        "cli.bytes_written": bytes_written,
        "trace.jobs_s": jobs_ns / 1e9,
        "trace.overhead_frac": traced_wall_s / untraced_wall_s - 1,
    })
    return {name: metrics[name] for name, _ in PER_LAYER}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
