"""Span recorder that wraps pingpong's public functions from outside.

``Recorder.install()`` replaces each target with a timing wrapper: module
functions are rebound at every module inside ``pingpong`` that holds them,
so ``from .separation import estimate_radius`` call sites are traced too;
methods are replaced on their class.  ``uninstall()`` puts every original
back, so untraced runs execute the program exactly as shipped.

A span has a name, start, end and parent.  Self time is a span's duration
minus the durations of its children.  Totals per span name (calls, time,
self time) are kept for every span; individual spans are kept in memory
only for names outside ``AGGREGATE_ONLY``, whose calls run to hundreds of
thousands per run, and are written out by ``write()`` at the end of the run.
"""

import functools
import inspect
import json
import sys
import time
from collections import Counter

# (module, attribute, span name); "Class.method" targets a method
TARGETS = [
    ("pingpong.cli", "run", "cli.run"),
    ("pingpong.io", "load_matrix", "io.decode"),
    ("pingpong.io", "load_generators", "io.decode"),
    ("pingpong.io", "load_separating_set", "io.decode"),
    ("pingpong.io", "encode_scalar", "io.encode"),
    ("pingpong.io", "encode_matrix", "io.encode"),
    ("pingpong.io", "encode_contraction_cert", "io.encode"),
    ("pingpong.io", "encode_proximal_cert", "io.encode"),
    ("pingpong.io", "encode_pingpong_cert", "io.encode"),
    *[("pingpong.fields", f"PadicScalar.{op}", "fields.padic")
      for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__")],
    ("pingpong.projective", "ProjPoint.__init__", "projective.canon"),
    ("pingpong.projective", "ProjHyperplane.__init__", "projective.canon"),
    ("pingpong.projective", "dist_to_hyperplane", "projective.dist"),
    ("pingpong.projective", "proj_dist", "projective.dist"),
    ("pingpong.cartan", "SLMatrix.__matmul__", "cartan.matmul"),
    ("pingpong.cartan", "SLMatrix.inverse", "cartan.inverse"),
    ("pingpong.cartan", "cartan_decompose", "cartan.decompose"),
    ("pingpong.contraction", "contraction_data", "contraction.data"),
    ("pingpong.contraction", "verify_contracting", "contraction.verify"),
    ("pingpong.sampling", "archimedean_unit_chunks", "sampling.chunks"),
    ("pingpong.sampling", "padic_point_chunks", "sampling.chunks"),
    ("pingpong.separation", "sample_configuration", "separation.sample"),
    ("pingpong.separation", "estimate_radius", "separation.margin"),
    ("pingpong.separation", "best_separator", "separation.margin"),
    ("pingpong.pingpong", "freeness_falsifier", "pingpong.falsifier"),
    ("pingpong.pingpong", "certify_free_generators", "pingpong.build"),
    ("pingpong.pingpong", "make_very_contracting", "pingpong.build"),
    ("pingpong.pingpong", "tighten_very_contracting", "pingpong.build"),
    ("pingpong.pingpong", "build_pingpong_tuple", "pingpong.build"),
    ("pingpong.pingpong", "make_proximal", "pingpong.build"),
    ("pingpong.pingpong", "make_very_proximal", "pingpong.build"),
    ("pingpong.pingpong", "separation_table", "pingpong.build"),
    ("pingpong.pingpong", "verify_pingpong", "pingpong.verify"),
    ("pingpong.liegen", "matrix_log", "liegen"),
    ("pingpong.liegen", "matrix_exp", "liegen"),
    ("pingpong.liegen", "generated_subalgebra", "liegen"),
    ("pingpong.liegen", "dense_pair_test", "liegen"),
]

AGGREGATE_ONLY = {"fields.padic", "projective.canon", "projective.dist",
                  "cartan.matmul", "cartan.inverse"}


class Recorder:
    def __init__(self):
        self.stack = []          # open spans: [name, start, child time, id]
        self.totals = {}         # name -> [calls, time, self time]
        self.counts = Counter()  # counts taken at span boundaries
        self.spans = []          # kept spans: (job, id, parent, name, start, end)
        self.job = None
        self._next_id = 0
        self._patches = []

    # -- spans ---------------------------------------------------------
    def enter(self, name):
        self._next_id += 1
        self.stack.append([name, time.perf_counter(), 0.0, self._next_id])

    def exit(self):
        end = time.perf_counter()
        name, start, child, span_id = self.stack.pop()
        duration = end - start
        total = self.totals.setdefault(name, [0, 0.0, 0.0])
        total[0] += 1
        total[1] += duration
        total[2] += duration - child
        parent = None
        if self.stack:
            self.stack[-1][2] += duration
            parent = self.stack[-1][3]
        if name not in AGGREGATE_ONLY:
            self.spans.append((self.job, span_id, parent, name, start, end))

    def inside(self, name):
        return any(frame[0] == name for frame in self.stack)

    def total(self, name):
        """(calls, time, self time) summed over the spans called `name`."""
        return self.totals.get(name, (0, 0.0, 0.0))

    # -- counters taken on entry -----------------------------------------
    def _on_call(self, span, fn):
        if span == "fields.padic":
            def hook(args, kwargs):
                # a - b runs as a + (-b): count the outer operation only
                if not self.stack or self.stack[-1][0] != "fields.padic":
                    self.counts["fields.padic_ops"] += 1
            return hook
        if span == "cartan.matmul":
            def hook(args, kwargs):
                if self.inside("pingpong.falsifier"):
                    self.counts["pingpong.falsifier.products"] += 1
            return hook
        if span == "cartan.decompose":
            def hook(args, kwargs):
                if args[0]._cartan is not None:
                    self.counts["cartan.decompose.hits"] += 1
            return hook
        if span == "contraction.verify":
            signature = inspect.signature(fn)

            def hook(args, kwargs):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.counts["contraction.verify.samples"] += bound.arguments["samples"]
            return hook
        return None

    def _wrap(self, span, fn):
        hook = self._on_call(span, fn)
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def generator(*args, **kwargs):
                # one span per item produced, where the work happens
                inner = fn(*args, **kwargs)
                while True:
                    self.enter(span)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self.exit()
                    yield item
            return generator

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(args, kwargs)
            self.enter(span)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()
        return wrapper

    # -- installation ----------------------------------------------------
    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "pingpong" or name.startswith("pingpong."))]
        for module_name, attr, span in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                class_name, attr = attr.split(".")
                owner = getattr(owner, class_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, original, self._wrap(span, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(span, original)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path):
        names = sorted(self.totals)
        doc = {
            "totals": {n: dict(zip(("calls", "time_s", "self_s"), self.totals[n]))
                       for n in names},
            "counts": dict(sorted(self.counts.items())),
            "spans": [dict(zip(("job", "id", "parent", "name", "start", "end"), s))
                      for s in self.spans],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc) + "\n")
