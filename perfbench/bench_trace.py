"""Span tracing of magnc's public functions, installed from outside the package.

Each listed function is replaced by a recorder in every ``magnc`` namespace
that holds it (for example ``magnc.kernel.eval_basis_function`` and
``magnc.cocycles.compose``), ``KernelFunction.__call__`` is replaced on the
class, and the nine ``cli.CHECKS`` entries are replaced in the list.  A span
is ``[name, start, end, parent]`` (parent is the index of the enclosing span,
-1 at top level); spans stay in memory and are written out once at the end.
Self time is a span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

import numpy as np

import magnc.algebra as alg
import magnc.basis as basis
import magnc.cli as cli
import magnc.cocycles as cc
import magnc.dirac as dr
import magnc.kernel as ker
import magnc.spectra as spx
from bench_workloads import CHECK_NAMES

MODULES = ("basis", "kernel", "algebra", "dirac", "spectra", "cocycles", "cli")

# (module, attribute, span name); tau2 spans are named per call by route.
TRACED = [
    (basis, "eval_basis_function", "basis.eval_basis_function"),
    (basis, "eval_generalized_laguerre", "basis.eval_generalized_laguerre"),
    (basis, "verify_ladder_phases", "basis.verify_ladder_phases"),
    (ker, "gram_via_kernel", "kernel.gram_via_kernel"),
    (ker, "trace_per_unit_volume", "kernel.trace_per_unit_volume"),
    (alg, "compose", "algebra.compose"),
    (alg, "spatial_derivative", "algebra.spatial_derivative"),
    (dr, "build_dirac", "dirac.build_dirac"),
    (dr, "dirac_phase", "dirac.dirac_phase"),
    (dr, "represent", "dirac.represent"),
    (dr, "commutator_with_D", "dirac.commutator_with_D"),
    (dr, "defect_operators", "dirac.defect_operators"),
    (spx, "singular_values", "spectra.singular_values"),
    (spx, "stable_spectrum", "spectra.stable_spectrum"),
    (spx, "classify_decay", "spectra.classify_decay"),
    (spx, "shifted_resolvent_ladder", "spectra.shifted_resolvent_ladder"),
    (spx, "dixmier_from_partial_sums", "spectra.dixmier_from_partial_sums"),
    (cc, "tau2", "cocycles.tau2"),
    (cc, "ch_dix", "cocycles.ch_dix"),
    (cc, "ch_hat", "cocycles.ch_hat"),
    (cc, "psi", "cocycles.psi"),
    (cc, "chern_number", "cocycles.chern_number"),
    (cc, "gap_label", "cocycles.gap_label"),
    (cc, "nc_integral", "cocycles.nc_integral"),
    (cc, "hochschild_b", "cocycles.hochschild_b"),
]

# Per-layer metrics: (name, unit).  Spans give calls / s (inclusive) / self_s;
# the rest are counters filled by the hooks below.
PER_LAYER = (
    [("basis.eval_basis_function." + k, u) for k, u in
     (("calls", "count"), ("self_s", "s"), ("points", "count"))]
    + [("basis.eval_generalized_laguerre.calls", "count"),
       ("basis.eval_generalized_laguerre.self_s", "s"),
       ("basis.verify_ladder_phases.s", "s"),
       ("kernel.KernelFunction.call.calls", "count"),
       ("kernel.KernelFunction.call.self_s", "s"),
       ("kernel.gram_via_kernel.calls", "count"),
       ("kernel.gram_via_kernel.s", "s"),
       ("kernel.trace_per_unit_volume.s", "s"),
       ("algebra.compose.calls", "count"),
       ("algebra.compose.self_s", "s"),
       ("algebra.spatial_derivative.calls", "count"),
       ("algebra.spatial_derivative.self_s", "s"),
       ("dirac.build_dirac.calls", "count"),
       ("dirac.build_dirac.self_s", "s"),
       ("dirac.dirac_phase.calls", "count"),
       ("dirac.dirac_phase.self_s", "s"),
       ("dirac.dirac_phase.distinct_ctx", "count"),
       ("dirac.represent.calls", "count"),
       ("dirac.represent.self_s", "s"),
       ("dirac.commutator_with_D.s", "s"),
       ("dirac.defect_operators.s", "s"),
       ("dirac.phase_bytes", "B"),
       ("spectra.stable_spectrum.build.calls", "count"),
       ("spectra.stable_spectrum.build.s", "s"),
       ("spectra.singular_values.calls", "count"),
       ("spectra.singular_values.self_s", "s"),
       ("spectra.singular_values.dim_sum", "count"),
       ("spectra.singular_values.values", "count"),
       ("spectra.stable_spectrum.calls", "count"),
       ("spectra.stable_spectrum.s", "s"),
       ("spectra.stable_spectrum.kept_fraction", "ratio"),
       ("spectra.classify_decay.s", "s"),
       ("spectra.shifted_resolvent_ladder.calls", "count"),
       ("spectra.shifted_resolvent_ladder.self_s", "s"),
       ("spectra.dixmier_from_partial_sums.calls", "count"),
       ("spectra.dixmier_from_partial_sums.self_s", "s"),
       ("spectra.dixmier_from_partial_sums.unmeasurable", "count"),
       ("cocycles.tau2.direct.calls", "count"),
       ("cocycles.tau2.direct.self_s", "s"),
       ("cocycles.tau2.direct.represent_bytes", "B"),
       ("cocycles.tau2.reduced.calls", "count"),
       ("cocycles.tau2.reduced.s", "s")]
    + [(f"cocycles.{f}.s", "s") for f in
       ("ch_dix", "ch_hat", "psi", "chern_number", "gap_label", "nc_integral", "hochschild_b")]
    + [(f"cli.check.{c}.s", "s") for c in CHECK_NAMES]
    + [(f"{m}.errors", "count") for m in MODULES]
    + [("trace.wall_s", "s"), ("trace.passes", "count")]
)


def csr_bytes(m) -> int:
    """Bytes held by a CSR matrix's data, index and pointer arrays."""
    return int(m.data.nbytes + m.indices.nbytes + m.indptr.nbytes)


def window_dim(t) -> int:
    """4 * m_tot * (highest occupied level + 1): the level window a
    lattice operator's singular values are taken over."""
    op = getattr(t, "op", None)
    ctx = getattr(t, "ctx", None)
    if op is None or ctx is None:
        return int(min(np.shape(t)))
    coo = op.tocoo()
    if coo.nnz == 0:
        return 4 * ctx.m_tot
    block = 4 * ctx.n_tot
    levels = np.concatenate([(coo.row % block) // 4, (coo.col % block) // 4])
    return 4 * ctx.m_tot * (int(levels.max()) + 1)


class Tracer:
    """In-memory span recorder plus the counters the per-layer metrics need."""

    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent, child_s]
        self.stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.phase_ctx: set = set()
        self.sv_sizes: list[int] = []
        self.rebound: dict[str, list[str]] = {}

    # -- recording ---------------------------------------------------------

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, 0.0])
        self.stack.append(idx)
        return idx

    def _exit(self, idx: int):
        self.stack.pop()
        span = self.spans[idx]
        span[2] = time.perf_counter()
        if span[3] >= 0:
            self.spans[span[3]][4] += span[2] - span[1]

    def parent_name(self) -> str:
        return self.spans[self.stack[-1]][0] if self.stack else ""

    def wrap(self, fn, name, hook=None, module=None):
        """``fn`` recorded as a span; ``name`` is a string or a function of
        (args, kwargs) returning one, in which case ``module`` is given."""
        module = module or name.split(".", 1)[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            idx = self._enter(span_name)
            try:
                out = fn(*args, **kwargs)
            except Exception:
                self.counters[f"{module}.errors"] += 1
                raise
            finally:
                self._exit(idx)
            if hook is not None:
                hook(self, out, args, kwargs)
            return out

        return traced

    # -- installation ------------------------------------------------------

    def install(self):
        """Re-bind every traced function in every magnc namespace."""
        hooks = {
            "eval_basis_function": _points_hook,
            "dirac_phase": _phase_hook,
            "represent": _represent_hook,
            "singular_values": _sv_hook,
            "dixmier_from_partial_sums": _dixmier_hook,
        }
        pkg = [m for n, m in sys.modules.items() if n == "magnc" or n.startswith("magnc.")]
        for module, attr, name in TRACED:
            orig = getattr(module, attr)
            if attr == "stable_spectrum":
                wrapped = _kept_wrapper(self, self.wrap(_traced_build(self, orig), name))
            elif attr == "tau2":
                wrapped = self.wrap(orig, _tau2_name, module="cocycles")
            else:
                wrapped = self.wrap(orig, name, hooks.get(attr))
            homes = []
            for mod in pkg:
                for key in [k for k, v in vars(mod).items() if v is orig]:
                    setattr(mod, key, wrapped)
                    homes.append(f"{mod.__name__}.{key}")
            self.rebound[f"{module.__name__}.{attr}"] = sorted(homes)
        call = ker.KernelFunction.__call__
        ker.KernelFunction.__call__ = self.wrap(call, "kernel.KernelFunction.call")
        self.rebound["magnc.kernel.KernelFunction.__call__"] = ["magnc.kernel.KernelFunction"]
        for i, (stage, fn) in enumerate(cli.CHECKS):
            cli.CHECKS[i] = (stage, self.wrap(fn, f"cli.check.{CHECK_NAMES[i]}"))
        self.rebound["magnc.cli.CHECKS"] = ["magnc.cli.CHECKS"]

    # -- reporting ---------------------------------------------------------

    def metrics(self, wall_s: float, passes: int) -> dict:
        """Run totals of every per-layer metric (0 where a layer was idle)."""
        calls: dict[str, int] = defaultdict(int)
        incl: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        for name, t0, t1, _, child in self.spans:
            calls[name] += 1
            incl[name] += t1 - t0
            self_s[name] += (t1 - t0) - child
        values = dict(self.counters)
        values["dirac.dirac_phase.distinct_ctx"] = len(self.phase_ctx)
        computed = values.get("spectra.stable_spectrum.computed", 0.0)
        kept = values.get("spectra.stable_spectrum.kept", 0.0)
        values["spectra.stable_spectrum.kept_fraction"] = kept / computed if computed else 0.0
        values["trace.wall_s"] = wall_s
        values["trace.passes"] = passes
        out = {}
        for metric, unit in PER_LAYER:
            base, _, kind = metric.rpartition(".")
            if metric in values:
                v = values[metric]
            elif kind == "calls":
                v = calls.get(base, 0)
            elif kind == "s":
                v = incl.get(base, 0.0)
            elif kind == "self_s":
                v = self_s.get(base, 0.0)
            else:
                v = 0
            out[metric] = {"value": v, "unit": unit}
        return out

    def write(self, path):
        spans = [[s[0], s[1], s[2], s[3]] for s in self.spans]
        path.write_text(json.dumps({"fields": ["name", "start", "end", "parent"],
                                    "spans": spans}))


def _tau2_name(args, kwargs) -> str:
    route = kwargs.get("route", args[4] if len(args) > 4 else "reduced")
    return f"cocycles.tau2.{route}"


def _points_hook(tr, out, args, kwargs):
    x = args[1] if len(args) > 1 else kwargs["x"]
    tr.counters["basis.eval_basis_function.points"] += int(np.prod(np.shape(x)[:-1]))


def _phase_hook(tr, out, args, kwargs):
    tr.phase_ctx.add(args[0] if args else kwargs["ctx"])
    tr.counters["dirac.phase_bytes"] += csr_bytes(out.op)


def _represent_hook(tr, out, args, kwargs):
    """CSR bytes of the three represent() operands of a direct-route tau2;
    the products it forms from them are locals of tau2 and are not counted."""
    if tr.parent_name() == "cocycles.tau2.direct":
        tr.counters["cocycles.tau2.direct.represent_bytes"] += csr_bytes(out.op)


def _sv_hook(tr, out, args, kwargs):
    tr.counters["spectra.singular_values.dim_sum"] += window_dim(args[0])
    tr.counters["spectra.singular_values.values"] += out.count
    tr.sv_sizes.append(out.count)


def _dixmier_hook(tr, out, args, kwargs):
    if not out.measurable:
        tr.counters["spectra.dixmier_from_partial_sums.unmeasurable"] += 1


def _traced_build(tr, stable_spectrum):
    """stable_spectrum with its ``build`` callable wrapped in a span."""

    @functools.wraps(stable_spectrum)
    def call(build, *args, **kwargs):
        return stable_spectrum(tr.wrap(build, "spectra.stable_spectrum.build"), *args, **kwargs)

    return call


def _kept_wrapper(tr, stable_spectrum):
    """Count singular values kept against those computed at the full truncation."""

    @functools.wraps(stable_spectrum)
    def call(*args, **kwargs):
        first = len(tr.sv_sizes)
        out = stable_spectrum(*args, **kwargs)
        tr.counters["spectra.stable_spectrum.computed"] += tr.sv_sizes[first]
        tr.counters["spectra.stable_spectrum.kept"] += out.count
        return out

    return call
