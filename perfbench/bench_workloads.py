"""The four benchmark workloads, each a seeded set of inputs run through
magnc's public API, with a correctness gate on every operation.

A workload is ``setup(seed) -> state`` (inputs and warm-up) and
``run_pass(state, p) -> list[Op]`` (one pass; passes repeat the same work).
Every operation ends in one of four statuses:

* ``ok``      the result passed the gate: finite, and within its tolerance;
* ``flagged`` the operation ran to the end and the program reported the
              failure itself (a check record with ``pass: false``);
* ``raised``  the operation was cut short (an exception, a precondition
              failure, or no report);
* ``wrong``   the program returned a result as valid that the gate rejects
              (a non-finite value, or one outside its tolerance).

All but ``ok`` count as failed.  A pass with a ``raised`` or ``wrong``
operation did not produce verified results, so its time is left out of
``wall_s``; a run is incorrect if any operation is ``wrong`` or no pass is
verified.  A record's ``pass`` flag is
never trusted alone: a pass with a non-finite ``got`` or ``error`` is
``wrong``.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import magnc.algebra as alg
import magnc.basis as basis
import magnc.cli as cli
import magnc.cocycles as cc
import magnc.dirac as dr
import magnc.kernel as ker

LB = 1.0
CHECK_NAMES = [fn.__name__.replace("check_", "").replace("_", "-") for _, fn in cli.CHECKS]


@dataclass
class Op:
    """One user-level operation: its latency, status and checked record."""

    name: str
    seconds: float | None
    status: str = "ok"
    tol_use: list = field(default_factory=list)   # error / tolerance of each verified value
    record: object = None                         # what the digest covers
    note: str = ""


def all_finite(obj) -> bool:
    """Every number in a (nested) record is finite."""
    if isinstance(obj, dict):
        return all(all_finite(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return all(all_finite(v) for v in obj)
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return True
    if isinstance(obj, (int, float, complex, np.number)):
        return bool(np.isfinite(obj))
    return True


def gate(op: Op, checks):
    """Apply (label, value, error, tolerance) checks to ``op``."""
    for label, value, err, tol in checks:
        if not all_finite(value) or not math.isfinite(err):
            op.status, op.note = "wrong", f"{label} not finite"
            return op
        op.tol_use.append(err / tol)
        if err > tol:
            op.status, op.note = "wrong", f"{label} error {err:.3e} > {tol:g}"
    return op


def run_op(name: str, fn) -> Op:
    """Time ``fn`` (which returns (record, checks)); an exception is a
    ``raised`` failure."""
    t0 = time.perf_counter()
    try:
        record, checks = fn()
    except Exception as exc:  # noqa: BLE001 - any failure of the call is recorded
        return Op(name, time.perf_counter() - t0, "raised",
                  record=f"{type(exc).__name__}: {exc}", note=type(exc).__name__)
    return gate(Op(name, time.perf_counter() - t0, record=cli._sanitize(record)), checks)


def triple_corpus(seed: int, count: int, base: int):
    """Seeded support-4 triples, generated as the CLI's corpora are."""
    return [tuple(alg.random_element(base + seed * 1000 + 3 * t + s, 4, 1.0, LB)
                  for s in range(3)) for t in range(count)]


def cocycle_floor(triples) -> float:
    """0.02 of the corpus RMS of (i/l^2) psi: the relative-error floor the
    CLI uses for near-zero targets."""
    targets = [(1j / LB**2) * cc.psi(*t).value for t in triples]
    return 0.02 * float(np.sqrt(np.mean([abs(t) ** 2 for t in targets])))


# ---------------------------------------------------------------------------
# pairings: the cocycle layer at the default context with a warm phase cache.
# ---------------------------------------------------------------------------

class Pairings:
    name = "pairings"
    nominal_pass_s = 2.0
    triples = 10

    def params(self, seed):
        cfg = cli.RunConfig(seed=seed)
        return {"triples_per_pass": self.triples, "support": 4, "projections": 11,
                "m_max": cfg.m_max, "n_max": cfg.n_max, "eps": cfg.eps,
                "ladder": cfg.ladder}

    def setup(self, seed):
        cfg = cli.RunConfig(seed=seed)
        ctx = cfg.context()
        triples = triple_corpus(seed, self.triples, base=0)
        projections = [alg.landau_projection(j, LB) for j in range(6)]
        projections.append(alg.projection_sum((0, 1), LB))
        projections += [alg.conjugated_projection(seed + 100 + s, 5, LB) for s in range(4)]
        # warm-up: one direct-route evaluation fills the phase cache for ctx
        cc.tau2(*triple_corpus(seed, 1, base=500_000)[0], ctx, "direct")
        return {"ctx": ctx, "ladder": cfg.ladder, "triples": triples,
                "floor": cocycle_floor(triples), "projections": projections}

    def run_pass(self, st, p):
        ctx, ladder, floor = st["ctx"], st["ladder"], st["floor"]

        def triple(a0, a1, a2):
            want = (1j / LB**2) * cc.psi(a0, a1, a2).value
            ch = cc.ch_dix(a0, a1, a2, ctx, ladder).value
            red = cc.tau2(a0, a1, a2, ctx, "reduced", ladder).value
            direct = cc.tau2(a0, a1, a2, ctx, "direct").value
            hat = cc.ch_hat(a0, a1, a2, ctx, ladder).value
            rec = {"psi_i": want, "ch_dix": ch, "tau2_reduced": red,
                   "tau2_direct": direct, "ch_hat": hat}
            return rec, [("ch_dix", ch, cli._rel_err(ch, want, floor), 0.05),
                         ("tau2_reduced", red, cli._rel_err(red, want, floor), 0.05),
                         ("tau2_direct", direct, cli._rel_err(direct, want, floor), 0.10),
                         ("ch_hat", hat, abs(hat), 1e-10)]

        def projection(q):
            c = cc.chern_number(q)
            g = cc.gap_label(q)
            v = cc.nc_integral(q, ctx, ladder).value
            rec = {"chern": c, "gap_label": g, "nc_integral": v}
            return rec, [("chern_integrality", c, abs(c - round(c)), 1e-8),
                         ("streda", g, abs(c - g), 1e-8),
                         ("nc_integral", v, abs(v - g) / max(1.0, abs(g)), 0.02)]

        ops = [run_op("triple", lambda t=t: triple(*t)) for t in st["triples"]]
        ops += [run_op("projection", lambda q=q: projection(q)) for q in st["projections"]]
        return ops


# ---------------------------------------------------------------------------
# kernel-quadrature: basis and kernel at the acceptance-test sizes.
# ---------------------------------------------------------------------------

class KernelQuadrature:
    name = "kernel-quadrature"
    nominal_pass_s = 8.0
    nodes = 56
    labels = [(n, m) for n in range(3) for m in range(2)]
    boxes = 5

    def params(self, seed):
        return {"nodes_per_axis": self.nodes, "labels": self.labels,
                "radius": basis.default_radius(4, 4), "support": 3, "boxes": self.boxes,
                "ladder_block": [3, 3]}

    def setup(self, seed):
        a = alg.random_element(seed * 1000 + 1, 3, 1.0, LB)
        want = np.array([[a.coeff(kn, nb) if mb == mk else 0.0 for (kn, mk) in self.labels]
                         for (nb, mb) in self.labels])
        return {"a": a, "want": want,
                "scheme": basis.QuadratureScheme(basis.default_radius(4, 4), self.nodes)}

    def run_pass(self, st, p):
        a = st["a"]

        def gram():
            g = ker.gram_via_kernel(a, self.labels, self.labels, st["scheme"])
            err = float(np.abs(g - st["want"]).max())
            return g.tolist(), [("kernel_vs_coefficients", g, err, 1e-6)]

        def tpuv():
            vals = ker.trace_per_unit_volume(a, 2.0 * LB, self.boxes)
            want = alg.trace_int(a).real
            err = max(abs(v - want) for v in vals)
            return vals, [("trace_per_unit_volume", vals, err, 1e-4)]

        def ladder():
            worst = basis.verify_ladder_phases(LB, 3, 3)
            return worst, [("ladder_vs_quadrature", worst, worst, 1e-6)]

        return [run_op("gram_via_kernel", gram),
                run_op("trace_per_unit_volume", tpuv),
                run_op("verify_ladder_phases", ladder)]


# ---------------------------------------------------------------------------
# truncation-sweep: Dirac assembly on fresh contexts; the phase cache never hits.
# ---------------------------------------------------------------------------

class TruncationSweep:
    name = "truncation-sweep"
    nominal_pass_s = 2.4
    m_maxes = (1024, 2048, 3072, 4096)
    eps_cycle = (0.25, 0.5, 1.0)
    tau2_per_context = 2
    floor_corpus = 20   # the CLI's connes-formula-2 corpus size
    m_pinned = 4096     # the truncation the CLI's 10% tolerance is pinned at

    def tolerance(self, m_max: int) -> float:
        """The CLI's 10% at m_max 4096, carried to m_max along the direct
        route's 1/m_max truncation error."""
        return 0.10 * self.m_pinned / m_max

    def eps(self, p: int) -> float:
        """Pass p sweeps eps_cycle[p % 3], nudged on later cycles so that no
        context repeats within a run."""
        return self.eps_cycle[p % 3] * (1.0 + 0.01 * (p // 3))

    def params(self, seed):
        return {"m_max": list(self.m_maxes), "eps_by_pass": "0.25, 0.5, 1.0, then x1.01 per cycle",
                "n_max": 16, "buffer": 4, "tau2_direct_per_context": self.tau2_per_context,
                "floor_corpus": self.floor_corpus,
                "tau2_direct_tolerance": "0.10 * 4096 / m_max"}

    def setup(self, seed):
        corpus = triple_corpus(seed, self.floor_corpus, base=700_000)
        return {"a": alg.random_element(seed * 1000 + 2, 4, 1.0, LB),
                "triples": corpus[: self.tau2_per_context], "floor": cocycle_floor(corpus)}

    def run_pass(self, st, p):
        a, floor = st["a"], st["floor"]

        def context(m_max):
            ctx = dr.DiracContext(lb=LB, eps=self.eps(p), n_max=16, m_max=m_max, buffer=4)
            f = dr.dirac_phase(ctx, check=True)
            d = dr.build_dirac(ctx, check=True)
            comm = dr.commutator_with_D(a, ctx, check=True)
            defects = dr.defect_operators(a, ctx)
            rec = {"m_max": m_max, "eps": ctx.eps, "F_nnz": f.op.nnz, "D_nnz": d.op.nnz,
                   "comm_nnz": comm.op.nnz,
                   "defect_nnz": {k: v.op.nnz for k, v in sorted(defects.items())}}
            checks = []
            for i, t in enumerate(st["triples"]):
                want = (1j / LB**2) * cc.psi(*t).value
                got = cc.tau2(*t, ctx, "direct").value
                rec[f"tau2_direct_{i}"] = got
                checks.append((f"tau2_direct_{i}", got, cli._rel_err(got, want, floor),
                               self.tolerance(m_max)))
            return rec, checks

        return [run_op("context", lambda m=m: context(m)) for m in self.m_maxes]


# ---------------------------------------------------------------------------
# verify-all: the nine acceptance checks through the CLI, cold caches.
# ---------------------------------------------------------------------------

class VerifyAll:
    name = "verify-all"
    nominal_pass_s = 75.0

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir

    def params(self, seed):
        return {"argv": ["--seed", str(seed), "--out", "<out>", "verify-all"],
                "config": cli.RunConfig(seed=seed).echo()}

    def setup(self, seed):
        return {"seed": seed, "report": self.out_dir / f"verify-all-seed{seed}.json"}

    def run_pass(self, st, p):
        report = st["report"]
        report.unlink(missing_ok=True)
        rc = cli.main(["--seed", str(st["seed"]), "--out", str(report), "verify-all"])
        if not report.exists():
            return [Op(name, None, "raised", record=f"exit {rc}, no report",
                       note=f"exit {rc}") for name in CHECK_NAMES]
        doc = json.loads(report.read_text())
        ops = []
        for rec in doc["checks"]:
            op = Op(rec["name"], doc["timings"].get(rec["name"]), record=rec)
            if not all_finite(rec.get("got")) or not all_finite(rec.get("error")):
                op.status, op.note = ("wrong" if rec["pass"] else "raised"), "non-finite result"
            elif not rec["pass"]:
                op.status, op.note = "flagged", "check reports FAIL"
            else:
                op.tol_use.append(float(rec["error"]) / float(rec["tolerance"]))
            ops.append(op)
        if (rc == 0) != all(op.status == "ok" for op in ops):
            ops.append(Op("exit-code", None, "wrong", record=rc,
                          note=f"exit {rc} disagrees with the check records"))
        return ops


def workloads(out_dir: Path) -> dict:
    ws = [Pairings(), KernelQuadrature(), TruncationSweep(), VerifyAll(out_dir)]
    return {w.name: w for w in ws}
