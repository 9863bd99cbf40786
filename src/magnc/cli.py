"""Command-line front end: run the verification suite, single invariants,
and convergence-ladder dumps.

Exit codes: 0 all checks pass, 1 a check failed, 2 configuration or input
error, 3 internal hard error.  Reports are JSON (deterministic module order,
sorted keys; wall-clock timings live in a separate top-level object), ladders
are CSV.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from . import algebra as alg
from . import cocycles as cc
from . import kernel as ker
from . import spectra as spx
from .basis import QuadratureScheme, default_radius, verify_ladder_phases
from .dirac import (DiracContext, QuartetOperator, dirac_phase, exact_phase_square,
                    max_interior_deviation)


@dataclass
class RunConfig:
    lb: float = 1.0
    eps: float = 0.5
    n_max: int = 16
    m_max: int = 4096
    buffer: int = 4
    ladder: list = field(default_factory=lambda: list(spx.DEFAULT_LADDER))
    tol_exact: float = 1e-8
    tol_dixmier: float = 0.05
    seed: int = 0
    out: str | None = None
    format: str = "json"

    def context(self) -> DiracContext:
        return DiracContext(lb=self.lb, eps=self.eps, n_max=self.n_max,
                            m_max=self.m_max, buffer=self.buffer)

    def echo(self) -> dict:
        d = asdict(self)
        d["ladder"] = [int(n) for n in self.ladder]
        d.pop("out", None)  # reports must not depend on where they are written
        return d


class ConfigError(ValueError):
    pass


def _parse_config_file(path: str) -> dict:
    out = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"bad config line: {raw!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        out[key.replace("-", "_")] = val
    return out


def _coerce(cfg: RunConfig, key: str, val: str):
    if key in ("lb", "eps", "tol_exact", "tol_dixmier"):
        setattr(cfg, key, float(val))
    elif key in ("n_max", "m_max", "buffer", "seed"):
        setattr(cfg, key, int(val))
    elif key == "ladder":
        cfg.ladder = [int(float(tok)) for tok in str(val).split(",") if tok.strip()]
    elif key in ("out", "format"):
        setattr(cfg, key, str(val))
    else:
        raise ConfigError(f"unknown config key {key!r}")


def build_config(args) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        for key, val in _parse_config_file(args.config).items():
            _coerce(cfg, key, val)
    for flag, key in [
        ("lb", "lb"), ("eps", "eps"), ("nmax", "n_max"), ("mmax", "m_max"),
        ("buffer", "buffer"), ("tol_exact", "tol_exact"),
        ("tol_dixmier", "tol_dixmier"), ("seed", "seed"), ("out", "out"),
        ("format", "format"),
    ]:
        v = getattr(args, flag)
        if v is not None:
            setattr(cfg, key, v)
    if args.ladder is not None:
        cfg.ladder = [int(float(tok)) for tok in args.ladder.split(",") if tok.strip()]
    if not cfg.ladder or len(cfg.ladder) < 3:
        raise ConfigError("ladder needs at least three rungs")
    if cfg.ladder[0] < 2 or any(b <= a for a, b in zip(cfg.ladder, cfg.ladder[1:])):
        raise ConfigError("ladder must be strictly increasing with N >= 2")
    if cfg.format not in ("json", "csv"):
        raise ConfigError(f"unknown output format {cfg.format!r}")
    cfg.context()  # validates lb, eps, truncation, buffer
    return cfg


# ---------------------------------------------------------------------------
# Inputs: builtin projections or element files.
# ---------------------------------------------------------------------------

def parse_element(text: str, cfg: RunConfig) -> alg.MagneticElement:
    if text.startswith("pi-sum:"):
        spec_ = text[len("pi-sum:"):]
        if ".." not in spec_:
            raise ConfigError("pi-sum wants a range like pi-sum:0..2")
        lo, hi = (int(s) for s in spec_.split("..", 1))
        return alg.projection_sum(range(lo, hi + 1), cfg.lb)
    if text.startswith("pi:"):
        return alg.landau_projection(int(text[3:]), cfg.lb)
    path = Path(text)
    if not path.exists():
        raise ConfigError(f"no such element input: {text!r}")
    return alg.load_element(path, cfg.lb)


# ---------------------------------------------------------------------------
# The check registry: one record per acceptance criterion, dependency order.
# The only definition of the criteria: tests/test_acceptance.py runs CHECKS.
# ---------------------------------------------------------------------------

def _record(name, ref, expected, got, error, tol, ok) -> dict:
    return {
        "name": name,
        "paper_ref": ref,
        "expected": expected,
        "got": got,
        "error": error,
        "tolerance": tol,
        "pass": bool(ok),
    }


def _triple_corpus(cfg: RunConfig, count: int, support: int = 4):
    base = cfg.seed * 1000
    return [
        tuple(alg.random_element(base + 3 * t + s, support, 1.0, cfg.lb) for s in range(3))
        for t in range(count)
    ]


def _projection_corpus(cfg: RunConfig):
    ps = [alg.landau_projection(j, cfg.lb) for j in range(6)]
    ps.append(alg.projection_sum((0, 1), cfg.lb))
    ps += [alg.conjugated_projection(cfg.seed + 100 + s, 5, cfg.lb) for s in range(6)]
    return ps


def check_representation_consistency(cfg: RunConfig) -> dict:
    worst_phase = verify_ladder_phases(cfg.lb, 3, 3)
    scheme = QuadratureScheme(default_radius(4, 4), 56)
    a = alg.random_element(cfg.seed + 1, 3, 1.0, cfg.lb)
    labels = [(n, m) for n in range(3) for m in range(2)]
    gram = ker.gram_via_kernel(a, labels, labels, scheme)
    # A acts on the level index only: entries between different m vanish
    want = np.array([[a.coeff(kn, bn) if km == bm else 0.0 for (kn, km) in labels]
                     for (bn, bm) in labels])
    worst_kernel = float(np.abs(gram - want).max())
    tpuv = ker.trace_per_unit_volume(alg.landau_projection(0, cfg.lb), 2.0 * cfg.lb, 5)
    worst_tpuv = max(abs(v - 1.0) for v in tpuv)
    small = DiracContext(lb=cfg.lb, eps=cfg.eps, n_max=8,
                         m_max=min(cfg.m_max, 64), buffer=cfg.buffer)
    f = dirac_phase(small, check=False)
    worst_f = max_interior_deviation(QuartetOperator((f.op @ f.op).tocsr(), small),
                                     exact_phase_square(small), margin=2)
    ok = worst_phase < 1e-6 and worst_kernel < 1e-6 and worst_tpuv < 1e-4 and worst_f < 1e-10
    got = {"ladder_vs_quadrature": worst_phase, "kernel_vs_coefficients": worst_kernel,
           "trace_per_unit_volume": worst_tpuv, "phase_square_identity": worst_f}
    return _record("representation-consistency", "kernel-and-phase-identities",
                   "all deviations within stated bounds", got,
                   max(got.values()), 1e-4, ok)


def check_singular_value_laws(cfg: RunConfig) -> dict:
    eps = cfg.eps
    # resolvent-commutator law vs an honestly built sparse operator, every
    # sector clear of the degeneracy cutoff
    worst_law, m_tot = 0.0, 72
    for (j, k, e1, e2) in [(0, 1, eps, eps), (1, 3, eps, eps), (2, 0, eps, eps),
                           (0, 1, 0.5, 0.5), (1, 3, 0.25, 1.25), (2, 0, 1.5, 0.5),
                           (0, 2, 0.5, 1.5)]:
        size = 6 + max(j, k)
        num = spx.build_shifted_commutator("D", alg.upsilon(j, k, cfg.lb), size, m_tot, e1, e2)
        law = spx.closed_form_mu("D", j, k, e1, e2, 0.0, np.arange(m_tot - 8))
        for m in range(m_tot - 8):
            blk = num[m * size:(m + 1) * size, m * size:(m + 1) * size]
            worst_law = max(worst_law, abs(float(np.abs(blk.toarray()).max()) - law[m]))
    # alpha bound over nonnegative shifts
    bound_ok = True
    for e1 in (0.0, 0.5, 1.5, 3.0):
        for e2 in (0.0, 0.5, 1.5, 3.0):
            for (j, k) in [(0, 1), (0, 3), (0, 4), (3, 1), (2, 5), (2, 6)]:
                am = spx.c_alpha(j, k, e1, e2, np.arange(512))
                bound_ok &= bool(np.all(am <= abs((j + e2) - (k + e1)) / 2 + 1e-12))
    # decay exponents on a reduced context
    ctx = DiracContext(lb=cfg.lb, eps=eps, n_max=8, m_max=384, buffer=4)
    rep = spx.verify_quasi_even(ctx, [alg.upsilon(0, 1, cfg.lb),
                                       alg.random_element(cfg.seed + 5, 3, 1.0, cfg.lb),
                                       alg.random_element(cfg.seed + 6, 3, 1.0, cfg.lb)])
    exps = [e["F_comm"].exponent for e in rep["elements"]]
    exp_ok = all(abs(e + 0.5) <= 0.05 for e in exps)
    ok = worst_law < 1e-8 and bound_ok and exp_ok and rep["ok"]
    got = {"law_deviation": worst_law, "alpha_bound_ok": bound_ok,
           "F_comm_exponent": exps[0], "quasi_even_ok": rep["ok"]}
    return _record("singular-value-laws", "resolvent-commutator-spectra",
                   "law to 1e-8; exponent -0.5 +- 0.05; trace-class products",
                   got, worst_law, 1e-8, ok)


def check_dixmier_normalization(cfg: RunConfig) -> dict:
    ns, sums = spx.d4_partial_sums(cfg.eps, cfg.ladder)
    est = spx.dixmier_from_partial_sums(ns, sums)
    err = abs(est.value - 2.0) / 2.0
    return _record("dixmier-normalization", "volume-form-trace",
                   2.0, est.value, err, 0.02, err <= 0.02)


def check_gap_labeling(cfg: RunConfig) -> dict:
    ctx = cfg.context()
    worst_gl, worst_int = 0.0, 0.0
    for j in range(6):
        p = alg.landau_projection(j, cfg.lb)
        worst_gl = max(worst_gl, abs(cc.gap_label(p) - 1.0))
        v = cc.nc_integral(p, ctx, cfg.ladder)
        worst_int = max(worst_int, abs(v.value - 1.0))
    ok = worst_gl < 1e-9 and worst_int < 0.02
    return _record("gap-labeling", "trace-pairing-integrality",
                   {"gap_label": 1.0, "nc_integral": 1.0},
                   {"gap_label_dev": worst_gl, "nc_integral_dev": worst_int},
                   max(worst_gl, worst_int), 0.02, ok)


def check_chern_integrality_streda(cfg: RunConfig) -> dict:
    worst_level = max(abs(cc.chern_number(alg.landau_projection(j, cfg.lb)) - 1.0)
                      for j in range(6))
    worst_int, worst_streda = 0.0, 0.0
    for p in _projection_corpus(cfg):
        c = cc.chern_number(p)
        g = cc.gap_label(p)
        worst_int = max(worst_int, abs(c - round(c)))
        worst_streda = max(worst_streda, abs(c - g))
    got = {"level_dev": worst_level, "integrality_dev": worst_int, "streda_dev": worst_streda}
    return _record("chern-integrality-streda", "streda-equality",
                   "every Landau level has Chern number 1; integer Chern numbers "
                   "equal to gap labels", got, max(got.values()), 1e-8,
                   max(got.values()) < 1e-8)


def _rel_err(got: complex, want: complex, floor: float) -> float:
    return abs(got - want) / max(abs(want), floor)


def check_connes_formula_1(cfg: RunConfig, count: int = 50) -> dict:
    ctx = cfg.context()
    triples = _triple_corpus(cfg, count)
    targets = [(1j / cfg.lb**2) * cc.psi(*t).value for t in triples]
    floor = 0.02 * float(np.sqrt(np.mean([abs(t) ** 2 for t in targets])))
    worst = 0.0
    for t, want in zip(triples, targets):
        got = cc.ch_dix(*t, ctx, cfg.ladder).value
        worst = max(worst, _rel_err(got, want, floor))
    return _record("connes-formula-1", "derivation-vs-dirac-character",
                   "relative error < 5% on the seeded corpus", worst,
                   worst, 0.05, worst < 0.05)


def check_connes_formula_2(cfg: RunConfig, count: int = 20) -> dict:
    ctx = cfg.context()
    triples = _triple_corpus(cfg, count)
    targets = [(1j / cfg.lb**2) * cc.psi(*t).value for t in triples]
    floor = 0.02 * float(np.sqrt(np.mean([abs(t) ** 2 for t in targets])))
    worst_i, worst_ii = 0.0, 0.0
    for t, want in zip(triples, targets):
        got_i = cc.tau2(*t, ctx, "reduced", cfg.ladder).value
        got_ii = cc.tau2(*t, ctx, "direct").value
        worst_i = max(worst_i, _rel_err(got_i, want, floor))
        worst_ii = max(worst_ii, _rel_err(got_ii, want, floor))
    ok = worst_i < 0.05 and worst_ii < 0.10
    return _record("connes-formula-2", "fredholm-character-two-routes",
                   "route i < 5%, route ii < 10%",
                   {"route_i": worst_i, "route_ii": worst_ii},
                   max(worst_i, worst_ii), 0.10, ok)


def check_chi_triviality(cfg: RunConfig, count: int = 50) -> dict:
    ctx = cfg.context()
    worst = 0.0
    for t in _triple_corpus(cfg, count):
        worst = max(worst, abs(cc.ch_hat(*t, ctx, cfg.ladder).value))
    for p in _projection_corpus(cfg):
        worst = max(worst, abs(cc.ch_hat(p, p, p, ctx, cfg.ladder).value))
    return _record("chi-triviality", "anticommuting-grading-character",
                   0.0, worst, worst, 1e-10, worst < 1e-10)


def check_quantized_calculus_structure(cfg: RunConfig, tuples: int = 100) -> dict:
    ctx = cfg.context()
    rng_base = cfg.seed * 4000
    worst_b = 0.0
    phi = cc.psi_cochain(cfg.lb)
    for t in range(tuples):
        args = [alg.random_element(rng_base + 4 * t + s, 4, 1.0, cfg.lb) for s in range(4)]
        worst_b = max(worst_b, abs(cc.hochschild_b(phi, args)))
    worst_cyc = 0.0
    for t in _triple_corpus(cfg, 25):
        worst_cyc = max(worst_cyc, abs(cc.psi(*t).value - cc.psi(t[2], t[0], t[1]).value))
    worst_closed = 0.0
    for t in _triple_corpus(cfg, 5):
        a1, a2 = t[0], t[1]
        v = cc.graded_two_form_trace(a1, a2, ctx, cfg.ladder)
        scale = cc.two_form_scale(a1, a2, cfg.lb)
        worst_closed = max(worst_closed, abs(v.value) / scale)
    anti_ok = True
    for t in _triple_corpus(cfg, 3):
        x0, x1, y1 = t
        y0 = alg.random_element(cfg.seed + 77, 4, 1.0, cfg.lb)
        v12 = cc.graded_one_form_product_trace(x0, x1, y0, y1, ctx, cfg.ladder)
        v21 = cc.graded_one_form_product_trace(y0, y1, x0, x1, ctx, cfg.ladder)
        tol = 3.0 * (v12.error + v21.error) + 1e-6
        anti_ok &= abs(v12.value + v21.value) <= tol
    ok = worst_b <= 1e-9 and worst_cyc <= 1e-10 and worst_closed <= 0.05 and anti_ok
    got = {"coboundary_of_cocycle": worst_b, "cyclicity": worst_cyc,
           "closedness_ratio": worst_closed, "graded_anticyclicity_ok": anti_ok}
    return _record("quantized-calculus-structure", "graded-trace-and-cocycle-laws",
                   "closed, cyclic, coboundary-free", got,
                   max(worst_b, worst_cyc, worst_closed), 0.05, ok)


CHECKS = [
    ("basis/kernel/dirac", check_representation_consistency),
    ("dirac/spectra", check_singular_value_laws),
    ("spectra", check_dixmier_normalization),
    ("cocycles", check_gap_labeling),
    ("cocycles", check_chern_integrality_streda),
    ("cocycles", check_connes_formula_1),
    ("cocycles", check_connes_formula_2),
    ("cocycles", check_chi_triviality),
    ("cocycles", check_quantized_calculus_structure),
]


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------

def _sanitize(obj):
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def _emit(payload: dict, cfg: RunConfig):
    if cfg.format == "csv" and "checks" in payload:
        cols = ["name", "paper_ref", "expected", "got", "error", "tolerance", "pass"]
        lines = [",".join(cols)]
        for rec in payload["checks"]:
            cells = []
            for c in cols:
                v = _sanitize(rec.get(c))
                cell = v if isinstance(v, str) else json.dumps(v, sort_keys=True)
                cells.append('"' + cell.replace('"', '""') + '"')
            lines.append(",".join(cells))
        text = "\n".join(lines)
    else:
        text = json.dumps(_sanitize(payload), indent=1, sort_keys=True)
    if cfg.out:
        Path(cfg.out).write_text(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def check_name(fn) -> str:
    """Registry name of a check function: check_chi_triviality -> chi-triviality."""
    return fn.__name__.replace("check_", "").replace("_", "-")


def run_check(stage: str, fn, cfg: RunConfig) -> dict:
    """Run one registry entry and print its [PASS]/[FAIL] line to stderr.

    An exception becomes a failed record, so one failing check cannot drop
    the rest of a report.
    """
    try:
        rec = fn(cfg)
    except Exception as exc:  # noqa: BLE001 - one failing check must not drop the report
        traceback.print_exc(file=sys.stderr)
        kind = "precondition failure" if isinstance(exc, ValueError) else type(exc).__name__
        rec = _record(check_name(fn), "plumbing", "completes", f"{kind}: {exc}",
                      float("nan"), 0.0, False)
    rec["stage"] = stage
    print(f"[{'PASS' if rec['pass'] else 'FAIL'}] {rec['name']}", file=sys.stderr)
    return rec


def cmd_verify_all(cfg: RunConfig, dry_run: bool = False) -> int:
    if dry_run:
        _emit({"config": cfg.echo(), "plan": [check_name(fn) for _, fn in CHECKS]}, cfg)
        return 0
    records, timings = [], {}
    for stage, fn in CHECKS:
        t0 = time.perf_counter()
        records.append(run_check(stage, fn, cfg))
        timings[records[-1]["name"]] = round(time.perf_counter() - t0, 3)
    report = {"config": cfg.echo(), "checks": records, "timings": timings}
    _emit(report, cfg)
    return 0 if all(r["pass"] for r in records) else 1


def cmd_invariant(cfg: RunConfig, which: str, input_text: str) -> int:
    el = parse_element(input_text, cfg)
    ctx = cfg.context()
    if which in ("gap-label", "chern"):
        if not alg.is_projection(el):
            raise ConfigError(f"{which} needs a projection input")
        val = cc.gap_label(el) if which == "gap-label" else cc.chern_number(el)
        rec = _record(which, "integer-pairing", "integer", val,
                      abs(val - round(val)), cfg.tol_exact,
                      abs(val - round(val)) <= cfg.tol_exact)
    else:
        if which == "nc-integral":
            ref, tol = "volume-weighted-trace", cfg.tol_dixmier
            v = cc.nc_integral(el, ctx, cfg.ladder)
        elif which == "psi":
            ref, tol = "derivation-trace-cocycle", cfg.tol_exact
            v = cc.psi(el, el, el)
        elif which == "ch":
            ref, tol = "dirac-character", cfg.tol_dixmier
            v = cc.ch_dix(el, el, el, ctx, cfg.ladder)
        elif which == "tau2":
            ref, tol = "fredholm-character", cfg.tol_dixmier
            v = cc.tau2(el, el, el, ctx, "reduced", cfg.ladder)
        else:
            raise ConfigError(f"unknown invariant {which!r}")
        # nothing to compare against: a value passes when it is finite and
        # its estimator did not flag it
        ok = np.isfinite(v.value) and np.isfinite(v.error) and "flagged" not in v.method
        rec = _record(which, ref, None, v.value, v.error, tol, ok)
    _emit({"config": cfg.echo(), "checks": [rec]}, cfg)
    return 0 if rec["pass"] else 1


def cmd_dixmier_ladder(cfg: RunConfig, target: str) -> int:
    if target == "d4":
        ns, sums = spx.d4_partial_sums(cfg.eps, cfg.ladder)
    elif target.startswith("ncint:"):
        el = parse_element(target[len("ncint:"):], cfg)
        ctx = cfg.context()
        ns = np.asarray(cfg.ladder, dtype=float)
        sums = np.zeros(len(ns), dtype=complex)
        for xi in ctx.shifted_energies():
            _, s = spx.shifted_resolvent_ladder(el, xi, cfg.ladder)
            sums = sums + s / 4.0
    elif target.startswith("ch:"):
        el = parse_element(target[len("ch:"):], cfg)
        ctx = cfg.context()
        d1 = cc.delta1(el, el)
        s1 = alg.compose(el, d1)
        ns = np.asarray(cfg.ladder, dtype=float)
        sums = np.zeros(len(ns), dtype=complex)
        for xi in ctx.shifted_energies():
            _, s = spx.shifted_resolvent_ladder(s1, xi, cfg.ladder)
            sums = sums + 0.5 * (1j / (2.0 * cfg.lb**2)) * s
        # the grading-weighted part cancels blockwise and is omitted from
        # the dumped ladder; the fit target is the full character value
    else:
        raise ConfigError(f"unknown ladder target {target!r}")
    est = spx.dixmier_from_partial_sums(ns, np.asarray(sums))
    lines = ["N,sigma_re,sigma_im,fit_re,fit_im,fit_stderr"]
    for n, sig in est.ladder:
        sig = complex(sig)
        v = complex(est.value)
        lines.append(f"{n},{sig.real:.12g},{sig.imag:.12g},{v.real:.12g},{v.imag:.12g},{est.stderr:.6g}")
    text = "\n".join(lines) + "\n"
    if cfg.out:
        Path(cfg.out).write_text(text)
    else:
        sys.stdout.write(text)
    finite = np.all(np.isfinite([complex(sig) for _, sig in est.ladder]))
    return 0 if finite and np.isfinite(est.value) and np.isfinite(est.stderr) else 1


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------

def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="magnc", description=__doc__)
    p.add_argument("--config", help="flat key = value configuration file")
    p.add_argument("--lb", type=float, help="magnetic length")
    p.add_argument("--eps", type=float, help="phase regularization")
    p.add_argument("--nmax", type=int, help="level truncation")
    p.add_argument("--mmax", type=int, help="degeneracy truncation")
    p.add_argument("--buffer", type=int, help="edge buffer (>= 2)")
    p.add_argument("--ladder", help="comma-separated extrapolation counts")
    p.add_argument("--tol-exact", dest="tol_exact", type=float)
    p.add_argument("--tol-dixmier", dest="tol_dixmier", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="output path (stdout when omitted)")
    p.add_argument("--format", choices=("json", "csv"))
    p.add_argument("--dry-run", action="store_true")
    sub = p.add_subparsers(dest="command", required=True)
    pv = sub.add_parser("verify-all", help="run every acceptance check")
    pv.add_argument("--dry-run", action="store_true", dest="dry_run")
    pi = sub.add_parser("invariant", help="compute a single pairing")
    pi.add_argument("which", choices=("gap-label", "chern", "nc-integral",
                                      "psi", "ch", "tau2"))
    pi.add_argument("input", help="pi:j, pi-sum:a..b, or an element JSON file")
    pl = sub.add_parser("dixmier-ladder", help="dump a convergence ladder as CSV")
    pl.add_argument("target", help="d4, ncint:<input>, or ch:<input>")
    return p


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        cfg = build_config(args)
    except (ConfigError, ValueError, OverflowError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.command == "verify-all":
            return cmd_verify_all(cfg, dry_run=args.dry_run)
        if args.command == "invariant":
            return cmd_invariant(cfg, args.which, args.input)
        if args.command == "dixmier-ladder":
            return cmd_dixmier_ladder(cfg, args.target)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - the exit-code contract wants 3
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
