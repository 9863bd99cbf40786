"""Command-line front end: run the verification suite, single invariants,
and convergence-ladder dumps.

Exit codes: 0 all checks pass, 1 a check failed, 2 configuration or input
error, 3 internal hard error.  Reports are JSON (deterministic module order,
sorted keys; wall-clock timings live in a separate top-level object), ladders
are CSV.

The checks share one seeded corpus, ``_corpus``: 50 support-4 triples (element
seeds 1000 seed + 3t + s), then Pi_0..Pi_5, Pi_0 + Pi_1 and the conjugates of
Pi_0 at seeds seed + 100..105.  A run reads one (seed, lb), so the cache holds
one entry, built by the first check that reads it; it holds inputs, no values.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback
from dataclasses import dataclass, field, fields, asdict
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import algebra as alg
from . import cocycles as cc
from . import kernel as ker
from . import spectra as spx
from .basis import QuadratureScheme, default_radius, verify_ladder_phases
from .dirac import DiracContext, phase_square_deviation, sector_blocks, sector_represent


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
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc.strerror}") from exc
    out = {}
    for raw in text.splitlines():
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
        rungs = [float(tok) for tok in str(val).split(",") if tok.strip()]
        if not all(r.is_integer() for r in rungs):
            raise ConfigError(f"ladder rungs must be integers, got {val!r}")
        cfg.ladder = [int(r) for r in rungs]
    elif key in ("out", "format"):
        setattr(cfg, key, str(val))
    else:
        raise ConfigError(f"unknown config key {key!r}")


def build_config(args) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        for key, val in _parse_config_file(args.config).items():
            _coerce(cfg, key, val)
    # every flag's dest is its RunConfig key
    for f in fields(RunConfig):
        val = getattr(args, f.name)
        if val is not None:
            _coerce(cfg, f.name, val)
    if cfg.seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {cfg.seed}")
    spx.require_ladder(cfg.ladder)
    if cfg.format not in ("json", "csv"):
        raise ConfigError(f"unknown output format {cfg.format!r}")
    for key in ("tol_exact", "tol_dixmier"):
        tol = getattr(cfg, key)
        if not (tol > 0 and np.isfinite(tol)):
            raise ConfigError(f"{key} must be positive and finite, got {tol}")
    cfg.context()  # validates lb, eps, truncation, buffer
    return cfg


# ---------------------------------------------------------------------------
# Inputs: builtin projections or element files.
# ---------------------------------------------------------------------------

def parse_element(text: str, cfg: RunConfig) -> alg.MagneticElement:
    """The element named by pi:j, pi-sum:a..b or an element file.

    Malformed input is a ConfigError: a level that is not a nonnegative
    integer, an empty range, records that are not a list of (j, k, re, im)
    objects, an index that is negative or not an integer, a bool or
    non-finite coefficient, or an index too large to allocate.
    """
    path = Path(text)
    if not text.startswith(("pi:", "pi-sum:")) and not path.exists():
        raise ConfigError(f"no such element input: {text!r}")
    try:
        if text.startswith("pi-sum:"):
            lo, sep, hi = text[len("pi-sum:"):].partition("..")
            if not sep:
                raise ValueError("pi-sum wants a range like pi-sum:0..2")
            levels = range(int(lo), int(hi) + 1)
            if not levels:
                raise ValueError("empty level range")
            return alg.projection_sum(levels, cfg.lb)
        if text.startswith("pi:"):
            return alg.landau_projection(int(text[3:]), cfg.lb)
        return alg.load_element(path, cfg.lb)
    except (ValueError, TypeError, KeyError, OSError, MemoryError) as exc:
        raise ConfigError(f"bad element input {text!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# The check registry: one record per acceptance criterion, dependency order.
# The only definition of the criteria: tests/test_acceptance.py runs CHECKS.
# ---------------------------------------------------------------------------

def _sound(error, sound: bool, tol: float) -> bool:
    """The one verdict of every record and every ``dixmier-ladder`` dump:
    the error is finite and within the tolerance (a dump has none), and
    ``sound`` holds: every value read is measurable at this truncation and
    every bound that ``error`` does not carry is met."""
    return bool(np.isfinite(error) and sound and error <= tol)


def _measured(*values) -> bool:
    """Every ``CocycleValue`` is finite and measurable at this truncation."""
    return all(bool(np.isfinite(v.value)) and v.measurable for v in values)


def _record(name, ref, expected, got, error, tol, sound) -> dict:
    """A check or invariant record; its verdict is ``_sound``'s, set nowhere else."""
    return {
        "name": name,
        "paper_ref": ref,
        "expected": expected,
        "got": got,
        "error": error,
        "tolerance": tol,
        "pass": _sound(error, sound, tol),
    }


def _worst(errors) -> float:
    """The largest error; a NaN among them is the result, where ``max``
    would drop it."""
    return float(np.max(list(errors)))


@lru_cache(maxsize=1)
def _corpus(seed: int, lb: float):
    """The run's (triples, projections), as the module docstring lists them."""
    triples = tuple(tuple(alg.random_element(1000 * seed + 3 * t + s, 4, 1.0, lb)
                          for s in range(3)) for t in range(50))
    projections = (*(alg.landau_projection(j, lb) for j in range(6)),
                   alg.projection_sum((0, 1), lb),
                   *(alg.conjugated_projection(seed + 100 + s, 5, lb) for s in range(6)))
    return triples, projections


def _cocycle_corpus(cfg: RunConfig, count: int):
    """The first ``count`` corpus triples, their targets (i/l^2) psi and 2% of their RMS."""
    triples = _corpus(cfg.seed, cfg.lb)[0][:count]
    targets = [(1j / cfg.lb**2) * cc.psi(*t).value for t in triples]
    floor = 0.02 * float(np.sqrt(np.mean([abs(t) ** 2 for t in targets])))
    return triples, targets, floor


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
    tpuv = ker.trace_per_unit_volume(_corpus(cfg.seed, cfg.lb)[1][0], 2.0 * cfg.lb, 5)
    small = DiracContext(lb=cfg.lb, eps=cfg.eps, n_max=8,
                         m_max=min(cfg.m_max, 64), buffer=cfg.buffer)
    worst_f = phase_square_deviation(small)
    got = {"ladder_vs_quadrature": worst_phase, "kernel_vs_coefficients": worst_kernel,
           "trace_per_unit_volume": _worst(abs(v - 1.0) for v in tpuv),
           "phase_square_identity": worst_f}
    return _record("representation-consistency", "kernel-and-phase-identities",
                   "all deviations within stated bounds", got, _worst(got.values()), 1e-4,
                   worst_phase < 1e-6 and worst_kernel < 1e-6 and worst_f < 1e-10)


def check_singular_value_laws(cfg: RunConfig) -> dict:
    eps = cfg.eps
    # the square-root, resolvent and mixed commutator laws (C, D, J) against
    # honestly built per-sector operators in 64 sectors, on the levels A acts on
    laws, sectors, kinds = [], 64, ("C", "D", "J")
    for (j, k, e1, e2) in [(0, 1, eps, eps), (1, 3, eps, eps), (2, 0, eps, eps),
                           (0, 1, 0.5, 0.5), (1, 3, 0.25, 1.25), (2, 0, 1.5, 0.5),
                           (0, 2, 0.5, 1.5)]:
        a = alg.upsilon(j, k, cfg.lb)
        num = np.stack([spx.build_shifted_commutator(kind, a, 1 + max(j, k), sectors, e1, e2, 1.5)
                        for kind in kinds])
        law = np.stack([spx.closed_form_mu(kind, j, k, e1, e2, 1.5, np.arange(sectors))
                        for kind in kinds])
        laws.append(np.abs(np.abs(num).max(axis=(2, 3)) - law).max())
    worst_law = _worst(laws)
    # alpha bound over nonnegative shifts
    shifts = (0.0, 0.5, 1.5, 3.0)
    bound_ok = all(
        np.all(spx.c_alpha(j, k, e1, e2, np.arange(512)) <= abs((j + e2) - (k + e1)) / 2 + 1e-12)
        for e1 in shifts for e2 in shifts
        for (j, k) in [(0, 1), (0, 3), (0, 4), (3, 1), (2, 5), (2, 6)])
    # decay exponents on a reduced context
    ctx = DiracContext(lb=cfg.lb, eps=eps, n_max=8, m_max=384, buffer=4)
    verdicts = spx.verify_quasi_even(ctx, [alg.upsilon(0, 1, cfg.lb),
                                            alg.random_element(cfg.seed + 5, 3, 1.0, cfg.lb),
                                            alg.random_element(cfg.seed + 6, 3, 1.0, cfg.lb)])
    # [F, pi(A)] in the weak ideal of order 2, every other product trace class
    quasi_even_ok = (all(abs(v.exponent + 0.5) <= 0.05 for v in verdicts["F_comm"])
                     and all(v.verdict == "trace-class" for key in
                             ("Fsq_comm", "left", "right", "triple") for v in verdicts[key])
                     and all(v.exponent <= -1.4 for v in verdicts["triple"]))
    got = {"law_deviation": worst_law, "alpha_bound_ok": bound_ok,
           "F_comm_exponent": verdicts["F_comm"][0].exponent, "quasi_even_ok": quasi_even_ok}
    return _record("singular-value-laws", "resolvent-commutator-spectra",
                   "law to 1e-8; exponent -0.5 +- 0.05; trace-class products",
                   got, worst_law, 1e-8, bound_ok and quasi_even_ok)


def _d4_dixmier(cfg: RunConfig) -> cc.CocycleValue:
    """The |D_eps|^-4 estimate at the configured counts.  Rungs that share one
    level cut are a bad --ladder for it, though not for the other ladders."""
    try:
        return spx.d4_dixmier(cfg.eps, cfg.ladder)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def check_dixmier_normalization(cfg: RunConfig) -> dict:
    est = _d4_dixmier(cfg)
    err = abs(est.value - 2.0) / 2.0
    return _record("dixmier-normalization", "volume-form-trace",
                   2.0, est.value, err, 0.02, _measured(est))


def check_gap_labeling(cfg: RunConfig) -> dict:
    ctx, ps = cfg.context(), _corpus(cfg.seed, cfg.lb)[1][:6]
    integrals = [cc.nc_integral(p, ctx, cfg.ladder) for p in ps]
    got = {"gap_label_dev": _worst(abs(cc.gap_label(p) - 1.0) for p in ps),
           "nc_integral_dev": _worst(abs(v.value - 1.0) for v in integrals)}
    return _record("gap-labeling", "trace-pairing-integrality",
                   {"gap_label": 1.0, "nc_integral": 1.0}, got, _worst(got.values()), 0.02,
                   got["gap_label_dev"] < 1e-9 and _measured(*integrals))


def check_chern_integrality_streda(cfg: RunConfig) -> dict:
    # the first six corpus projections are the Landau levels 0..5
    pairs = [(cc.chern_number(p), cc.gap_label(p)) for p in _corpus(cfg.seed, cfg.lb)[1]]
    got = {"level_dev": _worst(abs(c - 1.0) for c, _ in pairs[:6]),
           "integrality_dev": _worst(abs(c - round(c)) for c, _ in pairs),
           "streda_dev": _worst(abs(c - g) for c, g in pairs)}
    return _record("chern-integrality-streda", "streda-equality",
                   "every Landau level has Chern number 1; integer Chern numbers "
                   "equal to gap labels", got, _worst(got.values()), 1e-8, True)


def _rel_err(got: complex, want: complex, floor: float) -> float:
    return abs(got - want) / max(abs(want), floor)


def check_connes_formula_1(cfg: RunConfig) -> dict:
    ctx = cfg.context()
    triples, targets, floor = _cocycle_corpus(cfg, 50)
    values = [cc.ch_dix(*t, ctx, cfg.ladder) for t in triples]
    worst = _worst(_rel_err(v.value, want, floor) for v, want in zip(values, targets))
    return _record("connes-formula-1", "derivation-vs-dirac-character",
                   "relative error < 5% on the seeded corpus", worst,
                   worst, 0.05, _measured(*values))


def check_connes_formula_2(cfg: RunConfig) -> dict:
    ctx = cfg.context()
    triples, targets, floor = _cocycle_corpus(cfg, 20)
    route_i = [cc.tau2(*t, ctx, "reduced", cfg.ladder) for t in triples]
    route_ii = [cc.tau2(*t, ctx, "direct") for t in triples]
    got = {"route_i": _worst(_rel_err(v.value, w, floor) for v, w in zip(route_i, targets)),
           "route_ii": _worst(_rel_err(v.value, w, floor) for v, w in zip(route_ii, targets))}
    return _record("connes-formula-2", "fredholm-character-two-routes",
                   "route i < 5%, route ii < 10%", got, _worst(got.values()), 0.10,
                   got["route_i"] < 0.05 and _measured(*route_i, *route_ii))


def check_chi_triviality(cfg: RunConfig) -> dict:
    ctx = cfg.context()
    triples, projections = _corpus(cfg.seed, cfg.lb)
    values = ([cc.ch_hat(*t, ctx, cfg.ladder) for t in triples]
              + [cc.ch_hat(p, p, p, ctx, cfg.ladder) for p in projections])
    worst = _worst(abs(v.value) for v in values)
    # the vanishing theorem's hypotheses on the grading ch_hat reads: chi is a
    # self-adjoint involution that anticommutes with D's sector blocks,
    # commutes with every represented element, and is traceless, alone and
    # against Gamma
    chi, elements = cc.CHI_GRADING, [*(a for t in triples for a in t), *projections]
    levels = max(a.support_bound for a in elements) + 1
    window = np.kron(np.eye(levels), chi)
    blocks = sector_blocks(ctx, levels)
    reps = np.stack([sector_represent(a, ctx, levels) for a in elements])
    deviations = [chi @ chi - np.eye(4), chi - chi.conj().T,
                  window @ blocks + blocks @ window, window @ reps - reps @ window,
                  np.trace(chi), np.trace(chi @ cc.GAMMA_GRADING)]
    hypotheses = _worst(np.abs(d).max() for d in deviations)
    return _record("chi-triviality", "anticommuting-grading-character",
                   0.0, worst, worst, 1e-10, _measured(*values) and hypotheses <= 1e-12)


def check_quantized_calculus_structure(cfg: RunConfig) -> dict:
    ctx = cfg.context()
    rng_base, triples = cfg.seed * 4000, _corpus(cfg.seed, cfg.lb)[0]
    phi = cc.psi_cochain()
    worst_b = _worst(
        abs(cc.hochschild_b(phi, [alg.random_element(rng_base + 4 * t + s, 4, 1.0, cfg.lb)
                                  for s in range(4)]))
        for t in range(100))
    worst_cyc = _worst(abs(cc.psi(*t).value - cc.psi(t[2], t[0], t[1]).value)
                       for t in triples[:25])
    closed = [(cc.graded_two_form_trace(a1, a2, ctx, cfg.ladder), cc.two_form_scale(a1, a2, cfg.lb))
              for a1, a2, _ in triples[:5]]
    worst_closed = _worst(abs(v.value) / scale for v, scale in closed)
    y0 = alg.random_element(cfg.seed + 77, 4, 1.0, cfg.lb)
    swapped = [(cc.graded_one_form_product_trace(x0, x1, y0, y1, ctx, cfg.ladder),
                cc.graded_one_form_product_trace(y0, y1, x0, x1, ctx, cfg.ladder))
               for x0, x1, y1 in triples[:3]]
    anti_ok = all(abs(v12.value + v21.value) <= 3.0 * (v12.error + v21.error) + 1e-6
                  for v12, v21 in swapped)
    got = {"coboundary_of_cocycle": worst_b, "cyclicity": worst_cyc,
           "closedness_ratio": worst_closed, "graded_anticyclicity_ok": anti_ok}
    return _record("quantized-calculus-structure", "graded-trace-and-cocycle-laws",
                   "closed, cyclic, coboundary-free", got,
                   _worst((worst_b, worst_cyc, worst_closed)), 0.05,
                   worst_b <= 1e-9 and worst_cyc <= 1e-10 and anti_ok
                   and _measured(*(v for v, _ in closed), *(v for pair in swapped for v in pair)))


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


def _write(text: str, cfg: RunConfig):
    """``text`` to the ``--out`` path, or to stdout without one; a path that
    cannot be written is bad input."""
    if not cfg.out:
        sys.stdout.write(text)
        return
    try:
        Path(cfg.out).write_text(text)
    except OSError as exc:
        raise ConfigError(f"cannot write output file {cfg.out!r}: {exc.strerror}") from exc


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
    _write(text + "\n", cfg)


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


def cmd_verify_all(cfg: RunConfig, dry_run: bool) -> int:
    _d4_dixmier(cfg)  # reject a ladder criterion 3 cannot use before any check runs
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
    expected = None   # only the integer pairings have a target to compare with
    if which in ("gap-label", "chern"):
        if not alg.is_projection(el):
            raise ConfigError(f"{which} needs a projection input")
        val = cc.gap_label(el) if which == "gap-label" else cc.chern_number(el)
        ref, expected, tol = "integer-pairing", "integer", cfg.tol_exact
        v = cc.CocycleValue(val, "exact-algebraic", abs(val - round(val)), True)
    elif which == "nc-integral":
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
    rec = _record(which, ref, expected, v.value, v.error, tol, _measured(v))
    _emit({"config": cfg.echo(), "checks": [rec]}, cfg)
    return 0 if rec["pass"] else 1


def cmd_dixmier_ladder(cfg: RunConfig, target: str) -> int:
    """A ladder's logarithmic means and their estimate: d4 from ``spectra``,
    ncint:X and ch:X from the evaluations of ``invariant nc-integral/ch X``."""
    if target == "d4":
        v = _d4_dixmier(cfg)
    elif target.startswith(("ncint:", "ch:")):
        kind, text = target.split(":", 1)
        el = parse_element(text, cfg)
        v = (cc.nc_integral(el, cfg.context(), cfg.ladder) if kind == "ncint"
             else cc.ch_dix(el, el, el, cfg.context(), cfg.ladder))
    else:
        raise ConfigError(f"unknown ladder target {target!r}")
    fit = complex(v.value)
    lines = ["N,sigma_re,sigma_im,fit_re,fit_im,fit_stderr"]
    for n, sig in zip(v.ns, np.asarray(v.sigma, dtype=complex)):
        lines.append(f"{int(n)},{sig.real:.12g},{sig.imag:.12g},"
                     f"{fit.real:.12g},{fit.imag:.12g},{v.error:.6g}")
    _write("\n".join(lines) + "\n", cfg)
    return 0 if _sound(v.error, _measured(v), np.inf) else 1


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------

def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="magnc", description=__doc__)
    p.add_argument("--config", help="flat key = value configuration file")
    p.add_argument("--lb", type=float, help="magnetic length")
    p.add_argument("--eps", type=float, help="phase regularization")
    p.add_argument("--nmax", dest="n_max", type=int, help="level truncation")
    p.add_argument("--mmax", dest="m_max", type=int, help="degeneracy truncation")
    p.add_argument("--buffer", type=int, help="edge buffer (>= 2)")
    p.add_argument("--ladder", help="comma-separated extrapolation counts")
    p.add_argument("--tol-exact", dest="tol_exact", type=float)
    p.add_argument("--tol-dixmier", dest="tol_dixmier", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="output path (stdout when omitted)")
    p.add_argument("--format", choices=("json", "csv"))
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
    except (ConfigError, alg.TruncationError, OverflowError) as exc:
        # an input too wide for --nmax, or whose cocycle overflows double
        # precision, is bad input, like a malformed one
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - the exit-code contract wants 3
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
