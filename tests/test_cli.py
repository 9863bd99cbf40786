"""Command-line interface: config handling, report schema, exit codes."""

import json

import numpy as np
import pytest

import magnc.algebra as alg
import magnc.cli as cli
from magnc.algebra import random_element, save_element
from magnc.cli import ConfigError, RunConfig, build_config, main, make_parser, parse_element
from magnc.cocycles import nc_integral
from magnc.spectra import shifted_resolvent_ladder


def run_cli(args):
    return main(args)


@pytest.fixture(autouse=True)
def passing_records_keep_their_tolerance(monkeypatch):
    """Every record these tests have the CLI write: a pass is within its
    tolerance."""
    emit = cli._emit

    def checked(payload, cfg):
        for rec in payload.get("checks", []):
            assert not rec["pass"] or rec["error"] <= rec["tolerance"], rec
        emit(payload, cfg)

    monkeypatch.setattr(cli, "_emit", checked)


class TestConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.lb == 1.0 and cfg.eps == 0.5
        assert cfg.n_max == 16 and cfg.m_max == 4096 and cfg.buffer == 4
        assert cfg.tol_exact == 1e-8 and cfg.tol_dixmier == 0.05

    def test_config_file_and_flag_overrides(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("lb = 2.0\nn_max = 8\nladder = 1e3,1e4,1e5\n# comment\n")
        args = make_parser().parse_args(
            ["--config", str(cfgfile), "--lb", "3.0", "verify-all", "--dry-run"]
        )
        cfg = build_config(args)
        assert cfg.lb == 3.0          # flag wins
        assert cfg.n_max == 8          # file applies
        assert cfg.ladder == [1000, 10000, 100000]

    def test_bad_config_line_rejected(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("lb 2.0\n")
        args = make_parser().parse_args(["--config", str(cfgfile), "verify-all"])
        with pytest.raises(ConfigError):
            build_config(args)

    def test_unknown_key_rejected(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("volume = 11\n")
        args = make_parser().parse_args(["--config", str(cfgfile), "verify-all"])
        with pytest.raises(ConfigError):
            build_config(args)

    def test_invalid_truncation_is_config_error_exit(self):
        assert run_cli(["--nmax", "1", "verify-all"]) == 2

    def test_empty_ladder_rejected(self):
        assert run_cli(["--ladder", "10", "dixmier-ladder", "d4"]) == 2

    def test_nan_regularization_rejected(self):
        assert run_cli(["--eps", "nan", "invariant", "nc-integral", "pi:0"]) == 2

    @pytest.mark.parametrize("lb, code", [("inf", 2), ("1e-160", 2), ("1e-200", 2),
                                          ("1e200", 2), ("1e-154", 0), ("1.3e154", 0)])
    @pytest.mark.parametrize("which", ["psi", "chern", "gap-label"])
    def test_magnetic_length_range(self, which, lb, code):
        # l_B^2 and l_B^-2 must both be finite and nonzero
        assert run_cli(["--lb", lb, "invariant", which, "pi:0"]) == code

    def test_unreadable_config_file_rejected(self, tmp_path):
        assert run_cli(["--config", str(tmp_path / "missing.cfg"), "verify-all", "--dry-run"]) == 2
        assert run_cli(["--config", str(tmp_path), "verify-all", "--dry-run"]) == 2

    @pytest.mark.parametrize("command", [["verify-all", "--dry-run"],
                                         ["invariant", "psi", "pi:0"],
                                         ["dixmier-ladder", "d4"]])
    def test_unwritable_output_path_rejected(self, tmp_path, capsys, command):
        # a directory, and a file in a directory that does not exist
        for out in (tmp_path, tmp_path / "missing" / "r.json"):
            assert run_cli(["--out", str(out)] + command) == 2
            assert "cannot write output file" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["invariant", "nc-integral", "pi:0"],
        ["invariant", "ch", "pi:0"],
        ["invariant", "tau2", "pi:0"],
        ["dixmier-ladder", "d4"],
    ], ids=["nc-integral", "ch", "tau2", "dixmier-ladder-d4"])
    def test_eps_on_the_resolvent_pole_rejected(self, command):
        # eps - 1 rounds to -1, the pole of the shifted resolvent ladders
        assert run_cli(["--eps", "1e-300"] + command) == 2

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-0.5"])
    @pytest.mark.parametrize("flag", ["--tol-exact", "--tol-dixmier"])
    def test_bad_tolerance_flag_rejected(self, flag, value):
        assert run_cli([flag, value, "invariant", "psi", "pi:0"]) == 2

    @pytest.mark.parametrize("key", ["tol_exact", "tol-dixmier"])
    def test_bad_tolerance_in_config_file_rejected(self, tmp_path, key):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"{key} = nan\n")
        assert run_cli(["--config", str(cfgfile), "invariant", "psi", "pi:0"]) == 2

    def test_negative_seed_rejected(self, tmp_path):
        # default_rng takes no negative seed; the flag and the file are both
        # configuration errors, before any check runs
        assert run_cli(["--seed", "-1", "verify-all", "--dry-run"]) == 2
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("seed = -3\n")
        args = make_parser().parse_args(["--config", str(cfgfile), "verify-all"])
        with pytest.raises(ConfigError):
            build_config(args)

    def test_non_increasing_ladder_rejected(self):
        assert run_cli(["--ladder", "5,4,3", "invariant", "nc-integral", "pi:0"]) == 2
        assert run_cli(["--ladder", "1,10,100", "dixmier-ladder", "d4"]) == 2
        assert run_cli(["--ladder", "10,100,inf", "dixmier-ladder", "d4"]) == 2

    def test_non_integer_ladder_rungs_rejected(self, tmp_path, capsys):
        # a rung is never truncated: 10.5,100.7,1000 is not 10,100,1000
        assert run_cli(["--ladder", "10.5,100.7,1000", "dixmier-ladder", "d4"]) == 2
        assert "ladder rungs must be integers" in capsys.readouterr().err
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("ladder = 10,100.5,1000\n")
        args = make_parser().parse_args(["--config", str(cfgfile), "verify-all"])
        with pytest.raises(ConfigError, match="ladder rungs must be integers"):
            build_config(args)

    def test_ladder_collapsing_onto_one_d4_cut_rejected(self, tmp_path, capsys):
        # 1000, 1001 and 1002 all round to the level cut J = 22; the ladder
        # is fine where the counts are used as given
        for command in (["dixmier-ladder", "d4"], ["verify-all"]):
            assert run_cli(["--ladder", "1000,1001,1002"] + command) == 2
            err = capsys.readouterr().err
            assert "[1000, 1001, 1002] -> J = 22" in err
            assert "[PASS]" not in err and "[FAIL]" not in err   # no check ran
        out = tmp_path / "ncint.json"
        assert run_cli(["--ladder", "1000,1001,1002", "--out", str(out),
                        "invariant", "nc-integral", "pi:0"]) == 0


class TestElementInputs:
    def test_builtin_projections(self):
        cfg = RunConfig()
        p = parse_element("pi:2", cfg)
        assert p.coeff(2, 2) == 1.0
        s = parse_element("pi-sum:0..2", cfg)
        assert sum(s.coeff(j, j) for j in range(3)) == 3.0

    def test_element_file(self, tmp_path):
        a = random_element(3, 4, 1.0)
        path = tmp_path / "a.json"
        save_element(a, path)
        cfg = RunConfig()
        b = parse_element(str(path), cfg)
        assert a.allclose(b, tol=1e-15)

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            parse_element("does-not-exist.json", RunConfig())

    @pytest.mark.parametrize("which", ["psi", "chern", "nc-integral", "tau2"])
    @pytest.mark.parametrize("bad", [
        '[{"j": 0, "k": 0, "re": NaN, "im": 0.0}]',
        '[{"j": -1, "k": 0, "re": 1.0, "im": 0.0}]',
        '{"j": 0, "k": 0, "re": 1.0, "im": 0.0}',
        '[{"j": 1.5, "k": 0, "re": 1.0, "im": 0.0}]',
        '[{"j": 0, "k": true, "re": 1.0, "im": 0.0}]',
        '[{"j": "2", "k": 0, "re": 1.0, "im": 0.0}]',
        '[{"j": 0, "k": 0, "re": true, "im": 0.0}]',
        '[{"j": 10000000, "k": 0, "re": 1.0, "im": 0.0}]',
        "pi:x", "pi:-1", "pi-sum:2..0",
    ], ids=["nan-coefficient", "negative-index", "object-not-list", "float-index",
            "bool-index", "string-index", "bool-coefficient", "unallocatable-index",
            "pi-not-integer", "pi-negative", "pi-sum-empty"])
    def test_bad_element_input_is_a_configuration_error(self, tmp_path, which, bad):
        if not bad.startswith("pi"):
            path = tmp_path / "a.json"
            path.write_text(bad)
            bad = str(path)
        assert run_cli(["invariant", which, bad]) == 2

    @pytest.mark.parametrize("which", ["nc-integral", "ch", "tau2"])
    def test_support_beyond_the_truncation_is_a_configuration_error(self, which):
        assert run_cli(["--nmax", "16", "invariant", which, "pi:40"]) == 2

    @staticmethod
    def big_element(tmp_path, coefficient: float) -> str:
        """A three-record element file whose coefficients are all ``coefficient``."""
        path = tmp_path / "big.json"
        path.write_text(json.dumps([{"j": j, "k": k, "re": coefficient, "im": 0.0}
                                    for j, k in ((0, 0), (1, 0), (0, 1))]))
        return str(path)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command, coefficient", [
        (("invariant", "psi"), 1e200), (("invariant", "chern"), 1e200),
        (("invariant", "ch"), 1e200), (("invariant", "tau2"), 1e200),
        (("invariant", "nc-integral"), 1e307), (("dixmier-ladder", "ncint:"), 1e307),
        (("dixmier-ladder", "ch:"), 1e200)],
        ids=["psi", "chern", "ch", "tau2", "nc-integral", "ladder-ncint", "ladder-ch"])
    def test_cocycle_overflowing_double_precision_is_a_configuration_error(
            self, tmp_path, capsys, command, coefficient):
        # finite coefficients whose cocycle products or Dixmier ladders leave
        # double precision: one configuration-error line and no floating-point
        # warning (raised as an error here, a warning would exit 3).  The
        # trace is linear, so its ladders overflow only near the top of the
        # double range
        path = self.big_element(tmp_path, coefficient)
        verb, target = command
        args = [verb, target + path] if target.endswith(":") else [verb, target, path]
        assert run_cli(args) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("configuration error:"), err

    @pytest.mark.filterwarnings("error")
    def test_representable_trace_of_a_large_element_is_read(self, tmp_path):
        # tau(A) = 1e200 is a double: the ladder reads it within its error,
        # and the record is judged, not refused as a configuration error
        out = tmp_path / "r.json"
        assert run_cli(["--out", str(out), "invariant", "nc-integral",
                        self.big_element(tmp_path, 1e200)]) in (0, 1)
        rec = json.loads(out.read_text())["checks"][0]
        assert rec["got"]["im"] == 0.0
        assert abs(rec["got"]["re"] - 1e200) <= rec["error"] <= 1e-5 * 1e200

    def test_internal_value_error_still_exits_three(self, monkeypatch, capsys):
        def broken(*args):
            raise ValueError("coefficients must be finite")

        monkeypatch.setattr(cli.cc, "psi", broken)
        assert run_cli(["invariant", "psi", "pi:0"]) == 3
        assert capsys.readouterr().err.startswith("internal error: ValueError")


class TestSubcommands:
    def test_dry_run_lists_plan(self, tmp_path, capsys):
        out = tmp_path / "plan.json"
        rc = run_cli(["--out", str(out), "verify-all", "--dry-run"])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert len(payload["plan"]) == 9
        assert "representation-consistency" in payload["plan"]

    def test_global_dry_run_is_a_usage_error(self, monkeypatch, capsys):
        import magnc.cli as cli

        ran = []

        def recording_check(cfg):
            ran.append(cfg)
            raise AssertionError("a check ran")

        monkeypatch.setattr(cli, "CHECKS", [("s", recording_check)])
        with pytest.raises(SystemExit) as exc:
            run_cli(["--dry-run", "verify-all"])
        assert exc.value.code == 2
        assert ran == []

    def test_invariant_chern(self, tmp_path):
        out = tmp_path / "r.json"
        rc = run_cli(["--out", str(out), "invariant", "chern", "pi:0"])
        assert rc == 0
        rec = json.loads(out.read_text())["checks"][0]
        assert rec["pass"] and abs(rec["got"] - 1.0) < 1e-8
        assert "paper_ref" in rec and "tolerance" in rec

    def test_invariant_gap_label_sum(self, tmp_path):
        out = tmp_path / "r.json"
        rc = run_cli(["--out", str(out), "invariant", "gap-label", "pi-sum:0..2"])
        assert rc == 0
        rec = json.loads(out.read_text())["checks"][0]
        assert rec["got"] == pytest.approx(3.0, abs=1e-9)

    def test_invariant_rejects_non_projection(self, tmp_path):
        a = random_element(5, 3, 1.0)
        path = tmp_path / "a.json"
        save_element(a, path)
        rc = run_cli(["invariant", "chern", str(path)])
        assert rc == 2

    def test_invariant_nc_integral(self, tmp_path):
        out = tmp_path / "r.json"
        rc = run_cli(
            ["--out", str(out), "--mmax", "256", "invariant", "nc-integral", "pi:0"]
        )
        assert rc == 0
        rec = json.loads(out.read_text())["checks"][0]
        assert abs(rec["got"]["re"] - 1.0) < 0.02

    def test_close_rungs_are_not_read_as_convergence(self, tmp_path):
        # the last increments shrink because the rungs close up (log spacing
        # 4.6, 0.01, 1e-4), not because the partial sums converge: tau(P0) = 1
        out = tmp_path / "r.json"
        assert run_cli(["--ladder", "100,10000,10100,10101", "--out", str(out),
                        "invariant", "nc-integral", "pi:0"]) == 0
        rec = json.loads(out.read_text())["checks"][0]
        assert abs(rec["got"]["re"] - 1.0) < 0.02

    def test_dixmier_ladder_csv(self, tmp_path):
        out = tmp_path / "ladder.csv"
        rc = run_cli(["--out", str(out), "dixmier-ladder", "d4"])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "N,sigma_re,sigma_im,fit_re,fit_im,fit_stderr"
        assert len(lines) == 6
        fit = float(lines[1].split(",")[3])
        assert abs(fit - 2.0) < 0.04

    def test_dixmier_ladder_ncint(self, tmp_path):
        out = tmp_path / "ladder.csv"
        rc = run_cli(["--out", str(out), "dixmier-ladder", "ncint:pi:0"])
        assert rc == 0
        fit = float(out.read_text().strip().splitlines()[1].split(",")[3])
        assert abs(fit - 1.0) < 0.02

    @pytest.mark.parametrize("target, counts", [
        ("d4", [1012, 10224, 100800, 1001112, 10003864]),   # J = 22, 71, 224, 707, 2236
        ("ncint:pi:0", list(cli.spx.DEFAULT_LADDER)), ("ch:pi:1", list(cli.spx.DEFAULT_LADDER))])
    def test_dixmier_ladder_n_column_holds_the_fitted_counts(self, tmp_path, target, counts):
        # d4 sits at its level cuts N = 2 J (J + 1), the sector ladders at the ladder
        out = tmp_path / "ladder.csv"
        assert run_cli(["--out", str(out), "dixmier-ladder", target]) == 0
        assert [int(line.split(",")[0]) for line in
                out.read_text().strip().splitlines()[1:]] == counts

    def test_dixmier_ladder_non_finite_exits_one(self, tmp_path, monkeypatch):
        import magnc.spectra as spx

        exact = spx.d4_partial_sums

        def infinite_row(eps, ladder):
            ns, sums = exact(eps, ladder)
            sums[1] = np.inf
            return ns, sums

        monkeypatch.setattr(spx, "d4_partial_sums", infinite_row)
        out = tmp_path / "ladder.csv"
        assert run_cli(["--out", str(out), "dixmier-ladder", "d4"]) == 1
        assert "inf" in out.read_text()

    @pytest.mark.parametrize("which", ["nc-integral", "psi", "ch", "tau2"])
    @pytest.mark.parametrize("value, measurable", [(complex("nan"), True), (1.0, False)])
    def test_invariant_not_finite_or_flagged_fails(self, tmp_path, monkeypatch,
                                                    which, value, measurable):
        import magnc.cocycles as cc

        def fake(*args, **kwargs):
            return cc.CocycleValue(value, "dixmier-extrapolated", 0.0, measurable)

        for name in ("nc_integral", "psi", "ch_dix", "tau2"):
            monkeypatch.setattr(cc, name, fake)
        out = tmp_path / "r.json"
        assert run_cli(["--mmax", "128", "--out", str(out), "invariant", which, "pi:0"]) == 1
        assert json.loads(out.read_text())["checks"][0]["pass"] is False

    @pytest.mark.parametrize("command", [
        ["invariant", "nc-integral", "pi:1"], ["invariant", "ch", "pi:1"],
        ["invariant", "tau2", "pi:1"], ["dixmier-ladder", "ch:pi:1"],
    ], ids=["nc-integral", "ch", "tau2", "dixmier-ladder-ch"])
    def test_dixmier_invariant_fails_where_a_block_is_not_measurable(self, tmp_path, command):
        # at 3, 10, 100 most block ladders of a Chern-1 projection are not
        # measurable; at the default ladder every one is
        out = tmp_path / "r.out"
        assert run_cli(["--ladder", "3,10,100", "--out", str(out)] + command) == 1
        if command[0] == "invariant":
            assert json.loads(out.read_text())["checks"][0]["pass"] is False
        assert run_cli(["--out", str(out)] + command) == 0
        if command[0] == "invariant":
            assert json.loads(out.read_text())["checks"][0]["pass"] is True

    @pytest.mark.parametrize("eps, command", [
        ("1e20", ["invariant", "nc-integral", "pi:0"]), ("1e300", ["invariant", "ch", "pi:1"]),
        ("1e300", ["invariant", "tau2", "pi:1"]), ("1e20", ["dixmier-ladder", "ncint:pi:0"]),
        ("1e300", ["dixmier-ladder", "ch:pi:1"]),
    ], ids=["eps1e20-nc-integral", "eps1e300-ch", "eps1e300-tau2",
            "eps1e20-dixmier-ladder-ncint", "eps1e300-dixmier-ladder-ch"])
    def test_dixmier_invariant_fails_where_the_shift_passes_the_top_rung(
            self, tmp_path, eps, command):
        # at such shifts the block sums are at most ~1e-13 or exactly 0.0,
        # which the fit alone would report as a measurable value
        out = tmp_path / "r.out"
        assert run_cli(["--eps", eps, "--out", str(out)] + command) == 1
        if command[0] == "invariant":
            assert json.loads(out.read_text())["checks"][0]["pass"] is False

    @pytest.mark.parametrize("which", ["nc-integral", "ch", "tau2"])
    def test_tol_dixmier_binds(self, tmp_path, which):
        out = tmp_path / "r.json"
        assert run_cli(["--tol-dixmier", "1e-300", "--out", str(out),
                        "invariant", which, "pi:1"]) == 1
        rec = json.loads(out.read_text())["checks"][0]
        assert rec["pass"] is False and rec["error"] > rec["tolerance"] == 1e-300
        assert run_cli(["--out", str(out), "invariant", which, "pi:1"]) == 0

    @pytest.mark.parametrize("eps", [None, "1"], ids=["default-eps", "eps1"])
    @pytest.mark.parametrize("text", [f"pi:{j}" for j in range(6)] + ["pi-sum:0..2"])
    def test_dixmier_ladder_is_the_invariant(self, tmp_path, text, eps):
        # the dump's fit and stderr are the record's got and error, and the
        # ncint rows are the quarter-weighted sum of the four block ladders
        flags = ["--out", str(tmp_path / "r.out")] + (["--eps", eps] if eps else [])
        for target, which in (("ncint", "nc-integral"), ("ch", "ch")):
            assert run_cli(flags + ["invariant", which, text]) == 0
            rec = json.loads((tmp_path / "r.out").read_text())["checks"][0]
            assert run_cli(flags + ["dixmier-ladder", f"{target}:{text}"]) == 0
            rows = [line.split(",") for line in
                    (tmp_path / "r.out").read_text().strip().splitlines()[1:]]
            want = [f"{rec['got']['re']:.12g}", f"{rec['got']['im']:.12g}",
                    f"{rec['error']:.6g}"]
            assert all(row[3:] == want for row in rows)
            if target == "ncint":
                cfg = RunConfig(eps=float(eps or 0.5))
                el = parse_element(text, cfg)
                sigma = nc_integral(el, cfg.context(), cfg.ladder).sigma
                assert [row[1:3] for row in rows] == [
                    [f"{x.real:.12g}", f"{x.imag:.12g}"] for x in sigma]
                sums = sum(0.25 * shifted_resolvent_ladder(np.diag(el.block), xi, cfg.ladder)[1]
                           for xi in cfg.context().shifted_energies())
                np.testing.assert_allclose(sigma, sums / np.log(cfg.ladder), rtol=1e-12)

    def test_dixmier_ladder_unknown_target(self):
        assert run_cli(["dixmier-ladder", "d5"]) == 2

    def test_report_determinism(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        base = ["--mmax", "128", "--seed", "7"]
        assert run_cli(base + ["--out", str(out1), "invariant", "ch", "pi:0"]) == 0
        assert run_cli(base + ["--out", str(out2), "invariant", "ch", "pi:0"]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestCsvReports:
    def test_invariant_report_as_csv(self, tmp_path):
        out = tmp_path / "r.csv"
        rc = run_cli(["--format", "csv", "--out", str(out),
                      "invariant", "gap-label", "pi:0"])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "name,paper_ref,expected,got,error,tolerance,pass"
        assert lines[1].startswith('"gap-label"')
        assert '"true"' in lines[1].lower()


class TestVerifyAll:
    def test_registry_covers_every_criterion_once(self):
        from magnc.cli import CHECKS

        names = [fn.__name__ for _, fn in CHECKS]
        assert len(names) == len(set(names)) == 9

    def test_tol_dixmier_cannot_loosen_an_acceptance_check(self):
        from magnc.cli import check_connes_formula_1

        rec = check_connes_formula_1(RunConfig(tol_dixmier=10.0))
        assert rec["tolerance"] == 0.05

    @pytest.mark.parametrize("check", ["check_chi_triviality",
                                       "check_quantized_calculus_structure"])
    def test_unmeasurable_dixmier_value_fails_its_check(self, check):
        # at the ladder 5, 20, 80 the values these checks read are not
        # measurable, though their errors sit within the tolerances
        rec = getattr(cli, check)(RunConfig(ladder=[5, 20, 80]))
        assert rec["error"] <= rec["tolerance"]
        assert rec["pass"] is False

    def test_nan_character_is_the_error_of_connes_formula_1(self, monkeypatch):
        # a NaN for the third triple is not dropped by a running maximum
        calls = []

        def ch_dix(a0, a1, a2, ctx, ladder):
            calls.append(None)
            want = 1j * cli.cc.psi(a0, a1, a2).value
            return cli.cc.CocycleValue(np.nan if len(calls) == 3 else want, "stub", 0.0, True)

        monkeypatch.setattr(cli.cc, "ch_dix", ch_dix)
        rec = cli.check_connes_formula_1(RunConfig())
        assert np.isnan(rec["error"]) and rec["pass"] is False

    def test_nan_trace_per_unit_volume_fails_representation_consistency(self, monkeypatch):
        monkeypatch.setattr(cli.ker, "trace_per_unit_volume",
                            lambda *args: [1.0, np.nan, 1.0, 1.0, 1.0])
        rec = cli.check_representation_consistency(RunConfig())
        assert np.isnan(rec["got"]["trace_per_unit_volume"]) and rec["pass"] is False

    @pytest.mark.parametrize("seed", [1, 7])
    def test_quasi_even_products_pass_at_seed(self, seed):
        # verify_quasi_even on the check's inputs: at these seeds the second
        # pair's octave sums rise over a pre-asymptotic head before the
        # summable r^-1.43 tail
        from magnc.cli import check_singular_value_laws

        rec = check_singular_value_laws(RunConfig(seed=seed))
        assert rec["got"]["quasi_even_ok"] and rec["pass"]

    def test_exit_codes_and_partial_report(self, tmp_path, monkeypatch):
        import magnc.cli as cli

        def ok_check(cfg):
            return {"name": "ok", "paper_ref": "plumbing", "expected": 1,
                    "got": 1, "error": 0.0, "tolerance": 0.1, "pass": True}

        def failing_check(cfg):
            return {"name": "bad", "paper_ref": "plumbing", "expected": 0,
                    "got": 1, "error": 1.0, "tolerance": 0.1, "pass": False}

        def raising_check(cfg):
            raise ValueError("support exceeds truncation")

        out = tmp_path / "r.json"
        monkeypatch.setattr(cli, "CHECKS", [("s", ok_check)])
        assert run_cli(["--out", str(out), "verify-all"]) == 0

        monkeypatch.setattr(
            cli, "CHECKS", [("s", ok_check), ("s", failing_check)]
        )
        assert run_cli(["--out", str(out), "verify-all"]) == 1
        payload = json.loads(out.read_text())
        assert [c["pass"] for c in payload["checks"]] == [True, False]

        # a precondition failure is reported and still exits nonzero
        monkeypatch.setattr(cli, "CHECKS", [("s", raising_check)])
        assert run_cli(["--out", str(out), "verify-all"]) == 1
        payload = json.loads(out.read_text())
        assert "precondition failure" in payload["checks"][0]["got"]

    def test_too_few_labels_for_route_ii_is_a_precondition_failure(self):
        from magnc.cli import check_connes_formula_2, run_check

        rec = run_check("s", check_connes_formula_2, RunConfig(m_max=64))
        assert rec["got"].startswith("precondition failure: route ii's witness needs five "
                                     "distinct L = m_max / 2^k, k < 5, above the series radius")
        assert not rec["pass"]

    def test_runtime_error_keeps_the_other_records(self, tmp_path, monkeypatch):
        import magnc.cli as cli

        def passing(name):
            def check(cfg):
                return cli._record(name, "plumbing", 1, 1, 0.0, 0.1, True)
            return check

        def check_unstable(cfg):
            raise RuntimeError("stable prefix too short (12); increase the truncation")

        checks = [("s", passing(f"ok-{i}")) for i in range(8)]
        checks.insert(1, ("s", check_unstable))
        monkeypatch.setattr(cli, "CHECKS", checks)
        out = tmp_path / "r.json"
        assert run_cli(["--out", str(out), "verify-all"]) == 1
        records = json.loads(out.read_text())["checks"]
        assert len(records) == 9
        assert [r["pass"] for r in records] == [True, False] + [True] * 7
        assert records[1]["name"] == "unstable"
        assert records[1]["got"].startswith("RuntimeError: stable prefix too short")


class TestCorpus:
    @pytest.mark.parametrize("seed", [1, 370])
    @pytest.mark.parametrize("lb", [1.0, 2.0])
    def test_corpus_is_the_seeded_triples_and_projections(self, seed, lb):
        # the checks' inputs, element for element and in order; the Landau
        # levels come first, as chern-integrality-streda reads level_dev off
        # the first six projections
        triples = [[random_element(1000 * seed + 3 * t + s, 4, 1.0, lb) for s in range(3)]
                   for t in range(50)]
        projections = ([alg.landau_projection(j, lb) for j in range(6)]
                       + [alg.projection_sum((0, 1), lb)]
                       + [alg.conjugated_projection(seed + 100 + s, 5, lb) for s in range(6)])
        got_triples, got_projections = cli._corpus(seed, lb)

        def coefficients(elements):
            return [(a.block.shape, a.block.tobytes(), a.lb) for a in elements]

        assert [len(t) for t in got_triples] == [3] * 50
        assert (coefficients(a for t in got_triples for a in t)
                == coefficients(a for t in triples for a in t))
        assert coefficients(got_projections) == coefficients(projections)

    def test_a_pass_builds_the_corpus_once(self, monkeypatch):
        # seed 1: quantized-calculus-structure's coboundary seeds (4000 seed
        # onwards) stay clear of the corpus range [1000 seed, 1000 seed + 150)
        seeds, conjugations = [], []
        draw, conjugate = alg.random_element, alg.conjugated_projection

        def counted_draw(seed, *args):
            seeds.append(seed)
            return draw(seed, *args)

        def counted_conjugate(*args):
            conjugations.append(args)
            return conjugate(*args)

        monkeypatch.setattr(alg, "random_element", counted_draw)
        monkeypatch.setattr(alg, "conjugated_projection", counted_conjugate)
        cli._corpus.cache_clear()
        counts = []
        for _ in range(2):
            seeds.clear()
            conjugations.clear()
            for stage, fn in cli.CHECKS:
                cli.run_check(stage, fn, RunConfig(seed=1))
            counts.append((sum(1000 <= s < 1150 for s in seeds), len(conjugations)))
        assert counts == [(150, 6), (0, 0)]
