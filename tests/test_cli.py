"""Command-line interface: config handling, report schema, exit codes."""

import json

import pytest

from magnc.algebra import random_element, save_element
from magnc.cli import ConfigError, RunConfig, build_config, main, make_parser, parse_element


def run_cli(args):
    return main(args)


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

    def test_infinite_magnetic_length_rejected(self):
        assert run_cli(["--lb", "inf", "invariant", "chern", "pi:0"]) == 2

    def test_non_increasing_ladder_rejected(self):
        assert run_cli(["--ladder", "5,4,3", "invariant", "nc-integral", "pi:0"]) == 2
        assert run_cli(["--ladder", "1,10,100", "dixmier-ladder", "d4"]) == 2
        assert run_cli(["--ladder", "10,100,inf", "dixmier-ladder", "d4"]) == 2


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


class TestSubcommands:
    def test_dry_run_lists_plan(self, tmp_path, capsys):
        out = tmp_path / "plan.json"
        rc = run_cli(["--out", str(out), "verify-all", "--dry-run"])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert len(payload["plan"]) == 9
        assert "representation-consistency" in payload["plan"]

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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_dixmier_ladder_non_finite_exits_one(self, tmp_path):
        # eps - 1 sits at the digamma pole: the sigma rows are infinite
        out = tmp_path / "ladder.csv"
        assert run_cli(["--eps", "1e-300", "--out", str(out), "dixmier-ladder", "d4"]) == 1
        assert "inf" in out.read_text()

    @pytest.mark.parametrize("which", ["nc-integral", "psi", "ch", "tau2"])
    @pytest.mark.parametrize("value, method", [
        (complex("nan"), "dixmier-extrapolated"),
        (1.0, "dixmier-extrapolated (flagged: not measurable at this truncation)"),
    ])
    def test_invariant_not_finite_or_flagged_fails(self, tmp_path, monkeypatch,
                                                    which, value, method):
        import magnc.cocycles as cc

        def fake(*args, **kwargs):
            return cc.CocycleValue(value, method, 0.0)

        for name in ("nc_integral", "psi", "ch_dix", "tau2"):
            monkeypatch.setattr(cc, name, fake)
        out = tmp_path / "r.json"
        assert run_cli(["--mmax", "128", "--out", str(out), "invariant", which, "pi:0"]) == 1
        assert json.loads(out.read_text())["checks"][0]["pass"] is False

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
