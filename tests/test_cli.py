import configparser
import contextlib
import csv
import dataclasses
import hashlib
import io
import math
import re
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

from nsfk import cli, dissipativity, linear_evolution, symbols, thermo
from nsfk.cli import SCHEMA, ConfigError, RunConfig, main
from nsfk.nonlinear_solver import LEDGER_COLUMNS
from nsfk.reports import _column, write_csv
from oracles import csv_module_write_csv, per_node_propagator

BASE = """
[closure]
type = ideal_gas
R = 1.0
gamma = 1.6666666666666667
kappa0 = {kappa0}
mu0 = 1.0
alpha0 = 1.0

[equilibrium]
rho = 1.0
u = 0.0
theta = 1.0

[domain]
rho_min = 0.1
theta_min = 0.1
rho_max = 3.0
theta_max = 3.0

[thermo]
n_samples = 20

[symbol]
xi_min = 1e-3
xi_max = 1e3
n_xi = 301
eps =
cert_xi_max = 100.0
cert_n_xi = 501
lyapunov_delta = 0.05

[linear]
n_nodes = 512
xi_cap = 200.0
h0 = 1e-4
profile = gaussian
ell = 0
t_min = 0.1
t_max = 1e4
n_times = 25
fit_t_min = 1e2
fit_t_max = 1e4

[nonlinear]
length = 100.0
n = 512
dt = 0.02
t_final = 30.0
scheme = if-rk4
shape = gaussian
amplitude = {amplitude}
width = 3.0
fields = rho
sample_every = 50
fit_t_min = 10.0
"""


@pytest.fixture
def config_file(tmp_path):
    def write(kappa0="1.0", amplitude="1e-2", extra=""):
        text = BASE.format(kappa0=kappa0, amplitude=amplitude) + textwrap.dedent(extra)
        path = tmp_path / "run.ini"
        path.write_text(text)
        return path

    return write


def set_keys(path, section, values):
    """Rewrite ``key = value`` lines of one section of the config at ``path``."""
    head, body = path.read_text().split(f"[{section}]\n", 1)
    end = body.find("\n[")
    end = len(body) if end < 0 else end
    block = body[:end]
    for key, value in values.items():
        block, n = re.subn(rf"(?m)^{key} =.*$", f"{key} = {value}", block)
        assert n == 1, key
    path.write_text(f"{head}[{section}]\n{block}{body[end:]}")


BAD_VALUES = [
    ("analyze-symbol", "symbol", {"eps": "5"}),
    ("analyze-symbol", "symbol", {"lyapunov_delta": "-1"}),
    ("analyze-symbol", "symbol", {"cert_n_xi": "0"}),
    ("analyze-symbol", "symbol", {"cert_n_xi": "-1"}),
    ("analyze-symbol", "symbol", {"cert_n_xi": "100000000000"}),
    ("analyze-symbol", "symbol", {"cert_xi_max": "0"}),
    ("analyze-symbol", "symbol", {"xi_min": "1"}),
    ("analyze-symbol", "symbol", {"xi_max": "1"}),
    ("analyze-symbol", "symbol", {"xi_max": "nan"}),
    ("linear-decay", "linear", {"n_nodes": "2"}),
    ("linear-decay", "linear", {"xi_cap": "-1"}),
    ("linear-decay", "linear", {"xi_cap": "0"}),
    ("linear-decay", "linear", {"h0": "0"}),
    ("linear-decay", "linear", {"h0": "-1"}),
    ("linear-decay", "linear", {"h0": "1.0"}),
    ("linear-decay", "linear", {"ell": "-1"}),
    ("linear-decay", "linear", {"profile": "zero_mass_gaussian"}),
    ("nonlinear-run", "nonlinear", {"n": "1000"}),
    ("nonlinear-run", "nonlinear", {"length": "-5"}),
    ("nonlinear-run", "nonlinear", {"scheme": "foo"}),
    ("nonlinear-run", "nonlinear", {"scheme": "rk4"}),
    ("nonlinear-run", "nonlinear", {"shape": "square"}),
    ("nonlinear-run", "nonlinear", {"fields": ","}),
    ("nonlinear-run", "nonlinear", {"t_final": "1", "fit_t_min": "2"}),
    ("nonlinear-run", "nonlinear", {"t_final": "inf"}),
    ("nonlinear-run", "nonlinear", {"t_final": "30.01"}),
    ("nonlinear-run", "nonlinear", {"shape": "wave_packet", "amplitude": "5"}),
]


# the subcommand that each config section is swept through
SWEEP_COMMANDS = {"closure": "verify-thermo", "domain": "verify-thermo",
                  "thermo": "verify-thermo",
                  "equilibrium": "analyze-symbol", "symbol": "analyze-symbol",
                  "linear": "linear-decay", "nonlinear": "nonlinear-run"}


# the extremes of binary64 each numeric key is swept to as well
EXTREMES = ("1e300", "-1e300", "1e-300", "1e154")
# the extremes that once raised LinAlgError out of main, or gave verdicts
# from overflowed arithmetic: a symbol, a set of equilibrium coefficients,
# conserved quantities (u = 1e300) or an entropy Hessian that is not finite,
# or an A0 whose last entry underflows to 0 (theta = 1e300)
OVERFLOWS = [("symbol", "xi_max", "1e154"), ("symbol", "xi_max", "1e300"),
             ("symbol", "cert_xi_max", "1e154"), ("symbol", "cert_xi_max", "1e300"),
             ("equilibrium", "rho", "1e154"), ("equilibrium", "theta", "1e-300"),
             ("equilibrium", "u", "1e300"), ("equilibrium", "theta", "1e300"),
             ("domain", "rho_min", "1e-300"), ("domain", "theta_min", "1e-300"),
             ("domain", "rho_max", "1e300"), ("linear", "ell", "1e154"),
             ("linear", "ell", "1e300")]


def _sweep(tmp_path, section, base=None, values=("0", "-1", "1")):
    """Run the section's command with each SCHEMA key of it at each of ``values``.

    ``base`` overrides keys of the section first.  Returns, by (section,
    key, value), the exit code and stderr of each run, or the repr of the
    exception it raised out of main in place of the code.
    """
    runs = {}
    for key in SCHEMA[section]:
        for value in values:
            parser = configparser.ConfigParser()
            parser.read_string(BASE.format(kappa0="1.0", amplitude="1e-2"))
            parser[section].update({**(base or {}), key: value})
            path = tmp_path / "sweep.ini"
            with open(path, "w") as fh:
                parser.write(fh)
            err = io.StringIO()
            try:
                with contextlib.redirect_stderr(err):
                    code = main([SWEEP_COMMANDS[section], "--config", str(path),
                                 "--out", str(tmp_path / "o"), "--quiet"])
            except Exception as exc:  # noqa: BLE001 -- collected by the caller
                code = repr(exc)
            runs[section, key, value] = code, err.getvalue()
    return runs


def _escaped(runs):
    """The runs that raised out of main or exited with a code other than 0, 1
    or 2."""
    return {run: code for run, (code, _) in runs.items() if code not in (0, 1, 2)}


class TestConfigValidation:
    def test_missing_file(self, tmp_path, capsys):
        code = main(["verify-thermo", "--config", str(tmp_path / "nope.ini"),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_bad_gamma_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text("[closure]\ngamma = 0.5\n")
        code = main(["verify-thermo", "--config", str(path),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "gamma" in capsys.readouterr().err

    def test_section(self, config_file, tmp_path):
        cfg = RunConfig.load(config_file())
        closure = cfg.section("closure")
        assert closure["R"] == 1.0 and closure["type"] == "ideal_gas"
        assert cfg.section("thermo") == {"n_samples": 20}
        assert cfg.section("symbol")["eps"] is None         # blank value
        assert cfg.section("nonlinear")["fields"] == ("rho",)
        empty = tmp_path / "empty.ini"
        empty.write_text("")
        cfg = RunConfig.load(empty)
        assert cfg.section("linear")["n_nodes"] == 4096
        assert cfg.section("linear")["fit_t_max"] == cfg.section("linear")["t_max"]
        assert cfg.section("linear")["profile_csv"] is None
        for text, message in (("[thermo]\nn_samples = 2.5\n", "n_samples: '2.5'"),
                              ("[thermo]\nn_samples = 0\n", "must be >= 1"),
                              ("[closure]\ngamma = nan\n", "gamma: 'nan'"),
                              ("[closure]\ndT = 0.1\n", "unknown key [closure] dt")):
            empty.write_text(text)
            section = text[1:text.index("]")]
            with pytest.raises(ConfigError, match=re.escape(message)):
                RunConfig.load(empty).section(section)

    @pytest.mark.parametrize("command,section", [
        ("verify-thermo", "domain"), ("analyze-symbol", "symbol"),
        ("linear-decay", "linear"), ("nonlinear-run", "equilibrium")])
    def test_unknown_key_rejected(self, config_file, tmp_path, capsys, command,
                                  section):
        path = config_file()
        path.write_text(path.read_text().replace(f"[{section}]\n",
                                                 f"[{section}]\nTypo = 1\n"))
        code = main([command, "--config", str(path), "--out", str(tmp_path / "o"),
                     "--quiet"])
        assert code == 2
        assert f"unknown key [{section}] typo" in capsys.readouterr().err

    def test_entropy_pair_checked_before_hypotheses(self, config_file, tmp_path,
                                                    capsys, monkeypatch):
        # the entropy pair is checked on a fixed lattice: a config that
        # still has the section of its sample count and step exits 2
        def never(*args, **kwargs):
            raise AssertionError("verify_hypotheses ran before validation")

        monkeypatch.setattr(thermo, "verify_hypotheses", never)
        path = config_file(extra="[entropy_pair]\nn_samples = 100\nfd_step = 1e-5\n")
        code = main(["verify-thermo", "--config", str(path), "--out",
                     str(tmp_path / "o"), "--quiet"])
        assert code == 2
        assert ("config error: undeclared section [entropy_pair]"
                in capsys.readouterr().err)

    def test_huge_size_key_rejected(self, config_file, tmp_path, capsys):
        path = config_file()
        set_keys(path, "symbol", {"n_xi": "100000000000"})
        code = main(["analyze-symbol", "--config", str(path), "--out",
                     str(tmp_path / "o"), "--quiet"])
        assert code == 2
        assert capsys.readouterr().err == (
            "config error: bad value for [symbol] n_xi: '100000000000' "
            "(must be in [10, 1000000])\n")

    def test_out_of_memory_is_a_config_error(self, config_file, tmp_path, capsys):
        # a 10^7 x 10^7 hypotheses grid is 800 TB: no allocator grants it
        path = config_file()
        set_keys(path, "thermo", {"n_samples": "10000000"})
        code = main(["verify-thermo", "--config", str(path), "--out",
                     str(tmp_path / "o"), "--quiet"])
        assert code == 2
        assert capsys.readouterr().err == (
            f"config error: not enough memory for the sizes {path} sets\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command,old,new", [
        ("nonlinear-run", "sample_every = 50", "sample_every = 0"),
        ("verify-thermo", "[thermo]\nn_samples = 20", "[thermo]\nn_samples = 0"),
    ], ids=["sample_every", "thermo_n_samples"])
    def test_bad_sample_counts_rejected(self, config_file, tmp_path, capsys,
                                        command, old, new):
        path = config_file()
        text = path.read_text()
        assert old in text
        path.write_text(text.replace(old, new))
        code = main([command, "--config", str(path), "--out", str(tmp_path / "o"),
                     "--quiet"])
        assert code == 2
        assert "config error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,section,values", BAD_VALUES,
        ids=["-".join(f"{k}={v}" for k, v in values.items())
             for _, _, values in BAD_VALUES])
    def test_bad_values_rejected(self, config_file, tmp_path, capsys,
                                 command, section, values):
        path = config_file()
        set_keys(path, section, values)
        code = main([command, "--config", str(path), "--out", str(tmp_path / "o"),
                     "--quiet"])
        assert code == 2
        assert "config error:" in capsys.readouterr().err

    def test_malformed_profile_csv_rejected(self, config_file, tmp_path, capsys):
        csv_path = tmp_path / "profile.csv"
        csv_path.write_text("xi,re1\n0.0,1.0\n1.0,0.5\n")
        path = config_file()
        set_keys(path, "linear", {"profile": f"csv\nprofile_csv = {csv_path}"})
        code = main(["linear-decay", "--config", str(path), "--out",
                     str(tmp_path / "o"), "--quiet"])
        assert code == 2
        assert "config error: [linear] profile_csv" in capsys.readouterr().err

    def test_one_row_profile_csv_rejected(self, config_file, tmp_path, capsys):
        csv_path = _profile_csv(tmp_path, lambda xi: 1.0 + 0.0 * xi, np.array([0.5]))
        path = config_file()
        set_keys(path, "linear", {"profile": f"csv\nprofile_csv = {csv_path}"})
        code = main(["linear-decay", "--config", str(path), "--out",
                     str(tmp_path / "o"), "--quiet"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: [linear] profile_csv")
        assert err.rstrip().endswith("needs at least two rows")

    def test_zero_norm_profile_csv_rejected(self, config_file, tmp_path, capsys):
        csv_path = _profile_csv(tmp_path, lambda xi: 0.0 * xi)
        path = config_file()
        set_keys(path, "linear", {"profile": f"csv\nprofile_csv = {csv_path}"})
        code = main(["linear-decay", "--config", str(path), "--out",
                     str(tmp_path / "o"), "--quiet"])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error: [linear] profile_csv" in err
        assert "norm of the profile is not positive" in err

    def test_inadmissible_initial_field_rejected(self, config_file, tmp_path, capsys):
        # a wave packet of amplitude 5 about rho = 1 starts at negative density
        path = config_file(amplitude="5")
        set_keys(path, "nonlinear", {"shape": "wave_packet"})
        code = main(["nonlinear-run", "--config", str(path), "--out",
                     str(tmp_path / "o"), "--quiet"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: [nonlinear] ")
        assert "min rho = -" in err

    @pytest.mark.parametrize("command", ["verify-thermo", "nonlinear-run"])
    @pytest.mark.parametrize("header,section", [
        ("[thermoo]\nn_samples = 20\n", "[thermoo]"),
        ("[DEFAULT]\nfoo = 1\n", "[DEFAULT]")], ids=["misspelt", "default"])
    def test_undeclared_section_rejected(self, config_file, tmp_path, capsys,
                                         command, header, section):
        path = config_file()
        path.write_text(header + path.read_text())
        code = main([command, "--config", str(path), "--out", str(tmp_path / "o"),
                     "--quiet"])
        assert code == 2
        assert f"config error: undeclared section {section}" in capsys.readouterr().err

    def test_numeric_sweep_never_raises(self, tmp_path):
        # every key of every other section at 0, -1 and 1, and at the
        # extremes of binary64: a verdict or a config error, never an
        # exception out of main.  At the extremes the closure overflows, and
        # numpy's overflow warnings are printed by the CLI, not raised
        assert set(SWEEP_COMMANDS) == set(SCHEMA)
        runs = {}
        for section in SCHEMA:
            if section != "nonlinear":
                runs.update(_sweep(tmp_path, section))
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    runs.update(_sweep(tmp_path, section, values=EXTREMES))
        escaped = _escaped(runs)
        assert not escaped, escaped
        # the overflows are config errors that name the section, and the
        # key where the section has one that sets the grid or the state
        for section, key, value in OVERFLOWS:
            code, err = runs[section, key, value]
            assert code == 2, (section, key, value)
            assert err.startswith(f"config error: [{section}] "), err
            if section != "domain":
                assert f"{key} = " in err, err

    @pytest.mark.parametrize("ell", ["1e300", "1e154", "100"])
    def test_overflowing_ell_weight_rejected(self, config_file, tmp_path, capsys, ell):
        # |xi|^(2 ell) overflows at the largest node |xi| = 200 (at ell =
        # 100 too, where it once met the Gaussian's 0 as nan): a config
        # error naming the key, before any overflowing arithmetic
        path = config_file()
        set_keys(path, "linear", {"ell": ell})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["linear-decay", "--config", str(path), "--out",
                         str(tmp_path / "o"), "--quiet"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: [linear] ell = {float(ell):g}:")

    @pytest.mark.parametrize("xi_cap", ["1e5", "1e20"])
    def test_huge_xi_cap_flags_no_node(self, config_file, tmp_path, monkeypatch, xi_cap):
        # conditioning is judged on V_R, so no node takes scaling and
        # squaring, and the verdict is the reference's
        expm_calls = []
        monkeypatch.setattr(linear_evolution, "expm", expm_calls.append)
        path = config_file()
        set_keys(path, "linear", {"xi_cap": xi_cap})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["linear-decay", "--config", str(path), "--out",
                         str(tmp_path / "o"), "--quiet"]) == 0
        assert expm_calls == []

    def test_nonlinear_numeric_sweep_never_raises(self, tmp_path):
        # the same sweep over [nonlinear], on a 64-point grid for 20 steps
        small = {"length": "20.0", "n": "64", "dt": "0.05", "t_final": "1.0",
                 "sample_every": "5", "fit_t_min": "0.5"}
        escaped = _escaped(_sweep(tmp_path, "nonlinear", small))
        assert not escaped, escaped

    def test_unknown_command_usage_error(self, config_file):
        assert main(["frobnicate", "--config", str(config_file())]) == 2

    @pytest.mark.parametrize("command", ["verify-thermo", "analyze-symbol",
                                         "linear-decay", "nonlinear-run"])
    def test_negative_seed_usage_error(self, config_file, tmp_path, capsys, command):
        out = tmp_path / "o"
        code = main([command, "--config", str(config_file()), "--out", str(out),
                     "--seed", "-1", "--quiet"])
        assert code == 2
        assert "argument --seed: must be an integer >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_out_naming_a_file_usage_error(self, config_file, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        code = main(["verify-thermo", "--config", str(config_file()),
                     "--out", str(taken), "--quiet"])
        assert code == 2
        assert f"cannot create --out directory {taken}" in capsys.readouterr().err

    def test_out_failing_below_a_new_directory_leaves_none(self, config_file,
                                                           tmp_path, capsys):
        # mkdir makes new/ and then fails on a name longer than any file
        # system takes: the usage error removes new/ too
        out = tmp_path / "new" / ("x" * 300)
        code = main(["verify-thermo", "--config", str(config_file()),
                     "--out", str(out), "--quiet"])
        assert code == 2
        assert "cannot create --out directory" in capsys.readouterr().err
        assert not (tmp_path / "new").exists()

    def test_config_error_leaves_no_out_directory(self, config_file, tmp_path,
                                                  capsys):
        # the directory is made before analyze-symbol reads [symbol]: a bad
        # key there removes both directories the call created, and keeps
        # the one that was there before it
        path = config_file()
        set_keys(path, "symbol", {"n_xi": "5"})
        code = main(["analyze-symbol", "--config", str(path),
                     "--out", str(tmp_path / "new" / "sub"), "--quiet"])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            "config error: bad value for [symbol] n_xi: '5'")
        assert not (tmp_path / "new" / "sub").exists()
        assert not (tmp_path / "new").exists()
        assert tmp_path.is_dir()

    def test_config_error_keeps_an_existing_out_directory(self, config_file,
                                                          tmp_path):
        path = config_file()
        set_keys(path, "symbol", {"n_xi": "5"})
        out = tmp_path / "out"
        out.mkdir()
        assert main(["analyze-symbol", "--config", str(path),
                     "--out", str(out), "--quiet"]) == 2
        assert out.is_dir()


class TestConfigHash:
    """The report's ``config sha256`` against hashlib's digest of the file."""

    @pytest.mark.parametrize("kind", ["reference", "non-ascii", "crlf"])
    def test_digest_matches_hashlib(self, config_file, kind):
        if kind == "reference":
            path = REFERENCE_INI
        else:
            path = config_file(extra="# température θ, densité ρ — ξ ≥ 0\n")
            if kind == "crlf":
                path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        raw = path.read_bytes()
        assert (b"\r\n" in raw) == (kind == "crlf")
        assert raw.isascii() == (kind == "reference")
        cfg = RunConfig.load(path)
        assert cfg.config_hash == hashlib.sha256(raw).hexdigest()
        assert cfg.section("closure")["gamma"] == pytest.approx(5.0 / 3.0)


class TestSeed:
    @pytest.mark.parametrize("command,files", [
        ("verify-thermo", ("summary.csv", "thermo_checks.csv")),
        ("analyze-symbol", ("summary.csv", "sigma.csv", "eigen_tracks.csv")),
        ("linear-decay", ("summary.csv", "decay.csv"))],
        ids=["verify-thermo", "analyze-symbol", "linear-decay"])
    def test_seed_reaches_no_csv(self, config_file, tmp_path, command, files):
        # no check samples at random: --seed is only echoed in report.txt
        outs = []
        for seed in ("0", "7"):
            out = tmp_path / seed
            assert main([command, "--config", str(config_file()),
                         "--out", str(out), "--seed", seed, "--quiet"]) == 0
            assert f"seed: {seed}\n" in (out / "report.txt").read_text()
            outs.append(out)
        assert sorted(p.name for p in outs[0].glob("*.csv")) == sorted(files)
        for fname in files:
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


class TestVerifyThermo:
    def test_reference_passes(self, config_file, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["verify-thermo", "--config", str(config_file()),
                     "--out", str(out), "--quiet"])
        assert code == 0
        report = (out / "report.txt").read_text()
        assert "overall: PASS" in report
        assert "config sha256:" in report
        assert (out / "summary.csv").is_file()
        assert (out / "thermo_checks.csv").is_file()


class TestAnalyzeSymbol:
    @staticmethod
    def summary_row(out, check):
        with open(out / "summary.csv", newline="") as fh:
            (row,) = [r for r in csv.DictReader(fh) if r["check"] == check]
        return row

    @pytest.mark.parametrize("kappa0,xi_max", [("1.0", "1e150"), ("0.0", "1.3e154")])
    def test_huge_xi_max_passes(self, config_file, tmp_path, kappa0, xi_max):
        # the real form is factored divided by its largest entry, so its
        # cubic does not overflow where the entries reach 1e300 (kappa0 = 1)
        # or 1.7e308 (kappa0 = 0, xi^2 b2): every check passes, and no
        # RuntimeWarning is raised (the suite turns warnings into errors)
        path = config_file(kappa0=kappa0)
        set_keys(path, "symbol", {"xi_max": xi_max})
        out = tmp_path / "o"
        assert main(["analyze-symbol", "--config", str(path), "--out", str(out),
                     "--quiet"]) == 0
        assert float(self.summary_row(out, "max sigma over xi != 0")["observed"]) < 0.0

    @pytest.mark.parametrize("xi_min", ["1e-160", "1e-300"])
    def test_underflowing_xi_min_rejected(self, config_file, tmp_path, capsys, xi_min):
        # sigma ~ -0.4 xi^2 is subnormal at 1e-160, where c0_uniform was read
        # from it, and -0 at 1e-300, where the run failed as not strictly
        # dissipative: a config error naming the key, without a warning
        path = config_file()
        set_keys(path, "symbol", {"xi_min": xi_min})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["analyze-symbol", "--config", str(path), "--out",
                         str(tmp_path / "o"), "--quiet"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: [symbol] xi_min = {float(xi_min):g}: "
                              f"sigma(xi) = "), err

    @pytest.mark.parametrize("key,value,code", [
        ("alpha0", "0", 1), ("mu0", "0", 1), ("alpha0", "1e-300", 0)])
    def test_weak_dissipation_keeps_its_verdict(self, config_file, tmp_path,
                                                key, value, code):
        # sigma is -0 for a physical reason without heat conduction or
        # viscosity, where it is not < 0 at the largest |xi| either: a
        # failed check, not a config error
        path = config_file()
        set_keys(path, "closure", {key: value})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["analyze-symbol", "--config", str(path), "--out",
                         str(tmp_path / "o"), "--quiet"]) == code

    def test_coupling_margin_does_not_overflow(self, config_file, tmp_path):
        # A(xi) V is scaled by its largest entry before its length is taken:
        # the margin at xi_max = 1e100 and 1e150 is the one at 1e3, not the
        # 1/sqrt(2) that an overflowed |A(xi) V| gave
        margins = []
        for xi_max in ("1e3", "1e60", "1e100", "1e150"):
            path = config_file()
            set_keys(path, "symbol", {"xi_max": xi_max})
            out = tmp_path / xi_max
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(["analyze-symbol", "--config", str(path), "--out", str(out),
                             "--quiet"]) == 0
            margins.append(self.summary_row(out, "min coupling margin")["observed"])
        assert margins == ["1"] * 4

    def test_reference_and_determinism(self, config_file, tmp_path):
        cfg = config_file()
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["analyze-symbol", "--config", str(cfg),
                         "--out", str(out), "--seed", "3", "--quiet"]) == 0
            outs.append(out)
        for fname in ("summary.csv", "sigma.csv", "eigen_tracks.csv"):
            a = (outs[0] / fname).read_bytes()
            b = (outs[1] / fname).read_bytes()
            assert a == b, f"{fname} not byte-identical"

    def test_lyapunov_delta_past_equivalence_rejected(self, config_file, tmp_path,
                                                      capsys, monkeypatch):
        # with capillarity sup |xi K| = 0.235694 on the Lyapunov grid, so
        # delta = 10 voids the functional: a config error, found before the
        # coupling scan runs
        monkeypatch.setattr(dissipativity, "genuine_coupling_scan", None)
        path = config_file()
        set_keys(path, "symbol", {"lyapunov_delta": "10"})
        assert main(["analyze-symbol", "--config", str(path),
                     "--out", str(tmp_path / "o"), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: [symbol] lyapunov_delta = 10 gives "
                              "sup |delta xi K| = 2.35694 > 1/2")
        assert "the largest admissible lyapunov_delta is 0.5 / sup |xi K| = 2.12139" in err

    def test_lyapunov_delta_without_capillarity_inconclusive(self, config_file,
                                                             tmp_path):
        # without capillarity |xi K| grows with xi: the row stays inconclusive
        path = config_file(kappa0="0.0")
        set_keys(path, "symbol", {"lyapunov_delta": "10"})
        out = tmp_path / "nsf"
        assert main(["analyze-symbol", "--config", str(path), "--out", str(out),
                     "--quiet"]) == 0
        with open(out / "summary.csv", newline="") as fh:
            (row,) = [r for r in csv.DictReader(fh)
                      if r["report"] == "Lyapunov functional"]
        assert row["passed"] == "1" and row["observed"] == "nan"
        assert row["detail"].startswith("inconclusive: sup |delta xi K| = ")

    @pytest.mark.parametrize("kappa0", ["1.0", "0.0"], ids=["ref", "nsf"])
    def test_summary_rows_carry_margins(self, config_file, tmp_path, kappa0):
        out = tmp_path / "sym"
        assert main(["analyze-symbol", "--config", str(config_file(kappa0=kappa0)),
                     "--out", str(out), "--quiet"]) == 0
        with open(out / "summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["report"] for r in rows] == [
            "genuine coupling", "Friedrichs symmetrizability",
            "compensating certificate", "spectral bound", "spectral bound",
            "Lyapunov functional"]
        assert all(r["check"] != "overall" and r["passed"] == "1" for r in rows)
        inconclusive = "inconclusive:" in (out / "report.txt").read_text()
        for r in rows:
            if r["report"] == "Lyapunov functional" and inconclusive:
                continue
            assert math.isfinite(float(r["observed"])), r
            if r["report"] != "Friedrichs symmetrizability":
                assert math.isfinite(float(r["tolerance"])), r
        # the capillarity-free Lyapunov check is the inconclusive one
        assert inconclusive == (kappa0 == "0.0")

    def test_shifted_type_fails(self, config_file, tmp_path, monkeypatch):
        # q off by 0.1 from the regularity-gain type (1, 0): only the (p, q)
        # check fails
        bound = dissipativity.spectral_bound
        monkeypatch.setattr(dissipativity, "spectral_bound", lambda *a, **k:
                            dataclasses.replace(bound(*a, **k), q=bound(*a, **k).q + 0.1))
        out = tmp_path / "shifted"
        assert main(["analyze-symbol", "--config", str(config_file()),
                     "--out", str(out), "--quiet"]) == 1
        with open(out / "summary.csv", newline="") as fh:
            failed = [r for r in csv.DictReader(fh) if r["passed"] != "1"]
        assert [r["check"] for r in failed] == ["(p, q) deviation from (1, 0)"]
        assert float(failed[0]["observed"]) == pytest.approx(0.1, abs=0.01)

    def test_no_kernel_is_named(self, config_file, tmp_path, monkeypatch):
        eye = lambda xi: np.eye(3)  # noqa: E731
        scan = dissipativity.genuine_coupling_scan
        monkeypatch.setattr(dissipativity, "genuine_coupling_scan",
                            lambda a0, a, b, grid: scan(eye, eye, eye, grid))
        out = tmp_path / "nokernel"
        assert main(["analyze-symbol", "--config", str(config_file()),
                     "--out", str(out), "--quiet"]) == 0
        assert ("no kernel of B(xi) on any of 602 grid points"
                in (out / "report.txt").read_text())

    def test_nsf_reports_friedrichs_feasible(self, config_file, tmp_path):
        out = tmp_path / "nsf"
        code = main(["analyze-symbol", "--config", str(config_file(kappa0="0.0")),
                     "--out", str(out), "--quiet"])
        assert code == 0
        report = (out / "report.txt").read_text()
        assert "feasible" in report
        assert "standard" in report  # recorded (p, q) = (1, 1) classification

    def test_no_dissipation_fails(self, config_file, tmp_path):
        cfg_path = config_file()
        text = cfg_path.read_text().replace("mu0 = 1.0", "mu0 = 0.0")
        text = text.replace("alpha0 = 1.0", "alpha0 = 0.0")
        cfg_path.write_text(text)
        out = tmp_path / "nodiss"
        code = main(["analyze-symbol", "--config", str(cfg_path),
                     "--out", str(out), "--quiet"])
        assert code == 1
        report = (out / "report.txt").read_text()
        assert "overall: FAIL" in report


REFERENCE_INI = Path(__file__).resolve().parents[1] / "configs" / "reference.ini"


class TestLinearSideWorkCounts:
    """How much factoring the three linear-side subcommands do on
    configs/reference.ini, counted at numpy.linalg."""

    @pytest.fixture
    def factored(self, monkeypatch):
        # per numpy.linalg function, and for the structured factorization of
        # the real form R wherever the linear side looks it up: [calls,
        # matrices, dtypes of the stacks]; svd is also counted where pinv
        # and cond look it up
        counts = {}

        def counted(name, fn):
            def call(a, *args, **kwargs):
                c = counts.setdefault(name, [0, 0, set()])
                c[0] += 1
                c[1] += int(np.prod(np.shape(a)[:-2]))
                c[2].add(np.asarray(a).dtype.name)
                return fn(a, *args, **kwargs)
            return call

        for name in ("eig", "eigvals", "eigvalsh", "pinv", "svd"):
            monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
        monkeypatch.setattr(np.linalg._linalg, "svd", np.linalg.svd)
        # (the CLI imports it from symbols when it runs)
        for module in (dissipativity, linear_evolution, symbols):
            monkeypatch.setattr(module, "real_form_eig",
                                counted("real_form_eig", module.real_form_eig))
        return counts

    @staticmethod
    def run(command, tmp_path):
        assert main([command, "--config", str(REFERENCE_INI),
                     "--out", str(tmp_path / command), "--quiet"]) == 0

    def test_linear_decay(self, factored, monkeypatch, tmp_path):
        # the Gaussian profile is Hermitian, so its 4097 nodes fold onto the
        # 2049 xi >= 0 and the propagator sees each |xi| once: 2049 real
        # forms R in one structured factorization and no eig; no SVD for
        # the condition number, V^{-1} What(0) formed once for the 41 times,
        # and at each time a real exp of every eigenvalue with u = 0 (the
        # real root, and the real pair at xi = 0) and a complex exp of one
        # member of each conjugate pair, both where exp does not underflow
        props, applied, exponentials = [], [], []
        init, einsum, exp = linear_evolution.ModePropagator.__init__, np.einsum, np.exp

        def recorded(self, *args, **kwargs):
            init(self, *args, **kwargs)
            props.append(self)

        def spied_einsum(subscripts, *operands, **kwargs):
            applied.extend(op is p.vecs_inv for p in props for op in operands)
            return einsum(subscripts, *operands, **kwargs)

        def spied_exp(x, *args, where=True, **kwargs):
            if np.shape(x) == (3, 2049):
                taken = np.broadcast_to(where, np.shape(x))
                exponentials.append((np.iscomplexobj(x),
                                     np.count_nonzero(taken, axis=-1).tolist()))
            return exp(x, *args, where=where, **kwargs)

        monkeypatch.setattr(linear_evolution.ModePropagator, "__init__", recorded)
        monkeypatch.setattr(np, "einsum", spied_einsum)
        monkeypatch.setattr(np, "exp", spied_exp)
        self.run("linear-decay", tmp_path)
        assert len(props) == 1 and props[0].xi_nodes.size == 2049
        assert factored == {"real_form_eig": [1, 2049, {"float64"}]}
        assert sum(applied) == 1
        prop, want = props[0], []
        for t in np.logspace(-1.0, 4.0, 41):
            live = np.count_nonzero(~(prop.lam.real * t > linear_evolution._EXP_UNDERFLOW),
                                    axis=-1)
            pairs = np.count_nonzero(prop._pair & ~(prop.lam[1].real * t
                                                    > linear_evolution._EXP_UNDERFLOW))
            want += [(False, [live[0], live[1] - pairs, live[2] - pairs]),
                     (True, [0, pairs, 0])]
        assert exponentials == want
        # at t = 0.1 the real roots of 144 |xi| and 112 conjugate pairs
        # underflow; over the 41 times 52102 real and 52704 complex exps
        # are taken
        assert want[:2] == [(False, [1905, 1, 1]), (True, [0, 1936, 0])]
        assert sum(sum(taken) for _, taken in want) == 52102 + 52704

    def test_analyze_symbol_spectral_bound(self, factored, tmp_path):
        # the 8002-point grid holds 4001 distinct |xi|, each a real form R,
        # all in one structured factorization and none by eig or eigvals;
        # the norms of the skew K take no SVD, so the one left is the
        # Friedrichs constraints'; one eigvalsh each for the certificate
        # (the 2001 distinct |xi| of its 4001 mirrored points), the Lyapunov
        # check (200 xi != 0) and the eigen tracks (the 1001 distinct |xi|
        # of 2001 points), and two real forms for the underflow check of
        # xi_min; no complex matrix is factored
        self.run("analyze-symbol", tmp_path)
        assert factored == {"real_form_eig": [2, 4001 + 2, {"float64"}],
                            "svd": [1, 1, {"float64"}],
                            "eigvalsh": [3, 2001 + 200 + 1001, {"float64"}]}

    def test_analyze_symbol_coupling_scan(self, monkeypatch, tmp_path):
        # A0, A and B depend on xi only through xi^2: each map is evaluated
        # once, at the 4001 distinct |xi| of the 8002-point grid, and n_xi
        # still counts the grid points
        scan, calls, reports = dissipativity.genuine_coupling_scan, [], []

        def counted(name, fn):
            def call(xi):
                calls.append((name, np.shape(xi)))
                return fn(xi)
            return call

        def spied(a0, a, b, grid):
            reports.append(scan(counted("a0", a0), counted("a", a),
                                counted("b", b), grid))
            return reports[-1]

        monkeypatch.setattr(dissipativity, "genuine_coupling_scan", spied)
        self.run("analyze-symbol", tmp_path)
        assert sorted(calls) == [("a", (4001,)), ("a0", (4001,)), ("b", (4001,))]
        assert [r.n_xi for r in reports] == [8002]

    def test_analyze_symbol_formats_half_of_sigma_csv(self, monkeypatch, tmp_path):
        # the grid is mirrored in sign, and sigma and the fitted bound are
        # even in xi: the 4001 rows xi > 0 are formatted, and the 4001 rows
        # xi < 0 are them reversed with "-" prefixed; eigen_tracks.csv's
        # 2001 rows are mirrored about xi = +0.0, so the 1001 rows from
        # xi = 0 down are formatted and the 1000 above are them reversed
        formatted, writer = {}, cli.write_csv

        def spied_writer(path, columns):
            formatted[Path(path).name] = []
            writer(path, columns)

        def spied_column(values):
            formatted[next(reversed(formatted))].append(len(values))
            return _column(values)

        monkeypatch.setattr(cli, "write_csv", spied_writer)
        monkeypatch.setattr("nsfk.reports._column", spied_column)
        self.run("analyze-symbol", tmp_path)
        assert formatted["sigma.csv"] == [4001] * 3
        assert formatted["eigen_tracks.csv"] == [1001] * 7
        sigma = (tmp_path / "analyze-symbol" / "sigma.csv").read_text().splitlines()
        assert len(sigma) == 1 + 8002
        assert sigma[1:4002] == ["-" + row for row in reversed(sigma[4002:])]
        tracks = (tmp_path / "analyze-symbol" / "eigen_tracks.csv").read_text().splitlines()
        assert len(tracks) == 1 + 2001 and tracks[1001].startswith("0,")
        assert tracks[1:1001] == ["-" + row for row in reversed(tracks[1002:])]

    def test_verify_thermo_entropy_pair(self, factored, tmp_path):
        # the 108 lattice states in one batched eigvalsh per eigenvalue check
        self.run("verify-thermo", tmp_path)
        assert factored == {"eigvalsh": [2, 216, {"float64"}]}


class TestCsvBytes:
    """Every CSV the four subcommands write holds the bytes the ``csv``
    module writes for the same columns."""

    @pytest.fixture
    def compared(self, monkeypatch, tmp_path):
        written = {}

        def both(path, columns):
            write_csv(path, columns)
            oracle = tmp_path / "oracle.csv"
            csv_module_write_csv(oracle, columns)
            written[Path(path).name] = (Path(path).read_bytes(), oracle.read_bytes())

        monkeypatch.setattr(cli, "write_csv", both)
        return written

    @pytest.mark.parametrize("command,files", [
        ("verify-thermo", {"thermo_checks.csv", "summary.csv"}),
        ("analyze-symbol", {"sigma.csv", "eigen_tracks.csv", "summary.csv"}),
        ("linear-decay", {"decay.csv", "summary.csv"})])
    def test_reference(self, compared, tmp_path, command, files):
        TestLinearSideWorkCounts.run(command, tmp_path)
        assert set(compared) == files
        for name, (got, want) in compared.items():
            assert got == want, name

    def test_nonlinear_run(self, compared, config_file, tmp_path):
        # the reference run takes a minute; the small one writes the same files
        assert main(["nonlinear-run", "--config", str(config_file()),
                     "--out", str(tmp_path / "nl"), "--quiet"]) == 0
        assert set(compared) == {"ledger.csv", "summary.csv"}
        for name, (got, want) in compared.items():
            assert got == want, name

    def test_reference_decay_matches_per_node_factoring(self, ref_coeffs, tmp_path):
        # decay.csv on the reference config against every node factored on
        # its own and evolved with einsum: the arithmetic moves by roundoff
        TestLinearSideWorkCounts.run("linear-decay", tmp_path)
        with open(tmp_path / "linear-decay" / "decay.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        times = np.logspace(-1.0, 4.0, 41)
        assert [float(r["t"]) for r in rows] == times.tolist()
        prof = linear_evolution.gaussian_profile(
            *linear_evolution.geometric_nodes(4096, 200.0, 1e-4))
        at = per_node_propagator(ref_coeffs, prof.xi_nodes, prof.modes)
        want = [linear_evolution.weighted_norm(linear_evolution.SpectralProfile(
            prof.xi_nodes, prof.weights, at(t))) for t in times]
        got = [float(r["norm"]) for r in rows]
        assert np.abs(np.divide(got, want) - 1.0).max() <= 1e-12


class TestLinearDecay:
    def test_reference(self, config_file, tmp_path):
        out = tmp_path / "lin"
        code = main(["linear-decay", "--config", str(config_file()),
                     "--out", str(out), "--quiet"])
        assert code == 0
        assert (out / "decay.csv").is_file()
        report = (out / "report.txt").read_text()
        assert "exponent" in report

    def test_custom_csv_profile(self, config_file, tmp_path):
        csv_path = _profile_csv(tmp_path, lambda xi: np.exp(-xi ** 2))
        cfg = config_file()
        cfg.write_text(cfg.read_text().replace(
            "profile = gaussian", f"profile = csv\nprofile_csv = {csv_path}"))
        out = tmp_path / "lin_csv"
        code = main(["linear-decay", "--config", str(cfg), "--out", str(out),
                     "--quiet"])
        assert code == 0
        report = (out / "report.txt").read_text()
        assert "exponent" in report

    def test_uniform_grid_names_the_frozen_mode(self, config_file, tmp_path):
        # a uniform grid through xi = 0 gives the never-decaying xi = 0 mode
        # a weight h f(0): it carries the final norm and the fit plateaus
        csv_path = _profile_csv(tmp_path, lambda xi: np.exp(-xi ** 2),
                                np.linspace(-40.0, 40.0, 801))
        cfg = config_file()
        set_keys(cfg, "linear", {"profile": f"csv\nprofile_csv = {csv_path}"})
        out = tmp_path / "uniform"
        assert main(["linear-decay", "--config", str(cfg), "--out", str(out),
                     "--quiet"]) == 1
        share = re.search(r"xi = 0 share of the final norm\^2 (\S+)\]",
                          (out / "report.txt").read_text())
        assert float(share.group(1)) >= 0.99

    def test_norm_underflow_before_the_fit_window_rejected(self, config_file,
                                                             tmp_path, capsys):
        # modes only at |xi| >= 20 decay like exp(-c xi^2 t): the norm is 0
        # in double precision long before t = 100, so there is nothing to fit
        csv_path = _profile_csv(tmp_path, lambda xi: (np.abs(xi) >= 20.0) * 1.0,
                                np.linspace(-40.0, 40.0, 2001))
        cfg = config_file()
        set_keys(cfg, "linear", {"profile": f"csv\nprofile_csv = {csv_path}"})
        code = main(["linear-decay", "--config", str(cfg), "--out",
                     str(tmp_path / "o"), "--quiet"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: [linear] the order-0 norm of the "
                              "profile cannot be fitted on [fit_t_min, fit_t_max] "
                              "= [100, 10000]")
        assert "Traceback" not in err

    def test_fractional_ell(self, config_file, tmp_path):
        # |xi|^(2 ell) is real on the nodes xi < 0: every norm is finite and
        # positive, and the fit finds the predicted -(ell/2 + 1/4)
        cfg = config_file()
        set_keys(cfg, "linear", {"ell": "0.5"})
        out = tmp_path / "half"
        assert main(["linear-decay", "--config", str(cfg), "--out", str(out),
                     "--quiet"]) == 0
        with open(out / "decay.csv", newline="") as fh:
            norms = np.array([float(r["norm"]) for r in csv.DictReader(fh)])
        assert norms.size == 25 and np.all(np.isfinite(norms) & (norms > 0))
        with open(out / "summary.csv", newline="") as fh:
            (row,) = csv.DictReader(fh)
        assert float(row["observed"]) == pytest.approx(-0.5, abs=0.01)

    def test_slow_decay_fails(self, config_file, tmp_path):
        # |xi|^(-2/5) near xi = 0 decays like t^(-1/20), slower than the
        # predicted t^(-1/4) by more than the 0.05 gate: a well-fitted FAIL
        csv_path = _profile_csv(tmp_path,
                                lambda xi: np.abs(xi) ** -0.4 * np.exp(-xi ** 2))
        cfg = config_file()
        set_keys(cfg, "linear", {"profile": f"csv\nprofile_csv = {csv_path}"})
        out = tmp_path / "slow"
        code = main(["linear-decay", "--config", str(cfg), "--out", str(out),
                     "--quiet"])
        assert code == 1
        with open(out / "summary.csv", newline="") as fh:
            (row,) = csv.DictReader(fh)
        assert row["passed"] == "0"
        assert float(row["tolerance"]) == pytest.approx(-0.2)
        assert float(row["observed"]) == pytest.approx(-0.05, abs=0.01)
        assert "overall: FAIL" in (out / "report.txt").read_text()

    def test_faster_decay_passes(self, config_file, tmp_path):
        # zero-mass data decays faster than the predicted upper bound
        cfg = config_file()
        set_keys(cfg, "linear", {"profile": "zero-mass-gaussian"})
        out = tmp_path / "fast"
        assert main(["linear-decay", "--config", str(cfg), "--out", str(out),
                     "--quiet"]) == 0
        with open(out / "summary.csv", newline="") as fh:
            (row,) = csv.DictReader(fh)
        assert float(row["observed"]) < -0.5


def _profile_csv(tmp_path, shape, xi=None):
    """Profile CSV with all three modes equal to ``shape(xi)``.

    The default grid is geometric in |xi| down to 1e-6: a uniform grid
    through xi = 0 keeps a non-decaying mode of weight h shape(0), which
    plateaus the norm.
    """
    if xi is None:
        pos = np.geomspace(1e-6, 40.0, 1200)
        xi = np.concatenate([-pos[::-1], pos])
    rows = ["xi,re1,im1,re2,im2,re3,im3"]
    rows += [f"{x:.17g},{s:.17g},0.0,{s:.17g},0.0,{s:.17g},0.0"
             for x, s in zip(xi, shape(xi))]
    path = tmp_path / "profile.csv"
    path.write_text("\n".join(rows) + "\n")
    return path


class TestNonlinearRun:
    def test_reference_small(self, config_file, tmp_path):
        out = tmp_path / "nl"
        code = main(["nonlinear-run", "--config", str(config_file()),
                     "--out", str(out), "--quiet"])
        assert code == 0
        assert (out / "ledger.csv").is_file()
        header = (out / "ledger.csv").read_text().splitlines()[0].split(",")
        assert header[:4] == ["t", "mass", "momentum", "energy"]
        assert header[-3:] == ["max_n1", "max_n", "nonlinear_scale"]
        assert tuple(header) == LEDGER_COLUMNS

    def test_blow_up_fails_the_run_check(self, config_file, tmp_path, capsys):
        # a tall density bump at a long step leaves the admissible set inside
        # a step: the run aborts on the stage input before a closure takes a
        # log of it, so nothing warns on stderr
        path = config_file(amplitude="2.0")
        set_keys(path, "nonlinear", {"n": "128", "length": "50.0", "width": "2.0",
                                     "dt": "0.2", "t_final": "20.0", "fit_t_min": "0.0"})
        out = tmp_path / "blow-up"
        code = main(["nonlinear-run", "--config", str(path), "--out", str(out), "--quiet"])
        assert code == 1
        with open(out / "summary.csv", newline="") as fh:
            rows = {r["check"]: r for r in csv.DictReader(fh)}
        assert rows["run completed without blow-up"]["passed"] == "0"
        assert rows["run completed without blow-up"]["detail"] == "temperature fell below 0.0"
        (line,) = [ln for ln in (out / "report.txt").read_text().splitlines()
                   if "run completed without blow-up" in ln]
        assert line.lstrip().startswith("[FAIL]")
        assert line.endswith("[temperature fell below 0.0]")
        assert capsys.readouterr().err == ""

    @staticmethod
    def equilibrium_kept(path, out):
        """The exit code of the zero-amplitude run of ``path`` and the
        (passed, observed, tolerance) of its "equilibrium kept" check, the
        only check besides the run's own."""
        code = main(["nonlinear-run", "--config", str(path), "--out", str(out),
                     "--quiet"])
        with open(out / "summary.csv", newline="") as fh:
            rows = {r["check"]: r for r in csv.DictReader(fh)}
        assert list(rows) == ["run completed without blow-up", "equilibrium kept"]
        kept = rows["equilibrium kept"]
        return code, (kept["passed"], kept["observed"], kept["tolerance"])

    def test_zero_amplitude_trivial_pass(self, config_file, tmp_path):
        # rhs is identically zero at a constant field, so no sample moves
        # from the t = 0 one: the pass rests on a check that a nonzero
        # equilibrium rate would fail
        path = config_file(amplitude="0.0")
        assert self.equilibrium_kept(path, tmp_path / "nl0") == (0, ("1", "0", "0"))

    def test_zero_amplitude_moving_equilibrium_kept(self, config_file, tmp_path):
        path = config_file(amplitude="0.0")
        set_keys(path, "equilibrium", {"rho": "1.3", "u": "0.7"})
        set_keys(path, "nonlinear", {"n": "256"})
        assert self.equilibrium_kept(path, tmp_path / "nl0") == (0, ("1", "0", "0"))

    def test_zero_amplitude_rounded_equilibrium_kept(self, config_file, tmp_path):
        # the ledger's u is the stepped m / rho, and 3 * 0.1 / 3 is 0.1 plus
        # one ulp: norm_u reads that offset at every sample, and the check
        # measures the state's change from its t = 0 sample
        path = config_file(amplitude="0.0")
        set_keys(path, "equilibrium", {"rho": "3.0", "u": "0.1"})
        set_keys(path, "nonlinear", {"n": "256"})
        assert 3.0 * 0.1 / 3.0 != 0.1
        assert self.equilibrium_kept(path, tmp_path / "nl0") == (0, ("1", "0", "0"))

    def test_overflowing_width_rejected(self, config_file, tmp_path, capsys):
        # ((length/2)/width)^2 overflows in the bump profile: a config error
        # naming the key, before the profile warns
        path = config_file()
        set_keys(path, "nonlinear", {"width": "1e-300"})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["nonlinear-run", "--config", str(path), "--out",
                         str(tmp_path / "o"), "--quiet"])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            "config error: [nonlinear] width = 1e-300: ")
