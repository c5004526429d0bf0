import configparser
import csv
import dataclasses
import math
import re
import textwrap
from pathlib import Path

import numpy as np
import pytest

from nsfk import cli, dissipativity, linear_evolution, thermo
from nsfk.cli import SCHEMA, ConfigError, RunConfig, main
from nsfk.nonlinear_solver import LEDGER_COLUMNS
from nsfk.reports import write_csv
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

[entropy_pair]
n_samples = 25
fd_step = 1e-5

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
    ("analyze-symbol", "symbol", {"cert_xi_max": "0"}),
    ("analyze-symbol", "symbol", {"xi_min": "1"}),
    ("analyze-symbol", "symbol", {"xi_max": "1"}),
    ("analyze-symbol", "symbol", {"xi_max": "nan"}),
    ("verify-thermo", "entropy_pair", {"fd_step": "1"}),
    ("verify-thermo", "entropy_pair", {"fd_step": "1e-4"}),
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
                  "thermo": "verify-thermo", "entropy_pair": "verify-thermo",
                  "equilibrium": "analyze-symbol", "symbol": "analyze-symbol",
                  "linear": "linear-decay", "nonlinear": "nonlinear-run"}


def _sweep(tmp_path, section, base=None):
    """Run the section's command with each SCHEMA key of it at 0, -1 and 1.

    ``base`` overrides keys of the section first.  Returns the runs that
    raised out of main or exited with a code other than 0, 1 or 2.
    """
    escaped = []
    for key in SCHEMA[section]:
        for value in ("0", "-1", "1"):
            parser = configparser.ConfigParser()
            parser.read_string(BASE.format(kappa0="1.0", amplitude="1e-2"))
            parser[section].update({**(base or {}), key: value})
            path = tmp_path / "sweep.ini"
            with open(path, "w") as fh:
                parser.write(fh)
            try:
                code = main([SWEEP_COMMANDS[section], "--config", str(path),
                             "--out", str(tmp_path / "o"), "--quiet"])
            except Exception as exc:  # noqa: BLE001 -- collected by the caller
                escaped.append(f"[{section}] {key} = {value}: {exc!r}")
                continue
            if code not in (0, 1, 2):
                escaped.append(f"[{section}] {key} = {value}: exit {code}")
    return escaped


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
        def never(*args, **kwargs):
            raise AssertionError("verify_hypotheses ran before validation")

        monkeypatch.setattr(thermo, "verify_hypotheses", never)
        path = config_file()
        set_keys(path, "entropy_pair", {"fd_step": "0"})
        code = main(["verify-thermo", "--config", str(path), "--out",
                     str(tmp_path / "o"), "--quiet"])
        assert code == 2
        assert "[entropy_pair] fd_step" in capsys.readouterr().err

    @pytest.mark.parametrize("command,old,new", [
        ("nonlinear-run", "sample_every = 50", "sample_every = 0"),
        ("verify-thermo", "[thermo]\nn_samples = 20", "[thermo]\nn_samples = 0"),
        ("verify-thermo", "[entropy_pair]\nn_samples = 25",
         "[entropy_pair]\nn_samples = 0"),
    ], ids=["sample_every", "thermo_n_samples", "entropy_pair_n_samples"])
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
        # every key of every other section at 0, -1 and 1: a verdict or a
        # config error, never an exception out of main
        assert set(SWEEP_COMMANDS) == set(SCHEMA)
        escaped = []
        for section in SCHEMA:
            if section != "nonlinear":
                escaped += _sweep(tmp_path, section)
        assert not escaped, escaped

    def test_nonlinear_numeric_sweep_never_raises(self, tmp_path):
        # the same sweep over [nonlinear], on a 64-point grid for 20 steps
        small = {"length": "20.0", "n": "64", "dt": "0.05", "t_final": "1.0",
                 "sample_every": "5", "fit_t_min": "0.5"}
        escaped = _sweep(tmp_path, "nonlinear", small)
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

    def test_seed_does_not_reach_analyze_symbol(self, config_file, tmp_path):
        # no check of analyze-symbol samples at random
        outs = []
        for seed in ("0", "7"):
            out = tmp_path / seed
            assert main(["analyze-symbol", "--config", str(config_file()),
                         "--out", str(out), "--seed", seed, "--quiet"]) == 0
            outs.append(out)
        for fname in ("summary.csv", "sigma.csv", "eigen_tracks.csv"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

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
        # per numpy.linalg function: [calls, matrices, dtypes of the stacks];
        # svd is also counted where pinv and cond look it up
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
        return counts

    @staticmethod
    def run(command, tmp_path):
        assert main([command, "--config", str(REFERENCE_INI),
                     "--out", str(tmp_path / command), "--quiet"]) == 0

    def test_linear_decay(self, factored, monkeypatch, tmp_path):
        # 2049 real forms R for the 2049 distinct |xi| among the 4097 nodes,
        # no SVD for the condition number, V^{-1} What(0) formed once for the
        # 41 times, and one exponential per distinct |xi| and eigenvalue at
        # each time
        props, applied, exponentials = [], [], []
        init, einsum, exp = linear_evolution.ModePropagator.__init__, np.einsum, np.exp

        def recorded(self, *args, **kwargs):
            init(self, *args, **kwargs)
            props.append(self)

        def spied_einsum(subscripts, *operands, **kwargs):
            applied.extend(op is p.vecs_inv for p in props for op in operands)
            return einsum(subscripts, *operands, **kwargs)

        def spied_exp(x, *args, **kwargs):
            if np.iscomplexobj(x):
                exponentials.append(np.shape(x))
            return exp(x, *args, **kwargs)

        monkeypatch.setattr(linear_evolution.ModePropagator, "__init__", recorded)
        monkeypatch.setattr(np, "einsum", spied_einsum)
        monkeypatch.setattr(np, "exp", spied_exp)
        self.run("linear-decay", tmp_path)
        assert len(props) == 1 and props[0].xi_nodes.size == 4097
        assert factored == {"eig": [1, 2049, {"float64"}]}
        assert sum(applied) == 1
        assert exponentials == [(3, 2049)] * 41

    def test_analyze_symbol_spectral_bound(self, factored, tmp_path):
        # the 8002-point grid holds 4001 distinct |xi|, each a real form R;
        # the norms of the skew K take no SVD, so the one left is the
        # Friedrichs constraints'; one eigvalsh each for the certificate
        # (4001 xi), the Lyapunov check (200 xi != 0) and the eigen tracks
        # (2001 xi); no complex matrix is factored
        self.run("analyze-symbol", tmp_path)
        assert factored["eigvals"] == [1, 4001, {"float64"}]
        assert factored["svd"] == [1, 1, {"float64"}]
        assert factored["eigvalsh"] == [3, 4001 + 200 + 2001, {"float64"}]
        assert "eig" not in factored

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

    def test_verify_thermo_entropy_pair(self, factored, tmp_path):
        # the 100 samples in one batched eigvalsh per eigenvalue check
        self.run("verify-thermo", tmp_path)
        assert factored == {"eigvalsh": [2, 200, {"float64"}]}


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

    def test_zero_amplitude_trivial_pass(self, config_file, tmp_path):
        out = tmp_path / "nl0"
        code = main(["nonlinear-run", "--config", str(config_file(amplitude="0.0")),
                     "--out", str(out), "--quiet"])
        assert code == 0
