import json
import os
import subprocess
import sys

import pytest

from ekrlab import cli

TRIANGLE = "6 2 4\n1 2\n1 3\n2 3\n4 5\n"


def run_cli(args, env_seed=None, capsys=None):
    # call main() in-process so coverage and monkeypatching work
    import io
    from contextlib import redirect_stdout, redirect_stderr
    out, err = io.StringIO(), io.StringIO()
    old = os.environ.pop("EKRLAB_SEED", None)
    if env_seed is not None:
        os.environ["EKRLAB_SEED"] = str(env_seed)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(args)
    finally:
        os.environ.pop("EKRLAB_SEED", None)
        if old is not None:
            os.environ["EKRLAB_SEED"] = old
    return code, out.getvalue(), err.getvalue()


def test_calc_q_only_report():
    code, out, _ = run_cli(["calc", "--n", "4", "--k", "2"])
    assert code == 0
    d = json.loads(out)
    assert d["q"] == pytest.approx(5 / 6)


def test_calc_boundary_with_model_exits_2():
    code, _, err = run_cli(["calc", "--n", "6", "--k", "3", "--phi", "1"])
    assert code == 2
    assert "n > 2k" in err


def test_calc_phi0_lambda_table():
    code, out, _ = run_cli(["calc", "--n", "5", "--k", "2", "--phi", "0"])
    assert code == 0
    d = json.loads(out)
    assert d["lambda_t"][0] == 1.0
    assert all(v == 0.0 for v in d["lambda_t"][1:])


def test_calc_full_report_fields():
    code, out, _ = run_cli(["calc", "--n", "24", "--k", "3", "--phi", "5"])
    d = json.loads(out)
    for field in ("q", "theta", "alpha1", "alpha2", "alpha", "beta", "beta_star",
                  "phi_star", "gamma", "tau", "lambda", "xi", "r0", "w", "qhat",
                  "threshold_phi0", "threshold_reference"):
        assert field in d, field


def test_sample_p0_empty(tmp_path):
    out_path = tmp_path / "h.txt"
    code, _, _ = run_cli(["sample", "--n", "8", "--k", "2", "--p", "0",
                          "--seed", "1", "--output", str(out_path)])
    assert code == 0
    assert out_path.read_text() == "8 2 0\n"


def test_sample_deterministic_given_seed(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for path in (a, b):
        code, _, _ = run_cli(["sample", "--n", "10", "--k", "3", "--p", "0.2",
                              "--seed", "7", "--output", str(path)])
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def exit_code(args):
    try:
        return run_cli(args)[0]
    except SystemExit as exc:       # a flag argparse rejects
        return exc.code


BERNOULLI = ["sample", "--n", "10", "--k", "3", "--p", "0.2", "--seed", "1"]
CONDITIONED = BERNOULLI + ["--sampler", "conditioned"]
INDEPENDENT = ["sample", "--n", "10", "--k", "3", "--sampler", "independent", "--m", "4",
               "--seed", "1"]


@pytest.mark.parametrize("base, extra", [
    (BERNOULLI, ["--m", "5", "--eps-thr", "0.3", "--c-regime", "0.2", "--psi", "9"]),
    (INDEPENDENT, ["--phi", "1", "--edge-enum-cap", "5"]),
    *[(BERNOULLI, flag) for flag in (["--m", "5"], ["--eps-thr", "0.3"],
                                     ["--c-regime", "0.2"], ["--psi", "9"])],
    (CONDITIONED, ["--m", "5"]),
    (CONDITIONED, ["--psi", "9"]),
    *[(INDEPENDENT, flag) for flag in (["--phi", "1"], ["--p", "0.2"],
                                       ["--edge-enum-cap", "5"], ["--eps-thr", "0.3"])],
])
def test_sample_rejects_flags_its_sampler_ignores(base, extra):
    # these flags used to be accepted and change no byte of the output
    assert exit_code(base) == 0
    assert exit_code(base + extra) == 2


def test_sample_edge_enum_cap_still_applies():
    for base in (BERNOULLI, CONDITIONED):
        assert exit_code(base + ["--edge-enum-cap", "120"]) == 0     # C(10, 3) = 120
        assert exit_code(base + ["--edge-enum-cap", "119"]) == 3


@pytest.mark.parametrize("n", ["256", "207"])         # C(207, 12) = 9.34e18: 2**63 < N < 2**64
@pytest.mark.parametrize("sampler", ["bernoulli", "conditioned"])
def test_sample_refuses_ranks_beyond_int64(sampler, n):
    # C(n, 12) >= 2**63: this was a traceback (exit 1), an OverflowError in
    # rng.binomial or numpy's "Maximum allowed dimension exceeded"
    code, _, err = run_cli(["sample", "--n", n, "--k", "12", "--phi", "5", "--sampler",
                            sampler, "--edge-enum-cap", str(10**30), "--seed", "1"])
    assert code == 3 and "2**63" in err


def test_env_seed_fallback(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    code, _, _ = run_cli(["sample", "--n", "10", "--k", "3", "--p", "0.2",
                          "--seed", "3", "--output", str(a)])
    code2, _, _ = run_cli(["sample", "--n", "10", "--k", "3", "--p", "0.2",
                           "--output", str(b)], env_seed=3)
    assert code == code2 == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_triangle(tmp_path):
    path = tmp_path / "tri.txt"
    path.write_text(TRIANGLE)
    code, out, _ = run_cli(["verify", str(path)])
    assert code == 0
    d = json.loads(out)
    assert d == {"holds": False, "omega": 3, "delta": 2,
                 "witness": [[1, 2], [1, 3], [2, 3]]}


def test_verify_full_family_past_recursion_depth(tmp_path):
    # C([13],7): 1716 edges, inside the default edge cap; one clique of them all
    from itertools import combinations
    lines = ["13 7 1716"] + [" ".join(str(v + 1) for v in e)
                             for e in combinations(range(13), 7)]
    path = tmp_path / "k137.txt"
    path.write_text("\n".join(lines) + "\n")
    code, out, _ = run_cli(["verify", str(path)])
    assert code == 0
    d = json.loads(out)
    assert (d["holds"], d["omega"], d["delta"]) == (False, 1716, 924)
    assert len(d["witness"]) == 1716


def test_verify_parse_error(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("6 2 1\n2 1\n")
    code, _, err = run_cli(["verify", str(path)])
    assert code == 4 and "parse" in err


def test_verify_missing_file():
    code, _, _ = run_cli(["verify", "/nonexistent/file.txt"])
    assert code == 4


def test_verify_resource_error(tmp_path):
    path = tmp_path / "h.txt"
    path.write_text(TRIANGLE)
    code, _, err = run_cli(["verify", str(path), "--edge-cap", "2"])
    assert code == 3 and "resource" in err


@pytest.mark.parametrize("flags, message", [
    (["--node-budget", "0"], "node budget"), (["--node-budget", "-5"], "node budget"),
    (["--edge-cap", "-1"], "edge cap")])
def test_invalid_limits_exit_2(tmp_path, flags, message):
    path = tmp_path / "tri.txt"
    path.write_text(TRIANGLE)
    code, out, err = run_cli(["verify", str(path)] + flags)
    assert code == 2 and out == "" and message in err
    code, out, err = run_cli(["sweep", "--n", "10", "--k", "2", "--grid-start", "1",
                              "--grid-stop", "2", "--grid-points", "2", "--trials", "2",
                              "--seed", "1"] + flags)
    assert code == 2 and out == "" and message in err
    if "--node-budget" in flags:
        for detector in (["--generic-size", "3"], ["--hm-d", "2"]):
            code, out, err = run_cli(["witness", str(path)] + detector + flags)
            assert code == 2 and out == "" and message in err


def test_witness_detectors(tmp_path):
    path = tmp_path / "tri.txt"
    path.write_text(TRIANGLE)
    code, out, _ = run_cli(["witness", str(path), "--hm-d", "2",
                            "--generic-size", "3"])
    assert code == 0
    d = json.loads(out)
    kinds = [w["kind"] for w in d["witnesses"]]
    assert kinds == ["hm", "generic"]


def test_sweep_byte_identical(tmp_path):
    args = ["sweep", "--n", "10", "--k", "2", "--grid-start", "0.5",
            "--grid-stop", "3", "--grid-points", "3", "--trials", "20",
            "--seed", "9"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(args + ["--output", str(a)])[0] == 0
    assert run_cli(args + ["--output", str(b)])[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_worker_invariance(tmp_path):
    base = ["sweep", "--n", "10", "--k", "2", "--grid-start", "1",
            "--grid-stop", "2", "--grid-points", "2", "--trials", "16",
            "--seed", "4"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(base + ["--workers", "1", "--output", str(a)])[0] == 0
    assert run_cli(base + ["--workers", "3", "--output", str(b)])[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_c_regime_reaches_the_model():
    code, _, err = run_cli(["sweep", "--n", "10", "--k", "2", "--grid-start", "1",
                            "--grid-stop", "2", "--grid-points", "2", "--trials", "2",
                            "--seed", "1", "--c-regime", "0.3"])
    assert code == 2 and "c_regime" in err


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_sweep_nonpositive_workers_exits_2(workers):
    code, out, err = run_cli(["sweep", "--n", "10", "--k", "2", "--grid-start", "1",
                              "--grid-stop", "2", "--grid-points", "2", "--trials", "2",
                              "--seed", "1", "--workers", workers])
    assert code == 2 and out == "" and "workers" in err


def test_sweep_log_grid_and_json(tmp_path):
    code, out, _ = run_cli(["sweep", "--n", "10", "--k", "2", "--grid-start", "0.5",
                            "--grid-stop", "2", "--grid-points", "3",
                            "--grid-scale", "log", "--trials", "5", "--seed", "2",
                            "--format", "json"])
    assert code == 0
    d = json.loads(out)
    phis = [r["phi"] for r in d["rows"]]
    assert phis[0] == pytest.approx(0.5) and phis[-1] == pytest.approx(2.0)
    assert phis[1] == pytest.approx(1.0)   # geometric middle


def test_help_lists_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["calc", "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    for flag in ("--n", "--k", "--phi", "--p", "--psi", "--eps-thr",
                 "--c-regime", "--output", "--t-max"):
        assert flag in text, flag
    with pytest.raises(SystemExit):
        cli.main(["sweep", "--help"])
    text = capsys.readouterr().out
    for flag in ("--grid-start", "--grid-stop", "--grid-points", "--grid-scale",
                 "--trials", "--workers", "--format", "--sampler",
                 "--edge-cap", "--node-budget", "--seed"):
        assert flag in text, flag


def test_unknown_flag_hard_error():
    with pytest.raises(SystemExit) as exc:
        cli.main(["calc", "--n", "5", "--k", "2", "--bogus"])
    assert exc.value.code != 0


def test_console_script_installed():
    out = subprocess.run([sys.executable, "-m", "ekrlab.cli", "--help"],
                         capture_output=True, text=True)
    # module execution path: argparse prints usage and exits 0
    assert out.returncode == 0
    assert "ekrlab" in out.stdout


@pytest.mark.parametrize("args", [
    ["calc", "--n", "24", "--k", "3", "--phi", "nan"],
    ["sweep", "--n", "24", "--k", "3", "--grid-start", "nan", "--grid-stop", "2",
     "--grid-points", "2", "--trials", "1"],
    ["sweep", "--n", "24", "--k", "3", "--grid-start", "1", "--grid-stop", "nan",
     "--grid-points", "2", "--trials", "1"],
], ids=["calc-phi", "sweep-grid-start", "sweep-grid-stop"])
def test_nan_phi_exits_2(args):
    # a NaN phi passes both range checks; the alpha2 scan then never ended
    code, out, err = run_cli(args)
    assert code == 2 and out == "" and "phi must be finite" in err


@pytest.mark.parametrize("args, message", [
    (["sweep", "--n", "24", "--k", "3", "--grid-start", "1", "--grid-stop", "-1",
      "--grid-points", "3", "--grid-scale", "log", "--trials", "1"], "positive start and stop"),
    (["sweep", "--n", "24", "--k", "3", "--grid-start", "1", "--grid-stop", "0",
      "--grid-points", "3", "--grid-scale", "log", "--trials", "1"], "positive start and stop"),
    (["sample", "--sampler", "independent", "--n", "10", "--k", "11", "--m", "1"],
     "0 < k <= n"),
    (["sample", "--n", "300", "--k", "3", "--phi", "1"], "n <= 256"),
], ids=["log-grid-negative-stop", "log-grid-zero-stop", "sample-k-above-n",
        "sample-n-above-256"])
def test_out_of_domain_input_exits_2(args, message):
    # a negative log-grid stop made the grid ratio complex (a TypeError), and
    # k > n reached numpy's integers(0, 0) (a ValueError)
    code, out, err = run_cli(args)
    assert code == 2 and out == "" and message in err


@pytest.mark.parametrize("command", ["calc", "verify", "witness"])
def test_seed_rejected_where_nothing_is_drawn(tmp_path, capsys, command):
    path = tmp_path / "tri.txt"
    path.write_text(TRIANGLE)
    args = {"calc": ["calc", "--n", "24", "--k", "3"],
            "verify": ["verify", str(path)],
            "witness": ["witness", str(path), "--hm-d", "2"]}[command]
    assert run_cli(args)[0] == 0
    with pytest.raises(SystemExit) as exc:
        cli.main(args + ["--seed", "1"])
    assert exc.value.code == 2 and "--seed" in capsys.readouterr().err
