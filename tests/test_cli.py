import hashlib
import json
import math
import os
import subprocess
import sys
from itertools import combinations

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
    # it needs no p, so an M past the double range reads inf
    code, out, _ = run_cli(["calc", "--n", "3000", "--k", "1000"])
    assert code == 0 and json.loads(out)["M"] == math.inf
    # its threshold estimate reads --eps-thr
    reports = [run_cli(["calc", "--n", "24", "--k", "3", *eps]) for eps in
               ([], ["--eps-thr", "0.3"])]
    assert [code for code, _, _ in reports] == [0, 0]
    assert reports[0][1] != reports[1][1]


def test_calc_boundary_with_model_exits_2():
    code, _, err = run_cli(["calc", "--n", "6", "--k", "3", "--phi", "1"])
    assert code == 2
    assert "n > 2k" in err


def test_calc_phi0_lambda_table():
    # the default table, then both ends of --t-max's range
    for t_max, size in (([], 9), (["--t-max", "0"], 1), (["--t-max", "1024"], 1025)):
        code, out, _ = run_cli(["calc", "--n", "5", "--k", "2", "--phi", "0", *t_max])
        assert code == 0
        d = json.loads(out)
        assert d["lambda_t"][0] == 1.0 and len(d["lambda_t"]) == size
        assert all(v == 0.0 for v in d["lambda_t"][1:])


def test_calc_full_report_fields():
    code, out, _ = run_cli(["calc", "--n", "24", "--k", "3", "--phi", "5"])
    d = json.loads(out)
    for field in ("q", "theta", "alpha1", "alpha2", "alpha", "beta", "beta_star",
                  "phi_star", "gamma", "tau", "lambda", "xi", "r0", "w", "qhat",
                  "threshold_phi0", "threshold_reference"):
        assert field in d, field
    # cli parses --phi and --p as floats, so the tails are never exact Fractions
    # there: calc reports no exact_tails flag, which could only read false
    assert "exact_tails" not in d


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
    (INDEPENDENT, ["--phi", "1", "--p", "0.2"]),
    *[(BERNOULLI, flag) for flag in (["--m", "5"], ["--eps-thr", "0.3"],
                                     ["--c-regime", "0.2"], ["--psi", "9"])],
    (CONDITIONED, ["--m", "5"]),
    (CONDITIONED, ["--psi", "9"]),
    *[(INDEPENDENT, flag) for flag in (["--phi", "1"], ["--p", "0.2"],
                                       ["--psi", "9"], ["--eps-thr", "0.3"])],
    # the retired enumeration-cap flag: the cap is a constant on every sampler
    *[(base, ["--edge-enum-cap", "120"]) for base in (BERNOULLI, CONDITIONED, INDEPENDENT)],
])
def test_sample_rejects_flags_its_sampler_ignores(base, extra):
    # these flags used to be accepted and change no byte of the output
    assert exit_code(base) == 0
    assert exit_code(base + extra) == 2


def test_sample_edge_enum_cap_still_applies():
    # the cap is 10**7 k-sets for bernoulli, and no flag raises it:
    # C(100, 5) = 7.5e7, which the conditioned sampler draws in O(m)
    code, out, err = run_cli(["sample", "--n", "100", "--k", "5", "--phi", "1", "--seed", "1"])
    assert code == 3 and out == "" and "--sampler conditioned" in err
    assert exit_code(BERNOULLI + ["--edge-enum-cap", str(10**30)]) == 2


@pytest.mark.parametrize("n", ["256", "207"])         # C(207, 12) = 9.34e18: 2**63 < N < 2**64
@pytest.mark.parametrize("sampler", ["bernoulli", "conditioned"])
def test_sample_refuses_ranks_beyond_int64(sampler, n):
    # C(n, 12) >= 2**63: this was a traceback (exit 1), an OverflowError in
    # rng.binomial or numpy's "Maximum allowed dimension exceeded"; the int64
    # check comes before bernoulli's enumeration cap
    code, _, err = run_cli(["sample", "--n", n, "--k", "12", "--phi", "5", "--sampler",
                            sampler, "--seed", "1"])
    assert code == 3 and "2**63" in err


@pytest.mark.parametrize("args", [
    ["sample", "--n", "10", "--k", "3", "--sampler", "independent", "--m", str(10**7 + 1)],
    ["sample", "--n", "256", "--k", "256", "--sampler", "independent", "--m", str(10**7)],
    ["sweep", "--n", "100", "--k", "5", "--grid-start", "1e6", "--grid-stop", "1e6",
     "--grid-points", "1", "--trials", "2", "--sampler", "independent"],
], ids=["sample --m", "sample --m --k", "sweep phi"])
def test_independent_draws_are_capped(args):
    # each drew without bound: more than 10**7 edges asked for, or expected
    # (p C(100, 5) = 1.9e7 at phi = 10**6), or 2.56e9 vertices (~9 GB of
    # output at k = 256), exit 3 before any draw
    code, out, err = run_cli(args)
    assert code == 3 and out == "" and "10000000" in err


# sha256 of `ekrlab sample` stdout, taken when the numpy samplers (now
# tests/oracles.py) drew it: all three samplers, n = 256, k = n, n across
# the 64-bit word boundary, p = 0 and p = 1, and a large --m
SAMPLE_SHA256 = [
    ("bernoulli", "10 3 --p 0.2 --seed 1",
     "876fb3fe8edccec5920f07228f4098d850f262f60f9bc425dfe9a8d66f2d8f14"),
    ("bernoulli", "24 3 --phi 3 --seed 7",
     "1d13fba82c12dd4e2d02307edcb5db2d90d8f291bda5c6fc963f7b5454c0f66e"),
    ("bernoulli", "256 2 --phi 4 --seed 5",
     "28362f657bf5d21192cb8e66e9a102196beda8b22dea98695edbdd82e75dd5fb"),
    ("bernoulli", "64 3 --phi 6 --seed 0",
     "4f14605cc76be4df6431379652aa502e5ee555b1de7ad664f36cfa0bc73f3496"),
    ("bernoulli", "8 2 --p 0 --seed 3",
     "469e7b8f3889b661a57937ffeb2854eb19f5fa62dc7de9312ccceb9617130788"),
    ("bernoulli", "9 3 --p 1 --seed 3",
     "bd5199bdc3f8993433da523ee1ec07e5abcd21ffba825d35897ed0bee99d1cef"),
    ("conditioned", "14 5 --phi 60 --seed 1",
     "6b35c0c450e7eec793483cf6e6eba0bb88ce39d47150680de766a198cb6449f6"),
    ("conditioned", "65 3 --phi 10 --seed 5",
     "bafd439766425b7d69e4dd95821364ea2d03a79c332d26ba7bfcfc58d10e7340"),
    ("conditioned", "100 5 --phi 20 --seed 4",
     "f9a260efde97733d374ed5eaff9eb06c6466bbb2cda247e0453d8da5753706e8"),
    ("conditioned", "256 3 --phi 5 --seed 2",
     "21f33407b218e9a043b943e335b85a12e1937de683f755ce630b6a8f518dcc3e"),
    ("conditioned", "256 11 --phi 3 --seed 9",
     "fa411e1395d91340c44ede055dec5d0542116a4688cd1dc9db28dc2a8b874cac"),
    ("conditioned", "12 3 --p 0 --seed 3",
     "bccc2d472ce24af9ef02a1276aea8c245da6ec8dfaea7c98cf3c907e5b5458fe"),
    ("conditioned", "12 3 --p 1 --seed 3",
     "7e4afc47ce640654a559815cf875b6ea9ee2067a12c3c4449910c017297090a8"),
    ("independent", "10 3 --m 0 --seed 1",
     "e2aafa2c10d24d2fad848c46a24fb9bebea3aa54da724cb5062cc25369caeb54"),
    ("independent", "10 3 --m 40 --seed 1",
     "744f002750d7d396ee305ea1ea4041bb01e6b4590a4079a684c474e0fab3e23e"),
    ("independent", "64 8 --m 300 --seed 4",
     "7c530f1620050e759f7b963d4bebb35920936c8e885738f2d53ae16ce3490a6b"),
    ("independent", "100 5 --m 500 --seed 6",
     "10ad7a468d798b2fb36a810f196833ee4f331c1da9499d0864771a4ccf873394"),
    ("independent", "256 18 --m 200 --seed 3",
     "53ed46de129e378aa269cfdb00d7d0f7b907757a1948f83a17e63eebddafa51c"),
    ("independent", "7 7 --m 5 --seed 0",
     "2cb511fe87b8090e30fd14784602e25654c58e8266c0cffdb2d976833352aae9"),
    ("independent", "256 256 --m 30 --seed 8",
     "675b125229f7c3fa7a499ed5ce4413c883f07200dbf87be2ff53ed7648417eb3"),
    ("independent", "10 3 --m 1000000 --seed 2",
     "9f4e149282c4c144e3a8db2ca02b354cc12b66d6ae4bca3f96ce684d3ba34290"),
]


@pytest.mark.parametrize("sampler, args, digest", SAMPLE_SHA256,
                         ids=[f"{sampler} {args}" for sampler, args, _ in SAMPLE_SHA256])
def test_sample_output_pinned(sampler, args, digest):
    n, k, *rest = args.split()
    code, out, err = run_cli(["sample", "--n", n, "--k", k, *rest, "--sampler", sampler])
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_env_seed_fallback(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    code, _, _ = run_cli(["sample", "--n", "10", "--k", "3", "--p", "0.2",
                          "--seed", "3", "--output", str(a)])
    code2, _, _ = run_cli(["sample", "--n", "10", "--k", "3", "--p", "0.2",
                           "--output", str(b)], env_seed=3)
    assert code == code2 == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("args, env_seed, message", [
    (["sample", "--n", "10", "--k", "3", "--p", "0.2"], -5, "EKRLAB_SEED must be >= 0"),
    (["sample", "--n", "10", "--k", "3", "--p", "0.2", "--seed", "-1"], None,
     "--seed must be >= 0"),
    (["sweep", "--n", "24", "--k", "3", "--grid-start", "1", "--grid-stop", "2",
      "--grid-points", "2", "--trials", "1", "--seed", "-1"], None, "--seed must be >= 0"),
    (["sweep", "--n", "24", "--k", "3", "--grid-start", "1", "--grid-stop", "2",
      "--grid-points", "2", "--trials", "1"], -5, "EKRLAB_SEED must be >= 0"),
], ids=["sample-env", "sample-flag", "sweep-flag", "sweep-env"])
def test_negative_seed_exits_2(args, env_seed, message):
    # numpy's SeedSequence raised a ValueError here: a traceback, exit 1
    code, out, err = run_cli(args, env_seed=env_seed)
    assert code == 2 and out == "" and message in err


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


def test_witness_nan_zeta_cap_exits_2(tmp_path):
    # it exited 0 with a "generic" clique that is_generic_clique rejects
    path = tmp_path / "h.txt"
    assert run_cli(["sample", "--n", "25", "--k", "5", "--phi", "10", "--seed", "26",
                    "--output", str(path)])[0] == 0
    code, out, err = run_cli(["witness", str(path), "--generic-size", "7",
                              "--zeta-cap", "nan"])
    assert code == 2 and out == "" and "zeta cap" in err


def witness_in_128_mib(tmp_path, detector):
    """(exit code, stdout, stderr) of `witness` with the detector on all
    42,504 5-subsets of [24], the address space held to 128 MiB above the
    loaded kernel's."""
    path = tmp_path / "big.txt"
    edges = combinations(range(1, 25), 5)
    path.write_text("24 5 42504\n" + "".join(" ".join(map(str, e)) + "\n" for e in edges))
    code = f"""if True:
        import os, resource, sys
        from ekrlab import _native, cli
        _native.kernel(24)
        limit = int(open("/proc/self/statm").read().split()[0]) * os.sysconf("SC_PAGE_SIZE")
        resource.setrlimit(resource.RLIMIT_AS, (limit + (128 << 20),) * 2)
        sys.exit(cli.main(["witness", {str(path)!r}, *{detector!r}]))
    """
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    return out.returncode, out.stdout, out.stderr


@pytest.mark.parametrize("detector", [["--generic-size", "7", "--zeta-cap", "3"]])
def test_witness_out_of_memory_exits_3(tmp_path, detector):
    # the generic search's native block (~225 MB) cannot be allocated,
    # which raised MemoryError with a traceback (exit 1)
    assert witness_in_128_mib(tmp_path, detector) == (
        3, "", "ekrlab: resource limit: out of memory\n")


def test_witness_hilton_milner_fits_in_128_mib(tmp_path):
    # the detector builds only the adjacency rows it reads; the whole
    # adjacency (~225 MB) ran out of memory (exit 3).  Vertex 1's petals are
    # the 8855 - C(18, 4) = 5795 edges through 1 that meet {2, ..., 6}
    code, out, err = witness_in_128_mib(tmp_path, ["--hm-d", "5"])
    assert (code, err) == (0, "")
    (w,) = json.loads(out)["witnesses"]
    b0, *petals = w["witness"]
    assert (w["kind"], w["center"], b0, len(petals)) == ("hm", 1, [2, 3, 4, 5, 6], 5795)
    assert all(1 in e and set(e) & set(b0) for e in petals)


def test_witness_hilton_milner_without_a_witness_fits_in_128_mib(tmp_path):
    # every vertex has degree 8855 >= d, but at most 5795 petals: no
    # witness, after every (x, B0) is tried.  The detector kept each
    # adjacency row it built, all m of them by the end (~225 MB, exit 3);
    # it now holds one vertex's pair stars at a time
    code, out, err = witness_in_128_mib(tmp_path, ["--hm-d", "6000"])
    assert (code, err) == (0, "")
    assert json.loads(out)["witnesses"] == []


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
    (["calc", "--n", "3000", "--k", "1000", "--phi", "5"], "past the double range"),
    (["calc", "--n", "3000", "--k", "1000", "--p", "0.5"], "past the double range"),
    (["sample", "--n", "3000", "--k", "1000", "--p", "0.1"], "past the double range"),
    (["sweep", "--n", "3000", "--k", "1000", "--grid-start", "1", "--grid-stop", "2",
      "--grid-points", "2", "--trials", "1"], "past the double range"),
    (["calc", "--n", "24", "--k", "3", "--phi", "5.1", "--t-max", "-1"], "--t-max must lie"),
    (["calc", "--n", "24", "--k", "3", "--phi", "5.1", "--t-max", "1025"], "--t-max must lie"),
    (["calc", "--n", "24", "--k", "3", "--t-max", "5"], "takes no --t-max"),
    (["calc", "--n", "24", "--k", "3", "--psi", "9"], "takes no --psi"),
    (["calc", "--n", "24", "--k", "3", "--c-regime", "0.2"], "takes no --c-regime"),
], ids=["log-grid-negative-stop", "log-grid-zero-stop", "sample-k-above-n",
        "sample-n-above-256", "calc-phi-M-past-double", "calc-p-M-past-double",
        "sample-M-past-double", "sweep-M-past-double", "calc-t-max-negative",
        "calc-t-max-above-1024", "calc-q-only-t-max", "calc-q-only-psi",
        "calc-q-only-c-regime"])
def test_out_of_domain_input_exits_2(args, message):
    # a negative log-grid stop made the grid ratio complex (a TypeError), k > n
    # reached numpy's integers(0, 0) (a ValueError), and C(n-1, k-1) past
    # 2**1023 overflowed float(); --t-max had no bound on its quadratic table;
    # the q-only calc ignored the flags only the model reads
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


# (n, k) across the documented domain, n <= 256, k <= 18: the paper's regime
# k < sqrt(c n log n), c < 1/4, (100, 5) to (256, 18), small and boundary
# shapes, and C(n, k) >= 2**63 from (256, 12) on
@pytest.mark.parametrize("args", [
    ["calc", "--n", "100", "--k", "10", "--p", "0.5"],
    ["calc", "--n", "256", "--k", "10", "--p", "0.5"],
    ["calc", "--n", "256", "--k", "10", "--phi", "1e15"],
    ["sweep", "--n", "256", "--k", "10", "--grid-start", "1e15", "--grid-stop", "1e15",
     "--grid-points", "1", "--trials", "1"],
], ids=["calc-sum", "calc-poisson-p", "calc-poisson-phi", "sweep-guard"])
def test_large_binomial_tails_end_at_once(args):
    # each ran past 15 s: calc summed ~9 sigma tail terms, or ~sqrt(mean)
    # through the Poisson limit, and the sweep evaluated those tails before
    # the sampler's guard refused the point; a child process, killed at 10 s
    out = subprocess.run([sys.executable, "-m", "ekrlab.cli", *args],
                         capture_output=True, text=True, timeout=10)
    assert out.returncode == 3, out.stderr
    assert ("expected edge count" if args[0] == "sweep" else "tail") in out.stderr
    assert out.stdout == ""


@pytest.mark.parametrize("args, message", [
    (["calc", "--n", "24", "--k", "3", "--phi", "3", "--psi", "inf"], "psi must be"),
    (["calc", "--n", "24", "--k", "3", "--phi", "3", "--psi", "1e308"], "level"),
    (["sweep", "--n", "24", "--k", "3", "--grid-start", "1", "--grid-stop", "2",
      "--grid-points", "2", "--trials", "2", "--psi", "inf"], "psi must be"),
], ids=["calc-psi-inf", "calc-psi-1e308", "sweep-psi-inf"])
def test_degenerate_psi_exits_2_at_once(args, message):
    # beta's level 1/(n psi) is 0 at psi = inf, and rounds to 0 at 1e308:
    # the quantile walked forever (calc), or the sweep ran with a psi it
    # cannot read (exit 0); a child process, killed at 10 s
    out = subprocess.run([sys.executable, "-m", "ekrlab.cli", *args],
                         capture_output=True, text=True, timeout=10)
    assert out.returncode == 2, out.stderr
    assert message in out.stderr and out.stdout == ""


@pytest.mark.parametrize("n, k, phi, alpha1, beta", [
    (144, 11, "125.91", 147, 161), (256, 9, "50", 65, 74), (100, 10, "5", 9, 12)])
def test_calc_degree_brackets(n, k, phi, alpha1, beta):
    # checked against scipy.stats.binom.sf and the decimal oracle: the lgamma
    # start term gave (120, 142) and (72, 78) at the first two
    code, out, _ = run_cli(["calc", "--n", str(n), "--k", str(k), "--phi", phi])
    d = json.loads(out)
    assert code == 0 and (d["alpha1"], d["beta"]) == (alpha1, beta)


EXIT_GRID = [(10, 3), (24, 3), (13, 6), (12, 6), (18, 18), (256, 1), (100, 5), (100, 10),
             (256, 10), (207, 12), (256, 12), (256, 18)]


@pytest.mark.parametrize("n, k", EXIT_GRID, ids=[f"{n}-{k}" for n, k in EXIT_GRID])
def test_exit_codes_are_documented(n, k):
    # every command ends in 0, 2 (n <= 2k, k = n) or 3 (a cap), never in a
    # traceback (exit 1)
    nk = ["--n", str(n), "--k", str(k)]
    runs = {"calc": ["calc", *nk], "calc phi": ["calc", *nk, "--phi", "5"]}
    runs["calc p 1"] = ["calc", *nk, "--p", "1"]
    for sampler in ("bernoulli", "conditioned", "independent"):
        runs[f"sweep {sampler}"] = ["sweep", *nk, "--grid-start", "1", "--grid-stop", "20",
                                    "--grid-points", "2", "--grid-scale", "log",
                                    "--trials", "2", "--sampler", sampler, "--seed", "1"]
    for sampler in ("bernoulli", "conditioned"):
        for degree in (["--phi", "0.5"], ["--phi", "20"], ["--p", "1"]):
            runs[f"sample {sampler} {degree[1]}"] = ["sample", *nk, *degree,
                                                     "--sampler", sampler, "--seed", "1"]
    runs["sample independent"] = ["sample", *nk, "--sampler", "independent", "--m", "50"]
    codes = {name: run_cli(args)[0] for name, args in runs.items()}
    assert set(codes.values()) <= {0, 2, 3}, codes
    if n > 2 * k:       # p = 1 is a model; float(C(n-1, k-1)) may exceed it
        assert codes["calc p 1"] == 0, codes
    if n > 2 * k and math.comb(n - 1, k - 1) >= 20:        # phi = 20 is a model
        N = math.comb(n, k)
        assert codes["calc phi"] == codes["sample independent"] == 0, codes
        assert codes["sweep conditioned"] == codes["sample conditioned 20"] == codes[
            "sweep independent"] == (0 if N < 2**63 else 3), codes
        assert codes["sweep bernoulli"] == codes["sample bernoulli 20"] == (
            0 if N <= 10**7 else 3), codes

