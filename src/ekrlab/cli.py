"""Command-line surface: calc, sample, verify, witness, sweep.

Every subcommand is a pure function of (flags, input files, seed); repeated
invocations are byte-identical.  Exit codes: 0 ok, 2 domain error (or a
flag argparse rejects), 3 resource cap, 4 parse error.  Only sample and
sweep draw at random, so only they take --seed; EKRLAB_SEED is their seed
fallback when it is not given.  Every flag a command accepts has an effect:
sample takes no --psi, --eps-thr or --c-regime, and rejects the flags its
sampler ignores (--m without --sampler independent; --phi, --p and
--edge-enum-cap with it).  All files UTF-8.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import analytics, montecarlo, verifier, witnesses
from .analytics import ModelParams
from .errors import DomainError, ParseError, ResourceLimitError
from .hypergraph import (DEFAULT_ENUM_CAP, dump_hypergraph, read_hypergraph,
                         sample_bernoulli, sample_conditioned, sample_independent)

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_RESOURCE = 3
EXIT_PARSE = 4


def _seed_from(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("EKRLAB_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise DomainError(f"EKRLAB_SEED must be an integer, got {env!r}") from exc
    return 0


def _params_from(args) -> ModelParams:
    if args.n is None or args.k is None:
        raise DomainError("--n and --k are required")
    # sample takes no --psi, --eps-thr or --c-regime: no sampler reads them
    kw = {name: getattr(args, name) for name in ("psi", "eps_thr", "c_regime")
          if name in args}
    if args.phi is not None and args.p is not None:
        raise DomainError("give exactly one of --phi / --p")
    if args.phi is not None:
        return ModelParams.from_phi(args.n, args.k, args.phi, **kw)
    if args.p is not None:
        return ModelParams.from_p(args.n, args.k, args.p, **kw)
    raise DomainError("one of --phi / --p is required")


def _emit(text: str, path) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _json_dumps(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _add_degree_flags(sp) -> None:
    sp.add_argument("--n", type=int, help="ground-set size (n > 2k)")
    sp.add_argument("--k", type=int, help="edge size")
    sp.add_argument("--phi", type=float, help="expected vertex degree")
    sp.add_argument("--p", type=float, help="edge probability (alternative to --phi)")


def _add_model_flags(sp) -> None:
    _add_degree_flags(sp)
    sp.add_argument("--psi", type=float, default=None,
                    help="slowly growing auxiliary (default: log n)")
    sp.add_argument("--eps-thr", type=float, default=0.1, dest="eps_thr",
                    help="finite-n tolerance standing in for the o(1)s")
    sp.add_argument("--c-regime", type=float, default=0.15, dest="c_regime",
                    help="regime constant c in (0, 1/4); eps = 1/4 - c")


def _add_output(sp) -> None:
    sp.add_argument("--output", default=None, help="output path (default: stdout)")


def _add_seed(sp) -> None:
    sp.add_argument("--seed", type=int, default=None,
                    help="master seed (fallback: EKRLAB_SEED, then 0)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ekrlab",
        description="Exact and Monte Carlo laboratory for the EKR property "
                    "of random k-uniform hypergraphs.")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("calc", help="closed-form report: q, theta, Lambda table, "
                                     "alpha/beta/beta*, regime parameters, threshold")
    _add_model_flags(sp)
    _add_output(sp)
    sp.add_argument("--t-max", type=int, default=None, dest="t_max",
                    help="largest t in the Lambda table")

    sp = sub.add_parser("sample", help="sample one hypergraph to the text format")
    _add_degree_flags(sp)
    _add_seed(sp)
    _add_output(sp)
    sp.add_argument("--sampler", choices=montecarlo.SAMPLER_MODES, default="bernoulli")
    sp.add_argument("--m", type=int, default=None,
                    help="edge count for --sampler independent (only)")
    sp.add_argument("--edge-enum-cap", type=int, default=None, dest="enum_cap",
                    help="refuse to enumerate C(n,k) beyond this (default 10^7; "
                         "not with --sampler independent)")

    sp = sub.add_parser("verify", help="exact strong-EKR verdict for a hypergraph file")
    _add_output(sp)
    sp.add_argument("input", help="hypergraph file (header 'n k m', 1-based edges)")
    sp.add_argument("--edge-cap", type=int, default=verifier.DEFAULT_EDGE_CAP)
    sp.add_argument("--node-budget", type=int, default=verifier.DEFAULT_NODE_BUDGET)

    sp = sub.add_parser("witness", help="obstruction detectors on a hypergraph file")
    _add_output(sp)
    sp.add_argument("input")
    sp.add_argument("--hm-d", type=int, default=None,
                    help="search a Hilton-Milner family with at least this many petals")
    sp.add_argument("--generic-size", type=int, default=None,
                    help="search a generic clique of this size")
    sp.add_argument("--zeta-cap", type=float, default=math.inf,
                    help="cap on degree-3 vertices in a generic clique")
    sp.add_argument("--node-budget", type=int, default=verifier.DEFAULT_NODE_BUDGET)

    sp = sub.add_parser("sweep", help="estimate Pr(EKR) over a phi grid")
    _add_model_flags(sp)
    _add_seed(sp)
    _add_output(sp)
    sp.add_argument("--grid-start", type=float, required=True)
    sp.add_argument("--grid-stop", type=float, required=True)
    sp.add_argument("--grid-points", type=int, required=True)
    sp.add_argument("--grid-scale", choices=("linear", "log"), default="linear")
    sp.add_argument("--trials", type=int, required=True)
    sp.add_argument("--sampler", choices=montecarlo.SAMPLER_MODES, default="conditioned")
    sp.add_argument("--workers", type=int, default=1,
                    help="worker processes (default 1 for bit-stable baselines)")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--edge-cap", type=int, default=verifier.DEFAULT_EDGE_CAP)
    sp.add_argument("--node-budget", type=int, default=verifier.DEFAULT_NODE_BUDGET)
    return ap


def _cmd_calc(args) -> int:
    if args.phi is None and args.p is None:
        # no degree parameter: the q-only report (valid down to n = 2k)
        if args.n is None or args.k is None:
            raise DomainError("--n and --k are required")
        n, k = args.n, args.k
        q = analytics.intersection_probability(n, k, exact_mode=False)
        report = {"n": n, "k": k, "M": float(math.comb(n - 1, k - 1)),
                  "theta": 1.0 - q, "q": q}
        if 0 < q < 1:
            est = analytics.threshold_estimate(n, k, args.eps_thr)
            report["threshold_phi0"] = est.phi0
            report["threshold_reference"] = est.reference
        _emit(_json_dumps(report), args.output)
        return EXIT_OK
    params = _params_from(args)
    report = analytics.analytics_report(params, t_max=args.t_max)
    _emit(_json_dumps(report), args.output)
    return EXIT_OK


# the sample flags a sampler ignores: given with it, they exit 2
_SAMPLE_UNUSED = {
    "bernoulli": (("m", "--m"),),
    "conditioned": (("m", "--m"),),
    "independent": (("phi", "--phi"), ("p", "--p"), ("enum_cap", "--edge-enum-cap")),
}


def _cmd_sample(args) -> int:
    unused = [flag for name, flag in _SAMPLE_UNUSED[args.sampler]
              if getattr(args, name) is not None]
    if unused:
        raise DomainError(f"--sampler {args.sampler} takes no {' / '.join(unused)}")
    seed = _seed_from(args)
    if args.sampler == "independent":
        if args.m is None:
            raise DomainError("--sampler independent needs --m")
        if args.n is None or args.k is None:
            raise DomainError("--n and --k are required")
        H = sample_independent(args.n, args.k, args.m, seed)
    else:
        params = _params_from(args)
        cap = DEFAULT_ENUM_CAP if args.enum_cap is None else args.enum_cap
        if args.sampler == "bernoulli":
            H = sample_bernoulli(params.n, params.k, float(params.p), seed, cap=cap)
        else:
            H, _ = sample_conditioned(params.n, params.k, float(params.p), seed, cap=cap)
    _emit(dump_hypergraph(H), args.output)
    return EXIT_OK


def _cmd_verify(args) -> int:
    H = read_hypergraph(args.input)
    verdict = verifier.verify_ekr(H, edge_cap=args.edge_cap,
                                  node_budget=args.node_budget)
    _emit(_json_dumps(verifier.verdict_to_json(H, verdict)), args.output)
    return EXIT_OK


def _cmd_witness(args) -> int:
    verifier.check_limits(node_budget=args.node_budget)     # also when only --hm-d runs
    H = read_hypergraph(args.input)
    found = []
    if args.hm_d is not None:
        w = witnesses.find_hilton_milner(H, args.hm_d)
        if w is not None:
            entry = witnesses.witness_to_json(H, "hm", (w.b0_index,) + w.petal_indices)
            entry["center"] = w.center + 1
            found.append(entry)
    if args.generic_size is not None:
        g = witnesses.find_generic_clique(H, args.generic_size, args.zeta_cap,
                                          node_budget=args.node_budget)
        if g is not None:
            found.append(witnesses.witness_to_json(H, "generic", g))
    _emit(_json_dumps({"witnesses": found}), args.output)
    return EXIT_OK


def _grid(args) -> list[float]:
    if args.grid_points < 1:
        raise DomainError("--grid-points must be >= 1")
    if args.grid_points == 1:
        return [args.grid_start]
    if args.grid_scale == "linear":
        step = (args.grid_stop - args.grid_start) / (args.grid_points - 1)
        return [args.grid_start + i * step for i in range(args.grid_points)]
    if args.grid_start <= 0 or args.grid_stop <= 0:
        raise DomainError("log grid needs a positive start and stop")
    ratio = (args.grid_stop / args.grid_start) ** (1.0 / (args.grid_points - 1))
    return [args.grid_start * ratio**i for i in range(args.grid_points)]


def _cmd_sweep(args) -> int:
    if args.n is None or args.k is None:
        raise DomainError("--n and --k are required")
    table = montecarlo.estimate_ekr_curve(
        args.n, args.k, _grid(args), trials=args.trials, seed=_seed_from(args),
        sampler_mode=args.sampler, workers=args.workers, psi=args.psi,
        eps_thr=args.eps_thr, edge_cap=args.edge_cap, node_budget=args.node_budget,
        c_regime=args.c_regime)
    text = (montecarlo.sweep_table_to_csv(table) if args.format == "csv"
            else montecarlo.sweep_table_to_json(table))
    _emit(text, args.output)
    return EXIT_OK


_COMMANDS = {
    "calc": _cmd_calc,
    "sample": _cmd_sample,
    "verify": _cmd_verify,
    "witness": _cmd_witness,
    "sweep": _cmd_sweep,
}


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ParseError as exc:
        print(f"ekrlab: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ResourceLimitError as exc:
        print(f"ekrlab: resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except DomainError as exc:
        print(f"ekrlab: domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except FileNotFoundError as exc:
        print(f"ekrlab: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
