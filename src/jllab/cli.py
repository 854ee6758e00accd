"""Command line interface.

Subcommands
-----------
gen       write a point set (hard, basis, simplex, gaussian)
embed     construct a linear map (identity, gaussian, pca, optimize)
certify   spectral certificate, optionally with a distortion report
audit     basis-trace audit of a map against a point set
tails     Monte Carlo tail suite (norm, chaos, joint) to CSV
frontier  distortion-vs-m sweep with random and optimized maps to CSV
net       quantization grid report, or quantize a map onto the grid

Exit codes: 0 success, 1 usage or file-format error, 2 failed audit,
3 numerical failure.  Every run is controlled by an explicit --seed;
report files embed the full configuration, and re-running a command with
identical arguments reproduces each output byte for byte (timings are
opt-in via --timings for that reason).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from .certify import (
    MODE_NORM,
    MODE_PAIRWISE,
    AuditError,
    audit_embedding,
    distortion,
    spectral_certificate,
)
from .concentration import (
    CalibrationError,
    _chaos_tail_grid,
    _joint_event_grid,
    _norm_tail_grid,
    norm_tail_oracle,
)
from .embeddings import (
    LinearMap,
    OptimizerOptions,
    gaussian_map,
    identity_map,
    optimize_map,
    pca_map,
    read_map,
    write_map,
)
from .net import covering_radius_for, log_cardinality, net_params, quantize
from .pointset import (
    MAX_TOTAL_COORDS,
    SizeError,
    gaussian_vectors,
    hard_instance,
    read_pointset,
    simplex,
    standard_basis,
    write_pointset,
)
from .seeds import Seed


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:
        raise _UsageError(message)


def _fmt(v: float) -> str:
    return format(v, ".17g")


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return _fmt(v)
    return str(v)


def _config_line(config: dict) -> str:
    return "# config " + json.dumps(config, sort_keys=True, separators=(",", ":"))


def _write_csv(path: str, config: dict, header: list[str], rows: list[list]) -> None:
    lines = [_config_line(config), ",".join(header)]
    for row in rows:
        lines.append(",".join(_cell(v) for v in row))
    Path(path).write_bytes(("\n".join(lines) + "\n").encode("ascii"))


def _emit_json(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if out:
        Path(out).write_bytes(text.encode("ascii"))
        print(json.dumps({"written": out}, sort_keys=True))
    else:
        sys.stdout.write(text)


def _seed_arg(value: int) -> Seed:
    try:
        return Seed(value)
    except (TypeError, ValueError) as exc:
        raise _UsageError(str(exc)) from None


def _parse_grid(text: str, conv, flag: str) -> list:
    text = text.strip()
    if not text:
        return []
    try:
        return [conv(tok) for tok in text.split(",")]
    except ValueError:
        raise _UsageError(f"{flag} must be a comma-separated list, got {text!r}") from None


def _default_k(n: int, gamma: float) -> int:
    return max(1, int(round(float(n) ** (2.0 + gamma))))


def _default_m_grid(n: int) -> list[int]:
    grid = []
    m = 1
    while m < n:
        grid.append(m)
        m *= 2
    grid.append(n)
    return grid


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen(args: argparse.Namespace) -> int:
    seed = _seed_arg(args.seed)
    if args.n < 1:
        raise _UsageError(f"--n must be at least 1, got {args.n}")
    if args.kind in ("basis", "simplex") and args.k is not None:
        raise _UsageError(f"--k does not apply to kind {args.kind!r}")
    k = None
    if args.kind in ("hard", "gaussian"):
        k = args.k if args.k is not None else _default_k(args.n, args.gamma)
        if k < 0:
            raise _UsageError(f"--k must be nonnegative, got {k}")
    if args.kind == "hard":
        ps = hard_instance(args.n, k, seed)
    elif args.kind == "gaussian":
        ps = gaussian_vectors(args.n, k, seed)
    elif args.kind == "basis":
        ps = standard_basis(args.n)
    else:
        ps = simplex(args.n)
    write_pointset(args.out, ps, binary=args.binary)
    config = {
        "command": "gen",
        "kind": args.kind,
        "n": args.n,
        "k": k,
        "seed": args.seed,
        "binary": args.binary,
        "out": args.out,
    }
    print(json.dumps({"config": config, "n_points": len(ps)}, sort_keys=True))
    return 0


def cmd_embed(args: argparse.Namespace) -> int:
    seed = _seed_arg(args.seed)
    X = read_pointset(args.set) if args.set else None
    n = X.dim if X is not None else args.n
    if n is None:
        raise _UsageError("provide --set or --n")
    if X is not None and args.n is not None and args.n != X.dim:
        raise _UsageError(f"--n {args.n} disagrees with the set dimension {X.dim}")
    method = args.method
    info = None
    if method == "identity":
        if args.m is not None and args.m != n:
            raise _UsageError(f"identity map needs m = n = {n}, got --m {args.m}")
        A = identity_map(n)
    elif method == "gaussian":
        if args.m is None:
            raise _UsageError("--m is required for --method gaussian")
        A = gaussian_map(args.m, n, seed)
    elif method == "pca":
        if X is None or args.m is None:
            raise _UsageError("--set and --m are required for --method pca")
        A = pca_map(X, args.m)
    else:
        if X is None or args.m is None:
            raise _UsageError("--set and --m are required for --method optimize")
        opts = OptimizerOptions(
            max_iters=args.max_iters,
            step_init=args.step_init,
            step_shrink=args.step_shrink,
            tol=args.tol,
            smoothing=args.smoothing,
            seed=seed,
        )
        A, info = optimize_map(X, args.m, opts, return_info=True)
    write_map(args.out, A)
    config = {
        "command": "embed",
        "method": method,
        "set": args.set,
        "m": A.m,
        "n": A.n,
        "seed": args.seed,
        "out": args.out,
    }
    status = {"config": config}
    if info is not None:
        status["iterations"] = info.iterations
        status["converged"] = info.converged
        status["init_distortion"] = info.init_distortion
        status["final_distortion"] = info.final_distortion
        status["stop_reason"] = info.stop_reason
        status["accepted"] = info.accepted
        status["backtracks"] = info.backtracks
    print(json.dumps(status, sort_keys=True))
    return 0


def cmd_certify(args: argparse.Namespace) -> int:
    A = read_map(args.map)
    cert = spectral_certificate(A)
    config = {
        "command": "certify",
        "map": args.map,
        "set": args.set,
        "mode": args.mode,
        "out": args.out,
    }
    payload = {
        "config": config,
        "m": A.m,
        "n": A.n,
        "certificate": cert.to_json(),
        "notes": f"map has more rows than columns (m={A.m} > n={A.n})" if A.m > A.n else "",
    }
    if args.set:
        X = read_pointset(args.set)
        payload["distortion"] = distortion(A, X, args.mode).to_json()
    _emit_json(payload, args.out)
    return 0


def cmd_audit(args: argparse.Namespace) -> int:
    A = read_map(args.map)
    X = read_pointset(args.set)
    report = audit_embedding(A, X, args.eps)
    config = {
        "command": "audit",
        "map": args.map,
        "set": args.set,
        "eps": args.eps,
        "out": args.out,
    }
    payload = {"config": config, "audit": report.to_json(), "ok": report.ok}
    _emit_json(payload, args.out)
    return 0 if report.ok else 2


def cmd_tails(args: argparse.Namespace) -> int:
    seed = _seed_arg(args.seed)
    if args.n < 1:
        raise _UsageError(f"--n must be at least 1, got {args.n}")
    m = args.m if args.m is not None else max(1, args.n // 2)
    if m < 1:
        raise _UsageError(f"--m must be at least 1, got {m}")
    t_grid = _parse_grid(args.t_grid, float, "--t-grid")
    delta_grid = _parse_grid(args.delta_grid, float, "--delta-grid")
    config = {
        "command": "tails",
        "n": args.n,
        "m": m,
        "t_grid": t_grid,
        "delta_grid": delta_grid,
        "c": args.c,
        "c1": args.c1,
        "c2": args.c2,
        "trials": args.trials,
        "seed": args.seed,
        "out": args.out,
    }
    header = ["op", "n", "m", "t_or_delta", "c", "threshold", "trials", "hits", "p_hat", "stderr", "oracle"]
    rows: list[list] = []
    if t_grid or delta_grid:
        # the map is m x n and its spectral certificate forms the n x n Gram matrix
        if max(m, args.n) * args.n > MAX_TOTAL_COORDS:
            raise SizeError(
                f"tails at n={args.n}, m={m} needs a {m}x{args.n} map and a "
                f"{args.n}x{args.n} Gram matrix, over the {MAX_TOTAL_COORDS} coordinate limit"
            )
        A = gaussian_map(m, args.n, seed.child(0))
        cert = spectral_certificate(A)
        norm = _norm_tail_grid(args.n, t_grid, args.c, args.trials, seed.child(1))
        for t, est in zip(t_grid, norm):
            rows.append(
                ["norm", args.n, None, t, args.c, est.threshold, est.trials, est.hits, est.p_hat,
                 est.stderr, norm_tail_oracle(args.n, t, args.c)]
            )
        chaos = _chaos_tail_grid(A, t_grid, args.c, args.trials, seed.child(2), cert)
        for t, est in zip(t_grid, chaos):
            rows.append(
                ["chaos", args.n, m, t, args.c, est.threshold, est.trials, est.hits, est.p_hat,
                 est.stderr, None]
            )
        joint = _joint_event_grid(A, delta_grid, args.c1, args.c2, args.trials, seed.child(3), cert)
        for d, est in zip(delta_grid, joint):
            rows.append(
                ["joint", args.n, m, d, args.c1, est.threshold, est.trials, est.hits, est.p_hat,
                 est.stderr, None]
            )
    _write_csv(args.out, config, header, rows)
    print(json.dumps({"config": config, "rows": len(rows)}, sort_keys=True))
    return 0


def cmd_frontier(args: argparse.Namespace) -> int:
    seed = _seed_arg(args.seed)
    if args.set:
        X = read_pointset(args.set)
        k = None
    else:
        if args.n is None:
            raise _UsageError("provide --set or --n")
        if args.n < 1:
            raise _UsageError(f"--n must be at least 1, got {args.n}")
        k = args.k if args.k is not None else _default_k(args.n, args.gamma)
        X = hard_instance(args.n, k, seed.child(0))
    n = X.dim
    m_grid = (
        sorted(set(_parse_grid(args.m_grid, int, "--m-grid")))
        if args.m_grid
        else _default_m_grid(n)
    )
    for m in m_grid:
        if not 1 <= m <= n:
            raise _UsageError(f"--m-grid values must lie in [1, {n}], got {m}")
    config = {
        "command": "frontier",
        "set": args.set,
        "n": n,
        "k": k,
        "eps": args.eps,
        "m_grid": m_grid,
        "maps_per_m": args.maps_per_m,
        "max_iters": args.max_iters,
        "seed": args.seed,
        "timings": args.timings,
        "out": args.out,
    }
    header = ["m", "eps_random_best", "eps_opt", "rank_lb_of_best"]
    if args.timings:
        header.append("seconds")
    map_seed = seed.child(2)
    rows: list[list] = []
    prev: LinearMap | None = None
    for ri, m in enumerate(m_grid):
        started = time.perf_counter()
        eps_rand = None
        best_rand = None
        for j in range(args.maps_per_m):
            A = gaussian_map(m, n, map_seed.child(ri * 1_000_000 + j))
            e = distortion(A, X).eps_max
            if eps_rand is None or e < eps_rand:
                eps_rand, best_rand = e, A
        init = None
        if prev is not None:
            padded = np.zeros((m, n))
            padded[: prev.m] = prev.entries
            init = LinearMap(padded)
        opts = OptimizerOptions(max_iters=args.max_iters, seed=seed.child(1))
        A_opt, _ = optimize_map(X, m, opts, init=init, return_info=True)
        eps_opt = distortion(A_opt, X).eps_max
        prev = A_opt
        if best_rand is not None and eps_rand is not None and eps_rand < eps_opt:
            best = best_rand
        else:
            best = A_opt
        rank_lb = spectral_certificate(best).rank_lb
        row: list = [m, eps_rand, eps_opt, rank_lb]
        if args.timings:
            row.append(time.perf_counter() - started)
        rows.append(row)
    _write_csv(args.out, config, header, rows)

    def first_m(col: int) -> int | None:
        # the paper's m(n, eps) as measured: the first grid m whose column reaches eps
        return next((r[0] for r in rows if r[col] is not None and r[col] <= args.eps), None)

    status = {
        "config": config,
        "rows": len(rows),
        "first_m_eps_random_best": first_m(1),
        "first_m_eps_opt": first_m(2),
    }
    print(json.dumps(status, sort_keys=True))
    return 0


def cmd_net(args: argparse.Namespace) -> int:
    if args.alpha is None and args.exponent is None:
        raise _UsageError("provide --alpha or --exponent")
    if args.alpha is not None and args.exponent is not None:
        raise _UsageError("provide only one of --alpha and --exponent")
    if args.quantize:
        A = read_map(args.quantize)
        n = A.n
    else:
        if args.n is None:
            raise _UsageError("provide --n (or --quantize with a map)")
        n = args.n
    alpha = args.alpha if args.alpha is not None else covering_radius_for(n, args.exponent)
    config = {
        "command": "net",
        "n": n,
        "alpha": alpha,
        "exponent": args.exponent,
        "quantize": args.quantize,
        "out": args.out,
    }
    if args.quantize:
        if not args.out:
            raise _UsageError("--out is required with --quantize")
        Q = quantize(A, alpha)
        write_map(args.out, Q)
        diff = A.entries - Q.entries
        err_sq = float(np.einsum("ij,ij->", diff, diff))
        print(
            json.dumps(
                {
                    "config": config,
                    "params": net_params(n, alpha).to_json(),
                    "error_frob_sq": err_sq,
                    "budget": alpha / 100.0,
                    "within_budget": err_sq <= alpha / 100.0,
                },
                sort_keys=True,
            )
        )
        return 0
    payload = {
        "config": config,
        "params": net_params(n, alpha).to_json(),
        "cardinality": log_cardinality(n, alpha).to_json(),
    }
    _emit_json(payload, args.out)
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="jllab", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p = sub.add_parser("gen", help="write a point set")
    p.add_argument("--kind", choices=("hard", "basis", "simplex", "gaussian"), default="hard")
    p.add_argument("--n", type=int, required=True, help="ambient dimension")
    p.add_argument("--k", type=int, default=None, help="gaussian point count (default n^(2+gamma))")
    p.add_argument("--gamma", type=float, default=0.0, help="exponent offset for the default k")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--binary", action="store_true", help="write the binary format")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("embed", help="construct a linear map")
    p.add_argument("--method", choices=("identity", "gaussian", "pca", "optimize"), default="gaussian")
    p.add_argument("--set", default=None, help="input point set path")
    p.add_argument("--n", type=int, default=None, help="ambient dimension if no --set")
    p.add_argument("--m", type=int, default=None, help="target dimension")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-iters", type=int, default=2000)
    p.add_argument("--step-init", type=float, default=1.0)
    p.add_argument("--step-shrink", type=float, default=0.5)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--smoothing", type=float, default=0.1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("certify", help="spectral certificate of a map")
    p.add_argument("--map", required=True)
    p.add_argument("--set", default=None, help="also report distortion on this set")
    p.add_argument("--mode", choices=(MODE_NORM, MODE_PAIRWISE, "norm"), default=MODE_NORM)
    p.add_argument("--out", default=None, help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("audit", help="basis-trace audit of a map on a set")
    p.add_argument("--map", required=True)
    p.add_argument("--set", required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("tails", help="Monte Carlo tail suite to CSV")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=None, help="map rows for chaos and joint rows (default n//2)")
    p.add_argument("--t-grid", default="1,2,3")
    p.add_argument("--delta-grid", default="0.05")
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--c1", type=float, default=0.5)
    p.add_argument("--c2", type=float, default=2.0)
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_tails)

    p = sub.add_parser("frontier", help="distortion-vs-m sweep to CSV")
    p.add_argument("--set", default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--gamma", type=float, default=0.0)
    p.add_argument("--eps", type=float, default=0.25, help="target distortion; stdout reports the first m reaching it")
    p.add_argument("--m-grid", default="", help="comma list; default powers of two up to n")
    p.add_argument("--maps-per-m", type=int, default=10)
    p.add_argument("--max-iters", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--timings", action="store_true", help="append a wall-clock column (breaks rerun determinism)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_frontier)

    p = sub.add_parser("net", help="quantization grid report or map quantization")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--exponent", type=float, default=None, help="use alpha = 100 n^(-2 exponent)")
    p.add_argument("--quantize", default=None, help="map to quantize")
    p.add_argument("--out", default=None, help="quantized map path, or JSON report path")
    p.set_defaults(func=cmd_net)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"jllab: error: {exc}", file=sys.stderr)
        return 1
    if not hasattr(args, "func"):
        parser.print_usage(sys.stderr)
        return 1
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"jllab: error: {exc}", file=sys.stderr)
        return 1
    except AuditError as exc:
        print(f"jllab: audit failure: {exc}", file=sys.stderr)
        return 2
    except (CalibrationError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"jllab: numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"jllab: error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
