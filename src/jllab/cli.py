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

Exit codes: 0 success, 1 usage or file-format error (a flag the run would
ignore included), 2 failed audit, 3 numerical failure (a NaN or infinity
bound for a JSON or CSV output included).  A library warning prints as
one "jllab: warning: ..." line on stderr and changes neither the exit
code nor the outputs.  Every run is controlled by an explicit --seed.
Each output records the run's config by one rule: every parsed flag,
with the values the run resolved from them (a default k, the map's
shape, parsed grids) in their place, so a flag is recorded from the
moment it exists.  Re-running a command with identical arguments
reproduces each output byte for byte (timings are opt-in via --timings
for that reason).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from .certify import (
    MODE_NORM,
    MODE_PAIRWISE,
    AuditError,
    _distortion_json,
    audit_embedding,
    distortion,
    spectral_certificate,
)
from .concentration import (
    CalibrationError,
    chaos_tail_estimate,
    joint_event_rate,
    norm_tail_estimate,
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
    PointSet,
    SizeError,
    _json_fields,
    _require_nonnegative,
    _require_nonnegative_int,
    _require_positive,
    _require_positive_int,
    gaussian_vectors,
    hard_instance,
    read_pointset,
    simplex,
    standard_basis,
    write_pointset,
)
from .seeds import Seed


class _Parser(argparse.ArgumentParser):
    # a usage error is a ValueError, which `main` reports as it reports the
    # library's own
    def error(self, message: str) -> None:
        raise ValueError(message)


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, float):
        if not math.isfinite(v):
            raise ArithmeticError(f"non-finite value {v} in the CSV output")
        return format(v, ".17g")
    return str(v)


def _json(payload: dict, **layout) -> str:
    # RFC 8259 JSON has no NaN or infinity, so such a value is a numerical
    # failure (exit 3) before anything is written
    try:
        return json.dumps(payload, sort_keys=True, allow_nan=False, **layout)
    except ValueError as exc:
        raise ArithmeticError(f"non-finite value in the JSON output ({exc})") from None


def _status(payload: dict) -> None:
    print(_json(payload))


def _config_line(config: dict) -> str:
    return "# config " + _json(config, separators=(",", ":"))


def _write_csv(path: str, config: dict, header: list[str], rows: list[list]) -> None:
    lines = [_config_line(config), ",".join(header)]
    for row in rows:
        lines.append(",".join(_cell(v) for v in row))
    Path(path).write_bytes(("\n".join(lines) + "\n").encode("ascii"))


def _emit_json(payload: dict, out: str | None) -> None:
    text = _json(payload, indent=2) + "\n"
    if out:
        Path(out).write_bytes(text.encode("ascii"))
        _status({"written": out})
    else:
        sys.stdout.write(text)


def _parse_grid(text: str, conv, flag: str) -> list:
    text = text.strip()
    if not text:
        return []
    try:
        return [conv(tok) for tok in text.split(",")]
    except ValueError:
        raise ValueError(f"{flag} must be a comma-separated list, got {text!r}") from None


def _set_and_dim(args: argparse.Namespace) -> tuple[PointSet | None, int]:
    # the set named by --set and its dimension, which --n may repeat but not
    # contradict; without --set, no set and the dimension --n
    if args.set:
        X = read_pointset(args.set)
        if args.n is not None and args.n != X.dim:
            raise ValueError(f"--n {args.n} disagrees with the set dimension {X.dim}")
        return X, X.dim
    if args.n is None:
        raise ValueError("provide --set or --n")
    _require_positive_int("--n", args.n)
    return None, args.n


def _config(args: argparse.Namespace, **resolved) -> dict:
    # the run record: every parsed flag, with the values the run resolved
    # from them in their place
    return {k: v for k, v in vars(args).items() if k != "func"} | resolved


def _refuse_count_flags(args: argparse.Namespace, context: str) -> None:
    # --k and --gamma size a generated hard or gaussian set and nothing else
    for flag, value in (("--k", args.k), ("--gamma", args.gamma)):
        if value is not None:
            raise ValueError(f"{flag} does not apply {context}")


def _resolve_k(args: argparse.Namespace, n: int) -> int:
    # the size of a generated set: --k, or n^(2+gamma) without it
    if args.k is not None:
        if args.gamma is not None:
            raise ValueError("--gamma does not apply with --k")
        _require_nonnegative_int("--k", args.k)
        return args.k
    gamma = 0.0 if args.gamma is None else args.gamma
    if not math.isfinite(gamma):
        raise ValueError(f"--gamma must be finite, got {gamma}")
    # compared in logarithms, so n^(2+gamma) is formed only when it is small
    if (2.0 + gamma) * math.log(n) > math.log(MAX_TOTAL_COORDS):
        raise SizeError(
            f"default k = n^(2+gamma) at --n {n} --gamma {gamma:g} is over the "
            f"{MAX_TOTAL_COORDS} coordinate limit"
        )
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
    seed = Seed(args.seed)
    _require_positive_int("--n", args.n)
    if args.kind in ("basis", "simplex"):
        _refuse_count_flags(args, f"to kind {args.kind!r}")
    k = _resolve_k(args, args.n) if args.kind in ("hard", "gaussian") else None
    if args.kind == "hard":
        ps = hard_instance(args.n, k, seed)
    elif args.kind == "gaussian":
        ps = gaussian_vectors(args.n, k, seed)
    elif args.kind == "basis":
        ps = standard_basis(args.n)
    else:
        ps = simplex(args.n)
    write_pointset(args.out, ps, binary=args.binary)
    _status({"config": _config(args, k=k), "n_points": len(ps)})
    return 0


def cmd_embed(args: argparse.Namespace) -> int:
    seed = Seed(args.seed)
    X, n = _set_and_dim(args)
    method = args.method
    info = None
    if method == "identity":
        if args.m is not None and args.m != n:
            raise ValueError(f"identity map needs m = n = {n}, got --m {args.m}")
        A = identity_map(n)
    elif method == "gaussian":
        if args.m is None:
            raise ValueError("--m is required for --method gaussian")
        A = gaussian_map(args.m, n, seed)
    elif method == "pca":
        if X is None or args.m is None:
            raise ValueError("--set and --m are required for --method pca")
        A = pca_map(X, args.m)
    else:
        if X is None or args.m is None:
            raise ValueError("--set and --m are required for --method optimize")
        opts = OptimizerOptions(max_iters=args.max_iters, seed=seed)
        A, info = optimize_map(X, args.m, opts, return_info=True)
    write_map(args.out, A)
    status = {"config": _config(args, m=A.m, n=A.n)}
    if info is not None:
        status |= {k: v for k, v in _json_fields(info).items() if k != "objective_history"}
    _status(status)
    return 0


def cmd_certify(args: argparse.Namespace) -> int:
    A = read_map(args.map)
    cert = spectral_certificate(A)
    payload = {
        "config": _config(args),
        "m": A.m,
        "n": A.n,
        "certificate": cert.to_json(),
        "notes": f"map has more rows than columns (m={A.m} > n={A.n})" if A.m > A.n else "",
    }
    if args.set:
        X = read_pointset(args.set)
        payload["distortion"] = _distortion_json(A, X, args.mode)
    _emit_json(payload, args.out)
    return 0


def cmd_audit(args: argparse.Namespace) -> int:
    A = read_map(args.map)
    X = read_pointset(args.set)
    report = audit_embedding(A, X, args.eps)
    payload = {"config": _config(args), "audit": report.to_json(), "ok": report.ok}
    _emit_json(payload, args.out)
    return 0 if report.ok else 2


def cmd_tails(args: argparse.Namespace) -> int:
    seed = Seed(args.seed)
    _require_positive_int("--n", args.n)
    _require_positive("--c", args.c)
    _require_nonnegative("--c1", args.c1)
    _require_nonnegative("--c2", args.c2)
    m = args.m if args.m is not None else max(1, args.n // 2)
    _require_positive_int("--m", m)
    t_grid = _parse_grid(args.t_grid, float, "--t-grid")
    delta_grid = _parse_grid(args.delta_grid, float, "--delta-grid")
    config = _config(args, m=m, t_grid=t_grid, delta_grid=delta_grid)
    header = ["op", "n", "m", "t_or_delta", "c", "threshold", "trials", "hits", "p_hat", "stderr", "oracle"]
    rows: list[list] = []
    if t_grid or delta_grid:
        # the size rule refuses the m x n map, the n x n Gram matrix of the
        # first map estimate's certificate, and each sample's chunk
        # (min(1024, trials) x n) and chunk image (x m), before it allocates
        # them and before anything is drawn; each estimator draws its sample once
        A = gaussian_map(m, args.n, seed.child(0))
        chaos = [chaos_tail_estimate(A, t, args.c, args.trials, seed.child(2)) for t in t_grid]
        joint = [joint_event_rate(A, d, args.c1, args.c2, args.trials, seed.child(3)) for d in delta_grid]
        norm = [norm_tail_estimate(args.n, t, args.c, args.trials, seed.child(1)) for t in t_grid]
        for op, rows_m, grid, c, estimates in (
            ("norm", None, t_grid, args.c, norm),
            ("chaos", m, t_grid, args.c, chaos),
            ("joint", m, delta_grid, args.c1, joint),
        ):
            for x, est in zip(grid, estimates):
                oracle = norm_tail_oracle(args.n, x, c) if op == "norm" else None
                rows.append([op, args.n, rows_m, x, c, est.threshold, est.trials, est.hits, est.p_hat,
                             est.stderr, oracle])
    _write_csv(args.out, config, header, rows)
    _status({"config": config, "rows": len(rows)})
    return 0


def cmd_frontier(args: argparse.Namespace) -> int:
    seed = Seed(args.seed)
    _require_nonnegative("--eps", args.eps)
    _require_nonnegative_int("--maps-per-m", args.maps_per_m)
    if args.set:
        _refuse_count_flags(args, "with --set")
    X, n = _set_and_dim(args)
    k = None
    if X is None:
        k = _resolve_k(args, n)
        X = hard_instance(n, k, seed.child(0))
    m_grid = (
        sorted(set(_parse_grid(args.m_grid, int, "--m-grid")))
        if args.m_grid
        else _default_m_grid(n)
    )
    for m in m_grid:
        if not 1 <= m <= n:
            raise ValueError(f"--m-grid values must lie in [1, {n}], got {m}")
    config = _config(args, n=n, k=k, m_grid=m_grid)
    header = ["m", "eps_random_best", "eps_opt", "rank_lb_of_best", "iters", "stop"]
    if args.timings:
        header.append("seconds")
    map_seed = seed.child(2)
    rows_seed = seed.child(3)
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
        init = floor = None
        if prev is not None:
            # the gradient vanishes on zero rows, so the previous optimum's
            # new rows start small and random; padded with zeros instead,
            # it stays the floor the result cannot exceed
            padded = np.zeros((m, n))
            padded[: prev.m] = prev.entries
            floor = LinearMap(padded)
            seeded = padded.copy()
            g = rows_seed.child(ri).generator().standard_normal((m - prev.m, n))
            seeded[prev.m :] = 1e-3 * g / math.sqrt(n)
            init = LinearMap(seeded)
        opts = OptimizerOptions(max_iters=args.max_iters, seed=seed.child(1))
        # the run record's final distortion is the distortion of A_opt on X
        A_opt, info = optimize_map(X, m, opts, init=init, return_info=True)
        eps_opt = info.final_distortion
        if floor is not None:
            eps_floor = distortion(floor, X).eps_max
            if eps_floor < eps_opt:
                A_opt, eps_opt = floor, eps_floor
        prev = A_opt
        best = best_rand if best_rand is not None and eps_rand < eps_opt else A_opt
        rank_lb = spectral_certificate(best).rank_lb
        row: list = [m, eps_rand, eps_opt, rank_lb, info.iterations, info.stop_reason]
        if args.timings:
            row.append(time.perf_counter() - started)
        rows.append(row)
    _write_csv(args.out, config, header, rows)

    def first_m(col: int) -> int | None:
        # the paper's m(n, eps) as measured: the first grid m whose column reaches eps
        return next((r[0] for r in rows if r[col] is not None and r[col] <= args.eps), None)

    _status({
        "config": config,
        "rows": len(rows),
        "first_m_eps_random_best": first_m(1),
        "first_m_eps_opt": first_m(2),
    })
    return 0


def cmd_net(args: argparse.Namespace) -> int:
    if args.alpha is None and args.exponent is None:
        raise ValueError("provide --alpha or --exponent")
    if args.alpha is not None and args.exponent is not None:
        raise ValueError("provide only one of --alpha and --exponent")
    if args.quantize:
        A = read_map(args.quantize)
        if args.n is not None and args.n != A.n:
            raise ValueError(f"--n {args.n} disagrees with the map's column count {A.n}")
        n = A.n
    else:
        if args.n is None:
            raise ValueError("provide --n (or --quantize with a map)")
        n = args.n
    alpha = args.alpha if args.alpha is not None else covering_radius_for(n, args.exponent)
    if args.quantize and not args.out:
        raise ValueError("--out is required with --quantize")
    report = {"config": _config(args, n=n, alpha=alpha), "params": net_params(n, alpha).to_json()}
    if not args.quantize:
        _emit_json(report | {"cardinality": log_cardinality(n, alpha).to_json()}, args.out)
        return 0
    Q = quantize(A, alpha)
    write_map(args.out, Q)
    diff = A.entries - Q.entries
    err_sq = float(np.einsum("ij,ij->", diff, diff))
    budget = alpha / 100.0
    _status(report | {"error_frob_sq": err_sq, "budget": budget, "within_budget": err_sq <= budget})
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
    p.add_argument("--gamma", type=float, default=None, help="exponent offset for the default k (default 0)")
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
    p.add_argument("--gamma", type=float, default=None, help="exponent offset for the default k (default 0)")
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


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    # a library warning is one line, as the CLI's other reports are
    print(f"jllab: warning: {message}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not hasattr(args, "func"):
            parser.print_usage(sys.stderr)
            return 1
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning
            return args.func(args)
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
