"""The three benchmark workloads: inputs, operations and output checks.

Every workload makes its inputs from the run's seed alone.  `setup` writes
or builds them; `ops` lists the operations of one pass, each one CLI call
(in-process, through ``jllab.cli.main``) or one public library call;
`check` tests the first pass's outputs against recomputations made apart
from the program, or against properties the method must have.

Sizes are chosen so that one pass takes a few seconds on two cores and
runs the same operations on every seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import jllab as jl
import jllab.cli as cli
import reference as ref


@dataclass
class Op:
    """One operation of a pass.

    ``digest`` maps the result to a value compared across passes;
    ``known_fault`` marks an operation that fails because of a known fault
    in the program (counted in ``failed``, not a check failure).
    """

    name: str
    call: Callable[[], object]
    digest: Callable[[object], object] = lambda result: result
    known_fault: bool = False


def cli_op(name: str, argv: list[str]) -> Op:
    def call() -> int:
        code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"jllab {' '.join(argv)} exited {code}")
        return code

    return Op(name, call)


class Workload:
    name = ""

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.inputs = work / "inputs"
        self.out = work / "out"
        self.inputs.mkdir(parents=True, exist_ok=True)
        self.out.mkdir(parents=True, exist_ok=True)

    def setup(self) -> None:
        """Build the inputs; may run several times and must give the same inputs."""

    def ops(self, results: dict[str, object]) -> list[Op]:
        raise NotImplementedError

    def check(self, results: dict[str, object]) -> list[str]:
        """Failure messages for the first pass's results and output files."""
        raise NotImplementedError


# Every check is written so that a NaN fails it: a comparison with NaN is
# False, so each one states the condition that must hold, negated.


def _close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


# ---------------------------------------------------------------------------


class Frontier(Workload):
    """The paper's experiment: distortion against m on the hard set.

    Hard set n = 32 with k = n² = 1024 gaussian points, ten gaussian maps
    and one optimized map per m in 1, 2, 4, .., 32.  With 1000 optimizer
    iterations every m below n runs to the cap on every seed tried, so the
    work per pass does not depend on the seed.
    """

    name = "frontier"
    N, K, MAPS, ITERS = 32, 1024, 10, 1000
    CHECK_M = 8

    def setup(self) -> None:
        self.set_path = self.inputs / "hard.jlps"
        argv = ["gen", "--kind", "hard", "--n", str(self.N), "--k", str(self.K),
                "--seed", str(self.seed), "--binary", "--out", str(self.set_path)]
        cli_op("gen", argv).call()

    def ops(self, results):
        argv = ["frontier", "--set", str(self.set_path), "--maps-per-m", str(self.MAPS),
                "--max-iters", str(self.ITERS), "--seed", str(self.seed),
                "--out", str(self.out / "frontier.csv")]
        return [cli_op("frontier", argv)]

    def check(self, results):
        bad = []
        P = ref.read_binary_points(self.set_path)
        if not np.array_equal(P, ref.hard_points(self.N, self.K, self.seed)):
            bad.append("hard set differs from the recomputed basis plus gaussian points")
        rows = ref.read_csv(self.out / "frontier.csv")
        ms = [int(r["m"]) for r in rows]
        if ms != [2**i for i in range(int(math.log2(self.N)) + 1)]:
            return bad + [f"m grid {ms} is not the powers of two up to {self.N}"]
        eps_opt = [float(r["eps_opt"]) for r in rows]
        # warm starts make eps_opt monotone; the slack absorbs matmul rounding
        if not all(b <= a + 1e-12 for a, b in zip(eps_opt, eps_opt[1:])):
            bad.append(f"eps_opt increases with m: {eps_opt}")
        if not eps_opt[-1] <= 1e-6:
            bad.append(f"eps_opt at m = n is {eps_opt[-1]}, above 1e-6")
        for r in rows:
            if int(r["rank_lb_of_best"]) > int(r["m"]):
                bad.append(f"rank_lb_of_best {r['rank_lb_of_best']} exceeds m = {r['m']}")
        ri = ms.index(self.CHECK_M)
        map_seed = ref.child(self.seed, 2)
        eps_rand = min(
            ref.norm_eps(ref.gaussian_map(self.CHECK_M, self.N, ref.child(map_seed, ri * 1_000_000 + j)), P)
            for j in range(self.MAPS)
        )
        got = float(rows[ri]["eps_random_best"])
        if not _close(got, eps_rand):
            bad.append(f"eps_random_best at m={self.CHECK_M} is {got}, recomputed {eps_rand}")
        return bad


# ---------------------------------------------------------------------------


class Tails(Workload):
    """Gaussian tail estimates, constant calibration and the chi-square oracle.

    ``jllab tails`` at n = 1024 with 8192 trials runs the pooled norm
    sampler, the BLAS-bound map sampler (m = 512) and an n x n Gram
    eigendecomposition per chaos threshold.  The calibration part has the
    shape of acceptance checks 5 and 6 at 20000 trials: small n, many
    threshold searches per drawn sample.  The last operation asks the
    oracle at n = 1e5, where the incomplete gamma series gives up.
    """

    name = "tails"
    N, TRIALS = 1024, 8192
    CAL_TRIALS = 20_000
    T_GRID = (1.0, 2.0, 3.0)
    DELTA = 0.05
    HELD5 = ((8, 16), (16, 32), (12, 24), (32, 64), (6, 48))
    ORACLE_N = 100_000

    def setup(self) -> None:
        root = jl.Seed(self.seed)
        self.family5 = [
            jl.identity_map(16),
            jl.LinearMap(np.diag(np.linspace(1.0, 0.1, 16))),
            jl.LinearMap(np.diag(2.0 ** -np.arange(16.0))),
            jl.gaussian_map(8, 16, root.child(1)),
            jl.gaussian_map(16, 32, root.child(2)),
            jl.gaussian_map(4, 64, root.child(3)),
        ]
        self.held5 = [jl.gaussian_map(m, n, root.child(10 + i)) for i, (m, n) in enumerate(self.HELD5)]
        self.family6 = [jl.gaussian_map(32, 64, root.child(40 + i)) for i in range(3)]
        self.held6 = [jl.gaussian_map(32, 64, root.child(50 + i)) for i in range(5)]

    def ops(self, results):
        root = jl.Seed(self.seed)
        argv = ["tails", "--n", str(self.N), "--trials", str(self.TRIALS), "--seed", str(self.seed),
                "--out", str(self.out / "tails.csv")]
        ops = [
            cli_op("tails", argv),
            Op("calibrate5", lambda: jl.calibrate_constants(self.family5, self.T_GRID, self.CAL_TRIALS, root.child(4))),
        ]
        for i, A in enumerate(self.held5):
            for t in self.T_GRID:
                ops.append(Op(f"chaos{i}:{t}", lambda A=A, t=t, i=i: jl.chaos_tail_estimate(
                    A, t, results["calibrate5"].c, self.CAL_TRIALS, root.child(20 + i))))
        ops.append(Op("calibrate6", lambda: jl.calibrate_constants(self.family6, (1.0, 2.0), self.CAL_TRIALS, root.child(5))))
        for i, A in enumerate(self.held6):
            ops.append(Op(f"joint{i}", lambda A=A, i=i: jl.joint_event_rate(
                A, self.DELTA, results["calibrate6"].c1, results["calibrate6"].c2, self.CAL_TRIALS, root.child(60 + i))))
        ops.append(Op("oracle_large_n", lambda: jl.norm_tail_oracle(self.ORACLE_N, 1.0, 1.0), known_fault=True))
        return ops

    def check(self, results):
        from scipy.stats import chi2

        def two_sided(n: int, t: float, c: float) -> float:
            thr = c * math.sqrt(n * t)
            return float(chi2.sf(n + thr, n) + chi2.cdf(n - thr, n))

        bad = []
        rows = ref.read_csv(self.out / "tails.csv")
        norm = [r for r in rows if r["op"] == "norm"]
        chaos = [r for r in rows if r["op"] == "chaos"]
        if len(norm) != len(self.T_GRID) or len(chaos) != len(self.T_GRID):
            return [f"expected {len(self.T_GRID)} norm and chaos rows, found {len(norm)} and {len(chaos)}"]
        for r in norm:
            t, p_hat, oracle = float(r["t_or_delta"]), float(r["p_hat"]), float(r["oracle"])
            exact = two_sided(self.N, t, float(r["c"]))
            if not abs(oracle - exact) <= 1e-9:
                bad.append(f"oracle at t={t} is {oracle}, scipy gives {exact}")
            se = max(float(r["stderr"]), math.sqrt(oracle * (1.0 - oracle) / self.TRIALS))
            if not abs(p_hat - oracle) <= 4.0 * se:
                bad.append(f"norm row t={t}: p_hat {p_hat} more than 4 se ({se}) from oracle {oracle}")
        for kind, group in (("norm", norm), ("chaos", chaos)):
            hits = [int(r["hits"]) for r in group]
            if any(b > a for a, b in zip(hits, hits[1:])):
                bad.append(f"{kind} hits increase with t: {hits}")
        cal5, cal6 = results.get("calibrate5"), results.get("calibrate6")
        if cal5 is None or cal6 is None:
            return bad + ["a calibration failed"]
        for label, v in (("c", cal5.c), ("c1", cal6.c1), ("c2", cal6.c2)):
            if not v >= 2.0**-10:
                bad.append(f"calibrated {label} = {v} is below 2^-10")
        for i in range(len(self.held5)):
            for t in self.T_GRID:
                est = results[f"chaos{i}:{t}"]
                margin = est.p_hat - (min(cal5.c, math.exp(-t)) - 4.0 * est.stderr)
                if not margin >= 0:
                    bad.append(f"held-out chaos map {i} at t={t}: margin {margin}")
        for i in range(len(self.held6)):
            est = results[f"joint{i}"]
            margin = est.p_hat - (self.DELTA - 4.0 * est.stderr)
            if not margin >= 0:
                bad.append(f"held-out joint map {i}: margin {margin}")
        if "oracle_large_n" in results:
            got, exact = results["oracle_large_n"], two_sided(self.ORACLE_N, 1.0, 1.0)
            if not abs(got - exact) <= 1e-9:
                bad.append(f"oracle at n={self.ORACLE_N} is {got}, scipy gives {exact}")
        return bad


# ---------------------------------------------------------------------------


class Certify(Workload):
    """Text I/O, a gaussian map, pairwise distortion, the audit and the net.

    Hard set n = 32 with k = 3000 gaussian points (N = 3032, 4.6M pairs),
    written as text and read back by every CLI call.  The gaussian map has
    m = 128 > n rows, so its norm distortion stays well under the audit's
    eps = 0.9 and the audit passes (exit 0) on every seed tried.
    """

    name = "certify"
    N, K, M = 32, 3000, 128
    EPS, ALPHA = 0.9, 0.01

    def setup(self) -> None:
        self.X = jl.hard_instance(self.N, self.K, jl.Seed(self.seed))

    def ops(self, results):
        s, mp = self.out / "set.jlps", str(self.out / "map.jlmap")
        return [
            Op("write", lambda: jl.write_pointset(s, self.X)),
            cli_op("embed", ["embed", "--method", "gaussian", "--set", str(s), "--m", str(self.M),
                             "--seed", str(self.seed), "--out", mp]),
            cli_op("certify", ["certify", "--map", mp, "--set", str(s), "--mode", "pairwise",
                               "--out", str(self.out / "cert.json")]),
            cli_op("audit", ["audit", "--map", mp, "--set", str(s), "--eps", str(self.EPS),
                             "--out", str(self.out / "audit.json")]),
            cli_op("net", ["net", "--alpha", str(self.ALPHA), "--quantize", mp,
                           "--out", str(self.out / "q.jlmap")]),
            Op("read", lambda: jl.read_pointset(s), digest=lambda ps: (ps.points.tobytes(), ps.roles)),
        ]

    def check(self, results):
        from scipy.spatial.distance import pdist

        bad = []
        P = ref.hard_points(self.N, self.K, self.seed)
        if not np.array_equal(ref.read_rows(self.out / "set.jlps", "jlps v1"), P):
            bad.append("text point set differs from the recomputed hard set")
        back = results.get("read")
        if back is None or not np.array_equal(back.points, P):
            bad.append("read_pointset does not return the generated points exactly")
        elif back.roles != ("basis",) * self.N + ("gaussian",) * self.K:
            bad.append("read_pointset does not return the generated roles")
        E = ref.read_rows(self.out / "map.jlmap", "jlmap v1")
        if not np.array_equal(E, ref.gaussian_map(self.M, self.N, self.seed)):
            bad.append("embedded map differs from the recomputed gaussian map")
        cert = json.loads((self.out / "cert.json").read_text())
        ratios = pdist(P @ E.T, "sqeuclidean") / pdist(P, "sqeuclidean")
        worst = int(np.argmax(np.abs(ratios - 1.0)))
        eps_pairs = float(abs(ratios[worst] - 1.0))
        d = cert["distortion"]
        if d["n_ratios"] != ratios.size or d["violating_index"] != worst or not _close(d["eps_max"], eps_pairs):
            bad.append(f"pairwise eps_max {d['eps_max']} at pair {d['violating_index']} of {d['n_ratios']}; "
                       f"pdist gives {eps_pairs} at pair {worst} of {ratios.size}")
        c = cert["certificate"]
        trace, frob_sq = float(np.sum(E * E)), float(np.linalg.norm(E @ E.T) ** 2)
        if not (_close(c["trace"], trace) and _close(c["frob_sq"], frob_sq)):
            bad.append(f"certificate trace/frob_sq {c['trace']}/{c['frob_sq']}, numpy {trace}/{frob_sq}")
        if c["rank_lb"] > min(self.M, self.N):
            bad.append(f"rank_lb {c['rank_lb']} exceeds min(m, n)")
        audit = json.loads((self.out / "audit.json").read_text())
        if not audit["ok"]:
            bad.append(f"audit at eps={self.EPS} failed: {audit['audit']['notes']}")
        Q = ref.read_rows(self.out / "q.jlmap", "jlmap v1")
        err = float(np.sum((Q - E) ** 2))
        if not err <= self.ALPHA / 100.0:
            bad.append(f"quantization error {err} exceeds alpha/100 = {self.ALPHA / 100.0}")
        if jl.quantize(jl.LinearMap(Q), self.ALPHA).entries.tobytes() != Q.tobytes():
            bad.append("requantizing the quantized map changes it")
        return bad


WORKLOADS = {w.name: w for w in (Frontier, Tails, Certify)}
