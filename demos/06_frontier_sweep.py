#!/usr/bin/env python3
"""
The distortion frontier
=======================

Sweeps the target dimension m and compares random gaussian maps against
the optimizer on two point sets of identical size: one that genuinely
occupies all of R^n, and one confined to an 8-dimensional subspace.  The
full-dimensional set resists every map until m approaches n; the
subspace set collapses to m = 8.

Writes the CSVs next to this script; rerunning reproduces them byte for
byte.  The paths are given relative to the script's folder, so each CSV's
config line reads the same wherever the repository sits, and the committed
CSVs can be compared with a fresh run.
"""

import os
from pathlib import Path

import numpy as np

import jllab as jl
from jllab.cli import main

os.chdir(Path(__file__).resolve().parent)
n, k = 32, 1024

hard_ps = Path("frontier_hard.jlps")
easy_ps = Path("frontier_easy.jlps")
jl.write_pointset(str(hard_ps), jl.hard_instance(n, k, jl.Seed(1)), binary=True)

basis8 = np.linalg.qr(jl.gaussian_vectors(n, 8, jl.Seed(2)).points.T)[0][:, :8]
coeff = jl.gaussian_vectors(8, k + n, jl.Seed(3)).points
easy = jl.PointSet(n, coeff @ basis8.T, ("gaussian",) * (k + n))
jl.write_pointset(str(easy_ps), easy, binary=True)

for label, ps in (("full-dimensional", hard_ps), ("8-dim subspace", easy_ps)):
    out = Path(f"frontier_{'hard' if ps is hard_ps else 'easy'}.csv")
    main(["frontier", "--set", str(ps), "--m-grid", "2,4,8,16,32",
          "--maps-per-m", "5", "--max-iters", "300", "--eps", "0.25",
          "--seed", "5", "--out", str(out)])
    print(f"\n{label} ({ps.name}):")
    lines = out.read_text().splitlines()
    print("  " + lines[1])
    for row in lines[2:]:
        print("  " + row)
