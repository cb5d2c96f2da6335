#!/usr/bin/env python3
"""Full stable-manifold scenario at the Henon saddle (a=1.4, b=0.3).

Locates the fixed point, runs the whole pipeline, prints the four theorem
conclusions, and writes leaf.csv / fixedpoint.json into --out-dir.
"""

import argparse
import math

from stableleaf import Point2, eigen_split, make_map, verify_fixed_point_theorem
from stableleaf.cli import run_command


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--eta", type=float, default=0.05)
    ap.add_argument("--kmax", type=int, default=12)
    ap.add_argument("--seed", type=int, default=5)
    ap.add_argument("--out-dir", default="henon_run")
    args = ap.parse_args()

    m = make_map("henon", a=1.4, b=0.3)
    fp = eigen_split(m, Point2(0.6, 0.2))
    print(f"saddle at ({fp.p.x:.10f}, {fp.p.y:.10f})")
    print(f"eigenvalues: lambda_s = {fp.lambda_s:.10f}, lambda_u = {fp.lambda_u:.10f}")

    rep = verify_fixed_point_theorem(m, fp, eta=args.eta, kmax=args.kmax, seed=args.seed)
    print(f"(1) tangency to Es: {rep.tangency_error:.3e} rad")
    print(f"(2) leaf length: {rep.length_neg:.6f} / {rep.length_pos:.6f} "
          f"(eps = {rep.eps}, full = {rep.full_length})")
    print(f"(3) contraction rate: {rep.fitted_rate:.6f} vs ln|lambda_s| = "
          f"{math.log(abs(fp.lambda_s)):.6f} (dev {rep.rate_deviation:.3e})")
    u = rep.uniqueness
    print(f"(4) uniqueness: strip width {u.width[-1]:.3e} at k = {args.kmax}, ratio width*F_k/eta = "
          f"{u.ratio[-1]:.3f}; orders outside the band: {u.outside_band}; {u.on_leaf_exits} leaf points exit")

    code = run_command([
        "fixedpoint", "--map", "henon", "--a", "1.4", "--b", "0.3",
        "--z", "0.6,0.2", "--eps0", str(args.eta), "--kmax", str(args.kmax),
        "--seed", str(args.seed), "--out-dir", args.out_dir,
    ])
    print(f"artifacts written to {args.out_dir}/ (exit {code})")


if __name__ == "__main__":
    main()
