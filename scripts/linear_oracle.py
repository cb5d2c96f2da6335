#!/usr/bin/env python3
"""End-to-end run on the exactly solvable linear saddle.

Every quantity has a closed form here (budget sequences, k0, the leaf is the
x-axis, contraction ratios are 2^-n), so this script doubles as a smoke test:
it prints computed values side by side with the exact ones.
"""

import math

from stableleaf import (
    EpsilonSchedule,
    Point2,
    cauchy_iterate,
    check_condition_double_star,
    check_condition_star,
    choose_epsilon,
    contraction_check,
    estimate_budget,
    make_map,
)
from stableleaf.directions import direction_field_derivative


def main():
    eta, kmax = 0.1, 16
    m = make_map("linear", lambda_s=0.5, lambda_u=2.0)
    z = Point2(0.0, 0.0)
    b = estimate_budget(m, z, EpsilonSchedule.constant(eta), kmax, n=1000, seed=7)
    print(f"k0 = {b.k0} (exact: 2)")
    print(f"xi_1 = {b.xi[1]:.12f} (exact: {1/3:.12f})")
    for k in (2, 4, 8):
        print(f"gamma_{k} = {b.gamma[k]:.3e} (exact {4.0**-k:.3e}); "
              f"gamma~_{k} = {b.gamma_tilde[k]:.6f} (limit {(11/3)*2.0**-k:.6f})")

    star = check_condition_star(b)
    dstar = check_condition_double_star(b, b.sched)
    print(f"condition (*): {star.verdict}, tail ratio {star.tail_ratio:.4f} (exact 0.25)")
    print(f"condition (**): Gamma = {dstar.gamma_required:.4f} at (j,k) = "
          f"({dstar.argmax_j},{dstar.argmax_k})")

    L = direction_field_derivative(m, b.cocycle, kmax, 1e-4, budget=b)[0]
    eps = choose_epsilon(b, dstar.gamma_required, L)
    print(f"L = {L:.3e}, eps = {eps}")

    conv = cauchy_iterate(m, b, eps, tol=1e-9, L=L)
    limit = conv.limit
    print(f"max d_k = {conv.d_k.max():.3e} (exact 0); "
          f"max |y| on limit leaf = {abs(limit.ys).max():.3e}")

    cr = contraction_check(m, limit, b, n=12, seed=7)
    worst = max(abs(cr.max_ratio[n] - 0.5 ** n) / 0.5 ** n for n in range(13))
    print(f"contraction ratios match 2^-n to rel {worst:.3e}; C_fit = {cr.C_fit:.4f} "
          f"(limit {3/11:.4f})")


if __name__ == "__main__":
    main()
