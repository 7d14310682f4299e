"""Watch a single coordinate condense as the system grows.

In the extraneous regime (targets a = (1, 3) for POWERS[1,2], phase
boundary g2 = 2) the surplus a_2 - g2 = 1 of the second constraint is
carried by one coordinate: the largest share M_n = max_i x_i^2 / n
approaches 1 while the second-largest share N_n vanishes.  In the
interior regime (a = (1, 1.5)) every share vanishes.

This is a quick desk-scale illustration (small n, short chains); the
acceptance suite runs the heavy, equilibrated version of this sweep.

Run:  python3 demos/condensation_sweep.py
"""

import numpy as np

from microshell import diagnostics as diag
from microshell import observables as obs
from microshell import sampler as smp

S12 = obs.power_set([1, 2])


def sweep(a, label):
    print(f"\n{label}: targets a = {a}")
    print(f"{'n':>5} {'mean M_n':>10} {'mean N_n':>10} {'frac M_n>0.1':>13}")
    params = smp.ChainParams(burn_in=60000, thin=64, n_states=400)
    for n in (16, 32, 64, 128):
        spec = smp.ShellSpec(set=S12, n=n, delta=0.1, a=a)
        batch = smp.run_chain(spec, params, seed=100 + n)
        M, N = diag.max_stats(batch)
        frac = float(np.mean(M > 0.1))
        print(f"{n:>5} {M.mean():>10.4f} {N.mean():>10.4f} {frac:>13.4f}")


def main():
    sweep((1.0, 3.0), "extraneous regime (condensation)")
    sweep((1.0, 1.5), "interior regime (no condensation)")


if __name__ == "__main__":
    main()
