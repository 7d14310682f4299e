"""Profile the large-deviation rate function along the last constraint.

For POWERS[1,2] with the first moment pinned at 1, the rate I(1, z) is:
+inf below the floor z = 1 (no admissible configurations), strictly
decreasing on (1, 2), and exactly constant above the phase boundary
z = 2 -- moving surplus into the condensate is free at exponential
scale.  The closed-form anchor I(2, 8) = 1 - log 2 is also printed.

Run:  python3 demos/rate_profile.py
"""

import math

import numpy as np

from microshell import observables as obs
from microshell import rate_functions as rf

S12 = obs.power_set([1, 2])


def main():
    print(f"{'z':>6} {'I(1, z)':>12} {'maximizer p':>28}")
    zs = np.arange(0.6, 3.61, 0.2)
    # one scan solves the prefix's reduced problem once for the whole grid
    for z, ev in zip(zs, rf.rate_scan(S12, (1.0,), zs)):
        if ev.maximizer_p == rf.BOUNDARY:
            tag = "(below admissibility floor)"
        else:
            tag = "(%+.4f, %+.4f)" % tuple(ev.maximizer_p)
        val = "inf" if math.isinf(ev.value) else f"{ev.value:.6f}"
        print(f"{z:>6.2f} {val:>12} {tag:>28}")

    anchor = rf.rate_I(S12, (2.0, 8.0)).value
    print(f"\nI(2, 8) = {anchor:.8f}   (closed form 1 - log 2 "
          f"= {1 - math.log(2):.8f})")


if __name__ == "__main__":
    main()
