"""Climb the nested membership ladder with a semi-stable law.

Run:  python3 demos/nested_ladder.py
"""

from semiself import (SemiStableSpec, forward_triplet, is_nested_member,
                      is_semi_stable, poisson_unit, semi_stable_triplet)

b = 2.0

# a semi-stable law sits in every level of the nested classes
mu = semi_stable_triplet(SemiStableSpec(b=b, alpha=0.5))
cert = is_nested_member(mu, b, 5)
print("semi-stable verdicts:", cert.verdicts)

ss = is_semi_stable(mu, b)
print("semi-stable:", ss.verdict, "scaling a:", ss.a, "index:", ss.alpha)

# a unit-jump compound Poisson fails immediately; one application of the
# map buys exactly one level
pu = poisson_unit()
print("poisson level 0:", is_nested_member(pu, b, 0).verdicts)
print("mapped poisson levels 0..1:",
      is_nested_member(forward_triplet(pu, b), b, 1).verdicts)
