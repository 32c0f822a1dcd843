"""Simulate the geometric-decay recursion and watch it land on its limit law.

Run:  python3 demos/ou_limit_law.py
"""

import numpy as np

from semiself import (OUConfig, ecf, gaussian, limit_cumulant, solve_path,
                      verify_langevin)

cfg = OUConfig(b=2.0, c=1.0)
noise = gaussian(1.0)

bundle = solve_path(noise, cfg, np.zeros(1), epochs=60, n_paths=20_000,
                    seed=7)
print("langevin residual:", verify_langevin(bundle))

# terminal empirical CF against the analytic limit
z = np.linspace(-3.0, 3.0, 13)
emp = ecf(bundle.states[:, -1, :], z)
lim = np.exp(limit_cumulant(noise, cfg, z).values)
print("max ECF gap vs limit:", float(np.max(np.abs(emp.values - lim))))
print("MC radius:", emp.conf_radius)
