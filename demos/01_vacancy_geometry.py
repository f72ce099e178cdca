"""Vacancy geometry of the hard-ball obstacle model.

Samples Poisson obstacle configurations, discretizes the vacancy set, and
checks the empirical volume law: the vacant fraction of the box concentrates
around exp(-nu * omega_d * r^d) as the ensemble grows.
"""

import math

import numpy as np

from kaclab import DisorderConfig, build_realization, volume_fraction

nu, r = 0.4, 0.6
config = DisorderConfig(d=2, rho=1.0, N=144, nu=nu, r=r, h=0.25, seed=7)
real = build_realization(config)

print(f"box side L = {config.box_side:.3f}, grid {real.dims}, "
      f"{real.centers.shape[0]} obstacle centers")
print(f"vacant nodes: {real.n_vacant}/{real.n_nodes}")
print(f"connected components: K = {real.K}")
largest = sorted(real.component_volumes, reverse=True)[:5]
print(f"largest component volumes: {[round(v, 3) for v in largest]}")

eta = 0.1
fraction, in_event, target = volume_fraction(real, eta=eta)
print(f"\nvolume fraction {fraction:.4f} vs limit exp(-nu pi r^2) = {target:.4f}"
      f" -> typical-volume event (eta={eta}): {in_event}")

# ensemble mean over 300 seeds: the law emerges
fractions = [
    volume_fraction(build_realization(
        DisorderConfig(d=2, rho=1.0, N=144, nu=nu, r=r, h=0.25, seed=s)
    ))[0]
    for s in range(300)
]
mean = np.mean(fractions)
se = np.std(fractions, ddof=1) / math.sqrt(len(fractions))
print(f"ensemble mean over 300 seeds: {mean:.5f} +- {se:.5f} "
      f"(target {target:.5f}, {abs(mean - target) / se:.2f} standard errors)")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(5, 5))
    ax.imshow(real.labels.T, origin="lower", cmap="tab20",
              extent=[-config.box_side / 2, config.box_side / 2] * 2)
    ax.scatter(real.centers[:, 0], real.centers[:, 1], s=8, c="k", marker="x")
    ax.set_title(f"vacancy components (K={real.K})")
    fig.savefig("vacancy_components.png", dpi=120, bbox_inches="tight")
    print("\nwrote vacancy_components.png")
except ImportError:
    print("\n(matplotlib not installed, skipping the picture)")
