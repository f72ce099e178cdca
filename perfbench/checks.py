"""Correctness checks for benchmark outputs, independent of kaclab's own code.

Each check compares a pipeline output with a separate computation (a direct
distance test, a closed-form eigenvalue, a lattice sum) or with a property the
method must have (domain monotonicity, variational bounds, the exact lattice
certificates).  Nothing here compares with a stored copy of earlier output:
ARPACK starts from a random vector, so repeated runs agree only to solver
tolerance.

Every check function returns a list of problem strings; an empty list means
the output passed.  Only numpy and the standard library are used.
"""

import math

import numpy as np

CONSISTENCY_TOL = 1e-7     # |energy - e1|, as in acceptance criterion 6
TRACE_TOL = 1e-10          # |tr rho1 - 1|


def grid_spacing(L: float, h_requested: float) -> float:
    """Actual spacing: L split into round(L / h) equal cells."""
    return L / max(int(round(L / h_requested)), 1)


def box_eigenvalue(d: int, h: float, L: float) -> float:
    """Lowest Dirichlet eigenvalue of the discrete Laplacian on the full box.

    (4 / h^2) d sin^2(pi h / 2L); every vacancy mask is a subset of the box
    grid, so its lowest eigenvalue is at least this (domain monotonicity,
    i.e. eigenvalue interlacing for a principal submatrix).
    """
    return (4.0 / h**2) * d * math.sin(math.pi * h / (2.0 * L)) ** 2


def supnorm_constant_sq(d: int) -> float:
    """C^2 with C = 2 (4 pi)^(-d/4) e, the sup-norm constant of the gap event."""
    return (2.0 * (4.0 * math.pi) ** (-d / 4.0) * math.e) ** 2


def direct_vacant_count(centers: np.ndarray, L: float, h: float, r: float, d: int) -> int:
    """Vacant interior nodes by rasterizing each obstacle ball directly.

    Node i along an axis sits at -L/2 + i h for i = 1 .. n-1; a node is
    blocked when some center lies within distance r (closed balls).  Only the
    index window around each center is examined, so no search tree is needed.
    """
    n = int(round(L / h))
    blocked = np.zeros((n - 1,) * d, dtype=bool)
    reach = r / h
    for c in np.asarray(centers, dtype=float).reshape(-1, d):
        idx = (c + L / 2.0) / h  # fractional node index of the center
        lo = np.maximum(np.floor(idx - reach).astype(int), 1)
        hi = np.minimum(np.ceil(idx + reach).astype(int), n - 1)
        if np.any(hi < lo):
            continue
        axes = [-L / 2.0 + h * np.arange(a, b + 1) - ci for a, b, ci in zip(lo, hi, c)]
        dist2 = sum(
            np.expand_dims(ax * ax, tuple(j for j in range(d) if j != i))
            for i, ax in enumerate(axes)
        )
        window = tuple(slice(a - 1, b) for a, b in zip(lo, hi))
        blocked[window] |= dist2 <= r * r
    return int(blocked.size - np.count_nonzero(blocked))


def gaussian_scale(kappa: float, N: int, d: int) -> float:
    """Prefactor kappa / (N (ln N)^(2/d)); it is also v(0) for a Gaussian."""
    return kappa / (N * math.log(N) ** (2.0 / d))


def gaussian_l1(kappa: float, N: int, d: int, h: float, width: float,
                truncation: float = 8.0) -> float:
    """||v||_1 = h^d sum v over the truncated Gaussian stencil."""
    R = max(int(math.ceil(truncation * width / h)), 1)
    offsets = np.arange(-R, R + 1) * h
    r2 = sum(
        np.expand_dims(offsets**2, tuple(j for j in range(d) if j != i))
        for i in range(d)
    )
    profile = np.where(r2 <= (truncation * width) ** 2,
                       np.exp(-r2 / (2.0 * width**2)), 0.0)
    return gaussian_scale(kappa, N, d) * float(profile.sum()) * h**d


def _spectral_problems(n_vacant, n_vacant_direct, d, h, L, lam1, lam2,
                       energy, e1, el_residual, eig_tol, el_tol):
    problems = []
    if n_vacant != n_vacant_direct:
        problems.append(f"n_vacant {n_vacant} != direct recount {n_vacant_direct}")
    tol = eig_tol * max(1.0, abs(lam1))
    box = box_eigenvalue(d, h, L)
    if not lam1 >= box - tol:
        problems.append(f"lambda1 {lam1!r} below free-box eigenvalue {box!r}")
    if lam2 is None or not lam1 < lam2:
        problems.append(f"lambda1 {lam1!r} not below lambda2 {lam2!r}")
    if not lam1 <= energy + tol:
        problems.append(f"Hartree energy {energy!r} below lambda1 {lam1!r}")
    if not e1 <= energy + CONSISTENCY_TOL:
        problems.append(f"effective e1 {e1!r} above Hartree energy {energy!r}")
    if not el_residual < el_tol:
        problems.append(f"Euler-Lagrange residual {el_residual!r} >= {el_tol!r}")
    return problems


def check_realization(rec: dict, n_vacant_direct: int, v_l1: float,
                      eig_tol: float, el_tol: float) -> list:
    """Checks on one run_realization record (criteria 5 and 6 included).

    v_l1 is ||v||_1 from gaussian_l1.  The gap event, the transferred gap
    bound and the sup-norm premise are recomputed from the record's
    eigenvalues and the independent ||v||_1 and C.
    """
    cfg = rec["config"]
    d, L = cfg["d"], rec["L"]
    hart = rec["hartree"]
    energy, e1, e2 = hart["energy"], hart["e1"], hart["e2"]
    lam1, lam2 = rec["lambda1"], rec["lambda2"]
    problems = _spectral_problems(
        rec["n_vacant"], n_vacant_direct, d, grid_spacing(L, cfg["h"]), L,
        lam1, lam2, energy, e1, hart["el_residual"], eig_tol, el_tol,
    )
    if lam2 is None or e2 is None:
        return problems + ["second eigenvalue missing"]

    c2 = supnorm_constant_sq(d)
    rhs = c2 * cfg["N"] * v_l1 * lam1 ** (d / 2.0)
    margin = (lam2 - lam1) - rhs
    cert = rec["certificate"]
    if abs(margin) > 1e-9 * max(1.0, rhs) and (margin > 0.0) != cert["gap_event"]["ok"]:
        problems.append(f"gap event recorded {cert['gap_event']['ok']} "
                        f"but recomputed margin is {margin!r}")
    gap_actual = e2 - e1
    budget = 2.0 * eig_tol * max(1.0, abs(lam2), abs(e2))
    supnorm_ok = cert["supnorm_diag"]["lhs"] <= c2 * lam1 ** (d / 2.0)
    if supnorm_ok and gap_actual < margin - budget:
        problems.append(f"gap transfer violated: e2-e1 {gap_actual!r} < bound {margin!r}")
    if margin > 0.0 and not gap_actual > 0.0:
        problems.append(f"gap event holds but e2-e1 = {gap_actual!r} is not positive")
    if margin > 0.0 and not rec["multiple_support"] and abs(energy - e1) >= CONSISTENCY_TOL:
        problems.append(f"|energy - e1| = {abs(energy - e1)!r} on a unique host")
    return problems


def check_oracle(item: dict, n_vacant_direct: int, eig_tol: float, el_tol: float) -> list:
    """Checks on one exact-oracle instance (see workloads.oracle_item).

    The energy and depletion certificates are exact lattice theorems; the
    product state u^N bounds E_qm from above by N E_H[u], and the nonnegative
    interaction bounds it from below by N lambda1.
    """
    N, d = item["N"], item["d"]
    energy, e1, e2 = item["energy"], item["e1"], item["e2"]
    lam1 = item["lambda1"]
    problems = _spectral_problems(
        item["n_vacant"], n_vacant_direct, d, grid_spacing(item["L"], item["h_requested"]),
        item["L"], lam1, item["lambda2"], energy, e1, item["el_residual"], eig_tol, el_tol,
    )
    if item["K"] == 1 and abs(energy - e1) >= CONSISTENCY_TOL:
        problems.append(f"|energy - e1| = {abs(energy - e1)!r} on a connected set")

    v0 = gaussian_scale(item["kappa"], N, d)
    budget = 1e-7 + 2.0 * (item["residual1"] + item["residual2"]) + item["el_residual"]
    E_qm = item["E_qm"]
    if abs(E_qm / N - e1) > 0.5 * v0 + budget:
        problems.append(f"energy certificate violated: |E/N - e1| = {abs(E_qm / N - e1)!r} "
                        f"> v(0)/2 = {0.5 * v0!r}")
    gap = e2 - e1
    depletion = 1.0 - item["n_condensate"] / N
    if gap > 0.0 and depletion > 0.5 * v0 / gap + budget:
        problems.append(f"depletion certificate violated: {depletion!r} > {0.5 * v0 / gap!r}")
    slack = 1e-9 * max(1.0, abs(N * energy))
    if not N * lam1 - slack <= E_qm <= N * energy + slack:
        problems.append(f"E_qm {E_qm!r} outside [N lambda1, N E_H] = "
                        f"[{N * lam1!r}, {N * energy!r}]")
    if abs(item["trace_rho1"] - 1.0) > TRACE_TOL:
        problems.append(f"tr rho1 = {item['trace_rho1']!r}")
    return problems
