"""Records and oracle states that do not depend on the BLAS thread count."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from kaclab import blas

SRC = Path(__file__).resolve().parent.parent / "src"

# Six connected d=2 oracle sets, (box side L, bosons N, seed): the first three
# of derive_seeds(2024, ...) with 22-24 vacant sites at L=2.4 and with 43-47
# at L=3.2 (bases of 12,650-16,215 states), and one d=2 N=16384 realization
# (~90k vacant nodes), and the bytes of certificate.json from kaclab certify
# --with-oracle at N=2 on 478 vacant sites (114,481 states).  At
# OPENBLAS_NUM_THREADS=2 without the pin, the third L=3.2 ground state and the
# N=16384 record hashed differently from one thread, and so did the
# certificate: its product_overlap read 0.9987405665028973, not
# 0.998740566502896, while the pin covered only the pipeline and the oracle's
# ground state.  The solvers called directly, outside run_pipeline, as
# perfbench's oracle item calls them, pin themselves too: the oracle sets'
# spectrum, Hartree minimizer, rho1 and occupation, and the spectrum and
# minimizer of the d=2 N=1024 golden seed (5,632 nodes, LOBPCG) and of its
# seed at N=4096, where the unpinned minimizer hashed differently at 2 threads.
DIGESTS = textwrap.dedent("""
    import hashlib, json, tempfile
    from pathlib import Path
    import numpy as np
    import kaclab
    from kaclab import blas
    from kaclab.cli import main

    def digest(*arrays):
        return hashlib.sha256(b"".join(np.asarray(a, dtype=float).tobytes()
                                       for a in arrays)).hexdigest()

    def direct(config, kappa):
        real = kaclab.build_realization(config)
        v = kaclab.build_interaction("gaussian", kappa, config.N, 2, real.h, {"width": 0.5})
        pair = kaclab.lowest_eigenpairs(kaclab.assemble_laplacian(real))
        component = kaclab.ground_state_component(real, pair).component
        hs = kaclab.minimize_hartree(real, component, v, config.N)
        solved = digest(pair.lambda1, pair.lambda2, pair.phi1, hs.energy, hs.e1, hs.e2, hs.u)
        return real, v, hs, solved

    out = {"threads": [get() for get, _ in blas._CONTROLS]}
    for L, N, seed in ((2.4, 4, 11069854644879971893), (2.4, 4, 1093408664070836919),
                       (2.4, 4, 10952088214607132430), (3.2, 3, 7778828159576237216),
                       (3.2, 3, 11069854644879971893), (3.2, 3, 8666813077495494655)):
        config = kaclab.DisorderConfig(d=2, rho=N / L**2, N=N, nu=0.15, r=0.5, h=0.4,
                                       seed=seed)
        real, v, hs, solved = direct(config, 1.0)
        gs = kaclab.ground_state(kaclab.build_manybody_hamiltonian(real, v, N))
        rho1 = kaclab.one_body_density_matrix(gs)
        n = kaclab.condensate_occupation(rho1, hs.u, real, N)
        out[f"oracle {L} {N} {seed}"] = digest(gs.E_qm, gs.psi)
        out[f"direct {L} {N} {seed}"] = [solved, digest(rho1, n)]
    for N in (1024, 4096):
        config = kaclab.DisorderConfig(d=2, rho=1.0, N=N, nu=0.15, r=0.5, h=0.4,
                                       seed=3972976727410370023)
        out[f"direct d=2 N={N}"] = direct(config, 0.05)[3]
    config = kaclab.DisorderConfig(d=2, rho=1.0, N=16384, nu=0.15, r=0.5, h=0.4,
                                   seed=3972976727410370023)
    record = kaclab.run_realization(config, {"kind": "gaussian", "kappa": 0.05, "width": 0.5})
    out["record"] = hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()
    with tempfile.TemporaryDirectory() as tmp:
        assert main(["certify", "--with-oracle", "-o", tmp, "--set", "disorder.N=2",
                     "--set", "disorder.rho=0.0625", "--set", "disorder.h=0.25",
                     "--set", "potential.kappa=1.0", "--set", "potential.width=0.5"]) == 0
        out["certificate"] = hashlib.sha256(
            (Path(tmp) / "certificate.json").read_bytes()).hexdigest()
    print(json.dumps(out))
""")


def digests_at(threads):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", DIGESTS], env=env, capture_output=True,
                          text=True, timeout=300, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_records_equal_at_one_and_two_threads():
    one, two = digests_at(1), digests_at(2)
    if min(two.pop("threads"), default=1) < 2:
        pytest.skip("OpenBLAS runs one thread on this host whatever it is asked")
    assert one.pop("threads") == [1] * len(blas._CONTROLS)
    assert one == two


def test_one_thread_pins_and_restores():
    if not blas._CONTROLS:
        pytest.skip("no bundled OpenBLAS to pin")
    saved = [get() for get, _ in blas._CONTROLS]
    try:
        for _, set_ in blas._CONTROLS:
            set_(2)
        outside = [get() for get, _ in blas._CONTROLS]
        if outside == [1] * len(saved):
            pytest.skip("OpenBLAS runs one thread on this host whatever it is asked")
        with blas.one_thread():
            assert [get() for get, _ in blas._CONTROLS] == [1] * len(saved)
        assert [get() for get, _ in blas._CONTROLS] == outside
    finally:
        for (_, set_), count in zip(blas._CONTROLS, saved):
            set_(count)
