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
# ground state.
DIGESTS = textwrap.dedent("""
    import hashlib, json, tempfile
    from pathlib import Path
    import numpy as np
    import kaclab
    from kaclab import blas
    from kaclab.cli import main

    def digest(data):
        return hashlib.sha256(data).hexdigest()

    out = {"threads": [get() for get, _ in blas._CONTROLS]}
    for L, N, seed in ((2.4, 4, 11069854644879971893), (2.4, 4, 1093408664070836919),
                       (2.4, 4, 10952088214607132430), (3.2, 3, 7778828159576237216),
                       (3.2, 3, 11069854644879971893), (3.2, 3, 8666813077495494655)):
        config = kaclab.DisorderConfig(d=2, rho=N / L**2, N=N, nu=0.15, r=0.5, h=0.4,
                                       seed=seed)
        real = kaclab.build_realization(config)
        v = kaclab.build_interaction("gaussian", 1.0, N, 2, real.h, {"width": 0.5})
        gs = kaclab.ground_state(kaclab.build_manybody_hamiltonian(real, v, N))
        out[f"oracle {L} {N} {seed}"] = digest(np.float64(gs.E_qm).tobytes() + gs.psi.tobytes())
    config = kaclab.DisorderConfig(d=2, rho=1.0, N=16384, nu=0.15, r=0.5, h=0.4,
                                   seed=3972976727410370023)
    record = kaclab.run_realization(config, {"kind": "gaussian", "kappa": 0.05, "width": 0.5})
    out["record"] = digest(json.dumps(record, sort_keys=True).encode())
    with tempfile.TemporaryDirectory() as tmp:
        assert main(["certify", "--with-oracle", "-o", tmp, "--set", "disorder.N=2",
                     "--set", "disorder.rho=0.0625", "--set", "disorder.h=0.25",
                     "--set", "potential.kappa=1.0", "--set", "potential.width=0.5"]) == 0
        out["certificate"] = digest((Path(tmp) / "certificate.json").read_bytes())
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
