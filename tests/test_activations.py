import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ntklab.activations import ActivationKind, dphi, phi

SRC = Path(__file__).resolve().parents[1] / "src"


def test_package_import_leaves_scipy_unloaded():
    # scipy.special and scipy.linalg take ~0.3 s to import; only erf networks
    # and SPD solves need them, so they load on first use
    code = ("import sys, math, numpy as np\n"
            "import ntklab, ntklab.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
            "u = np.linspace(-4.0, 4.0, 81)\n"
            "got = ntklab.phi(ntklab.ActivationKind.ERF, u)\n"
            "print(max(abs(g - math.erf(v)) for g, v in zip(got, u)))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    loaded, err = proc.stdout.splitlines()
    assert loaded == "[]"
    assert float(err) <= 1e-15


@pytest.mark.parametrize("kind", list(ActivationKind))
def test_out_argument_writes_the_same_values(kind):
    u = np.array([-3.0, -0.5, -0.0, 0.0, 1e-300, 0.7, 2.5, np.inf, -np.inf, np.nan])
    for fn in (phi, dphi):
        want = fn(kind, u)
        out = np.empty_like(u)
        assert fn(kind, u, out=out) is out
        assert out.tobytes() == want.tobytes()


def test_relu_derivative_mask_multiplies_like_the_float_derivative():
    u = np.array([-1.0, 0.0, -0.0, 2.0, np.nan, 3.0])
    d = np.array([-2.0, 5.0, np.inf, -np.inf, 1.0, np.nan])
    mask = np.empty(u.shape, dtype=bool)
    with np.errstate(invalid="ignore"):  # inf * 0
        got = d * dphi(ActivationKind.RELU, u, out=mask)
        want = d * dphi(ActivationKind.RELU, u)
    assert mask.tolist() == [False, False, False, True, False, True]
    assert got.tobytes() == want.tobytes()
    assert math.copysign(1.0, got[0]) == -1.0  # -2.0 * 0 keeps its sign
