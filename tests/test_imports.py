"""What importing ``obd`` loads of scipy.

``obd.offline`` takes dpbtrf/dpbtrs from scipy's LAPACK extension module
alone: the scipy.linalg and scipy.optimize packages cost about 0.25 s and
about 20 MB each at import, for no use.  Each test runs a fresh interpreter.
This module needs pytest alone, so it also runs at the lowest scipy that
``pyproject.toml`` allows.
"""

import os
import subprocess
import sys

import obd.offline


def _python(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports this checkout's obd."""
    src = os.path.dirname(os.path.dirname(obd.offline.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)


def test_import_leaves_out_scipy_optimize_and_linalg():
    # the offline solve, the eig_in path of a Euclidean quadratic's primal
    # step and a dual step on a ball load no further scipy module
    code = """if True:
        import sys
        import numpy as np
        import obd, obd.cli, obd.harness
        from obd import (DualConfig, FeasibleSet, PrimalConfig, dual_obd_step,
                         euclidean_map, make_quadratic, offline_opt, primal_obd_step)
        f = make_quadratic(np.array([[2.0, 0.5], [0.0, 1.0]]), np.array([3.0, -2.0]))
        x0 = np.zeros(2)
        assert offline_opt([f, f, f], x0).iterations > 0
        primal = primal_obd_step(x0, f, PrimalConfig(beta=0.5, mirror_map=euclidean_map()))
        assert primal.branch == "balanced"
        dual_obd_step(x0, f, DualConfig(eta=0.1, mirror_map=euclidean_map(),
                                         feasible=FeasibleSet.ball(x0, 1.0)))
        print(sorted(m for m in sys.modules
                     if m.startswith(("scipy.optimize", "scipy.linalg"))))
    """
    proc = _python(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['scipy.linalg._flapack']"


def test_scipy_linalg_reuses_the_extension():
    code = """if True:
        import numpy as np
        import obd
        import scipy.linalg
        assert scipy.linalg.lapack.dpbtrf is obd.offline.dpbtrf
        assert scipy.linalg.lapack.dpbtrs is obd.offline.dpbtrs
        assert scipy.linalg.LinAlgError is np.linalg.LinAlgError
        A = np.array([[4.0, 2.0], [2.0, 3.0]])
        x = scipy.linalg.cho_solve(scipy.linalg.cho_factor(A), np.array([1.0, 2.0]))
        assert np.allclose(A @ x, [1.0, 2.0])
    """
    proc = _python(code)
    assert proc.returncode == 0, proc.stderr


def test_missing_extension_fails_loudly(tmp_path):
    code = f"""if True:
        import scipy
        scipy.__file__ = {str(tmp_path / "__init__.py")!r}
        try:
            import obd.offline
        except ImportError as exc:
            print(exc)
    """
    proc = _python(code)
    assert proc.returncode == 0, proc.stderr
    assert str(tmp_path / "linalg") in proc.stdout
