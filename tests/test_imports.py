"""The import graph and the package's public names, each in a fresh
interpreter that imports slspec from this tree's src."""
import json
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
FORWARD_ONLY = ("scipy.integrate", "scipy.optimize", "scipy.interpolate", "scipy.special")


def _run(code: str) -> dict:
    """Run code after `import slspec` from SRC; return the JSON it prints."""
    head = (f"import json, sys\nsys.path.insert(0, {str(SRC)!r})\n"
            "import slspec\n")
    out = subprocess.run([sys.executable, "-c", head + code],
                         capture_output=True, text=True, check=True)
    res = json.loads(out.stdout.strip().splitlines()[-1])
    assert Path(res.pop("file")).resolve().is_relative_to(SRC.resolve())
    return res


def _loaded(names) -> str:
    return (f"print(json.dumps({{'file': slspec.__file__, 'loaded': "
            f"[m for m in {tuple(names)!r} if m in sys.modules]}}))")


def test_inverse_side_loads_no_forward_scipy():
    res = _run("import slspec.forward, slspec.reconstruct, slspec.cli\n"
               "sd = slspec.SpectralData(omega=3.0, xi=[1.5], C=[2.0], q0=1.0)\n"
               "slspec.SpectralData.from_json(sd.to_json())\n"
               + _loaded(FORWARD_ONLY))
    assert res["loaded"] == []


def test_jost_and_forward_leave_the_ode_stack_unloaded():
    # the forward legs run on the Magnus propagator and the root-find is the
    # solver's own, so neither a forward solve nor the Jost identity check
    # loads scipy's ODE or root-finding code
    res = _run("import importlib, slspec.jost\n"
               "F = importlib.import_module('slspec.forward')\n"
               "from slspec.potentials import builtin\n"
               "F.forward(builtin('square_well'), 10.0)\n"
               "slspec.jost_identity_check(builtin('square_well'), 10.0, 2)\n"
               + _loaded(["scipy.integrate", "scipy.optimize"]))
    assert res["loaded"] == []


def test_gl0_exact_solve_leaves_mpmath_unloaded():
    # the escalated gl0 nodes solve in the standard library's decimal, so
    # mpmath is a test dependency only
    data = SRC.parent / "perfbench" / "data" / "q1_omega40.json"
    res = _run("import numpy as np\n"
               "from slspec.reconstruct import reconstruct_gl0\n"
               f"sd = slspec.SpectralData.from_json(open({str(data)!r}).read())\n"
               "res = reconstruct_gl0(sd, np.linspace(0.0, 2.0, 81))\n"
               "print(json.dumps({'file': slspec.__file__, "
               "'escalated': int(res.escalated.sum()), 'mpmath': 'mpmath' in sys.modules}))")
    assert res == {"escalated": 68, "mpmath": False}


def test_forward_side_loads_no_scipy(tmp_path):
    # scipy.linalg belongs to the inverse side, which loads on first use: the
    # forward solve, the Jost identity check and the forward and bounds
    # subcommands load no scipy at all
    out = tmp_path / "q1.json"
    res = _run("import slspec.cli\n"
               "q1 = slspec.builtin('q1')\n"
               "slspec.forward(q1, 10.0)\n"
               "slspec.jost_identity_check(q1, 10.0, 3)\n"
               "slspec.cli.main(['forward', '--potential', 'q1', '--omega', '10', "
               f"'--out', {str(out)!r}])\n"
               "slspec.cli.main(['bounds', '--l', '1', '--s', '2'])\n"
               "print(json.dumps({'file': slspec.__file__, "
               "'scipy': sorted(m for m in sys.modules if m.startswith('scipy'))}))")
    assert out.exists()
    assert res["scipy"] == []


INVERSE_SIDE = {
    "glkernel": ["KernelError", "KernelField", "coercivity_check", "gh_values",
                 "phi_diag_derivative", "phi_kernel", "solve_kernel"],
    "reconstruct": ["ReconstructError", "ReconstructionResult", "ScaledMatrix",
                    "SingularFamilyError", "build_T", "build_W", "lax_levermore",
                    "reconstruct_gl0", "reconstruct_glm"],
}


def test_every_public_name_resolves():
    # the inverse side resolves on first access: its submodules are modules,
    # and each of its names is the very object its submodule defines
    res = _run("kinds = {m: type(getattr(slspec, m)).__name__ "
               f"for m in {list(INVERSE_SIDE)!r}}}\n"
               f"foreign = [n for m, names in {INVERSE_SIDE!r}.items() for n in names\n"
               "           if getattr(slspec, n) is not getattr(sys.modules['slspec.' + m], n)]\n"
               "missing = [n for n in slspec.__all__ if not hasattr(slspec, n)]\n"
               "print(json.dumps({'file': slspec.__file__, 'kinds': kinds, "
               "'foreign': foreign, 'missing': missing}))")
    assert res["kinds"] == {"glkernel": "module", "reconstruct": "module"}
    assert res["foreign"] == []
    assert res["missing"] == []
    star = _run("ns = {}\n"
                "exec('from slspec import *', ns)\n"
                "print(json.dumps({'file': slspec.__file__, "
                "'unbound': [n for n in slspec.__all__ if n not in ns]}))")
    assert star["unbound"] == []


@pytest.mark.parametrize("first", ["", "import slspec.jost, slspec.forward",
                                   "import slspec.forward, slspec.jost"])
def test_jost_and_forward_are_the_functions(first):
    res = _run(first + "\nfrom slspec import jost, forward\n"
               "print(json.dumps({'file': slspec.__file__, "
               "'kinds': [type(jost).__name__, type(forward).__name__], "
               "'modules': [jost.__module__, forward.__module__]}))")
    assert res["kinds"] == ["function", "function"]
    assert res["modules"] == ["slspec.jost", "slspec.forward"]


def test_tracer_patch_points_exist():
    # the benchmark's traced runs patch these slspec names; one deleted or
    # renamed fails here before a traced run does
    bench = SRC.parent / "perfbench"
    res = _run(f"sys.path.insert(0, {str(bench)!r})\n"
               "import importlib, tracing\n"
               "from slspec.potentials import builtin\n"
               "tracer = tracing.Tracer()\n"
               "tracer.install()\n"
               "J = importlib.import_module('slspec.jost')\n"
               "J.jost(builtin('square_well'), 3.0, 2j)\n"
               "m = tracer.metrics()\n"
               "print(json.dumps({'file': slspec.__file__, "
               "'calls': m['jost.series_calls'], 'points': m['jost.grid_points'], "
               "'evals': m['potentials.eval_calls']}))")
    assert res["calls"] == 1 and res["points"] > 16 and res["evals"] > 0
