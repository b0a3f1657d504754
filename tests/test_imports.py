"""Every name a module imports is read somewhere in that module, and
the package imports numpy alone at run time.

The package ``__init__`` re-exports what it imports, so it is exempt
from the first check.
"""

import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(
    p
    for p in [*(ROOT / "src" / "mrsim").glob("*.py"), *(ROOT / "tests").glob("*.py")]
    if p.name != "__init__.py"
)


def unused_imports(source: str) -> list:
    """Names bound by an import statement and never loaded, with their line."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_scan_finds_an_unused_import():
    assert unused_imports("import math\nimport os\nfrom a import b as c\nos.getcwd()\n") == [
        (1, "math"),
        (3, "c"),
    ]


def test_no_module_has_an_unused_import():
    assert len(MODULES) > 20
    found = {
        f"{p.parent.name}/{p.name}": unused
        for p in MODULES
        if (unused := unused_imports(p.read_text(encoding="utf-8")))
    }
    assert found == {}


def scipy_imports(source: str) -> list:
    """Lines of the import statements, at any depth, that load scipy."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        if any(m == "scipy" or m.startswith("scipy.") for m in modules):
            found.append(node.lineno)
    return found


def test_scan_finds_a_scipy_import_in_a_function():
    source = "import os, scipy\ndef f():\n    from scipy.special import ellipk\nimport scipyx\n"
    assert scipy_imports(source) == [1, 3]


def test_no_module_of_the_package_imports_scipy():
    package = sorted((ROOT / "src" / "mrsim").glob("*.py"))
    assert len(package) > 10
    found = {p.name: lines for p in package if (lines := scipy_imports(p.read_text("utf-8")))}
    assert found == {}


def test_a_run_with_a_loop_coil_and_a_fit_loads_no_scipy():
    script = textwrap.dedent(
        """
        import math, sys
        import numpy as np
        import mrsim
        seq = mrsim.Sequence([
            mrsim.ElementarySequence(pulse=mrsim.HardPulse(math.pi / 2, 0.0), duration=1e-3),
            mrsim.ElementarySequence(
                gradient=mrsim.GradientWaveform.constant(gx=1e-3),
                duration=4e-3,
                acquisition=mrsim.AcquisitionSpec(5),
            ),
        ])
        box = mrsim.PhantomBox(origin=(-0.01, -0.01, -5e-4), size=(0.02, 0.02, 1e-3))
        coil = mrsim.CircularLoop(center=(0.0, 0.0, 0.05), normal=(0.0, 0.0, 1.0), diameter=0.1)
        system = mrsim.SystemModel(field=mrsim.StaticField(b0=1.5), receive=coil)
        result = mrsim.run(mrsim.Experiment(seq, mrsim.Phantom([box]), system=system))
        assert result.spin_count > 1 and np.all(np.isfinite(result.echo_matrix()))
        t = np.arange(1, 7) * 0.02
        assert abs(mrsim.cpmg_fit(t, 0.8 * np.exp(-t / 0.1)).t2 - 0.1) < 1e-9
        print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
        """
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


# calls that can reach BLAS, whose threads every worker process of the
# engine's pool would start; np.vecdot and a plain einsum are ufunc loops
BLAS_NAMES = {"dot", "vdot", "matmul", "inner", "tensordot", "linalg"}


def blas_uses(source: str) -> list:
    """Lines that can reach BLAS: the ``@`` operator, a name, attribute or
    import of one of ``BLAS_NAMES``, or an ``einsum`` call with
    ``optimize``, which may hand the contraction to ``tensordot``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(node.lineno)
        elif isinstance(node, ast.Name) and node.id in BLAS_NAMES:
            found.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
            found.append(node.lineno)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            modules = [node.module or ""] if isinstance(node, ast.ImportFrom) else []
            if any(BLAS_NAMES & set(m.split(".")) for m in modules + [a.name for a in node.names]):
                found.append(node.lineno)
        elif isinstance(node, ast.Call) and any(k.arg == "optimize" for k in node.keywords):
            func = node.func
            if getattr(func, "attr", getattr(func, "id", None)) == "einsum":
                found.append(node.lineno)
    return sorted(set(found))


def test_scan_finds_every_way_into_blas():
    source = textwrap.dedent(
        """\
        import numpy as np
        from numpy.linalg import norm
        from numpy import matmul
        a = x @ y
        a @= y
        np.dot(x, y)
        x.dot(y)
        np.inner(x, y) + np.tensordot(x, y)
        np.einsum("ij,jk->ik", x, y, optimize=True)
        einsum("ij,jk->ik", x, y, optimize="greedy")
        np.linalg.norm(x)
        np.vecdot(x, y) + np.einsum("ij,jk->ik", x, y).sum()
        """
    )
    assert blas_uses(source) == [2, 3, 4, 5, 6, 7, 8, 9, 10, 11]


def test_spin_kernel_modules_stay_off_blas():
    found = {
        name: lines
        for name in ("engine.py", "bloch.py")
        if (lines := blas_uses((ROOT / "src" / "mrsim" / name).read_text("utf-8")))
    }
    assert found == {}
