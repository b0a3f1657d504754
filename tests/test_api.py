"""The public API takes no nucleus and no frame: mrsim simulates protons
(``GAMMA_PROTON``) in the frame rotating at gamma * B0."""

import ast
import dataclasses
import importlib
import inspect
import pathlib
import pkgutil

import mrsim

FIXED = {"gamma", "ctx", "omega_hf"}
ROOT = pathlib.Path(__file__).resolve().parent.parent


def _public_members():
    """Every public callable and dataclass defined in an mrsim module,
    plus the methods of the public classes."""
    for info in pkgutil.iter_modules(mrsim.__path__):
        module = importlib.import_module(f"mrsim.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            yield f"{module.__name__}.{name}", obj
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if not attr.startswith("_") and callable(getattr(obj, attr)):
                        yield f"{module.__name__}.{name}.{attr}", getattr(obj, attr)


def _names(obj):
    names = set()
    if dataclasses.is_dataclass(obj):
        names |= {f.name for f in dataclasses.fields(obj)}
    if callable(obj):
        try:
            names |= set(inspect.signature(obj).parameters)
        except (TypeError, ValueError):
            pass
    return names


def test_no_public_callable_or_dataclass_takes_gamma_or_a_frame():
    members = dict(_public_members())
    assert "mrsim.engine.run" in members and "mrsim.sequence.GradientWaveform.moments" in members
    offenders = {name: sorted(_names(obj) & FIXED) for name, obj in members.items()}
    assert {name: found for name, found in offenders.items() if found} == {}


def test_k_t_steps_are_the_walks_own():
    """The walk's private steps are the only k-t operators, the state
    carries no pruning settings, and ``simulate_kt`` is the only walk
    and derives its own unit: the module's public names are these."""
    operators = {"apply_rf_split", "apply_relax_interval", "apply_gradient_shift"}
    assert sorted((operators | {"ConfigurationSet"}) & set(vars(mrsim))) == []
    prefix = "mrsim.ktspace."
    public = [n[len(prefix):] for n, _ in _public_members() if n.startswith(prefix)]
    assert sorted(n for n in public if "." not in n) == [
        "Configuration", "ConfigurationSet", "KtRun", "TracePoint", "box_spectrum",
        "derive_unit_k", "export_kt_diagram", "lattice_spectrum", "max_k_excursion",
        "simulate_kt", "synthesize_echo",
    ]
    fields = [f.name for f in dataclasses.fields(mrsim.ktspace.ConfigurationSet)]
    assert fields == ["unit", "trans", "longi"]
    assert "unit" not in inspect.signature(mrsim.ktspace.simulate_kt).parameters


def _nodes(folders=("src", "tests", "perfbench")):
    """Every AST node of the package, its tests and the benchmark."""
    for folder in folders:
        for path in (ROOT / folder).rglob("*.py"):
            yield from ast.walk(ast.parse(path.read_text(encoding="utf-8")))


def _attributes_read():
    """Every attribute name loaded (``x.name``) or read by a literal
    ``getattr(x, "name")`` in the package, its tests and the benchmark."""
    read = set()
    for node in _nodes():
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "getattr"
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
        ):
            read.add(node.args[1].value)
    return read


def test_every_dataclass_field_is_read():
    """A field of an mrsim dataclass that nothing reads is a result or a
    setting that cannot change anything.  Fields are matched by name
    alone: a field counts as read when any attribute of that name is
    read anywhere, so a name shared with a method or another class's
    field hides an unread field."""
    read = _attributes_read()
    unread = []
    for info in pkgutil.iter_modules(mrsim.__path__):
        module = importlib.import_module(f"mrsim.{info.name}")
        for name, obj in vars(module).items():
            if (
                inspect.isclass(obj)
                and dataclasses.is_dataclass(obj)
                and obj.__module__ == module.__name__
            ):
                unread += [
                    f"{module.__name__}.{name}.{f.name}"
                    for f in dataclasses.fields(obj)
                    if f.name not in read
                ]
    assert unread == []


def _parameters(fn):
    args = fn.args
    named = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
    return [a.arg for a in named if a is not None]


def test_every_function_parameter_is_read():
    """A parameter that its function never reads is an input that cannot
    change anything.  Every ``def`` in the package must read each of its
    parameters in its body, nested functions included; ``self``,
    ``cls``, names starting with ``_`` and lambdas are exempt."""
    unread = []
    for path in sorted((ROOT / "src" / "mrsim").rglob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            read = {
                node.id
                for stmt in fn.body
                for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            }
            unread += [
                f"{path.name}:{fn.lineno} {fn.name}({name})"
                for name in _parameters(fn)
                if name not in read and name not in ("self", "cls") and not name.startswith("_")
            ]
    assert unread == []


def _is_meta(node):
    return (isinstance(node, ast.Attribute) and node.attr == "meta") or (
        isinstance(node, ast.Name) and node.id == "meta"
    )


def test_every_builder_meta_key_is_read():
    """A key that a builder writes into ``Sequence.meta`` and that no
    ``meta["key"]`` or ``meta.get("key")`` reads is a result nothing
    uses.  Builders write ``meta={...}`` dict literals in the package."""
    written = {
        key.value
        for node in _nodes(("src",))
        if isinstance(node, ast.keyword) and node.arg == "meta" and isinstance(node.value, ast.Dict)
        for key in node.value.keys
        if isinstance(key, ast.Constant)
    }
    read = set()
    for node in _nodes():
        if (
            isinstance(node, ast.Subscript)
            and isinstance(node.ctx, ast.Load)
            and _is_meta(node.value)
            and isinstance(node.slice, ast.Constant)
        ):
            read.add(node.slice.value)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get"
            and _is_meta(node.func.value)
            and node.args
            and isinstance(node.args[0], ast.Constant)
        ):
            read.add(node.args[0].value)
    assert {"fov", "n", "echo_times", "te_eff"} <= written
    assert sorted(written - read) == []


def test_one_encoding_for_no_pulse_and_no_acquisition():
    fields = [f.name for f in dataclasses.fields(mrsim.AcquisitionSpec)]
    assert fields == ["n_samples"]
    assert not hasattr(mrsim.HardPulse, "is_identity")


def _callers(attr):
    """(module file, enclosing def path) of every ``<x>.attr(...)`` call
    in ``src/mrsim``; a call outside any def has the path ""."""
    found = set()

    def visit(node, file, path):
        for child in ast.iter_child_nodes(node):
            inner = path
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{path}.{child.name}" if path else child.name
            elif (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr == attr
            ):
                found.add((file, path))
            visit(child, file, inner)

    for path in sorted((ROOT / "src" / "mrsim").rglob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.name, "")
    return found


def test_an_elements_events_are_derived_in_one_place():
    """``ElementarySequence.events`` alone takes an element's sample
    instants; outside ``mrsim.sequence``, partial moments are taken only
    at snapshot instants and on the sampled shape's motion grid."""
    assert _callers("sample_times") == {("sequence.py", "ElementarySequence.events")}
    outside = {c for c in _callers("partial_moments") if c[0] != "sequence.py"}
    assert outside == {
        ("engine.py", "precompute_sequence_tables"),
        ("ktspace.py", "max_k_excursion.motion"),
    }
