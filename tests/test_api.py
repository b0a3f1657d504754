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
    carries no pruning settings, and the walks derive their own unit."""
    operators = {"apply_rf_split", "apply_relax_interval", "apply_gradient_shift"}
    assert sorted((operators | {"ConfigurationSet"}) & set(vars(mrsim))) == []
    assert sorted((operators | {"rf_mixing_matrix"}) & set(vars(mrsim.ktspace))) == []
    fields = [f.name for f in dataclasses.fields(mrsim.ktspace.ConfigurationSet)]
    assert fields == ["unit", "trans", "longi"]
    for walk in (mrsim.ktspace.simulate_kt, mrsim.ktspace.qualitative_walk):
        assert "unit" not in inspect.signature(walk).parameters


def _attributes_read():
    """Every attribute name loaded (``x.name``) or read by a literal
    ``getattr(x, "name")`` in the package, its tests and the benchmark."""
    read = set()
    for folder in ("src", "tests", "perfbench"):
        for path in (ROOT / folder).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
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


def test_one_encoding_for_no_pulse_and_no_acquisition():
    fields = [f.name for f in dataclasses.fields(mrsim.AcquisitionSpec)]
    assert fields == ["n_samples"]
    assert not hasattr(mrsim.HardPulse, "is_identity")
