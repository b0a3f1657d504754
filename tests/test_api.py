"""The public API takes no nucleus and no frame: mrsim simulates protons
(``GAMMA_PROTON``) in the frame rotating at gamma * B0."""

import dataclasses
import importlib
import inspect
import pkgutil

import mrsim

FIXED = {"gamma", "ctx", "omega_hf"}


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
