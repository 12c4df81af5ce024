"""Open plugin registries: workloads, machines, stages.

The seed hard-coded its extension points — the workloads were a literal
name → class dict, the two machines were module constants, and the
clustering entry point was a direct function call — so every new
application, platform or clustering variant meant editing core files.
A :class:`PluginRegistry` turns each of those into an open table with
decorator registration and forgiving name lookup::

    from repro.api import register_workload

    @register_workload
    class MyApp(ProxyApp):
        name = "MyApp"
        description = "third-party proxy app"
        ...

    create("myapp")   # case-insensitive lookup finds it

Lookups are case-insensitive and a miss raises a :class:`KeyError`
carrying a did-you-mean suggestion, so ``create("minife")`` no longer
fails opaquely just because Table I prints ``miniFE``.

Registries populate themselves lazily: each one names the module whose
import registers the built-in plugins (``repro.workloads.registry``,
``repro.hw.machines``, ``repro.api.stages``), imported on first lookup.
This keeps :mod:`repro.api` free of import cycles — plugin modules
import this module, never the reverse.
"""

from __future__ import annotations

import difflib
from importlib import import_module
from typing import Callable, Generic, Iterator, TypeVar

__all__ = [
    "PluginRegistry",
    "RegistryEntry",
    "workload_registry",
    "machine_registry",
    "stage_registry",
    "register_workload",
    "register_machine",
    "register_stage",
]

T = TypeVar("T")


class RegistryEntry(Generic[T]):
    """One registered plugin: the object plus display metadata."""

    __slots__ = ("name", "obj", "description")

    def __init__(self, name: str, obj: T, description: str) -> None:
        self.name = name
        self.obj = obj
        self.description = description

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RegistryEntry({self.name!r}, {self.obj!r})"


class PluginRegistry(Generic[T]):
    """A named, case-insensitively searchable table of plugins.

    Example
    -------
    >>> from repro.api import workload_registry
    >>> workload_registry.get("minife").name   # case-insensitive
    'miniFE'
    >>> "LULESH" in workload_registry
    True

    Parameters
    ----------
    kind:
        Human-readable plugin kind ('workload', 'machine', 'stage');
        used in error messages and CLI listings.
    autoload:
        Dotted module path whose import registers the built-in plugins.
        Imported (once) before the first lookup or listing, so user code
        never has to import plugin modules for their side effects.
    """

    def __init__(self, kind: str, autoload: str | None = None) -> None:
        self.kind = kind
        self._autoload = autoload
        self._loaded = autoload is None
        self._entries: dict[str, RegistryEntry[T]] = {}  # lowercase name → entry

    # -------------------------------------------------------- registration
    def register(
        self,
        obj: T | None = None,
        *,
        name: str | None = None,
        description: str | None = None,
        replace: bool = False,
    ):
        """Register a plugin; usable bare, with arguments, or imperatively.

        ``@registry.register`` and ``@registry.register(name=...)`` both
        work on classes and functions; ``registry.register(instance,
        name=...)`` registers non-decoratable objects (machine instances).
        The plugin's display name defaults to its ``name`` attribute,
        then ``__name__``; the description defaults to its
        ``description`` attribute, then the first docstring line.
        """

        def _add(target: T) -> T:
            plugin_name = name or getattr(target, "name", None) or getattr(
                target, "__name__", None
            )
            if not plugin_name or not isinstance(plugin_name, str):
                raise ValueError(f"cannot derive a name for {self.kind} {target!r}")
            text = description or getattr(target, "description", None)
            if not text or not isinstance(text, str):
                doc = getattr(target, "__doc__", None) or ""
                text = doc.strip().splitlines()[0] if doc.strip() else ""
            lowered = plugin_name.lower()
            if not replace and lowered in self._entries:
                raise ValueError(
                    f"{self.kind} {plugin_name!r} is already registered; "
                    f"pass replace=True to override"
                )
            self._entries[lowered] = RegistryEntry(plugin_name, target, text)
            return target

        if obj is not None:
            return _add(obj)
        return _add

    def unregister(self, name: str) -> None:
        """Remove one plugin (tests and example teardown)."""
        self._ensure_loaded()
        self._entries.pop(name.lower(), None)

    # ------------------------------------------------------------- lookup
    def _ensure_loaded(self) -> None:
        if not self._loaded:
            # Latch before importing so the autoload module's own lookups
            # re-enter safely, but un-latch on failure — otherwise a
            # transient import error would leave the registry permanently
            # empty and later lookups would mask the root cause.
            self._loaded = True
            try:
                import_module(self._autoload)
            except BaseException:
                self._loaded = False
                raise

    def get(self, name: str) -> T:
        """Look up one plugin, case-insensitively.

        Raises
        ------
        KeyError
            With the known names and, when the miss looks like a typo,
            a did-you-mean suggestion.
        """
        return self.entry(name).obj

    def entry(self, name: str) -> RegistryEntry[T]:
        """Full registry entry (object + metadata) for one name."""
        self._ensure_loaded()
        entry = self._entries.get(str(name).lower())
        if entry is not None:
            return entry
        known = ", ".join(e.name for e in self._entries.values())
        close = difflib.get_close_matches(
            str(name).lower(), list(self._entries), n=1, cutoff=0.6
        )
        hint = f" — did you mean {self._entries[close[0]].name!r}?" if close else ""
        raise KeyError(
            f"unknown {self.kind} {name!r}{hint} (known: {known})"
        )

    def __contains__(self, name: str) -> bool:
        self._ensure_loaded()
        return str(name).lower() in self._entries

    def __len__(self) -> int:
        self._ensure_loaded()
        return len(self._entries)

    def __iter__(self) -> Iterator[RegistryEntry[T]]:
        self._ensure_loaded()
        return iter(list(self._entries.values()))

    def names(self) -> tuple[str, ...]:
        """Display names in registration order."""
        self._ensure_loaded()
        return tuple(entry.name for entry in self._entries.values())

    def describe(self) -> list[tuple[str, str]]:
        """(name, description) rows for CLI listings."""
        self._ensure_loaded()
        return [(entry.name, entry.description) for entry in self._entries.values()]


#: The eleven Table I applications plus any user-registered workloads.
workload_registry: PluginRegistry = PluginRegistry(
    "workload", autoload="repro.workloads.registry"
)

#: Table II's evaluation machines plus the core-type-study variants.
machine_registry: PluginRegistry = PluginRegistry(
    "machine", autoload="repro.hw.machines"
)

#: The five methodology stages plus any user-registered replacements.
stage_registry: PluginRegistry = PluginRegistry(
    "stage", autoload="repro.api.stages"
)

#: Decorator registering a workload class under its Table I style name.
register_workload: Callable = workload_registry.register

#: Decorator/registrar for machine descriptions.
register_machine: Callable = machine_registry.register

#: Decorator registering a stage class under its stage name.
register_stage: Callable = stage_registry.register
