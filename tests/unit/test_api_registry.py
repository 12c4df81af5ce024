"""Unit tests: the open plugin registries and forgiving name lookup."""

import pytest

from repro.api.registry import (
    PluginRegistry,
    machine_registry,
    stage_registry,
    workload_registry,
)
from repro.workloads.base import ProxyApp
from repro.workloads.registry import TABLE1_ORDER, create


class TestPluginRegistry:
    def test_decorator_registration(self):
        registry = PluginRegistry("widget")

        @registry.register
        class Sprocket:
            name = "Sprocket"
            description = "a test widget"

        assert registry.get("Sprocket") is Sprocket
        assert registry.names() == ("Sprocket",)
        assert registry.describe() == [("Sprocket", "a test widget")]

    def test_case_insensitive_lookup(self):
        registry = PluginRegistry("widget")
        registry.register(object(), name="MixedCase", description="x")
        assert registry.get("mixedcase") is registry.get("MIXEDCASE")
        assert "mixedCASE" in registry

    def test_did_you_mean_suggestion(self):
        registry = PluginRegistry("widget")
        registry.register(object(), name="Sprocket", description="x")
        with pytest.raises(KeyError, match="did you mean 'Sprocket'"):
            registry.get("sprokcet")

    def test_unknown_name_lists_known(self):
        registry = PluginRegistry("widget")
        registry.register(object(), name="A", description="x")
        registry.register(object(), name="B", description="y")
        with pytest.raises(KeyError, match="known: A, B"):
            registry.get("zzz")

    def test_duplicate_registration_rejected(self):
        registry = PluginRegistry("widget")
        registry.register(object(), name="dup", description="x")
        with pytest.raises(ValueError, match="already registered"):
            registry.register(object(), name="DUP", description="y")

    def test_replace_allows_override(self):
        registry = PluginRegistry("widget")
        first, second = object(), object()
        registry.register(first, name="w", description="x")
        registry.register(second, name="w", description="y", replace=True)
        assert registry.get("w") is second

    def test_description_falls_back_to_docstring(self):
        registry = PluginRegistry("widget")

        @registry.register
        class Documented:
            """First line wins.

            Not this one.
            """

        assert registry.entry("Documented").description == "First line wins."

    def test_unnameable_object_rejected(self):
        registry = PluginRegistry("widget")
        with pytest.raises(ValueError, match="cannot derive a name"):
            registry.register(object())


class TestBuiltinRegistries:
    def test_all_table1_workloads_registered(self):
        for name in TABLE1_ORDER:
            assert name in workload_registry
            assert workload_registry.get(name)().name == name

    def test_machines_registered(self):
        assert "Intel Core i7-3770" in machine_registry
        assert "ARMv8 AppliedMicro X-Gene" in machine_registry
        assert "ARMv8 in-order (A53-class)" in machine_registry

    def test_builtin_stages_registered(self):
        # The paper's steps as five stages (measure also reconstructs
        # and validates), for shared-memory and rank jobs alike.
        assert stage_registry.names() == (
            "profile",
            "signature",
            "cluster",
            "select",
            "measure",
        )

    def test_third_party_workload_roundtrip(self):
        @workload_registry.register
        class Phantom(ProxyApp):
            name = "PhantomApp"
            description = "registered by a test"

            def _build(self, threads, isa):  # pragma: no cover
                raise NotImplementedError

        try:
            assert isinstance(create("phantomapp"), Phantom)
        finally:
            workload_registry.unregister("PhantomApp")
        assert "PhantomApp" not in workload_registry


class TestCreate:
    def test_case_insensitive_create(self):
        assert create("minife").name == "miniFE"
        assert create("MINIFE").name == "miniFE"
        assert create("hpgmg-fv").name == "HPGMG-FV"

    def test_exact_names_still_work(self):
        for name in TABLE1_ORDER:
            assert create(name).name == name

    def test_miss_suggests_and_lists(self):
        with pytest.raises(KeyError, match="did you mean 'miniFE'"):
            create("minifee")
        with pytest.raises(KeyError, match="miniFE"):
            create("no-such-app")


class TestDidYouMeanBuiltins:
    """Near-miss lookups against the real workload/machine registries."""

    def test_workload_near_misses_suggest(self):
        for typo, want in (
            ("lulsh", "LULESH"),
            ("grahp500", "graph500"),
            ("HPCg8", "HPCG"),
        ):
            with pytest.raises(KeyError, match=f"did you mean '{want}'"):
                workload_registry.get(typo)

    def test_machine_near_misses_suggest(self):
        from repro.api.registry import machine_registry

        with pytest.raises(KeyError, match="did you mean 'Intel Core i7-3770'"):
            machine_registry.get("Intel Core i7-3770K")
        with pytest.raises(
            KeyError, match="did you mean 'ARMv8 AppliedMicro X-Gene'"
        ):
            machine_registry.get("ARMv8 AppliedMicro XGene")

    def test_machine_far_miss_lists_known(self):
        from repro.api.registry import machine_registry

        with pytest.raises(KeyError, match="known: .*X-Gene"):
            machine_registry.get("Cray XC40")
