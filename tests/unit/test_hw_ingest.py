"""Tests for real-hardware machine ingestion (repro.hw.ingest).

Fixture corpus: ``tests/data/hosts/`` — three captured descriptor
trees (see its README).  The parser tests assert exact topology counts,
sibling sets and cache sharing maps per host; the lowering tests pin
the derived Machine geometry; the golden tests round-trip every
built-in machine through render → parse → lower and demand bit
identity, placement and performance model included.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.hw.ingest import (
    HostDescriptor,
    LscpuInfo,
    VirtualTree,
    donor_for,
    ensure_registered,
    format_cpu_list,
    lower_descriptor,
    machine_from_spec,
    machine_to_spec,
    parse_cpu_list,
    parse_size,
    render_host,
    save_machine_spec,
    synth_from_machine,
)
from repro.hw.ingest.numa import parse_node_tree
from repro.hw.machines import APM_XGENE, ARMV8_IN_ORDER, INTEL_I7_3770
from repro.isa.descriptors import ISA

HOSTS = Path(__file__).resolve().parents[1] / "data" / "hosts"
FIXTURES = ("xeon8170m", "armcortex", "vm2cpu")


@pytest.fixture(scope="module")
def descriptors() -> dict[str, HostDescriptor]:
    return {name: HostDescriptor.from_tree(HOSTS / name) for name in FIXTURES}


class TestTreeHelpers:
    def test_parse_cpu_list(self):
        assert parse_cpu_list("0-3,8,10-11") == (0, 1, 2, 3, 8, 10, 11)
        assert parse_cpu_list("") == ()
        assert parse_cpu_list("5") == (5,)

    def test_parse_cpu_list_rejects_descending_range(self):
        with pytest.raises(ValueError, match="descending"):
            parse_cpu_list("7-3")

    def test_format_cpu_list_round_trip(self):
        for text in ("0-3,8,10-11", "0", "", "0,2,4,6"):
            assert format_cpu_list(parse_cpu_list(text)) == text

    def test_parse_size_units(self):
        assert parse_size("32K") == 32 * 1024
        assert parse_size("1.5 MiB") == 3 * 512 * 1024
        assert parse_size("71.5 MiB") == int(71.5 * 1024 * 1024)
        assert parse_size("512") == 512
        with pytest.raises(ValueError):
            parse_size("lots")
        with pytest.raises(ValueError, match="unknown size unit"):
            parse_size("3 parsecs")

    def test_tree_normalises_capture_paths(self):
        tree = VirtualTree.from_dump(
            "/sys/devices/system/cpu/cpu0/topology/core_id:3\n"
            "./node/node0/cpulist:0-1\n"
            "# a comment\n"
            "\n"
        )
        assert tree.get("cpu/cpu0/topology/core_id") == "3"
        assert tree.get_int("cpu/cpu0/topology/core_id") == 3
        assert tree.get("node/node0/cpulist") == "0-1"
        assert tree.get("missing/leaf") is None

    def test_tree_rejects_malformed_lines(self):
        with pytest.raises(ValueError, match="malformed capture line"):
            VirtualTree.from_dump("no colon here")

    def test_tree_dump_round_trip_is_naturally_sorted(self):
        tree = VirtualTree.from_dump(
            "cpu/cpu10/topology/core_id:10\ncpu/cpu2/topology/core_id:2\n"
        )
        dump = tree.to_dump()
        assert dump.index("cpu2") < dump.index("cpu10")
        assert VirtualTree.from_dump(dump).entries == tree.entries

    def test_tree_indices_pattern(self):
        tree = VirtualTree.from_dump(
            "cpu/cpu0/topology/core_id:0\n"
            "cpu/cpu12/topology/core_id:6\n"
            "cpu/cpu3/cache/index2/level:2\n"
        )
        assert tree.indices("cpu/cpu{}/topology/core_id") == (0, 12)
        assert tree.indices("cpu/cpu3/cache/index{}/level") == (2,)
        assert tree.indices("node/node{}/cpulist") == ()


class TestLscpuParser:
    def test_xeon_sectioned_format(self):
        info = LscpuInfo.parse((HOSTS / "xeon8170m" / "lscpu.txt").read_text())
        assert info.architecture == "x86_64"
        assert "8170M" in info.model_name
        assert info.cpus == 104
        assert info.online == tuple(range(104))
        assert (info.sockets, info.cores_per_socket, info.threads_per_core) == (2, 26, 2)
        assert info.topology_product() == 104
        assert info.numa_nodes == 4
        assert info.node_cpus[0][:4] == (0, 4, 8, 12)
        assert len(info.node_cpus) == 4
        assert info.min_mhz == 1000.0 and info.max_mhz == 3700.0
        assert info.caches["L2"] == (52 * 1024 * 1024, 52)
        assert info.caches["L3"] == (int(71.5 * 1024 * 1024), 2)
        assert info.vendor == "GenuineIntel"

    def test_arm_flat_format_without_instance_counts(self):
        info = LscpuInfo.parse((HOSTS / "armcortex" / "lscpu.txt").read_text())
        assert info.architecture == "aarch64"
        assert info.cpus == 8 and info.threads_per_core == 1
        assert info.caches["L2"] == (1024 * 1024, None)
        assert "L3" not in info.caches
        assert info.extras["Hypervisor vendor"] if "Hypervisor vendor" in info.extras else True

    def test_vm_has_no_max_mhz(self):
        info = LscpuInfo.parse((HOSTS / "vm2cpu" / "lscpu.txt").read_text())
        assert info.max_mhz is None
        assert info.extras["Hypervisor vendor"] == "KVM"

    def test_empty_text_parses_to_empty_info(self):
        info = LscpuInfo.parse("")
        assert info.cpus is None and info.topology_product() is None


class TestCpuTopologyParser:
    @pytest.mark.parametrize(
        "host, n_cpus, n_cores, n_packages, smt",
        [
            ("xeon8170m", 104, 52, 2, 2),
            ("armcortex", 8, 8, 1, 1),
            ("vm2cpu", 2, 2, 1, 1),
        ],
    )
    def test_topology_counts(self, descriptors, host, n_cpus, n_cores, n_packages, smt):
        topo = descriptors[host].topology
        assert topo.n_cpus == n_cpus
        assert topo.n_cores == n_cores
        assert topo.n_packages == n_packages
        assert topo.smt_per_core == smt

    def test_xeon_sibling_sets(self, descriptors):
        topo = descriptors["xeon8170m"].topology
        siblings = topo.sibling_sets()
        assert len(siblings) == 52
        assert siblings[0] == (0, 52)
        assert all(b == a + 52 for a, b in siblings)

    def test_arm_core_cpus_list_fallback_gives_singleton_siblings(self, descriptors):
        topo = descriptors["armcortex"].topology
        assert topo.sibling_sets() == tuple((c,) for c in range(8))

    def test_xeon_cache_instances(self, descriptors):
        topo = descriptors["xeon8170m"].topology
        assert len(topo.instances(1)) == 52  # data only
        assert len(topo.instances(1, data_only=False)) == 104  # + instruction
        assert len(topo.instances(2)) == 52
        l3 = topo.instances(3)
        assert len(l3) == 2  # one per socket
        assert {len(inst.cpus) for inst in l3} == {52}
        assert l3[0].size_bytes == 36608 * 1024
        assert l3[0].ways == 11

    def test_xeon_l2_sharing_map_is_sibling_pairs(self, descriptors):
        topo = descriptors["xeon8170m"].topology
        sharing = topo.sharing_map(2)
        assert len(sharing) == 52
        assert all(sharers == (c, c + 52) for c, sharers in zip(range(52), sharing))

    def test_arm_l2_sharing_map_is_quad_clusters(self, descriptors):
        topo = descriptors["armcortex"].topology
        assert topo.sharing_map(2) == ((0, 1, 2, 3), (4, 5, 6, 7))
        assert topo.instances(3) == ()

    def test_vm_has_no_caches_or_freq(self, descriptors):
        topo = descriptors["vm2cpu"].topology
        assert topo.caches == ()
        assert topo.freq.min_khz is None and topo.freq.max_khz is None

    def test_freq_sources(self, descriptors):
        assert descriptors["xeon8170m"].topology.freq.base_khz == 2_100_000
        assert descriptors["xeon8170m"].topology.freq.max_khz == 3_700_000
        # armcortex captures frequencies through cpufreq/policy* dirs.
        arm = descriptors["armcortex"].topology.freq
        assert arm.min_khz == 408_000 and arm.max_khz == 1_800_000


class TestNumaParser:
    def test_xeon_node_cpumaps(self, descriptors):
        numa = descriptors["xeon8170m"].numa
        assert numa.n_nodes == 4
        assert numa.cpu_nodes() == (0, 1, 2, 3)
        for node, cpus in numa.node_cpus.items():
            assert len(cpus) == 26
            assert all(cpu % 52 % 4 == node for cpu in cpus)
        node_of = numa.node_of()
        assert node_of[0] == 0 and node_of[1] == 1 and node_of[55] == 3

    def test_xeon_distance_matrix(self, descriptors):
        numa = descriptors["xeon8170m"].numa
        assert numa.distance == (
            (10.0, 21.0, 11.0, 21.0),
            (21.0, 10.0, 21.0, 11.0),
            (11.0, 21.0, 10.0, 21.0),
            (21.0, 11.0, 21.0, 10.0),
        )

    def test_vm_single_node_without_distance(self, descriptors):
        numa = descriptors["vm2cpu"].numa
        assert numa.node_cpus == {0: (0, 1)}
        assert numa.distance is None

    def test_incomplete_distance_rows_drop_the_matrix(self):
        tree = VirtualTree.from_dump(
            "node/node0/cpulist:0-1\nnode/node0/distance:10 21\n"
            "node/node1/cpulist:2-3\n"  # no distance row
        )
        assert parse_node_tree(tree).distance is None

    def test_memory_only_node_keeps_empty_cpulist(self):
        tree = VirtualTree.from_dump(
            "node/node0/cpulist:0-3\nnode/node1/cpulist:\n"
        )
        numa = parse_node_tree(tree)
        assert numa.node_cpus == {0: (0, 1, 2, 3), 1: ()}
        assert numa.cpu_nodes() == (0,)


class TestDescriptor:
    def test_from_tree_missing_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="not a directory"):
            HostDescriptor.from_tree(tmp_path / "nope")

    def test_from_tree_empty_directory(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(FileNotFoundError, match="nothing to ingest"):
            HostDescriptor.from_tree(tmp_path / "empty")

    def test_name_comes_from_directory(self, descriptors):
        assert descriptors["xeon8170m"].name == "xeon8170m"

    def test_consistent_host_has_no_notes(self, descriptors):
        assert descriptors["xeon8170m"].notes() == []

    def test_vm_notes_report_missing_caches(self, descriptors):
        notes = " ".join(descriptors["vm2cpu"].notes())
        assert "no cache instances captured" in notes

    def test_disagreeing_sources_are_noted(self):
        desc = HostDescriptor.from_text(
            "liar",
            "CPU(s): 64\nNUMA node(s): 2\n",
            (
                "cpu/cpu0/topology/core_id:0\ncpu/cpu1/topology/core_id:1\n"
                "node/node0/cpulist:0-1\n",
            ),
        )
        notes = " ".join(desc.notes())
        assert "advertises 64 CPUs" in notes
        assert "advertises 2 NUMA nodes" in notes


class TestLowering:
    def test_xeon_lowers_to_104_contexts_on_4_nodes(self, descriptors):
        lowered = lower_descriptor(descriptors["xeon8170m"])
        m = lowered.machine
        assert m.cores == 52 and m.smt_per_core == 2
        assert m.max_threads == 104
        assert m.clusters == 52 and not m.l2_shared_by_cluster
        assert m.nodes == 4
        assert m.isa is ISA.X86_64
        assert lowered.donor == INTEL_I7_3770.name
        assert m.freq_ghz == 2.1  # base frequency wins
        assert m.l1d.size_bytes == 32 * 1024
        assert m.l2.size_bytes == 1024 * 1024 and m.l2.associativity == 16
        # Total L3 (2 x 35.75 MiB) divides over the 4 SNC nodes.
        assert m.l3.size_bytes == 2 * 36608 * 1024 // 4
        assert m.numa_distance == descriptors["xeon8170m"].numa.distance
        assert lowered.notes == ()

    def test_xeon_placement_scatters_nodes_first(self, descriptors):
        m = lower_descriptor(descriptors["xeon8170m"]).machine
        placement = m.placement(8)
        assert placement.node.tolist() == [0, 1, 2, 3, 0, 1, 2, 3]
        assert placement.l3_sharers.tolist() == [2] * 8
        full = m.placement(104)
        assert np.bincount(full.node).tolist() == [26, 26, 26, 26]
        # No node hosts a second thread before every node hosts one.
        for width in range(1, 105):
            census = np.bincount(m.placement(width).node, minlength=4)
            assert census.max() - census[census > 0].min() <= 1

    def test_arm_lowers_with_shared_l2_clusters(self, descriptors):
        lowered = lower_descriptor(descriptors["armcortex"])
        m = lowered.machine
        assert m.cores == 8 and m.smt_per_core == 1
        assert m.clusters == 2 and m.l2_shared_by_cluster
        assert m.nodes == 1 and m.numa_distance is None
        assert m.isa is ISA.ARMV8 and lowered.donor == APM_XGENE.name
        assert m.freq_ghz == 1.8  # max wins when base is absent
        assert m.l3.size_bytes == APM_XGENE.l3.size_bytes  # donor fallback
        assert any("no L3 size captured" in note for note in lowered.notes)

    def test_vm_falls_back_to_donor_knobs_with_notes(self, descriptors):
        lowered = lower_descriptor(descriptors["vm2cpu"])
        m = lowered.machine
        assert m.cores == 2 and m.smt_per_core == 1 and m.nodes == 1
        assert m.l1d.size_bytes == INTEL_I7_3770.l1d.size_bytes
        assert m.freq_ghz == INTEL_I7_3770.freq_ghz
        text = " ".join(lowered.notes)
        for fallback in ("no L1D size", "no L2 size", "no L3 size", "no frequency"):
            assert fallback in text

    def test_donor_for_architecture_strings(self):
        assert donor_for("x86_64") is INTEL_I7_3770
        assert donor_for("aarch64") is APM_XGENE
        assert donor_for("armv8l") is APM_XGENE
        assert donor_for("riscv64") is INTEL_I7_3770  # documented fallback
        assert donor_for(None) is INTEL_I7_3770

    def test_explicit_donor_and_name_override(self, descriptors):
        lowered = lower_descriptor(
            descriptors["vm2cpu"], name="my-vm", donor=ARMV8_IN_ORDER
        )
        assert lowered.machine.name == "my-vm"
        assert lowered.machine.isa is ISA.ARMV8
        assert lowered.donor == ARMV8_IN_ORDER.name

    def test_summary_is_reviewable(self, descriptors):
        lowered = lower_descriptor(descriptors["xeon8170m"])
        text = lowered.summary()
        assert "104 hardware contexts" in text
        assert "4 NUMA nodes" in text
        assert "numa distance" in text

    def test_lscpu_only_capture_lowers_from_counts(self):
        desc = HostDescriptor.from_text(
            "counts-only",
            "Architecture: x86_64\nCPU(s): 16\n"
            "Thread(s) per core: 2\nCore(s) per socket: 8\nSocket(s): 1\n",
        )
        lowered = lower_descriptor(desc)
        assert lowered.machine.cores == 8
        assert lowered.machine.smt_per_core == 2
        assert any("lscpu counts alone" in note for note in lowered.notes)


class TestSpecCodec:
    @pytest.mark.parametrize("machine", [INTEL_I7_3770, APM_XGENE, ARMV8_IN_ORDER])
    def test_round_trip_builtin(self, machine):
        spec = machine_to_spec(machine)
        assert machine_from_spec(json.loads(json.dumps(spec))) == machine

    def test_round_trip_ingested_numa_machine(self, descriptors):
        machine = lower_descriptor(descriptors["xeon8170m"]).machine
        assert machine_from_spec(json.loads(json.dumps(machine_to_spec(machine)))) == machine

    def test_version_mismatch_rejected(self):
        spec = machine_to_spec(INTEL_I7_3770)
        spec["version"] = 99
        with pytest.raises(ValueError, match="spec version"):
            machine_from_spec(spec)

    def test_save_load_and_ensure_registered(self, tmp_path, descriptors):
        from repro.api.registry import machine_registry

        machine = replace(
            lower_descriptor(descriptors["xeon8170m"]).machine,
            name="test-ingest-xeon",
        )
        path = tmp_path / "xeon.json"
        save_machine_spec(machine_to_spec(machine), path)
        try:
            names = ensure_registered([str(path)])
            assert names == ("test-ingest-xeon",)
            assert machine_registry.get("test-ingest-xeon") == machine
            # Idempotent: a second registration must not raise.
            assert ensure_registered([str(path)]) == names
        finally:
            machine_registry.unregister("test-ingest-xeon")


class TestGoldenRoundTrip:
    """Rendering a built-in machine and re-ingesting it is the identity."""

    @pytest.mark.parametrize("machine", [INTEL_I7_3770, APM_XGENE, ARMV8_IN_ORDER])
    def test_lowering_reproduces_machine_exactly(self, machine):
        files = render_host(synth_from_machine(machine))
        desc = HostDescriptor.from_text(
            machine.name, files["lscpu.txt"], (files["cpu.txt"], files["node.txt"])
        )
        lowered = lower_descriptor(desc, name=machine.name, donor=machine)
        assert lowered.machine == machine
        assert lowered.notes == ()

    @pytest.mark.parametrize("machine", [INTEL_I7_3770, APM_XGENE, ARMV8_IN_ORDER])
    def test_placement_is_bit_identical(self, machine):
        files = render_host(synth_from_machine(machine))
        desc = HostDescriptor.from_text(
            machine.name, files["lscpu.txt"], (files["cpu.txt"], files["node.txt"])
        )
        twin = lower_descriptor(desc, name=machine.name, donor=machine).machine
        for threads in range(1, machine.max_threads + 1):
            ours, theirs = machine.placement(threads), twin.placement(threads)
            for fieldname in ("core", "cluster", "node", "l1_sharers", "l2_sharers",
                              "l3_sharers", "smt_corun"):
                assert np.array_equal(
                    getattr(ours, fieldname), getattr(theirs, fieldname)
                ), (machine.name, threads, fieldname)

    def test_perf_model_output_is_bit_identical(self, toy_program, rng_tree):
        from repro.hw.perf import PerfModel
        from repro.isa.descriptors import BinaryConfig
        from repro.runtime.execution import execute_program

        machine = INTEL_I7_3770
        files = render_host(synth_from_machine(machine))
        desc = HostDescriptor.from_text(
            machine.name, files["lscpu.txt"], (files["cpu.txt"], files["node.txt"])
        )
        twin = lower_descriptor(desc, name=machine.name, donor=machine).machine
        trace = execute_program(
            toy_program, BinaryConfig(ISA.X86_64, False), 4, rng_tree.child("structure")
        )
        ours = PerfModel(rng_tree.child("uarch")).true_counters(trace, machine)
        theirs = PerfModel(rng_tree.child("uarch")).true_counters(trace, twin)
        assert np.array_equal(ours.values, theirs.values)

    def test_write_tree_round_trips_via_filesystem(self, tmp_path):
        root = tmp_path / "xgene"
        root.mkdir()
        for name, text in render_host(synth_from_machine(APM_XGENE)).items():
            (root / name).write_text(text)
        desc = HostDescriptor.from_tree(root)
        twin = lower_descriptor(
            desc, name=APM_XGENE.name, donor=APM_XGENE
        ).machine
        assert twin == APM_XGENE
