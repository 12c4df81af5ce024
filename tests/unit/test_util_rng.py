"""Tests for the deterministic RNG tree."""

import numpy as np

from repro.util.rng import RngTree, stable_hash


class TestStableHash:
    def test_deterministic_across_calls(self):
        assert stable_hash("a", 1) == stable_hash("a", 1)

    def test_differs_by_argument(self):
        assert stable_hash("a") != stable_hash("b")

    def test_differs_by_argument_order(self):
        assert stable_hash("a", "b") != stable_hash("b", "a")

    def test_fits_in_63_bits(self):
        for value in ("x", 123, ("a", "b")):
            assert 0 <= stable_hash(value) < 2**63


class TestRngTree:
    def test_same_seed_same_stream(self):
        a = RngTree(7).generator("x")
        b = RngTree(7).generator("x")
        assert a.random() == b.random()

    def test_different_seed_different_stream(self):
        a = RngTree(7).generator("x")
        b = RngTree(8).generator("x")
        assert a.random() != b.random()

    def test_child_path_equivalence(self):
        tree = RngTree(11)
        direct = tree.generator("a", "b")
        chained = tree.child("a").child("b").generator()
        assert direct.random() == chained.random()

    def test_sibling_streams_differ(self):
        tree = RngTree(11)
        a = tree.generator("left")
        b = tree.generator("right")
        assert not np.allclose(a.random(10), b.random(10))

    def test_generator_restarts_stream(self):
        tree = RngTree(3)
        first = tree.generator("s").random()
        second = tree.generator("s").random()
        assert first == second

    def test_non_string_names_accepted(self):
        tree = RngTree(5)
        assert tree.generator(8, False).random() == tree.generator("8", "False").random()

    def test_integers_are_deterministic(self):
        tree = RngTree(4)
        assert tree.integers(5, "seeds") == tree.integers(5, "seeds")

    def test_path_property(self):
        node = RngTree(1).child("a", "b")
        assert node.path == ("a", "b")
        assert node.seed == 1
