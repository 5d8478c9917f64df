"""Tests for α-nets (Definition 6.1, Lemma 6.2) and rounding distortion (Lemma 6.4)."""

from __future__ import annotations

import math
from itertools import combinations

import pytest

from repro.analysis.entropy import exact_net_size, net_size_bound
from repro.core.dataset import ColumnQuery
from repro.core.rounding import AlphaNet, rounding_distortion
from repro.errors import InvalidParameterError, QueryError


class TestRoundingDistortion:
    def test_f0_distortion_is_2_to_alpha_d(self):
        assert rounding_distortion(0.25, 20, 0) == pytest.approx(2 ** 5)

    def test_f1_has_no_distortion(self):
        assert rounding_distortion(0.3, 16, 1) == 1.0

    def test_fp_above_one(self):
        assert rounding_distortion(0.1, 20, 2) == pytest.approx(2 ** (0.1 * 20 * 1))
        assert rounding_distortion(0.1, 20, 3) == pytest.approx(2 ** (0.1 * 20 * 2))

    def test_fp_below_one(self):
        assert rounding_distortion(0.1, 20, 0.5) == pytest.approx(2 ** (0.1 * 20 * 0.5))

    def test_distortion_tends_to_one_near_p_equals_one(self):
        # Lemma 6.4 remark: the distortion vanishes as p -> 1 from both sides.
        assert rounding_distortion(0.2, 20, 0.99) < rounding_distortion(0.2, 20, 0.5)
        assert rounding_distortion(0.2, 20, 1.01) < rounding_distortion(0.2, 20, 2.0)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            rounding_distortion(0.0, 10, 0)
        with pytest.raises(InvalidParameterError):
            rounding_distortion(0.6, 10, 0)
        with pytest.raises(InvalidParameterError):
            rounding_distortion(0.2, 10, -1)


class TestAlphaNetStructure:
    def test_band_edges(self):
        net = AlphaNet(d=20, alpha=0.2)
        assert net.low_size == math.floor(0.3 * 20) == 6
        assert net.high_size == math.ceil(0.7 * 20) == 14

    def test_membership_by_size(self):
        net = AlphaNet(d=10, alpha=0.2)
        assert net.contains(ColumnQuery.of(range(3), 10))
        assert net.contains(ColumnQuery.of(range(8), 10))
        assert not net.contains(ColumnQuery.of(range(5), 10))

    def test_exact_size_below_lemma_6_2_bound(self):
        for d, alpha in [(10, 0.1), (12, 0.2), (16, 0.3), (20, 0.45)]:
            net = AlphaNet(d=d, alpha=alpha)
            assert net.size() <= net.size_bound()
            assert exact_net_size(d, alpha) <= net_size_bound(d, alpha)

    def test_net_is_smaller_than_power_set(self):
        net = AlphaNet(d=14, alpha=0.25)
        assert net.size() < 2**14
        assert net.relative_size() < 1.0

    def test_members_enumeration_matches_size(self):
        net = AlphaNet(d=8, alpha=0.2)
        members = list(net.members())
        assert len(members) == net.size()
        assert all(net.contains(member) for member in members)
        assert len({member.columns for member in members}) == len(members)

    def test_member_guard(self):
        net = AlphaNet(d=20, alpha=0.05)
        with pytest.raises(QueryError):
            list(net.members(max_members=10))

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            AlphaNet(d=0, alpha=0.2)
        with pytest.raises(InvalidParameterError):
            AlphaNet(d=10, alpha=0.5)


class TestRounding:
    def test_in_net_queries_are_returned_unchanged(self):
        net = AlphaNet(d=10, alpha=0.2)
        query = ColumnQuery.of([0, 1, 2], 10)
        assert net.round_query(query) is query

    def test_rounded_query_lies_in_the_net(self):
        net = AlphaNet(d=12, alpha=0.2)
        for size in range(1, 13):
            query = ColumnQuery.of(range(size), 12)
            rounded = net.round_query(query)
            assert net.contains(rounded)

    def test_rounding_cost_at_most_alpha_d_plus_rounding(self):
        for d, alpha in [(10, 0.2), (16, 0.15), (20, 0.3)]:
            net = AlphaNet(d=d, alpha=alpha)
            limit = math.ceil(alpha * d) + 1
            for size in range(1, d + 1):
                query = ColumnQuery.of(range(size), d)
                assert net.rounding_cost(query) <= limit
            assert net.max_rounding_cost() <= limit

    def test_shrink_rule_produces_subsets(self):
        net = AlphaNet(d=12, alpha=0.2)
        query = ColumnQuery.of(range(6), 12)
        rounded = net.round_query(query, rule="shrink")
        assert rounded.as_set() <= query.as_set()
        assert len(rounded) == net.low_size

    def test_grow_rule_produces_supersets(self):
        net = AlphaNet(d=12, alpha=0.2)
        query = ColumnQuery.of(range(6), 12)
        rounded = net.round_query(query, rule="grow")
        assert rounded.as_set() >= query.as_set()
        assert len(rounded) == net.high_size

    def test_dimension_mismatch_rejected(self):
        net = AlphaNet(d=12, alpha=0.2)
        with pytest.raises(QueryError):
            net.round_query(ColumnQuery.of([0], 10))

    def test_distortion_covers_the_worst_rounding_distance(self):
        # Floor/ceiling band edges push the worst distance to 3 > alpha*d = 2.5.
        net = AlphaNet(d=10, alpha=0.25)
        assert net.max_rounding_cost() == 3
        for size in range(1, 11):
            for columns in combinations(range(10), size):
                cost = net.rounding_cost(ColumnQuery.of(columns, 10))
                assert 2**cost <= net.distortion(0)
        assert net.distortion(0) == 8.0
        assert net.distortion(2) == 8.0
        assert net.distortion(0.5) == pytest.approx(2**1.5)
        assert net.distortion(1) == 1.0

    def test_distortion_accessor_matches_module_function(self):
        net = AlphaNet(d=16, alpha=0.25)
        assert net.distortion(0) == rounding_distortion(0.25, 16, 0)
        assert net.distortion(2) == rounding_distortion(0.25, 16, 2)
