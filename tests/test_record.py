"""The package's value classes are frozen dataclasses: the behaviour the
rest of the package reads from them."""

import dataclasses

import pytest

from cfpde import expr as ex
from cfpde import iterint as ii
from cfpde import pde
from cfpde.acceptance import CriterionResult
from cfpde.bounds import GrowthData, GrowthFit

V = ex.parse("1 + theta_1", 1)


class TestConstruction:
    def test_positional_keyword_and_defaults(self):
        assert pde.TransportSpec(V) == pde.TransportSpec(V=V) == pde.TransportSpec(V, 0, 8)
        assert CriterionResult(1, "d", True, 0.5, 1.0).detail == ""

    @pytest.mark.parametrize("args, kwargs", [
        ((), {}), ((V, 0, 8, 9), {}), ((V,), {"V": V}), ((V,), {"z": 3}),
    ])
    def test_bad_calls_are_type_errors(self, args, kwargs):
        with pytest.raises(TypeError):
            pde.TransportSpec(*args, **kwargs)

    def test_post_init_validates_and_normalises(self):
        spec = pde.TransportSpec(V)
        assert spec.N == 8 and spec.V == ex.simplify(V)
        assert pde.SecondOrderSpec(0, -1).alpha2 == ex.const(-1)
        with pytest.raises(ValueError):
            GrowthData(1.0, 2.0, 3.0, -1.0, 0.0, 1.0)


class TestValueSemantics:
    def test_equality_is_by_class_and_fields(self):
        grid = ii.Grid.from_spec("0:1:5,0:2:9")
        assert grid == ii.Grid(((0.0, 1.0, 5),), 2.0, 9) != ii.Grid(((0.0, 1.0, 5),), 2.0, 17)
        assert grid != (((0.0, 1.0, 5),), 2.0, 9)

    def test_hash_is_that_of_the_field_tuple(self):
        """So set and dict orders follow the field values."""
        g = GrowthData(1.0, 2.0, 3.0, 0.5, 0.0, 1.0)
        assert hash(g) == hash((1.0, 2.0, 3.0, 0.5, 0.0, 1.0))
        fit = GrowthFit(g, (0.0, -1.0), 0.25)
        assert hash(fit) == hash((g, (0.0, -1.0), 0.25))

    def test_repr(self):
        assert repr(GrowthData(1.0, 2.0, 3.0, 0.5, 0.0, 1.0)) == (
            "GrowthData(K_alpha=1.0, M=2.0, K_u=3.0, R=0.5, s=0.0, T=1.0)")

    def test_match_args(self):
        """GrowthData.as_dict names the constants in this order."""
        assert GrowthData.__match_args__ == ("K_alpha", "M", "K_u", "R", "s", "T")
        assert list(GrowthData(1.0, 2.0, 3.0, 0.5, 0.0, 1.0).as_dict().values()) == [
            1.0, 2.0, 3.0, 0.5, 0.0, 1.0]


class TestFrozen:
    def test_fields_cannot_be_set_or_deleted(self):
        g = GrowthData(1.0, 2.0, 3.0, 0.5, 0.0, 1.0)
        with pytest.raises(AttributeError, match="cannot assign"):
            g.R = 2.0
        with pytest.raises(AttributeError, match="cannot assign"):
            g.other = 2.0
        with pytest.raises(AttributeError, match="cannot delete"):
            del g.R
        assert g == GrowthData(1.0, 2.0, 3.0, 0.5, 0.0, 1.0)

    def test_replace_copies_and_validates(self):
        g = GrowthData(1.0, 2.0, 3.0, 0.5, 0.0, 1.0)
        h = dataclasses.replace(g, K_u=4.0, R=0.25)
        assert (h.K_u, h.R, h.M) == (4.0, 0.25, 2.0) and g.K_u == 3.0
        with pytest.raises(ValueError):
            dataclasses.replace(g, R=-1.0)
        with pytest.raises(TypeError):
            dataclasses.replace(g, Q=1.0)

    def test_package_records(self):
        grid = ii.Grid.from_spec("0:1:5,0:2:9")
        assert dataclasses.replace(grid, n_t=17).n_t == 17
        with pytest.raises(ii.EvaluationError):
            dataclasses.replace(grid, n_t=1)
        spec = pde.TransportSpec(V)
        assert dataclasses.replace(spec, N=3).V == spec.V
