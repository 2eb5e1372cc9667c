import math

import pytest

from cfpde import expr as ex
from cfpde import iterint as ii
from cfpde import pde
from cfpde._record import record
from cfpde.bounds import GrowthData


@record
class Point:
    x: float
    y: float = 0.0
    label: str = "p"


@record
class Label:
    text: str


@record
class Caption:
    """Label's one field under another class."""
    text: str


@record
class Rank:
    """A one-field record with its own methods."""
    value: int

    def __repr__(self):
        return f"#{self.value}"

    def __hash__(self):
        return hash(self.value)

    def __lt__(self, other):
        return self.value < other.value


@record
class Positive:
    value: float

    def __post_init__(self):
        if self.value <= 0:
            raise ValueError("must be positive")
        object.__setattr__(self, "value", float(self.value))


class TestConstruction:
    def test_positional_keyword_and_defaults(self):
        assert Point(1.0) == Point(x=1.0) == Point(1.0, 0.0, "p")
        assert Point(1.0, label="q").label == "q"

    @pytest.mark.parametrize("args, kwargs", [
        ((), {}), ((1, 2, "a", 4), {}), ((1,), {"x": 2}), ((1,), {"z": 3}),
    ])
    def test_bad_calls_are_type_errors(self, args, kwargs):
        with pytest.raises(TypeError):
            Point(*args, **kwargs)

    def test_one_field_bad_calls_are_type_errors(self):
        for args, kwargs in [((), {}), ((1, 2), {}), ((1,), {"value": 2}), ((), {"v": 1})]:
            with pytest.raises(TypeError):
                Positive(*args, **kwargs)

    def test_post_init_validates_and_normalises(self):
        assert Positive(3).value == 3.0 and isinstance(Positive(3).value, float)
        with pytest.raises(ValueError):
            Positive(-1)

    def test_field_order_is_checked(self):
        with pytest.raises(TypeError, match="without a default"):
            @record
            class Bad:
                a: int = 0
                b: int

        with pytest.raises(TypeError, match="no fields"):
            @record
            class Empty:
                pass


class TestValueSemantics:
    def test_equality_is_by_class_and_fields(self):
        assert Point(1.0, 2.0) == Point(1.0, 2.0)
        assert Point(1.0, 2.0) != Point(2.0, 1.0)
        assert Label("t") == Label("t") and Label("t") != Caption("t")
        assert Point(1.0).__eq__((1.0, 0.0, "p")) is NotImplemented

    def test_hash_is_that_of_the_field_tuple(self):
        """The values dataclass gives, so set and dict orders stay."""
        assert hash(Point(1.0, 2.0, "a")) == hash((1.0, 2.0, "a"))
        assert hash(Label("2j")) == hash(("2j",))
        assert hash(Point(Label("t"), 3)) == hash((Label("t"), 3, "p"))

    def test_same_field_object_compares_equal(self):
        """As in a tuple comparison, identity first: a NaN field equals
        itself."""
        nan = complex(math.nan, 0)
        assert Label(nan) == Label(nan)
        assert Point(math.nan) != Point(float("nan"))

    def test_class_methods_are_kept(self):
        assert repr(Rank(3)) == "#3" and hash(Rank(3)) == hash(3)
        assert Rank(1) < Rank(2) and Rank(1) == Rank(1) != Rank(2)

    def test_repr(self):
        assert repr(Point(1.0, label="q")) == "Point(x=1.0, y=0.0, label='q')"
        assert repr(Label("t")) == "Label(text='t')"

    def test_match_args(self):
        match Point(Label("t"), 2):
            case Point(x, y):
                assert (x, y) == (Label("t"), 2)
        assert Point.__match_args__ == ("x", "y", "label")


class TestFrozen:
    def test_fields_cannot_be_set_or_deleted(self):
        p = Point(1.0)
        with pytest.raises(AttributeError, match="cannot assign"):
            p.x = 2.0
        with pytest.raises(AttributeError, match="cannot assign"):
            p.other = 2.0
        with pytest.raises(AttributeError, match="cannot delete"):
            del p.x
        assert p == Point(1.0)

    def test_replace_copies_and_validates(self):
        g = GrowthData(1.0, 2.0, 3.0, 0.5, 0.0, 1.0)
        h = g.replace(K_u=4.0, R=0.25)
        assert (h.K_u, h.R, h.M) == (4.0, 0.25, 2.0) and g.K_u == 3.0
        with pytest.raises(ValueError):
            g.replace(R=-1.0)
        with pytest.raises(TypeError):
            g.replace(Q=1.0)
        assert Label("t").replace(text="u") == Label("u")
        with pytest.raises(ValueError):
            Positive(3).replace(value=-1)

    def test_package_records(self):
        grid = ii.Grid.from_spec("0:1:5,0:2:9")
        assert grid == ii.Grid(((0.0, 1.0, 5),), 2.0, 9) and grid.replace(n_t=17).n_t == 17
        with pytest.raises(ii.EvaluationError):
            grid.replace(n_t=1)
        v = ex.parse("1 + theta_1", 1)
        spec = pde.TransportSpec(v)
        assert spec.N == 8 and spec.V == ex.simplify(v) and spec.replace(N=3).V == spec.V
