"""Frozen records: what ``@dataclass(frozen=True)`` gives the package's
value classes, built from closures instead of compiled source text.

``record`` takes the fields from the class's own annotations, in order,
and adds each of these methods that the class body does not define:

* ``__init__`` taking the fields by position or keyword, with the class
  attribute of the same name as default, then ``__post_init__`` if the
  class has one;
* ``__eq__`` and ``__hash__`` on the tuple of field values, with the
  values (and so the set and dict orders) that the dataclass methods give;
* ``__repr__`` as ``Name(field=value, ...)``;
* ``__setattr__`` and ``__delattr__`` that refuse (``__post_init__``
  may still store a normalised field with ``object.__setattr__``);
* ``__match_args__``, and ``replace(**changes)``, a copy with some fields
  changed that goes through ``__init__`` again.
"""

from __future__ import annotations

__all__ = ["record"]


def _bind(cls, names: tuple, defaults: dict, args: tuple, kwargs: dict) -> list:
    """The field values of a call cls(*args, **kwargs), defaults filled in."""
    if len(args) > len(names):
        raise TypeError(f"{cls.__name__}() takes {len(names)} arguments "
                        f"but {len(args)} were given")
    given = dict(zip(names, args))
    for name, value in kwargs.items():
        if name not in names:
            raise TypeError(f"{cls.__name__}() got an unexpected keyword "
                            f"argument {name!r}")
        if name in given:
            raise TypeError(f"{cls.__name__}() got multiple values for "
                            f"argument {name!r}")
        given[name] = value
    missing = [name for name in names if name not in given and name not in defaults]
    if missing:
        raise TypeError(f"{cls.__name__}() missing arguments: "
                        + ", ".join(map(repr, missing)))
    return [given[name] if name in given else defaults[name] for name in names]


def record(cls):
    names = tuple(cls.__dict__.get("__annotations__", {}))
    if not names:
        raise TypeError(f"record {cls.__name__} has no fields")
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    if names[len(names) - len(defaults):] != tuple(defaults):
        raise TypeError(f"record {cls.__name__}: a field without a default "
                        "follows one with a default")
    set_field = object.__setattr__
    post_init = cls.__dict__.get("__post_init__")

    def values(self):
        return tuple([getattr(self, name) for name in names])

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):
            args = _bind(cls, names, defaults, args, kwargs)
        for name, value in zip(names, args):
            set_field(self, name, value)
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in zip(names, values(self)))
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def replace(self, **changes):
        return self.__class__(**dict(zip(names, values(self)), **changes))

    methods = {"__init__": __init__, "__eq__": __eq__, "__hash__": __hash__,
               "__repr__": __repr__, "__setattr__": __setattr__,
               "__delattr__": __delattr__, "__match_args__": names,
               "replace": replace}
    for attr, method in methods.items():
        if attr not in cls.__dict__:
            if callable(method):
                method.__qualname__ = f"{cls.__qualname__}.{attr}"
            setattr(cls, attr, method)
    return cls
