"""Plain record classes, written out instead of generated.

A record's fields are its __slots__, in order.  It is built by position or
keyword, compares equal only to an instance of its own class with equal
fields, and prints as Name(field=value, ...).  A FrozenRecord also refuses
assignment and hashes as the tuple of its fields.  Generating such methods
at import instead (and importing the generator) cost 20-25 ms of every
cold `wkostka` run.
"""
from __future__ import annotations


class Record:
    """A mutable, unhashable record.  _defaults maps trailing fields to
    their defaults; a list or dict default is copied for each instance."""

    __slots__ = ()
    _defaults = {}

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if len(args) > len(names) or kwargs.keys() - set(names[len(args):]):
            raise TypeError(f"{type(self).__name__}() takes the fields {names}")
        kwargs.update(zip(names, args))
        for name in names:
            if name in kwargs:
                value = kwargs[name]
            elif name in self._defaults:
                value = self._defaults[name]
                if isinstance(value, (list, dict)):
                    value = value.copy()
            else:
                raise TypeError(
                    f"{type(self).__name__}() missing field {name!r}")
            object.__setattr__(self, name, value)

    @classmethod
    def _unchecked(cls, *values):
        """An instance of values taken as they are, for values this package
        has built and checked itself: no __init__ runs."""
        self = object.__new__(cls)
        for name, value in zip(cls.__slots__, values):
            object.__setattr__(self, name, value)
        return self

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class FrozenRecord(Record):
    """A Record whose fields cannot be assigned or deleted after __init__."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
