"""The base class of the package's immutable value types.

Not frozen dataclasses: importing ``dataclasses`` (and with it ``inspect``)
and generating each class's methods took about 7 ms of a 25 ms import of
the package (in-process medians of 15, 2-vCPU Xeon, Python 3.11), for
behaviour that fits in the one class below.
"""

from __future__ import annotations


class Value:
    """An immutable value whose fields are its class's annotated attributes,
    its bases' first.

    Two instances are equal when they are of one class and their fields are
    equal; an instance hashes by its fields and reprs as
    ``Name(field=value, ...)``. Each subclass writes its own ``__init__``,
    which sets every field once with ``object.__setattr__``; assigning or
    deleting an attribute later raises ``AttributeError``. A
    ``cached_property`` still caches, as it writes the instance ``__dict__``.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        # since Python 3.10 a class's __annotations__ are its own, never a
        # base's, and an unannotated subclass such as Spectrum adds none
        cls._fields += tuple(cls.__annotations__)

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is immutable")
