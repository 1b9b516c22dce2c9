"""Base class of the package's immutable types that are not tuples.

Plain result records are ``typing.NamedTuple`` classes. The input
types, which validate their arguments, and the oracle's joint table,
which keeps its cell index out of the repr, subclass :class:`Record`
instead. Such a type lists its fields in ``_fields`` and
``__slots__`` and sets them once, in its own ``__init__``, with
:meth:`Record._set`. It then has a ``Name(field=value, ...)`` repr,
equality and hashing over its fields, and no assignment afterwards.

Both kinds are cheap to define, which matters because every CLI process
defines them before it does any work (see "Start-up" in the README).
"""

from __future__ import annotations

from typing import Any

__all__ = ["Record"]


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()
    # fields compared and hashed but left out of the repr
    _hidden: tuple[str, ...] = ()

    def _set(self, **fields: Any) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def _values(self) -> tuple[Any, ...]:
        return tuple([getattr(self, name) for name in self._fields])

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(
            [f"{name}={getattr(self, name)!r}" for name in self._fields if name not in self._hidden]
        )
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self) -> tuple[Any, ...]:
        # copy and pickle rebuild through __init__, since assignment is refused
        return type(self), self._values()
