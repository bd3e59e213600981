"""Frozen value classes, built without the dataclasses module.

``value_class`` reads the field names, in order, from the class body's
annotations, and their defaults from the class attributes of the same
name.  It adds ``__init__`` (positional and keyword arguments, defaults,
then ``__post_init__`` when the class defines one), an ``__eq__`` that
compares field tuples of instances of the same class only, ``__hash__`` of
that tuple, and ``__repr__``; assigning or deleting an attribute raises
AttributeError.  As in dataclasses, the methods are compiled from
generated source, so they cost what hand-written ones do; importing
dataclasses itself would load inspect as well, which nothing else in the
package needs.
"""

from __future__ import annotations


def value_class(cls: type) -> type:
    names = tuple(cls.__dict__.get("__annotations__", {}))
    defaults = [cls.__dict__[n] for n in names if n in cls.__dict__]
    if any(n not in cls.__dict__ for n in names[len(names) - len(defaults):]):
        raise TypeError(f"{cls.__name__}: a field without default follows a default")
    fields = "".join(f"self.{n}, " for n in names)
    other = "".join(f"other.{n}, " for n in names)
    init = "".join(f"    _d[{n!r}] = {n}\n" for n in names)
    post = "    self.__post_init__()\n" if hasattr(cls, "__post_init__") else ""
    source = (
        f"def __init__(self, {', '.join(names)}):\n"
        f"    _d = self.__dict__\n{init}{post}"
        "def __eq__(self, other):\n"
        "    if other.__class__ is not self.__class__:\n"
        "        return NotImplemented\n"
        f"    return ({fields}) == ({other})\n"
        "def __hash__(self):\n"
        f"    return hash(({fields}))\n"
    )
    namespace: dict = {}
    exec(source, {}, namespace)
    namespace["__init__"].__defaults__ = tuple(defaults) or None
    for name, method in namespace.items():
        method.__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name, method)

    def __repr__(self) -> str:
        args = ", ".join(f"{n}={getattr(self, n)!r}" for n in names)
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    cls.__repr__ = __repr__
    cls.__setattr__ = __setattr__
    cls.__delattr__ = __delattr__
    return cls
