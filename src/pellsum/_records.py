"""Frozen record classes without the dataclasses module.

``record`` gives a class what ``@dataclass(frozen=True)`` did, reading the
field names from its annotations. Importing dataclasses pulls in inspect,
ast and dis, and each dataclass compiles several methods with exec: start-up
time that every CLI job paid. ``record`` compiles one method per class, a
plain ``def __init__(self, <fields>)``, so the interpreter binds the
arguments and raises its own TypeErrors; the other methods are closures
over the field names.
"""

from operator import attrgetter


def _frozen_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def record(cls):
    """Give cls a positional-or-keyword constructor that calls __post_init__
    (when cls has one) after setting the fields, the repr Name(field=value,
    ...), equality only with instances of cls, a hash over the field tuple,
    and AttributeError on assigning or deleting an attribute."""
    names = tuple(cls.__annotations__)
    get = attrgetter(*names)
    fields = get if len(names) > 1 else lambda self: (get(self),)
    # One item at a time, in field order, keeps the instance dict sharing
    # its keys with the class's other instances: dict.update with a dict
    # gives each instance its own key table, 72 bytes more per instance.
    # __dict cannot be a field name: a class body mangles it.
    source = "".join([
        f"def __init__(self, {', '.join(names)}):\n __dict = self.__dict__\n",
        *(f" __dict[{name!r}] = {name}\n" for name in names),
        # looked up on each call, so it can be wrapped
        " self.__post_init__()\n" if hasattr(cls, "__post_init__") else "",
    ])
    namespace = {}
    exec(source, {}, namespace)
    __init__ = namespace["__init__"]
    # CPython names the function by its __qualname__ in binding errors
    __init__.__qualname__ = f"{cls.__qualname__}.__init__"
    __init__.__module__ = cls.__module__

    def __repr__(self):
        body = ", ".join(f"{name}={value!r}" for name, value in zip(names, fields(self)))
        return f"{self.__class__.__qualname__}({body})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return fields(self) == fields(other)
        return NotImplemented

    def __hash__(self):
        return hash(fields(self))

    cls.__init__ = __init__
    cls.__repr__ = __repr__
    cls.__eq__ = __eq__
    cls.__hash__ = __hash__
    cls.__setattr__ = _frozen_setattr
    cls.__delattr__ = _frozen_delattr
    cls.__match_args__ = names
    return cls
