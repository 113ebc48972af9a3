"""Frozen record classes without the dataclasses module.

``record`` gives a class what ``@dataclass(frozen=True)`` did, reading the
field names from its annotations. Importing dataclasses pulls in inspect,
ast and dis, and each dataclass compiles its methods with exec: start-up
time that every CLI job paid.
"""

from operator import attrgetter


def _frozen_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def _bind(where: str, names: tuple, args: tuple, kwargs: dict) -> list:
    """The field values in order, or the TypeError that a plain
    ``def __init__(self, <names>)`` raises for these arguments."""
    params = ("self", *names)
    given = dict(zip(params, (None, *args)))
    for key, value in kwargs.items():
        if key not in params:
            raise TypeError(f"{where} got an unexpected keyword argument {key!r}")
        if key in given:
            raise TypeError(f"{where} got multiple values for argument {key!r}")
        given[key] = value
    if len(args) >= len(params):
        raise TypeError(
            f"{where} takes {len(params)} positional arguments but {len(args) + 1} were given"
        )
    missing = [repr(name) for name in names if name not in given]
    if missing:
        *rest, last = missing
        listed = f"{', '.join(rest)}{',' * (len(rest) > 1)} and {last}" if rest else last
        raise TypeError(
            f"{where} missing {len(missing)} required positional"
            f" argument{'s' * bool(rest)}: {listed}"
        )
    return [given[name] for name in names]


def record(cls):
    """Give cls a positional-or-keyword constructor that calls __post_init__
    (when cls has one) after setting the fields, the repr Name(field=value,
    ...), equality only with instances of cls, a hash over the field tuple,
    and AttributeError on assigning or deleting an attribute."""
    names = tuple(cls.__annotations__)
    get = attrgetter(*names)
    fields = get if len(names) > 1 else lambda self: (get(self),)
    post_init = hasattr(cls, "__post_init__")
    where = f"{cls.__qualname__}.__init__()"

    def __init__(self, /, *args, **kwargs):
        if kwargs or len(args) != len(names):
            args = _bind(where, names, args, kwargs)
        self.__dict__.update(zip(names, args))
        if post_init:
            self.__post_init__()  # looked up on each call, so it can be wrapped

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
