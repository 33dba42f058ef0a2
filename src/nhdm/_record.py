"""Frozen value classes, built without ``dataclasses``.

``record`` gives a class the methods ``dataclass(frozen=True)`` writes for
it, read from the same annotated fields and defaults: ``__init__`` (then
``__post_init__``, if the class has one), ``__eq__``, ``__hash__``,
``__repr__``, with ``order=True`` the four order methods, and with a
``__post_init__`` the classmethod ``_trusted``: the parameters of
``__init__``, stored without ``__post_init__``, for values already checked.
Records of one class compare as the tuples of their fields, and hash as
that tuple, so sets and dicts of records iterate as they did under
``dataclass``.  Assigning or deleting an attribute raises AttributeError;
``object.__setattr__`` (``__init__``, ``_trusted``, ``__post_init__``) and
``functools.cached_property``, which writes the instance dict, still work.

Importing ``dataclasses`` pulls in ``inspect``, ``ast`` and ``dis``, and it
compiles each method of each class on its own.  Here the methods that run
in hot loops (``__init__``, ``_trusted``, ``__eq__``, ``__hash__``, the order
methods) are compiled from one source per class, as plain attribute reads;
the rest are closures.
"""

_ORDER = (("__lt__", "<"), ("__le__", "<="), ("__gt__", ">"), ("__ge__", ">="))


def record(cls=None, /, *, order=False):
    """Class decorator: ``@record`` or ``@record(order=True)``.  A class that
    defines ``__post_init__`` also gets ``_trusted``, which skips it."""
    if cls is None:
        return lambda c: _build(c, order)
    return _build(cls, order)


def _build(cls, order):
    names = tuple(cls.__dict__.get("__annotations__", {}))
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    methods = _compiled(cls, names, defaults, order)

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in names)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    for method in (*methods, __repr__, __setattr__, __delattr__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__,
                classmethod(method) if method.__name__ == "_trusted" else method)
    return cls


def _compiled(cls, names, defaults, order):
    """``__init__(self, *names)`` with ``defaults``, ``__eq__``, ``__hash__``, with
    ``order`` the order methods and with ``__post_init__`` ``_trusted``, from one source."""
    params = ", ".join(f"{n}=_d_{n}" if n in defaults else n for n in names)
    stores = [f"  _set(self, {n!r}, {n})" for n in names]
    mine = "(" + "".join(f"self.{n}," for n in names) + ")"
    theirs = "(" + "".join(f"other.{n}," for n in names) + ")"
    lines = [f"def _make(_set, _new, {''.join(f'_d_{n}, ' for n in defaults)}):",
             f" def __init__(self, {params}):", *stores]
    made = ["__init__", "__hash__"]
    if hasattr(cls, "__post_init__"):
        lines += ["  self.__post_init__()",
                  f" def _trusted(cls, {params}):", "  self = _new(cls)", *stores,
                  "  return self"]
        made.append("_trusted")
    lines += [" def __hash__(self):", f"  return hash({mine})"]
    for name, op in [("__eq__", "==")] + list(_ORDER if order else ()):
        lines += [f" def {name}(self, other):",
                  "  if other.__class__ is self.__class__:",
                  f"   return {mine} {op} {theirs}",
                  "  return NotImplemented"]
        made.append(name)
    lines.append(f" return {', '.join(made)}")
    namespace = {}
    exec("\n".join(lines), namespace)
    return namespace["_make"](object.__setattr__, object.__new__, *defaults.values())
