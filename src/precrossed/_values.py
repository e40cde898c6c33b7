"""Immutable value types: tuple subclasses with named, read-only fields.

``value_type`` gives every value class of the package what it used from
``collections.namedtuple`` -- ``_fields``, ``_make``, the ``Name(field=value,
...)`` repr, copy and pickle -- without importing ``collections``: its load
and the ``exec`` that builds each class took a third of the CLI start-up.
A field is read through ``operator.itemgetter``, about 15 ns slower than
namedtuple's C getter, so hot loops unpack a value once instead.

``Memo`` is the package's table filled on first read, in place of
``functools.cache``: the coskeleton's edge tables, each word spec's
per-degree code and face tables, and a simplicial map's images.

``pack`` stores a sequence of ints as one ``bytes`` of machine integers, and
``unpacked`` reads them back in place: the boundary matrices and the word
bases are held this way.  ``array`` would do the same, but it loads
``collections``; ``struct`` loads only ``_struct``, and only on the first
pack.
"""

from operator import itemgetter


def value_type(name: str, fields: str) -> type:
    """A tuple subclass named ``name`` with one read-only property per field.

    ``fields`` is a space-separated list.  A value is built from exactly one
    item per field, positionally; any other count raises ``TypeError``.  There
    is no per-instance dict (``__slots__ = ()``), and subclasses add
    ``__slots__ = ()`` of their own to keep it so.
    """
    names = tuple(fields.split())
    arity = len(names)
    new = tuple.__new__

    def __new__(cls, *values):
        if len(values) != arity:
            raise TypeError(f"{name} takes {arity} values, not {len(values)}")
        return new(cls, values)

    def _make(cls, iterable):
        return cls(*iterable)

    def __repr__(self):
        shown = ", ".join([f"{field}={v!r}" for field, v in zip(names, self)])
        return f"{type(self).__name__}({shown})"

    def __getnewargs__(self):
        # copy and pickle call cls(*args): without this they pass the whole tuple as one value
        return tuple(self)

    namespace = {"__slots__": (), "_fields": names, "__new__": __new__,
                 "_make": classmethod(_make), "__repr__": __repr__,
                 "__getnewargs__": __getnewargs__}
    for i, field in enumerate(names):
        namespace[field] = property(itemgetter(i), doc=f"Item {i} of the tuple.")
    return type(name, (tuple,), namespace)


class Memo(dict):
    """``table[key]`` is ``build(key)``, built on the first read and kept, so a
    hit is a plain dict lookup with no Python call."""

    __slots__ = ("build",)

    def __init__(self, build):
        super().__init__()
        self.build = build

    def __missing__(self, key):
        self[key] = value = self.build(key)
        return value


def pack(ints, code: str):
    """The sequence ``ints`` as one ``bytes`` of native ``struct`` ``code``
    integers, or as a tuple if one of them does not fit the code.

    ``struct`` raises on a value outside the code's range rather than wrap
    it, so the ints read back are always the ones given.
    """
    import struct  # on the first pack: importing the package loads no struct

    try:
        return struct.pack(f"{len(ints)}{code}", *ints)
    except struct.error:
        return tuple(ints)


def unpacked(field, code: str):
    """The ints of a field made by ``pack`` with ``code``, read in place: its
    bytes as a memoryview cast to ``code``, or the tuple itself."""
    return memoryview(field).cast(code) if type(field) is bytes else field
