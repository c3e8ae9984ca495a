"""The base of sigmak's immutable values."""


class Value:
    """An immutable value, equal, hashed, copied and pickled by its constructor arguments.

    A subclass stores its fields in ``__init__`` with ``object.__setattr__``
    (slots), or with ``vars(self).update`` in ``ChainCertificate``, the one
    value with a ``__dict__``, which its cached bracket needs; ``_fields``
    returns them in the constructor's order.  Copies and pickles rebuild
    through ``__init__``, so its checks run again and no cached attribute
    travels along.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        return type(other) is type(self) and self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(map(repr, self._fields()))})"

    def __reduce__(self):
        return type(self), self._fields()
