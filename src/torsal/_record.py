"""Record: the one base of torsal's plain value classes.

A subclass lists its fields, in order, as a tuple in ``__slots__``.
Record reads that tuple when it is called, to give the subclass a
constructor taking the fields positionally or by keyword, equality
(same class, equal fields), a hash of the fields, and a repr of the form
``Name(field=value, ...)``. Nothing is generated or exec'd when a
subclass is defined, so defining one costs no more than any class. A
class built in hot loops (Monomial, the expression AST nodes) writes its
own ``__init__`` with plain assignments.

Fields are not write-protected, as for Polynomial and ProjPoint: a
record is treated as immutable, and its hash relies on that.
"""


class Record:
    __slots__ = ()

    def __init__(self, *args, **kwargs):
        cls = type(self)
        names = cls.__slots__
        if len(args) > len(names):
            raise TypeError(
                f"{cls.__name__} takes {len(names)} fields, got {len(args)}"
            )
        values = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names or name in values:
                raise TypeError(
                    f"{cls.__name__} got an unexpected or repeated field {name!r}"
                )
            values[name] = value
        missing = [name for name in names if name not in values]
        if missing:
            raise TypeError(f"{cls.__name__} is missing fields {missing}")
        for name in names:
            setattr(self, name, values[name])

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__slots__
        )
        return f"{type(self).__qualname__}({fields})"
