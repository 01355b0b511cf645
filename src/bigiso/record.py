"""One base class for bigiso's records; its methods are shared, so declaring a
record generates no code.  The fields are the annotated attributes, bases
first, and a value on one is its default.  The constructor takes them by
position or keyword, then runs ``__post_init__`` as looked up on the instance.
``==`` and ``hash`` compare class and fields; a record is frozen unless
declared with ``frozen=False`` (then unhashable), and ``eq=False`` compares
by identity."""

from operator import attrgetter


class Record:
    def __init_subclass__(cls, frozen=True, eq=True, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = {}
        for klass in reversed(cls.__mro__):
            fields.update(dict.fromkeys(getattr(klass, "__annotations__", ())))  # its own, on 3.10+
        cls._fields = tuple(fields)
        cls._key = attrgetter(*cls._fields)
        if not frozen:
            cls.__setattr__, cls.__delattr__ = object.__setattr__, object.__delattr__
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__
        elif not frozen:
            cls.__hash__ = None

    def __init__(self, *args, **kwargs):
        fields, values = self._fields, self.__dict__
        if len(args) > len(fields):
            raise TypeError(f"{type(self).__name__}() takes {len(fields)} arguments but {len(args)} were given")
        values.update(zip(fields, args))
        for name in kwargs:
            if name not in fields or name in values:
                raise TypeError(f"{type(self).__name__}() got an unexpected or repeated argument {name!r}")
        values.update(kwargs)
        if len(values) < len(fields):  # a field left out reads its default from the class
            missing = [name for name in fields if name not in values and not hasattr(type(self), name)]
            if missing:
                raise TypeError(f"{type(self).__name__}() missing arguments {missing}")
        self.__post_init__()

    def __post_init__(self):
        pass

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.__class__, self._key(self)))

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in self._fields)})"

    def __setattr__(self, name, *_):
        raise AttributeError(f"cannot assign to or delete field {name!r} of a frozen record")

    __delattr__ = __setattr__
