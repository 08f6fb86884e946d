"""Differential checks of ``lang.Record`` classes against frozen dataclass twins.

The twin of a record class is ``dataclasses.make_dataclass`` over the field
names ``@dataclass`` would collect from its annotations, subclassing the record
class: its defaults, properties and ``__post_init__`` checks carry over, while
the dataclass generates ``__init__``, ``__eq__``, ``__hash__``, ``__repr__``
(unless the class writes its own) and the frozen ``__setattr__``/``__delattr__``.
"""

import dataclasses
import itertools

import pytest

from guessability.lang import Record


def defined_in(module) -> set[type]:
    """Every Record subclass, at any depth, defined in module."""
    found, todo = set(), [Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if sub.__module__ == module.__name__:
                found.add(sub)
    return found


def dataclass_twin(cls: type) -> type:
    names = []
    for klass in reversed(cls.__mro__[:cls.__mro__.index(Record)]):
        names += [name for name in vars(klass).get("__annotations__", {}) if name not in names]
    return dataclasses.make_dataclass(cls.__name__, names, bases=(cls,), frozen=True,
                                      repr=cls.__repr__ is Record.__repr__)


def hash_or_error(value):
    try:
        return hash(value)
    except TypeError as exc:
        return str(exc)


def raised(build) -> tuple[type, str]:
    with pytest.raises(Exception) as exc:
        build()
    return type(exc.value), str(exc.value)


def check_against_twin(cls: type, samples: list[tuple], twin: type | None = None) -> None:
    """Compare cls with its twin on each sample, a tuple of positional field values.

    A class whose defaults are not class attributes passes its own twin.
    """
    twin = twin or dataclass_twin(cls)
    fields = dataclasses.fields(twin)
    required = sum(f.default is f.default_factory is dataclasses.MISSING for f in fields)
    records = [cls(*args) for args in samples]
    twins = [twin(*args) for args in samples]
    for args, record, copy in zip(samples, records, twins):
        assert repr(record) == repr(copy)
        assert list(vars(record).items()) == list(vars(copy).items())
        assert hash_or_error(record) == hash_or_error(copy)
        assert record == cls(*args) and not record != cls(*args)
        assert record != copy and copy != record
        by_name = dict(zip((f.name for f in fields), args))
        assert cls(**by_name) == record and repr(twin(**by_name)) == repr(record)
        shortest = args[:required]
        assert repr(cls(*shortest)) == repr(twin(*shortest))
        if required:
            assert raised(lambda: cls(*args[:required - 1]))[0] is TypeError
            assert raised(lambda: twin(*args[:required - 1]))[0] is TypeError
        for build in (cls, twin):
            assert raised(lambda: build(*[None] * (len(fields) + 1)))[0] is TypeError
            assert raised(lambda: build(*args[:required], no_such_field=1))[0] is TypeError
        for instance in (record, copy):
            for f in fields:
                with pytest.raises(AttributeError, match=f"^cannot assign to field '{f.name}'$"):
                    setattr(instance, f.name, None)
                with pytest.raises(AttributeError, match=f"^cannot delete field '{f.name}'$"):
                    delattr(instance, f.name)
        assert repr(record) == repr(copy)
    for (i, a), (j, b) in itertools.product(enumerate(records), repeat=2):
        assert (a == b) is (twins[i] == twins[j])


def check_rejects_like_twin(cls: type, args: tuple, error: type) -> None:
    """cls(*args) fails in ``__post_init__`` exactly as its twin does."""
    kind, message = raised(lambda: cls(*args))
    assert issubclass(kind, error)
    assert raised(lambda: dataclass_twin(cls)(*args)) == (kind, message)
