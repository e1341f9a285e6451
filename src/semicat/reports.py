"""Pass/fail records with counterexample certificates."""

from collections import namedtuple

import numpy as np


def first_witness(mask, names, **values):
    """The first True entry of a boolean array in row-major order, or None.

    The entry comes back as {name: index}, one name per axis; an axis whose
    name is also given as a keyword reports values[name][index] instead, so
    an axis that runs over a subset of the elements can report the element.
    Row-major order is the order of the nested loops over the same axes.
    """
    mask = np.asarray(mask, dtype=bool)
    flat = mask.ravel()
    if not flat.any():
        return None
    index = np.unravel_index(int(flat.argmax()), mask.shape)
    return {name: int(values[name][i]) if name in values else int(i)
            for name, i in zip(names, index)}


def jsonable(value):
    """Recursively convert tuples and numpy scalars into JSON values.

    numpy integers and bools become Python ints and bools; any other type
    raises TypeError, so nothing reaches a report through an unplanned str().
    """
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (int, float, str)):
        return value
    if isinstance(value, (np.bool_, np.integer)):
        return value.item()
    raise TypeError(f"a report cannot hold a value of type {type(value).__name__}")


def record_json(record, **keys):
    """A namedtuple record as a JSON object: one entry per field in order, through jsonable.

    keys renames fields: record_json(r, is_ei="is_EI") writes r.is_ei as "is_EI".
    """
    return {keys.get(name, name): jsonable(value) for name, value in zip(record._fields, record)}


class CheckResult(namedtuple("CheckResult", ["name", "passed", "witness"], defaults=[None])):
    __slots__ = ()


class VerificationReport(namedtuple("VerificationReport", ["checks"])):
    __slots__ = ()

    def __new__(cls, checks=None):
        # checks: the CheckResults in the order they were added; a new list per report
        return super().__new__(cls, [] if checks is None else checks)

    def add(self, name, passed, witness=None):
        self.checks.append(CheckResult(name, bool(passed), witness))

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]

    def __getitem__(self, name):
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_json(self):
        return {"passed": self.passed, "checks": [record_json(c) for c in self.checks]}
