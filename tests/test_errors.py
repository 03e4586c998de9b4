"""Every toolkit error survives pickling: an error raised in a `sent cv`
fold worker reaches the command's process only through pickle."""
from __future__ import annotations

import pickle
from pathlib import Path

import pytest

from lexmine import errors


def error_classes(cls=errors.LexmineError) -> list[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found += error_classes(sub)
    return found


# constructor arguments of the classes that take more than a message
ARGS = {errors.ParseError: (Path("data") / "a.tsv", 3, "bad: column 2 of 3")}


@pytest.mark.parametrize("cls", error_classes(), ids=lambda cls: cls.__name__)
def test_round_trips_through_pickle(cls):
    error = cls(*ARGS.get(cls, ("value out of range: 1e300",)))
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is cls
    assert str(copy) == str(error)
    assert vars(copy) == vars(error)


def test_parse_error_keeps_path_and_line():
    copy = pickle.loads(pickle.dumps(errors.ParseError("a: b.tsv", 7, "x: y")))
    assert (copy.path, copy.line_no, str(copy)) == ("a: b.tsv", 7, "a: b.tsv:7: x: y")

