"""The shared input reader and atomic writer."""
from __future__ import annotations

import errno
import os

import pytest

from lexmine.errors import InputError, ParseError
from lexmine.manifest import atomic_write_text, content_lines, read_lines


class TestReadLines:
    def test_line_ends_removed(self, tmp_path):
        path = tmp_path / "in.txt"
        path.write_bytes(b"one\ntwo\r\nthree\rfour")
        assert list(read_lines(path)) == ["one", "two", "three", "four"]

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError) as err:
            list(read_lines(tmp_path / "absent.txt"))
        assert str(err.value).startswith(f"cannot read {tmp_path / 'absent.txt'}: ")

    @pytest.mark.parametrize("bad", [b"\xff", b"\xe2\x82", b"\xed\xa0\x80"])
    def test_undecodable_line_is_named(self, tmp_path, bad):
        # far past the decoder's first read-ahead block
        path = tmp_path / "in.txt"
        path.write_bytes(b"fine line\n" * 2999 + b"x" + bad + b"y\n" + b"fine line\n")
        with pytest.raises(ParseError) as err:
            list(read_lines(path))
        assert str(err.value) == f"{path}:3000: not valid UTF-8"


def test_content_lines_skip_blanks_and_comments_but_number_every_line():
    lines = ["# head", "", "a", " \t", "  # note", "\t#note", "b # not a comment", " #", " c "]
    assert list(content_lines(lines)) == [(3, "a"), (7, "b # not a comment"), (9, " c ")]


class TestAtomicWrite:
    def test_failed_rename_names_target_and_leaves_no_temp_file(self, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise OSError(errno.EACCES, os.strerror(errno.EACCES), src)

        monkeypatch.setattr(os, "replace", refuse)
        target = tmp_path / "out.txt"
        with pytest.raises(InputError) as err:
            atomic_write_text(target, "text\n")
        assert str(err.value) == f"cannot write {target}: Permission denied"
        assert os.listdir(tmp_path) == []
