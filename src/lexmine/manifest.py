"""Run manifests, input files and atomic file output.

Every CLI command writes a manifest next to its primary output recording
the command name, the resolved configuration, sha256 digests of all input
files, and per-stage counts. Two runs over identical inputs with identical
settings produce byte-identical manifests; the only non-deterministic
record, per-stage wall-clock, goes to a separate ``*.timing.json`` sidecar
so it never breaks reproducibility comparisons. Every text input is read
through ``read_lines``, so a missing or undecodable file fails the same way
in every command.
"""
from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile

from . import __version__
from .errors import InputError, ParseError

SCHEMA_VERSION = 1
TOOL_NAME = "lexmine"

# what the surrogateescape error handler turns each undecodable byte into
_UNDECODABLE = re.compile("[\udc80-\udcff]")


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def read_lines(path):
    """Yield the lines of a UTF-8 text file, without their line ends.

    The file is read line by line, never whole. A file that cannot be
    opened raises InputError; bytes that are not UTF-8 raise ParseError
    naming the first line that holds them.
    """
    try:
        handle = open(path, encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from exc
    with handle:
        try:
            for line in handle:
                yield line.rstrip("\n")
        except UnicodeDecodeError:
            raise ParseError(path, _first_undecodable_line(path), "not valid UTF-8") from None


def content_lines(lines):
    """Yield `(line_no, line)` for each line that is neither blank nor a
    comment, one whose first non-blank character is `#`. Every line counts
    toward `line_no`, from 1, so a skipped line keeps later numbers true."""
    for line_no, line in enumerate(lines, start=1):
        stripped = line.lstrip()
        if stripped and not stripped.startswith("#"):
            yield line_no, line


def _first_undecodable_line(path) -> int:
    # the strict decoder reads ahead in blocks, so its error cannot name the line
    with open(path, encoding="utf-8", errors="surrogateescape") as handle:
        return next(line_no for line_no, line in enumerate(handle, start=1)
                    if _UNDECODABLE.search(line))


def atomic_write_text(path, text: str):
    """Write via a temp file in the same directory, then rename over the
    target so readers never observe a partial file. The file gets the mode
    `open(path, "w")` would give a new file, not the temp file's 0600. A
    target that cannot be written raises InputError naming it, not the
    temp file."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                # the umask can only be read by setting it; put it straight back
                umask = os.umask(0)
                os.umask(umask)
                os.fchmod(handle.fileno(), 0o666 & ~umask)
                handle.write(text)
            os.replace(tmp_path, path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror}") from exc


def format_json(payload: dict) -> str:
    """The JSON text of every report and manifest: indented, keys sorted."""
    return json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def atomic_write_json(path, payload: dict):
    atomic_write_text(path, format_json(payload))


def timing_path_for(manifest_path) -> str:
    base = str(manifest_path)
    if base.endswith(".manifest.json"):
        base = base[: -len(".manifest.json")]
    return base + ".timing.json"


def write_manifest(path, command: str, config: dict, inputs, counts: dict,
                   outputs: list[str], timing: dict) -> None:
    """Write the manifest of one run to `path`, with the sha256 of each
    input file, and its `timing` (stage -> seconds) to the sidecar named by
    `timing_path_for`. A `seed` in `config` is also recorded at top level."""
    payload = {
        "schema_version": SCHEMA_VERSION,
        "tool": TOOL_NAME,
        "version": __version__,
        "command": command,
        "config": config,
        "inputs": {str(p): sha256_file(p) for p in inputs},
        "counts": counts,
        "outputs": outputs,
    }
    if config.get("seed") is not None:
        payload["seed"] = config["seed"]
    atomic_write_json(path, payload)
    atomic_write_json(timing_path_for(path), {"command": command, "timing": timing})
