"""The one writer of artefact files: overwrite in place, never truncate on open."""

import contextlib
import csv
import os


def _open_keeping_contents(path, flags):
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


@contextlib.contextmanager
def overwrite(path, newline=None):
    """Text handle on ``path`` that ends up holding exactly what was written.

    Unlike ``open(path, "w")`` the file is not truncated on open: on ext4
    (``auto_da_alloc``) truncating a non-empty file schedules a flush that
    costs tens of milliseconds.  The file is cut at the written length on
    exit instead, also when the body raises, so no stale tail survives.  The
    inode, permissions and symlinks are kept as with ``"w"``.
    """
    with open(path, "w", newline=newline, opener=_open_keeping_contents) as handle:
        try:
            yield handle
        finally:
            handle.truncate()


def write_csv(path, header, rows):
    """Overwrite ``path`` with an RFC 4180 table: floats as repr(float(x)), their
    round-trip form, and integers and strings as they are."""
    with overwrite(path, newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows([repr(float(v)) if isinstance(v, float) else v for v in row] for row in rows)
