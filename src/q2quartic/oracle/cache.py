"""On-disk cache for oracle results, keyed by field, oracle, range, version
and oracle schema."""

from __future__ import annotations

import contextlib
import json
import os

from .. import __version__
from ..params import GroupTag, cell_key

# Bumped whenever an oracle's results or metadata change shape, so files
# written by an older layout are never read back.
ORACLE_SCHEMA = 8


def _cache_path(cache_dir: str, field, oracle: str, m_max) -> str:
    name = (
        f"q2quartic-{oracle}-{field.spec_hash()}-m{m_max}"
        f"-v{__version__}-s{ORACLE_SCHEMA}.json"
    )
    return os.path.join(cache_dir, name)


def _key(field, oracle: str, m_max) -> dict:
    """What a cache file is for; written into it and checked when it is read."""
    return {
        "oracle": oracle,
        "m_max": m_max,
        "field_hash": field.spec_hash(),
        "version": __version__,
        "schema": ORACLE_SCHEMA,
    }


def _warn(message, *args):
    import logging  # deferred: its import costs a fifth of the package's

    logging.getLogger(__name__).warning(message, *args)


def load(cache_dir, field, oracle: str, m_max):
    """The cached (counts, meta) of one oracle run, or None.  A file that cannot be
    read, was written for another key, or holds other than [m, group name, n] entries
    (int m, n >= 0, no bools, no cell twice) and an object ``meta`` is ignored with a warning."""
    if not cache_dir:
        return None
    path = _cache_path(cache_dir, field, oracle, m_max)
    if not os.path.exists(path):
        return None
    try:
        with open(path) as fh:
            blob = json.load(fh)
        other = [k for k, v in _key(field, oracle, m_max).items() if blob[k] != v]
        if other:
            raise ValueError(f"written for another {', '.join(other)}")
        counts, meta = {}, blob["meta"]
        for m, g, n in blob["counts"]:
            cell = (m, GroupTag(g))
            if type(m) is not int or type(n) is not int or m < 0 or n < 0 or cell in counts:
                raise ValueError(f"bad count entry {[m, g, n]!r}")
            counts[cell] = n
        if type(meta) is not dict:
            raise ValueError(f"meta is not an object: {meta!r}")
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        _warn("cache: ignoring unreadable %s (%s); recomputing", path, exc)
        return None
    return counts, meta


def store(cache_dir, field, oracle: str, m_max, counts, meta=None):
    """Write one oracle result into the existing directory ``cache_dir``.
    A write that fails is logged as a warning and leaves no file behind."""
    if not cache_dir:
        return
    path = _cache_path(cache_dir, field, oracle, m_max)
    blob = {
        **_key(field, oracle, m_max),
        "counts": [[m, g.value, counts[(m, g)]] for m, g in sorted(counts, key=cell_key)],
        "meta": meta or {},
    }
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            json.dump(blob, fh, indent=1, sort_keys=True)
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        _warn("cache: cannot write %s (%s); result not cached", path, exc)
