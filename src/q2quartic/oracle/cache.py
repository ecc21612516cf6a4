"""On-disk cache for oracle results, keyed by field, oracle, range, version
and oracle schema."""

from __future__ import annotations

import json
import os

from .. import __version__
from ..params import GroupTag

# Bumped whenever an oracle's results or metadata change shape, so files
# written by an older layout are never read back.
ORACLE_SCHEMA = 6


def _cache_path(cache_dir: str, field, oracle: str, m_max) -> str:
    name = (
        f"q2quartic-{oracle}-{field.spec_hash()}-m{m_max}"
        f"-v{__version__}-s{ORACLE_SCHEMA}.json"
    )
    return os.path.join(cache_dir, name)


def load(cache_dir, field, oracle: str, m_max):
    if not cache_dir:
        return None
    path = _cache_path(cache_dir, field, oracle, m_max)
    if not os.path.exists(path):
        return None
    try:
        with open(path) as fh:
            blob = json.load(fh)
        counts = {(int(m), GroupTag(g)): int(n) for m, g, n in blob["counts"]}
        meta = blob.get("meta", {})
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        import logging  # deferred: its import costs a fifth of the package's

        logging.getLogger(__name__).warning(
            "cache: ignoring unreadable %s (%s); recomputing", path, exc
        )
        return None
    return counts, meta


def store(cache_dir, field, oracle: str, m_max, counts, meta=None):
    """Write one oracle result into the existing directory ``cache_dir``."""
    if not cache_dir:
        return
    path = _cache_path(cache_dir, field, oracle, m_max)
    blob = {
        "oracle": oracle,
        "m_max": m_max,
        "field_hash": field.spec_hash(),
        "version": __version__,
        "schema": ORACLE_SCHEMA,
        "counts": [[m, g.value, n] for (m, g), n in sorted(
            counts.items(), key=lambda kv: (kv[0][0], kv[0][1].value)
        )],
        "meta": meta or {},
    }
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w") as fh:
        json.dump(blob, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)
