"""Cross-run persistence for the penalty cache.

:class:`~repro.core.incremental.PenaltyCache` keys pair a model's
``memo_key()`` with a canonical structural component snapshot — both are
process-independent by construction, so memoized contention situations can
outlive the process that computed them.  :class:`PersistentPenaltyCache`
serialises the LRU to a JSON file so that repeated campaigns (and repeated
simulations of the same application) skip the warm-up misses entirely.

Keys are arbitrary nested tuples of scalars and frozen parameter dataclasses;
they are flattened into a canonical, type-tagged JSON string
(:func:`canonical_key`) that serves as the stored cache key.  Lookups encode
the live key the same way, so equality of encodings is what matters and the
original Python objects never need to be reconstructed.  Penalty values are
written as JSON numbers (Python serialises floats via ``repr``, which
round-trips exactly), keeping a reloaded cache bit-exact with the one that
was saved.

A corrupted or truncated cache file is tolerated: loading falls back to an
empty cache (a cache is an accelerator, never a correctness dependency) and
records the failure in :attr:`PersistentPenaltyCache.load_error`.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import tempfile
from pathlib import Path
from typing import IO, Any, Dict, Hashable, Iterator, Optional, Tuple, Union

from ..core.incremental import PenaltyCache
from ..exceptions import GraphError

__all__ = ["atomic_write", "canonical_key", "PersistentPenaltyCache"]

_FORMAT_VERSION = 1


@contextlib.contextmanager
def atomic_write(path: Union[str, Path], newline: Optional[str] = None) -> Iterator[IO[str]]:
    """Write a text file so that readers only ever see a complete version.

    Yields a handle on a temporary file in ``path``'s directory; a clean exit
    renames it over ``path`` in one ``os.replace``, an exception removes it
    and re-raises, leaving any previous ``path`` byte for byte intact.
    ``newline`` is passed to :func:`open` (``""`` for the csv module).
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=str(target.parent),
                                    prefix=target.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline=newline) as handle:
            yield handle
        os.replace(tmp_name, target)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _canonical(value: Any) -> Any:
    """Recursively encode a cache-key value into a type-tagged JSON structure."""
    if value is None:
        return ["z"]
    if isinstance(value, bool):  # before int: bool is an int subclass
        return ["b", value]
    if isinstance(value, int):
        return ["i", value]
    if isinstance(value, float):
        return ["f", value.hex()]
    if isinstance(value, str):
        return ["s", value]
    if isinstance(value, (tuple, list)):
        return ["t", [_canonical(item) for item in value]]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = [_canonical(getattr(value, f.name)) for f in dataclasses.fields(value)]
        return ["d", f"{type(value).__module__}.{type(value).__qualname__}", fields]
    raise GraphError(
        f"cache key component {value!r} of type {type(value).__name__} is not "
        "serialisable; persistent caches accept scalars, tuples and parameter "
        "dataclasses"
    )


def canonical_key(key: Hashable) -> str:
    """Stable textual form of a :class:`PenaltyCache` key (process-independent)."""
    return json.dumps(_canonical(key), separators=(",", ":"))


class PersistentPenaltyCache(PenaltyCache):
    """A :class:`PenaltyCache` that can be saved to and reloaded from disk.

    Entries are keyed internally by :func:`canonical_key`, so a reloaded
    cache serves exactly the same hits as the instance that was saved — the
    roundtrip property the campaign tests assert.

    Parameters
    ----------
    path:
        Default file used by :meth:`save`; also recorded for reporting.
    max_entries:
        LRU capacity.  Larger than the in-memory default because a
        persistent cache typically accumulates several campaigns.
    """

    def __init__(self, path: Union[str, Path, None] = None,
                 max_entries: int = 65536) -> None:
        super().__init__(max_entries=max_entries)
        self.path: Optional[Path] = Path(path) if path is not None else None
        self.load_error: Optional[str] = None
        self.loaded_entries = 0
        # raw key -> canonical string, so the live lookup path pays the
        # recursive encoding once per distinct key instead of per access
        self._encoded: Dict[Hashable, str] = {}

    # ------------------------------------------------------- key translation
    def _canonical_cached(self, key: Hashable) -> str:
        encoded = self._encoded.get(key)
        if encoded is None:
            encoded = canonical_key(key)
            if len(self._encoded) >= 4 * max(1, self.max_entries):
                self._encoded.clear()  # crude bound; re-encoding is only a slowdown
            self._encoded[key] = encoded
        return encoded

    def get(self, key: Hashable) -> Optional[Dict[Tuple[int, int], float]]:
        return super().get(self._canonical_cached(key))

    def put(self, key: Hashable, mapping: Dict[Tuple[int, int], float]) -> None:
        super().put(self._canonical_cached(key), mapping)

    def stats(self) -> Dict[str, float]:
        """Cache-traffic summary (see :meth:`PenaltyCache.stats`) plus
        persistence details — how many entries were served from disk and
        whether a load failure was swallowed.  A campaign sizes
        ``max_entries`` from these numbers: evictions with
        ``evicted_entry_hits`` mean the bound is discarding still-useful
        situations; a large ``entries_never_hit`` share (relative to
        ``loaded_entries``) means the file carries dead weight."""
        summary = super().stats()
        summary["loaded_entries"] = self.loaded_entries
        summary["load_failed"] = 1.0 if self.load_error else 0.0
        return summary

    # ----------------------------------------------------------- persistence
    @classmethod
    def load(cls, path: Union[str, Path],
             max_entries: int = 65536) -> "PersistentPenaltyCache":
        """Open a cache file; a missing or corrupted file yields an empty cache."""
        cache = cls(path=path, max_entries=max_entries)
        target = Path(path)
        if not target.exists():
            return cache
        try:
            data = json.loads(target.read_text(encoding="utf-8"))
            if not isinstance(data, dict) or data.get("version") != _FORMAT_VERSION:
                raise ValueError(f"unsupported cache format: {data.get('version')!r}"
                                 if isinstance(data, dict) else "not a mapping")
            for entry in data["entries"]:
                key = entry["key"]
                if not isinstance(key, str):
                    raise ValueError("cache entry key is not a string")
                mapping = {
                    (int(src), int(dst)): float(value)
                    for src, dst, value in entry["penalties"]
                }
                # keys in the file are already canonical: bypass re-encoding
                PenaltyCache.put(cache, key, mapping)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            cache.clear()
            cache.load_error = f"{type(exc).__name__}: {exc}"
            return cache
        cache.loaded_entries = len(cache)
        return cache

    def save(self, path: Union[str, Path, None] = None) -> int:
        """Atomically write every entry to ``path`` (default: :attr:`path`).

        Returns the number of entries written.
        """
        target = Path(path) if path is not None else self.path
        if target is None:
            raise GraphError("no path given and the cache was created without one")
        entries = []
        for key, mapping in self.items():
            entries.append({
                "key": key,
                "penalties": [[src, dst, value]
                              for (src, dst), value in sorted(mapping.items())],
            })
        payload = {"version": _FORMAT_VERSION, "entries": entries}
        with atomic_write(target) as handle:
            json.dump(payload, handle)
            handle.write("\n")
        return len(entries)
