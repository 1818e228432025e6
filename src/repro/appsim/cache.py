"""Client-side query-result cache (the EhCache/Memcache stand-in).

Rule N1 in the paper rewrites iterative lookup queries into a *prefetch*
followed by local cache lookups.  The pseudo-functions it uses are
``cacheByColumn(collection, column)`` and ``lookupCache(key)``; this module
provides them as :class:`ClientCache.cache_by_column` and
:class:`ClientCache.lookup`.  The cache is keyed by (region name, key value),
where the region defaults to the column the collection was cached on.

Building a region is the client-side half of N1's trade: one fetch of the
whole relation replaces N lookup round trips, but every fetched row is then
keyed on the client.  Rows from ``execute_query`` are plain ``dict``s, so
the population methods classify their input once per call and, when every
row is a ``dict``, read ``row.get(column)`` inline with no per-row helper
call or ``typing.Mapping`` check (an ABC ``isinstance`` costs ~10× the
``dict.get``).  Other mappings and ORM entity objects take the
:func:`_value_of` path; both paths skip ``None`` keys, let the last row win
in :meth:`ClientCache.cache_by_column` and keep input order within a group.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Optional


class CacheError(Exception):
    """Raised on lookups against a region that was never populated."""


class ClientCache:
    """A simple in-process cache of query results keyed by a column value."""

    def __init__(self) -> None:
        self._regions: dict[str, dict[Any, dict]] = {}
        self.lookups = 0
        self.hits = 0

    # -- population ------------------------------------------------------

    def cache_by_column(
        self,
        rows: Iterable[Mapping],
        column: str,
        region: Optional[str] = None,
    ) -> int:
        """Cache ``rows`` keyed by ``column``; returns the number cached.

        ``rows`` may be plain dicts or ORM entity objects exposing ``get``.
        Rows with a ``None`` key are skipped.  When several rows share a key
        the last one wins (the paper's usage caches by a unique column).
        """
        region = region or column
        store = self._regions.setdefault(region, {})
        rows, only_dicts = _classify(rows)
        count = 0
        for row in rows:
            key = row.get(column) if only_dicts else _value_of(row, column)
            if key is None:
                continue
            store[key] = row
            count += 1
        return count

    def cache_groups_by_column(
        self,
        rows: Iterable[Mapping],
        column: str,
        region: Optional[str] = None,
    ) -> int:
        """Cache rows grouped by ``column`` (each key maps to a list of rows).

        Useful when the lookup key is not unique (e.g. all order lines of an
        order); ``lookup_group`` retrieves the list.
        """
        region = region or f"{column}#group"
        store = self._regions.setdefault(region, {})
        rows, only_dicts = _classify(rows)
        count = 0
        for row in rows:
            key = row.get(column) if only_dicts else _value_of(row, column)
            if key is None:
                continue
            bucket = store.get(key)
            if bucket is None:
                store[key] = [row]
            else:
                bucket.append(row)
            count += 1
        return count

    # -- lookups ---------------------------------------------------------

    def lookup(self, key: Any, region: str) -> Optional[Any]:
        """Fetch the row cached under ``key`` in ``region`` (or ``None``)."""
        self.lookups += 1
        store = self._regions.get(region)
        if store is None:
            raise CacheError(
                f"cache region {region!r} was never populated; populated "
                f"regions are {sorted(self._regions)}"
            )
        row = store.get(key)
        if row is not None:
            self.hits += 1
        return row

    def lookup_group(self, key: Any, region: str) -> list:
        """Fetch the list of rows cached under ``key`` in a grouped region."""
        self.lookups += 1
        store = self._regions.get(region)
        if store is None:
            raise CacheError(
                f"cache region {region!r} was never populated; populated "
                f"regions are {sorted(self._regions)}"
            )
        rows = store.get(key, [])
        if rows:
            self.hits += 1
        return rows

    def has_region(self, region: str) -> bool:
        """Return True if ``region`` has been populated."""
        return region in self._regions

    def region_size(self, region: str) -> int:
        """Number of keys cached in ``region`` (0 if absent)."""
        return len(self._regions.get(region, {}))

    def clear(self) -> None:
        """Drop all cached data and reset counters."""
        self._regions.clear()
        self.lookups = 0
        self.hits = 0


_DICT_ONLY = frozenset((dict,))


def _classify(rows: Iterable[Any]) -> tuple[list, bool]:
    """``rows`` as a list, and whether every row is a plain ``dict``.

    One C-level pass over the row types, so the population loops never ask
    per row.
    """
    if type(rows) is not list:
        rows = list(rows)
    return rows, _DICT_ONLY.issuperset(map(type, rows))


def _value_of(row: Any, column: str) -> Any:
    """Read ``column`` from a dict-like row or an ORM entity object."""
    if type(row) is dict or isinstance(row, Mapping):
        return row.get(column)
    getter = getattr(row, "get", None)
    if callable(getter):
        return getter(column)
    return getattr(row, column, None)
