"""A Hibernate-like session: load_all, lazy many-to-one loads, first-level cache.

:class:`EntityObject` wraps one row and exposes mapped columns as attributes.
Accessing a many-to-one attribute (``order.customer``) triggers a lazy load:
if the target row is not in the session's first-level cache, the session
issues a point-lookup query over the connection — this is exactly the N+1
select behaviour of program P0 in the paper.  Once loaded, the row is cached
by primary key, which is what makes P0 competitive with P1 on a fast local
network at high Order cardinality (Experiment 2's observation).

Both :meth:`Session.get` and the lazy-load path go through the connection's
prepared point-lookup protocol (:meth:`SimulatedConnection.execute_lookup`):
one :class:`repro.db.database.PreparedStatement` per ``(table, key_column)``
serves every lookup, so the N+1 loop parses and estimates its query shape
once instead of rebuilding and re-parsing SQL text per iteration.

When the application *knows* it is about to walk a relation across a whole
collection (the P0 loop), :meth:`Session.prefetch` batches every missing
target row into **one pipelined round trip** — the N+1 pattern collapses to
1+1 on the network while the per-object lazy loads become first-level-cache
hits.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

from repro.net.connection import SimulatedConnection
from repro.orm.mapping import EntityDefinition, MappingRegistry


class EntityObject:
    """A mapped row: column values as attributes plus lazy relations.

    The instance ``__dict__`` *is* the entity's bare-column row, adopted
    from the session without a copy, so a column read is a plain attribute
    lookup and ``__getattr__`` runs only for relations and unknown names.
    ``row``, ``id``, ``entity_name`` and ``get`` are data descriptors, so
    they win over a mapped column of the same name, which stays readable
    through ``row`` and ``get``.
    """

    __slots__ = ("_session", "_definition", "__dict__")

    def __init__(
        self, session: "Session", definition: EntityDefinition, row: dict
    ) -> None:
        self._session = session
        self._definition = definition
        self.__dict__ = row

    @property
    def row(self) -> dict:
        """The underlying row values (a copy is not taken; do not mutate)."""
        return self.__dict__

    @property
    def entity_name(self) -> str:
        """Name of the mapped entity."""
        return self._definition.entity

    @property
    def id(self) -> Any:
        """Primary key value of this object."""
        return self.__dict__.get(self._definition.id_column)

    def __getattr__(self, name: str) -> Any:
        definition = object.__getattribute__(self, "_definition")
        if definition.has_relation(name):
            session = self._session
            return session._load_relation(self, definition.relation(name))
        raise AttributeError(
            f"{definition.entity} object has no attribute or mapped column "
            f"{name!r}"
        )

    def get(self, name: str, default: Any = None) -> Any:
        """Dictionary-style access to a mapped column."""
        return self.__dict__.get(name, default)

    # A property, so a mapped column named ``get`` cannot shadow the method.
    get = property(get.__get__)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.entity_name} id={self.id!r}>"


class Session:
    """A unit-of-work session over a simulated connection."""

    def __init__(
        self, registry: MappingRegistry, connection: SimulatedConnection
    ) -> None:
        self.registry = registry
        self.connection = connection
        # First-level cache: (entity, primary key) -> EntityObject.
        self._cache: dict[tuple[str, Any], EntityObject] = {}
        self.lazy_loads = 0
        self.cache_hits = 0
        #: pipelined prefetch batches issued (each is one round trip).
        self.prefetches = 0

    # -- loading ---------------------------------------------------------

    def load_all(self, entity: str) -> list[EntityObject]:
        """Fetch every row of the entity's table (Hibernate's loadAll)."""
        definition = self.registry.entity(entity)
        result = self.connection.execute_query(
            f"select * from {definition.table}"
        )
        objects = []
        for row in result.rows:
            obj = self._materialise(definition, row)
            objects.append(obj)
        return objects

    def get(self, entity: str, key: Any) -> Optional[EntityObject]:
        """Fetch one object by primary key, using the first-level cache."""
        definition = self.registry.entity(entity)
        cached = self._cache.get((entity, key))
        if cached is not None:
            self.cache_hits += 1
            return cached
        result = self.connection.execute_lookup(
            definition.table, definition.id_column, key
        )
        if not result.rows:
            return None
        return self._materialise(definition, result.rows[0])

    def execute_query(self, sql: str, params: Iterable[Any] = ()) -> list[dict]:
        """Run a native SQL query (Hibernate SQL query API); returns row dicts."""
        result = self.connection.execute_query(sql, tuple(params))
        return result.rows

    def prefetch(
        self, objects: Iterable[EntityObject], relation_name: str
    ) -> int:
        """Batch-load one relation for many objects in a single round trip.

        Collects the distinct foreign-key values of ``relation_name`` across
        ``objects`` that are not yet in the first-level cache, ships the
        point lookups through one :meth:`SimulatedConnection.pipeline` batch
        (one network round trip instead of one per miss), and caches every
        fetched target.  Subsequent lazy accesses (``order.customer``) are
        then cache hits.  Returns the number of rows fetched.
        """
        misses: list[Any] = []
        seen: set[Any] = set()
        relation = None
        target_def = None
        for obj in objects:
            definition = obj._definition
            if relation is None:
                relation = definition.relation(relation_name)
                target_def = self.registry.entity(relation.target_entity)
            fk_value = obj.get(relation.join_column)
            if fk_value is None or fk_value in seen:
                continue
            seen.add(fk_value)
            if (relation.target_entity, fk_value) not in self._cache:
                misses.append(fk_value)
        if not misses:
            return 0
        statement = self.connection.lookup_statement(
            target_def.table, relation.target_key_column
        )
        with self.connection.pipeline() as pipe:
            handles = [
                pipe.execute_prepared(statement, (fk_value,))
                for fk_value in misses
            ]
        fetched = 0
        for handle in handles:
            if handle.rows:
                self._materialise(target_def, handle.rows[0])
                fetched += 1
        self.prefetches += 1
        return fetched

    # -- internals -------------------------------------------------------

    def _materialise(
        self, definition: EntityDefinition, row: dict
    ) -> EntityObject:
        key = row.get(definition.id_column)
        cached = self._cache.get((definition.entity, key))
        if cached is not None:
            return cached
        # A fetched row is the database's own copy, keyed by bare column
        # names: the object adopts it as is.
        obj = EntityObject(self, definition, row)
        if key is not None:
            self._cache[(definition.entity, key)] = obj
        return obj

    def _load_relation(
        self, source: EntityObject, relation
    ) -> Optional[EntityObject]:
        """Lazily load a many-to-one target, hitting the cache first."""
        target_def = self.registry.entity(relation.target_entity)
        fk_value = source.__dict__.get(relation.join_column)
        if fk_value is None:
            return None
        cached = self._cache.get((relation.target_entity, fk_value))
        if cached is not None:
            self.cache_hits += 1
            return cached
        self.lazy_loads += 1
        result = self.connection.execute_lookup(
            target_def.table, relation.target_key_column, fk_value
        )
        if not result.rows:
            return None
        return self._materialise(target_def, result.rows[0])

    # -- cache management ------------------------------------------------

    def clear(self) -> None:
        """Evict the first-level cache and reset counters (new transaction)."""
        self._cache.clear()
        self.lazy_loads = 0
        self.cache_hits = 0
        self.prefetches = 0

    @property
    def cache_size(self) -> int:
        """Number of objects currently held in the first-level cache."""
        return len(self._cache)
