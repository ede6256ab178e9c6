"""Process migration (§4.4).

"To provide the most robust possible execution environment ... the
execution layer should implement a variety of process migration schemes."
The paper lists four; all are implemented here, with the cost/robustness
trade-offs it describes:

- :class:`RedundantExecutionManager` — "dispatch the same task on several
  idle machines. If one of those machines gets busy with other work then
  kill the incarnation of the redundant task on that machine. This achieves
  process migration with low overhead."
- :class:`CheckpointMigration` — "migratable jobs checkpoint regularly. To
  migrate a job kill it and start it somewhere else by instantiating the
  new incarnation from the checkpoint record. This is expensive and may
  require the cooperation of the task involved."
- :class:`DumpMigration` — "the old-fashioned way: dump the contents of
  the address space, copy it to a new machine and restart it. ... requires
  homogeneity."
- :class:`RecompileMigration` — "very expensive but may be very robust."

:class:`MigrationSelector` picks a scheme per migration "depend[ing] on the
state of the system and the characteristics of the task(s) involved".
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "base": ("MigrationContext", "MigrationScheme"),
    "redundant": ("RedundantExecutionManager",),
    "checkpoint": ("CheckpointMigration",),
    "dump": ("DumpMigration",),
    "failover": ("FailoverConfig", "FailoverManager"),
    "recompile": ("RecompileMigration",),
    "selector": ("MigrationSelector",),
})
