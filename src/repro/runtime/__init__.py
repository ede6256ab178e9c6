"""The EXM runtime: task execution, applications, and the runtime manager.

"The runtime manager will be responsible for managing the execution of a
VCE application. The basic service provided by this level is selecting the
'best' machines on which to run the various tasks, loading the
corresponding binaries, and initiating execution. ... While the application
is running this layer will migrate tasks to less loaded machines, and
provide fault tolerance, if required or requested by the user." (§3.1.2)

- :class:`TaskInstance` — one running copy of a task: a simulated process
  that drives the task's program generator, interpreting the vMPI syscalls
  (compute under background load and co-resident contention, channel sends
  and receives, checkpoints, file I/O).
- :class:`CheckpointStore` — the checkpoint records of §4.4.
- :class:`Application` — bookkeeping for one submitted task graph.
- :class:`RuntimeManager` — dispatch according to a placement, precedence
  tracking, data staging between hosts, completion/termination, and the
  hooks migration and load-balancing policies act through.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "checkpoints": ("CheckpointStore", "CheckpointRecord"),
    "instance": ("InstanceState", "TaskInstance", "live_instances"),
    "app": ("Application", "InstanceRecord", "AppStatus"),
    "manager": ("Placement", "RuntimeManager"),
})
