"""Static analysis for the VCE: task-graph verification + determinism lint.

Two prongs (see ``docs/ANALYSIS.md`` for the full rule catalog):

- :mod:`repro.analysis.graphcheck` / :mod:`repro.analysis.feasibility` —
  a pass pipeline over :class:`~repro.taskgraph.TaskGraph` that rejects
  mis-wired applications *before* dispatch: cycles, dangling arcs,
  channel/protocol misuse, missing or contradictory SDM annotations, and
  problem-class → machine-class infeasibility against the compilation
  manager's database. Enforced pre-dispatch via ``VCEConfig.verify``
  (``off | warn | strict``) and surfaced by the ``repro lint`` CLI.

- :mod:`repro.analysis.detlint` — an AST lint over the source tree that
  flags determinism hazards (wall-clock calls, process-global randomness,
  unordered-set iteration in scheduling paths), protecting the
  byte-identical-replay guarantees the chaos harness depends on.

- :mod:`repro.analysis.hb` / :mod:`repro.analysis.protocol` /
  :mod:`repro.analysis.sanitize` — the dynamic prong: happens-before
  race detection over the backends' schedule-parent tree, protocol FSM
  conformance over event logs (live or saved run directories), and the
  tie-shuffle harness that classifies candidate races as real or benign.
  Surfaced by ``repro sanitize`` and ``repro lint --hb``.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "detlint": ("iter_python_files", "lint_paths", "lint_source", "load_baseline"),
    "feasibility": ("FeasibilityPass",),
    "graphcheck": ("DEFAULT_PASSES", "GraphVerifier", "verify_graph"),
    "hb": ("RACE_RULES", "HBTracker"),
    "protocol": (
        "DEFAULT_FSMS",
        "ProtocolFSM",
        "ProtocolMonitor",
        "check_protocol_sources",
        "check_records",
    ),
    "report": ("AnalysisReport", "Finding", "Severity"),
    "sanitize": ("SCENARIOS", "outcome_digest", "sanitize_scenario"),
})
