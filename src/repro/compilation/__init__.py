"""The compilation manager (EXM, §3.1.2 / §4.1).

"The compilation manager will be responsible for preparing the executable
code for each component of the application. ... maps the architecture
independent computation and communication requirements of VCE tasks to
machines that are actually available in the VCE network. ... In most cases
several different machines may be used to execute a particular task. In
this case the compilation manager prepares executable images for all
possible machines. ... By preparing all possible executables before an
application is actually run, the runtime manager will be able to move a
given task among various machine architectures without the need to compile
a task while the application is running."

Pieces:

- :data:`DEFAULT_CLASS_MAP` — problem-architecture → machine-class
  preference (SYNC→SIMD first, etc.), the "low-level counterparts" mapping.
- :class:`Compiler` / :class:`CompilerRegistry` — per (language, class)
  compilers with modelled compile times.
- :class:`Binary` / :class:`BinaryCache` — prepared executables keyed by
  (task, machine class); groups are object-code compatible (§5).
- :class:`CompilationManager` — planning and the runtime-facing
  ``load_delay`` (zero when a binary is prepared; compile-on-demand time
  otherwise — the cost anticipatory compilation removes).
- :class:`AnticipatoryEngine` — §4.5: uses idle machines to compile
  not-yet-dispatchable modules and replicate their input files.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "classes": ("DEFAULT_CLASS_MAP", "candidate_classes"),
    "compiler": ("Binary", "Compiler", "CompilerRegistry", "default_registry"),
    "manager": ("BinaryCache", "CompilationManager", "CompilationPlan", "CompileJob"),
    "anticipatory": ("AnticipatoryEngine",),
})
