"""The VCE application description language (§5).

The prototype's input is a script like the weather-forecasting example::

    ASYNC 2 "/apps/snow/collector.vce"
    WORKSTATION 1 "/apps/snow/usercollect.vce"
    SYNC 1 "/apps/snow/predictor.vce"
    LOCAL "/apps/snow/display.vce"

"As VCE development proceeds, the vocabulary supported in the application
description will become more powerful. For instance constructs like
'ASYNC 5-' to indicate five or less remote instances are required,
'SYNC 5,10' to indicate between five and 10 remote instances and so on.
Conditional statements and statements describing the communication
requirements of the application will also be added."

This package implements the full planned vocabulary:

- directives by problem class (``ASYNC``/``SYNC``/``LOOSESYNC``: the class
  is mapped to a machine class through the compilation manager's table) or
  directly by machine class (``WORKSTATION``/``SIMD``/``MIMD``/``VECTOR``),
  plus ``LOCAL``;
- instance-count forms ``N``, ``N-`` (at most N), ``N,M`` (between);
- ``CHANNEL name FROM "a" TO "b" [VOLUME n]`` communication requirements;
- ``IF <expr> THEN ... [ELSE ...] ENDIF`` conditionals with the
  ``AVAILABLE(CLASS)`` builtin and ``SET``-defined variables;
- ``PRIORITY n`` to set the application's base scheduling priority.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "lexer": ("Token", "TokenKind", "tokenize"),
    "ast": (
        "ApplicationDescription",
        "ChannelSpec",
        "Condition",
        "Directive",
        "ModuleDirective",
        "PrioritySpec",
        "SetVar",
    ),
    "parser": ("parse_script",),
    "interp": ("Environment", "interpret"),
})
