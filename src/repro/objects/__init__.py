"""Object-oriented method invocation via proxies (Figure 2, §4.2).

"Applications designed using the object-oriented paradigm can be viewed as
collections of independent entities called objects. ... For objects
residing on different processors ... the client object and a server proxy
would be placed on one processor, and the server object and a client proxy
on the other. The role of the proxy is to receive messages, translate
information into architecture independent form, and forward the result to
the corresponding proxy on the other processor. ... Proxies will be
generated by the compilation manager when needed, using a tool such as the
IDL compiler provided by the Object Management Group. The generated code
will use VCE channels to exchange information with proxies running on
other machines."

Pieces:

- :mod:`repro.objects.idl` — a small OMG-IDL-flavoured interface language
  and its parser.
- :mod:`repro.objects.marshal` — architecture-independent (XDR-like)
  encoding size estimation.
- :mod:`repro.objects.proxy` — :class:`ClientStub` (the client-side proxy:
  ``yield from stub.invoke(...)`` inside a task program) and :func:`serve`
  (the server-side dispatch loop), both riding VCE channels — so the
  runtime can migrate object servers and redirect their connections like
  any other task.
- :func:`generate_stub_source` — the "generated code": emits Python source
  for a typed client stub, standing in for the OMG IDL compiler.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "idl": ("Interface", "Method", "Param", "parse_idl"),
    "marshal": ("conversion_seconds", "wire_size"),
    "proxy": (
        "ClientStub",
        "MethodCall",
        "MethodReply",
        "RemoteError",
        "generate_stub_source",
        "serve",
    ),
})
