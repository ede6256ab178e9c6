"""vMPI: the VCE's architecture-independent message-passing library.

"Communication between tasks will take place either through primitives
defined in the MPI or via object-oriented method invocation semantics. The
compilation manager will provide a number of different libraries that will
map MPI to communication tools available in the system." (§4.2)

Task programs are Python generators that *yield* syscall objects
(:mod:`repro.vmpi.api`); the runtime's task executor interprets them. On
top of the two point-to-point primitives (``Send``/``Recv``) this package
builds the MPI collectives as generator subroutines
(:mod:`repro.vmpi.collectives`) — use them with ``yield from``:

    def worker(ctx):
        yield Compute(ctx.params["chunk"])
        total = yield from allreduce(ctx, my_value, op=sum)

This is exactly the layering the paper describes: MPI primitives mapped
onto channels, so that "the runtime system will be able to monitor,
redirect, and move connections between tasks".
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "api": (
        "ANY",
        "Checkpoint",
        "Compute",
        "Emit",
        "ReadFile",
        "Recv",
        "Send",
        "Sleep",
        "WriteFile",
    ),
    "communicator": ("Communicator", "TaskContext"),
    "collectives": (
        "allgather",
        "allreduce",
        "alltoall",
        "barrier",
        "bcast",
        "gather",
        "reduce",
        "scatter",
        "sendrecv",
    ),
})
