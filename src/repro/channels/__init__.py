"""Channels and ports — the VCE communication substrate (§4.2).

"A channel is a logical transport medium that connects possibly many tasks
sending and receiving messages. Channels are distinct from the tasks that
are connected to them, and thus readily support messaging directed to groups
and/or single tasks without requiring that clients use different forms of
message addressing ... The runtime system may split channels, interposing
other tasks between senders and receivers to deal with issues such as
authentication or data conversion. Channels will be connected to tasks
through ports. The runtime system will be responsible for the creation,
placement, and destruction of ports."

Key properties implemented here:

- group/individual transparency: ``Channel.send`` multicasts to every
  attached receive port; a directed send names a port, but the *sender call
  shape is identical*;
- splitting: interposer tasks (authentication, data conversion) are spliced
  between senders and receivers and charge per-message processing delay;
- redirection: ``rebind`` repoints a receive port at a new process address —
  the hook migration and redundant execution use to move endpoints without
  the peers noticing.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "port": ("Port", "PortDirection"),
    "channel": ("Channel", "ChannelDelivery", "ChannelManager"),
    "interpose": ("AuthenticationInterposer", "DataConversionInterposer", "Interposer"),
    "monitor": ("ChannelMonitor", "ChannelSample"),
})
