"""The ``repro`` subcommands, one module per command family: ``paper``,
``verify``, ``faults``, ``traffic``, ``obs`` and ``bench``.

Each family's ``register(sub)`` adds its subparsers, arguments and
runners; runners import what they run inside their bodies, so building
the parser stays cheap.  Shared flags come from :mod:`.common`, live
telemetry from :mod:`.telemetry`.
"""
