"""Optional compiled extensions.

``replaykernel`` (the C replay kernel behind ``kernel="auto"``, plus
the native surrogate-trace generator) lives here once built — ``make
native`` or the optional ``build_ext`` in setup.py compile it in place.
The package must import cleanly when the extension is absent:
everything above it treats a failed ``from repro._native import
replaykernel`` as "no native kernel" and runs the generic loop.
"""
