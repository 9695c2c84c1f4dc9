"""Containers a native replay hands back unbuilt, rebuilt on first read.

The native kernel (:mod:`repro.sim.native`) returns a run's bulk end
state — tag sets, the compulsory-miss set, the delta tracker's last
costs, policy side tables — as flat buffers.  Turning those into
Python objects costs about as much as the replay itself, and nothing
that produces a :class:`~repro.sim.stats.SimResult` reads them, so the
write-back takes each such attribute out of its owner's ``__dict__``
and leaves one shared restore callable behind under
:data:`RESTORE_ATTR`.

:class:`deferred` is the class-level hook, with the semantics of
:func:`functools.cached_property`: a non-data descriptor, so while the
instance dict holds the attribute — always, outside that window — a
read is a plain instance-dict hit and never reaches it.  Once the
attribute is absent, the first read of *any* deferred container runs
the restore, which rebuilds all of them at once and puts them back in
their owners' dicts; anyone inspecting after a native run sees exactly
what the generic loop would have left.

A container that starts empty can also be built on first read:
``deferred(fresh)`` calls ``fresh(instance)`` when the attribute is
absent and no restore is pending.  Tag sets are built this way, so a
fresh machine whose run goes native never builds the empty ones.
"""

from __future__ import annotations

from typing import Callable, Optional

#: Instance attribute holding the pending restore while containers are
#: deferred; the restore removes it from every owner.
RESTORE_ATTR = "_restore_end_state"


class deferred:
    """An instance attribute that may be deferred by a native run."""

    __slots__ = ("name", "fresh")

    def __init__(self, fresh: Optional[Callable] = None) -> None:
        self.name = None
        #: ``fresh(instance)`` builds the attribute's initial value.
        self.fresh = fresh

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        attrs = instance.__dict__
        restore = attrs.get(RESTORE_ATTR)
        if restore is not None:
            restore()
            return attrs[self.name]
        if self.fresh is None:
            raise AttributeError(
                "%r object has no attribute %r"
                % (type(instance).__name__, self.name)
            )
        value = attrs[self.name] = self.fresh(instance)
        return value
