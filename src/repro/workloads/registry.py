"""First-class workload registry: spec strings in, packed traces out.

Historically every entry point addressed workloads by bare surrogate
name (``"mcf"``), which made anything that is *not* one of the 14 SPEC
surrogates second-class: an imported address trace or a synthesized
datacenter stream could be fed to :class:`~repro.sim.simulator.Simulator`
by hand but never named in a CLI, a suite matrix, or a persistent-store
key.  This module is the workload twin of
:mod:`repro.cache.replacement.registry`:

* :func:`register_workload` — decorator adding a name to the registry.
  Works on factory functions ``factory(*args, **kwargs) -> Workload``
  and directly on :class:`Workload` subclasses.
* :func:`parse_workload_spec` — resolve a spec string (or pass through
  a ready-made :class:`Workload` instance) into a :class:`Workload`.
* :func:`available_workloads` — sorted registered names, quoted by the
  unknown-spec error message.
* :func:`canonical_workload_spec` / :func:`workload_fingerprint` — the
  canonical spelling and content hash the result store keys on, so
  composed and imported workloads cache exactly like surrogates.
* :func:`build_workload` — one-call ``spec -> PackedTrace`` for
  in-repo callers.

The spec grammar is paren-aware and recursive::

    mcf                               # a registered leaf workload
    mcf(seed=7)                       # keyword arguments
    champsim:/path/to/trace.xz        # path shorthand for importers
    cdf(web_search,ops=2e6,seed=7)    # generator with arguments
    interleave(mcf,art,quantum=64)    # operators nest arbitrarily
    splice(mcf@0.5,ammp)              # @FRAC clips a workload
    scale(twolf,0.25)

Comma-separated *lists* of specs are split with
:func:`repro.cache.replacement.registry.split_specs` (re-exported here),
exactly like policy lists.
"""

from __future__ import annotations

import hashlib
import inspect
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.cache.replacement.registry import split_specs  # noqa: F401
from repro.trace.packed import PackedTrace

#: factory signature: ``factory(*args, **kwargs) -> Workload``.
WorkloadFactory = Callable[..., "Workload"]

_REGISTRY: Dict[str, WorkloadFactory] = {}
_BUILTIN: set = set()

#: Bumped on every (un)registration; invalidates the parse cache.
_REGISTRY_VERSION = 0

_PARSE_CACHE: Dict[Tuple[int, str], "Workload"] = {}
_PARSE_CACHE_MAX = 256

#: Characters with grammar meaning; forbidden in registered names.
_SPECIALS = "(),=@:"


class UnknownWorkloadError(KeyError, ValueError):
    """Raised for a spec naming no registered workload.

    Subclasses both :exc:`KeyError` (what the surrogate builder raises
    for unknown benchmarks) and :exc:`ValueError` (what the
    policy registry raises), so either ``except`` clause keeps working.
    """

    def __str__(self) -> str:  # KeyError would repr() the message
        return str(self.args[0]) if self.args else ""


class WorkloadSpecError(ValueError):
    """Raised for a syntactically malformed workload spec."""


class Workload:
    """A named, reproducible trace recipe.

    Subclasses implement :meth:`build` (produce the trace at a length
    multiplier) and :attr:`canonical` (the normalized spec string the
    trace memo and the persistent store key on).  :meth:`fingerprint` hashes
    the *content* behind the recipe — trace file bytes, user factory
    source — so cached results invalidate when the inputs change even
    though the spec string does not.
    """

    def build(self, scale: float = 1.0) -> PackedTrace:
        """Produce the packed trace at ``scale`` (deterministic)."""
        raise NotImplementedError

    @property
    def canonical(self) -> str:
        """The normalized spec string; equal recipes spell equally."""
        raise NotImplementedError

    def fingerprint(self) -> str:
        """Content hash of what backs the recipe (``"builtin"`` when
        the repro package hash already covers it)."""
        return getattr(self, "_registry_fingerprint", "builtin")

    def __repr__(self) -> str:
        return "%s(%r)" % (type(self).__name__, self.canonical)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Workload):
            return NotImplemented
        return self.canonical == other.canonical

    def __hash__(self) -> int:
        return hash(self.canonical)


def register_workload(
    name: str, *, overwrite: bool = False
) -> Callable[[WorkloadFactory], WorkloadFactory]:
    """Class/function decorator registering ``name`` as a workload spec.

    A registered *function* is called as ``factory(*args, **kwargs)``
    with spec arguments already resolved: nested specs arrive as
    :class:`Workload` instances, everything else as int/float/str.  A
    registered :class:`Workload` *subclass* is constructed the same
    way::

        @register_workload("pointer-chase")
        class PointerChase(Workload):
            def __init__(self, nodes=4096, seed=0): ...

        run_suite(benchmarks=("mcf", "pointer-chase(8192,seed=3)"))
    """
    key = name.strip().lower()
    if not key or any(c in key for c in _SPECIALS) or key.split() != [key]:
        raise ValueError("invalid workload name %r" % (name,))

    def decorator(factory: WorkloadFactory) -> WorkloadFactory:
        global _REGISTRY_VERSION
        if key in _REGISTRY and not overwrite:
            raise ValueError(
                "workload %r is already registered; pass overwrite=True "
                "to replace it" % (key,)
            )
        _REGISTRY[key] = factory
        _REGISTRY_VERSION += 1
        return factory

    return decorator


def available_workloads() -> List[str]:
    """Sorted names accepted by :func:`parse_workload_spec`."""
    return sorted(_REGISTRY)


def _coerce(arg: str) -> Union[int, float, str]:
    for cast in (int, float):
        try:
            return cast(arg)
        except ValueError:
            pass
    return arg


def format_number(value: float) -> str:
    """Canonical spelling of a numeric spec argument (``2e6`` →
    ``2000000``, ``0.50`` → ``0.5``)."""
    number = float(value)
    if number == int(number) and abs(number) < 1e16:
        return str(int(number))
    return repr(number)


def _source_fingerprint(factory) -> str:
    try:
        source = inspect.getsource(factory)
    except (OSError, TypeError):
        source = repr(factory)
    return hashlib.sha256(source.encode("utf-8")).hexdigest()[:16]


class _Parser:
    """Recursive-descent parser over the spec grammar.

    Resolution happens during the parse: leaf tokens naming registered
    workloads become :class:`Workload` instances (via their factory),
    other leaf tokens become coerced scalars, and call forms invoke the
    registered factory with the resolved argument list.
    """

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def error(self, message: str) -> "WorkloadSpecError":
        return WorkloadSpecError(
            "malformed workload spec %r: %s (at position %d)"
            % (self.text, message, self.pos)
        )

    def peek(self) -> str:
        self.skip_space()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def skip_space(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def token(self) -> str:
        """Consume a bare token (up to a special character)."""
        self.skip_space()
        start = self.pos
        while (
            self.pos < len(self.text)
            and self.text[self.pos] not in _SPECIALS
        ):
            self.pos += 1
        token = self.text[start:self.pos].strip()
        if not token:
            raise self.error("expected a name or value")
        return token

    def path(self) -> str:
        """Consume a raw path: everything up to a top-level ``,``/``)``."""
        start = self.pos
        while (
            self.pos < len(self.text)
            and self.text[self.pos] not in ",)"
        ):
            self.pos += 1
        path = self.text[start:self.pos].strip()
        if not path:
            raise self.error("expected a path after ':'")
        return path

    def value(self):
        """One argument: a nested workload, a scalar, or a kwarg pair."""
        head = self.token()
        if self.peek() == "=":
            self.pos += 1
            return ("=", head.lower(), self.value())
        node = self.call_or_leaf(head)
        while self.peek() == "@":
            self.pos += 1
            node = self.clip(node)
        return node

    def call_or_leaf(self, head: str):
        if self.peek() == ":":
            self.pos += 1
            return self.call(head, [self.path()], {})
        if self.peek() == "(":
            self.pos += 1
            args: list = []
            kwargs: dict = {}
            if self.peek() == ")":
                self.pos += 1
            else:
                while True:
                    item = self.value()
                    if isinstance(item, tuple) and item[0] == "=":
                        kwargs[item[1]] = item[2]
                    elif kwargs:
                        raise self.error(
                            "positional argument after keyword argument"
                        )
                    else:
                        args.append(item)
                    char = self.peek()
                    if char == ",":
                        self.pos += 1
                        continue
                    if char == ")":
                        self.pos += 1
                        break
                    raise self.error("expected ',' or ')'")
            return self.call(head, args, kwargs)
        name = head.lower()
        factory = _REGISTRY.get(name)
        if factory is None:
            return _coerce(head)
        return self.call(name, [], {})

    def call(self, head: str, args: list, kwargs: dict):
        name = head.lower()
        factory = _REGISTRY.get(name)
        if factory is None:
            raise UnknownWorkloadError(
                "unknown workload %r; available workloads: %s"
                % (head, ", ".join(available_workloads()))
            )
        try:
            built = factory(*args, **kwargs)
        except (TypeError, ValueError) as exc:
            if isinstance(exc, (UnknownWorkloadError, WorkloadSpecError)):
                raise
            raise WorkloadSpecError(
                "workload %r rejected its arguments in %r: %s"
                % (name, self.text, exc)
            ) from exc
        if not isinstance(built, Workload):
            raise TypeError(
                "workload factory %r returned %r, not a Workload"
                % (name, built)
            )
        if name not in _BUILTIN:
            try:
                built._registry_fingerprint = _source_fingerprint(factory)
            except AttributeError:
                pass  # __slots__ class; it must override fingerprint()
        return built

    def clip(self, node) -> Workload:
        token = self.token()
        try:
            fraction = float(token)
        except ValueError:
            raise self.error("'@' needs a numeric fraction, got %r" % token)
        if not isinstance(node, Workload):
            raise UnknownWorkloadError(
                "unknown workload %r; available workloads: %s"
                % (node, ", ".join(available_workloads()))
            )
        from repro.workloads.compose import ClipWorkload

        return ClipWorkload(node, fraction)


def parse_workload_spec(spec) -> Workload:
    """Resolve ``spec`` into a :class:`Workload`.

    ``spec`` may be a spec string (see the module docstring for the
    grammar) or a ready-made :class:`Workload` instance, which passes
    through unchanged.  Raises :exc:`UnknownWorkloadError` for names
    the registry does not know and :exc:`WorkloadSpecError` for
    syntactically malformed specs.  Parsing a registered spec is
    memoized, so hot paths (trace memo and store keys) pay a dict
    lookup.
    """
    if not isinstance(spec, str):
        if isinstance(spec, Workload):
            return spec
        raise UnknownWorkloadError(
            "workload spec must be a string or a Workload; got %r" % (spec,)
        )
    cache_key = (_REGISTRY_VERSION, spec)
    cached = _PARSE_CACHE.get(cache_key)
    if cached is not None:
        return cached
    parser = _Parser(spec)
    node = parser.value()
    parser.skip_space()
    if parser.pos != len(spec):
        raise parser.error("unexpected trailing text")
    if isinstance(node, tuple) and node and node[0] == "=":
        raise parser.error("a bare keyword argument is not a workload")
    if not isinstance(node, Workload):
        raise UnknownWorkloadError(
            "unknown workload %r; available workloads: %s"
            % (spec, ", ".join(available_workloads()))
        )
    if len(_PARSE_CACHE) >= _PARSE_CACHE_MAX:
        _PARSE_CACHE.clear()
    _PARSE_CACHE[cache_key] = node
    return node


def canonical_workload_spec(spec) -> str:
    """The canonical spelling of ``spec`` (``" MCF "`` → ``"mcf"``,
    ``"interleave( mcf , art )"`` → ``"interleave(mcf,art)"``)."""
    return parse_workload_spec(spec).canonical


def workload_fingerprint(spec) -> str:
    """Content hash of what backs ``spec``.

    Surrogates and built-in generators are covered by the repro package
    hash already, so they fingerprint to ``"builtin"``.  Imported
    traces hash their file bytes and user-registered factories hash
    their source, so the persistent result store invalidates when the
    workload's actual content changes under an unchanged spec string.
    """
    return parse_workload_spec(spec).fingerprint()


def build_workload(spec, scale: float = 1.0) -> PackedTrace:
    """One-call ``spec -> PackedTrace`` (the registry's front door)."""
    return parse_workload_spec(spec).build(scale)


# -- built-in workloads ---------------------------------------------------
#
# Factories import lazily: the importer/generator/composition modules
# pull in the trace layer, and eager imports here would make importing
# repro.workloads pay for all of them up front.


def _builtin(name: str) -> Callable[[WorkloadFactory], WorkloadFactory]:
    def decorator(factory: WorkloadFactory) -> WorkloadFactory:
        register_workload(name)(factory)
        _BUILTIN.add(name)
        return factory

    return decorator


class SurrogateWorkload(Workload):
    """One of the 14 SPEC CPU2000 surrogates, by name."""

    def __init__(self, name: str, seed: Optional[int] = None) -> None:
        from repro.workloads import spec2000

        if name not in spec2000.SPECS:
            raise UnknownWorkloadError(
                "unknown benchmark %r; choose from %s"
                % (name, spec2000.BENCHMARKS)
            )
        self.name = name
        self.seed = None if seed is None else int(seed)

    @property
    def canonical(self) -> str:
        if self.seed is None:
            return self.name
        return "%s(seed=%d)" % (self.name, self.seed)

    def build(self, scale: float = 1.0) -> PackedTrace:
        from repro.workloads import spec2000

        return spec2000.surrogate_trace(self.name, scale=scale, seed=self.seed)


def _register_surrogates() -> None:
    from repro.workloads import spec2000

    for benchmark in spec2000.BENCHMARKS:
        def factory(seed=None, _name=benchmark):
            return SurrogateWorkload(_name, seed=seed)

        _builtin(benchmark)(factory)


_register_surrogates()


@_builtin("champsim")
def _build_champsim(path, gap=None, limit=None):
    from repro.workloads.compose import ImportedWorkload

    return ImportedWorkload("champsim", str(path), gap=gap, limit=limit)


@_builtin("lackey")
def _build_lackey(path, limit=None):
    from repro.workloads.compose import ImportedWorkload

    return ImportedWorkload("lackey", str(path), limit=limit)


@_builtin("trace")
def _build_trace_file(path, limit=None):
    from repro.workloads.compose import ImportedWorkload

    return ImportedWorkload("trace", str(path), limit=limit)


@_builtin("cdf")
def _build_cdf(distribution="web_search", **kwargs):
    from repro.workloads.datacenter import CDFWorkload

    return CDFWorkload(str(distribution), **kwargs)


@_builtin("interleave")
def _build_interleave(*children, quantum=64):
    from repro.workloads.compose import InterleaveWorkload

    return InterleaveWorkload(children, quantum=int(quantum))


@_builtin("splice")
def _build_splice(*children):
    from repro.workloads.compose import SpliceWorkload

    return SpliceWorkload(children)


@_builtin("scale")
def _build_scale(child, factor):
    from repro.workloads.compose import ScaleWorkload

    return ScaleWorkload(child, float(factor))


__all__ = [
    "Workload",
    "SurrogateWorkload",
    "register_workload",
    "parse_workload_spec",
    "available_workloads",
    "canonical_workload_spec",
    "workload_fingerprint",
    "build_workload",
    "split_specs",
    "format_number",
    "UnknownWorkloadError",
    "WorkloadSpecError",
]
