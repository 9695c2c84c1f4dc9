"""First-class policy registry: spec strings in, CARE engines out.

An if/elif ladder in the simulator used to map spec strings
(``"lru"``, ``"lin(4)"``, ``"sbar(simple-static,16)"``) to policy
objects, which made user policies second-class: a custom
:class:`ReplacementPolicy` could be passed as an *instance* but never
named in a CLI, a suite matrix, or a persistent-store key.  This module turns the ladder into a registry:

* :func:`register_policy` — decorator adding a name to the registry.
  Works on factory functions ``factory(config, *args) -> policy |
  controller | (fixed, controller)`` and directly on
  :class:`ReplacementPolicy` subclasses (spec arguments are coerced to
  int/float/str and passed to the constructor).
* :func:`parse_policy_spec` — resolve a spec string (or pass through a
  ready-made policy/controller instance) into the
  ``(fixed_policy, adaptive_controller)`` pair the simulator wires in.
* :func:`available_policies` — sorted registered names, quoted by the
  unknown-spec error message.
* :func:`split_specs` — the paren-aware comma splitter CLIs must use
  (``"lru,sbar(simple-static,16)"`` is two specs, not three).
* :func:`policy_fingerprint` — a content hash of the factory backing a
  spec, so the persistent result store can key on user-policy code.

Every built-in spec documented in ``docs/api.md`` is registered here;
the factories import their policy classes lazily because the sbar and
dip modules themselves import the cache package.
"""

from __future__ import annotations

import hashlib
import inspect
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.cache.replacement.base import ReplacementPolicy

#: factory signature: ``factory(config, *spec_args) -> built policy``.
PolicyFactory = Callable[..., object]

_REGISTRY: Dict[str, PolicyFactory] = {}
_BUILTIN: set = set()


class UnknownPolicyError(ValueError):
    """Raised for a spec naming no registered policy."""


def register_policy(
    name: str, *, overwrite: bool = False
) -> Callable[[PolicyFactory], PolicyFactory]:
    """Class/function decorator registering ``name`` as a policy spec.

    A registered *function* is called as ``factory(config, *args)``
    with the parenthesized spec arguments as raw strings.  A registered
    :class:`ReplacementPolicy` *subclass* is called as ``cls(*args)``
    with arguments coerced (int, then float, then str) — convenient for
    user policies whose constructors do not take a machine config::

        @register_policy("cost-biased-random")
        class CostBiasedRandomPolicy(ReplacementPolicy):
            def __init__(self, threshold=4): ...

        run_suite(policies=("lru", "cost-biased-random(7)"))
    """
    key = name.strip().lower()
    if not key or "(" in key or ")" in key or "," in key:
        raise ValueError("invalid policy name %r" % (name,))

    def decorator(factory: PolicyFactory) -> PolicyFactory:
        if key in _REGISTRY and not overwrite:
            raise ValueError(
                "policy %r is already registered; pass overwrite=True "
                "to replace it" % (key,)
            )
        _REGISTRY[key] = factory
        return factory

    return decorator


def available_policies() -> List[str]:
    """Sorted names accepted by :func:`parse_policy_spec`."""
    return sorted(_REGISTRY)


def split_specs(text: str) -> List[str]:
    """Split a comma-separated spec list, respecting parentheses.

    ``"lru,sbar(simple-static,16),lin(4)"`` →
    ``["lru", "sbar(simple-static,16)", "lin(4)"]``.  Empty fragments
    are dropped, so trailing commas are harmless.
    """
    parts: List[str] = []
    depth = 0
    current: List[str] = []
    for char in text:
        if char == "," and depth == 0:
            parts.append("".join(current))
            current = []
            continue
        if char == "(":
            depth += 1
        elif char == ")":
            depth = max(0, depth - 1)
        current.append(char)
    parts.append("".join(current))
    return [part.strip() for part in parts if part.strip()]


def _split_name_args(spec: str) -> Tuple[str, Tuple[str, ...]]:
    """``"sbar(simple-static,16)"`` → ``("sbar", ("simple-static", "16"))``."""
    name = spec.strip().lower()
    if "(" not in name:
        return name, ()
    if not name.endswith(")"):
        raise ValueError("malformed policy spec %r (unbalanced parens)" % spec)
    head, _, tail = name.partition("(")
    args = tuple(
        part.strip() for part in tail[:-1].split(",") if part.strip()
    )
    return head.strip(), args


def _coerce(arg: str) -> Union[int, float, str]:
    for cast in (int, float):
        try:
            return cast(arg)
        except ValueError:
            pass
    return arg


def parse_policy_spec(spec, config=None):
    """Resolve ``spec`` into ``(fixed_policy, adaptive_controller)``.

    Exactly one of the pair is non-None.  ``spec`` may be a registered
    spec string, a :class:`ReplacementPolicy` instance, or an adaptive
    controller (anything exposing ``policy_for_set``); instances pass
    through unchanged.  ``config`` defaults to the Table 2 baseline and
    is consulted by factories that size themselves to the cache
    geometry (sbar/dip leader-set counts).
    """
    if not isinstance(spec, str):
        if isinstance(spec, ReplacementPolicy):
            return spec, None
        if hasattr(spec, "policy_for_set"):
            return None, spec
        raise UnknownPolicyError(
            "policy spec must be a string, a ReplacementPolicy, or a "
            "controller with policy_for_set; got %r" % (spec,)
        )
    if config is None:
        from repro.config import baseline_config

        config = baseline_config()
    name, args = _split_name_args(spec)
    factory = _REGISTRY.get(name)
    if factory is None:
        raise UnknownPolicyError(
            "unknown policy spec %r; available policies: %s"
            % (spec, ", ".join(available_policies()))
        )
    if inspect.isclass(factory) and issubclass(factory, ReplacementPolicy):
        built = factory(*[_coerce(arg) for arg in args])
    else:
        built = factory(config, *args)
    if isinstance(built, tuple):
        return built
    if isinstance(built, ReplacementPolicy):
        return built, None
    return None, built


def policy_fingerprint(spec: str) -> str:
    """Content hash of the code backing ``spec``'s base name.

    Built-in policies are covered by the repro package hash already, so
    they fingerprint to a constant.  Externally registered factories
    hash their own source so the persistent result store invalidates
    when user-policy code changes.
    """
    name, _ = _split_name_args(spec)
    factory = _REGISTRY.get(name)
    if factory is None or name in _BUILTIN:
        return "builtin"
    try:
        source = inspect.getsource(factory)
    except (OSError, TypeError):
        source = repr(factory)
    return hashlib.sha256(source.encode("utf-8")).hexdigest()[:16]


# -- built-in policies ----------------------------------------------------
#
# Factories import lazily: sbar/dip import the cache package, so eager
# imports here would cycle.  The geometry-derived leader-set heuristics
# are unchanged from the original simulator ladder.


def _builtin(name: str) -> Callable[[PolicyFactory], PolicyFactory]:
    def decorator(factory: PolicyFactory) -> PolicyFactory:
        register_policy(name)(factory)
        _BUILTIN.add(name)
        return factory

    return decorator


@_builtin("lru")
def _build_lru(config):
    from repro.cache.replacement.lru import LRUPolicy

    return LRUPolicy()


@_builtin("lin")
def _build_lin(config, lam: Optional[str] = None):
    from repro.cache.replacement.lin import LINPolicy

    return LINPolicy(int(lam)) if lam is not None else LINPolicy()


@_builtin("sbar")
def _build_sbar(config, selection: Optional[str] = None, count=None):
    from repro.sbar.sbar import SBARController

    n_sets = config.l2.n_sets
    assoc = config.l2.associativity
    if selection is None:
        # 32 leaders at the paper's 1024-set geometry; proportionally
        # denser (1/16 of sets, floor 8) on scaled-down caches, where
        # shorter traces put a premium on detection speed.  Tiny caches
        # clamp to one leader per set.
        n_leaders = min(n_sets, max(8, min(32, n_sets // 16)))
        return SBARController(n_sets, assoc, n_leaders=n_leaders)
    if count is None:
        raise ValueError("sbar(<selection>,<leaders>) needs both arguments")
    return SBARController(
        n_sets,
        assoc,
        n_leaders=int(count),
        selection=selection.strip(),
        epoch_instructions=2_000_000,
    )


@_builtin("ehc")
def _build_ehc(config, horizon: Optional[str] = None):
    from repro.cache.replacement.ehc import EHCPolicy

    return EHCPolicy(int(horizon)) if horizon is not None else EHCPolicy()


@_builtin("awrp")
def _build_awrp(config, weight: Optional[str] = None):
    from repro.cache.replacement.awrp import AWRPPolicy

    return AWRPPolicy(float(weight)) if weight is not None else AWRPPolicy()


@_builtin("plru")
def _build_plru(config):
    from repro.cache.replacement.plru import TreePLRUPolicy

    return TreePLRUPolicy()


@_builtin("cost-plru")
def _build_cost_plru(config):
    from repro.cache.replacement.plru import CostAwareTreePLRUPolicy

    return CostAwareTreePLRUPolicy()


@_builtin("lip")
def _build_lip(config):
    from repro.cache.replacement.dip import LIPPolicy

    return LIPPolicy()


@_builtin("bip")
def _build_bip(config):
    from repro.cache.replacement.dip import BIPPolicy

    return BIPPolicy()


@_builtin("dip")
def _build_dip(config):
    from repro.cache.replacement.dip import DIPController

    n_sets = config.l2.n_sets
    n_leaders = min(32, max(8, n_sets // 16))
    return DIPController(n_sets, config.l2.associativity, n_leaders=n_leaders)


@_builtin("tournament")
def _build_tournament(config):
    from repro.cache.replacement.dip import BIPPolicy
    from repro.cache.replacement.lin import LINPolicy
    from repro.cache.replacement.lru import LRUPolicy
    from repro.sbar.tournament import TournamentController

    n_sets = config.l2.n_sets
    # A representative three-way field: recency, cost, insertion.
    return TournamentController(
        n_sets,
        [LRUPolicy(), LINPolicy(4), BIPPolicy()],
        n_leaders_per_policy=max(1, min(16, n_sets // 32)),
    )


@_builtin("cbs-local")
def _build_cbs_local(config):
    from repro.sbar.cbs import CBSController

    return CBSController(
        config.l2.n_sets, config.l2.associativity, scope="local"
    )


@_builtin("cbs-global")
def _build_cbs_global(config):
    from repro.sbar.cbs import CBSController

    return CBSController(
        config.l2.n_sets, config.l2.associativity, scope="global"
    )


__all__ = [
    "register_policy",
    "parse_policy_spec",
    "available_policies",
    "split_specs",
    "policy_fingerprint",
    "UnknownPolicyError",
]
