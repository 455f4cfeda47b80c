"""Mutable registry of predictor configurations and size profiles.

The paper's configurations used to live in a frozen module-level dict
(:data:`repro.predictors.composites.CONFIGURATIONS`) with two hardcoded
size profiles.  :class:`Registry` makes both first-class and extensible:

* **options-based configurations** map a name to a
  :class:`~repro.predictors.composites.CompositeOptions`, built through the
  composite :func:`~repro.predictors.composites.build` factory;
* **builder-based configurations** map a name to any callable
  ``builder(profile, **overrides) -> BranchPredictor`` -- the hook through
  which user predictors plug in without editing repro source;
* **size profiles** map a name to a
  :class:`~repro.predictors.composites.SizeProfile`.

Registration is decorator-friendly::

    from repro.api import register_configuration, register_profile

    @register_configuration("my-gshare")
    def _build(profile, entries=4096, history_length=12):
        return GSharePredictor(entries=entries, history_length=history_length)

    @register_profile("tiny")
    def _tiny():
        return SizeProfile(...)

The **default registry** (:func:`default_registry`) shares its option and
profile stores with the legacy module-level dicts, so the shims
``CONFIGURATIONS``, ``build_named`` and ``factory`` stay live views of it.
Scoped registries (``Registry.with_defaults()`` or a bare ``Registry()``)
give tests and applications isolated namespaces.

A registry is only consulted to *resolve* a name: the suite runner and the
result store key every cell on the resolved options and profile geometry,
so replacing or removing a definition needs no cache bookkeeping here --
the next run of that name resolves to a different key.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, List, Optional, Union

from repro.predictors.base import BranchPredictor
from repro.predictors.composites import (
    CONFIGURATIONS,
    _PROFILES,
    CompositeOptions,
    SizeProfile,
    build,
)

__all__ = [
    "Registry",
    "default_registry",
    "register_configuration",
    "register_profile",
]

#: A builder callable: takes the profile (name or SizeProfile) plus any
#: spec overrides as keyword arguments and returns a fresh predictor.
Builder = Callable[..., BranchPredictor]

ProfileLike = Union[str, SizeProfile]


class Registry:
    """Named predictor configurations and size profiles.

    Mutations are plain dict updates with no cache bookkeeping (see the
    module docstring and :func:`repro.sim.runner.store_cell_keys`).

    Parameters
    ----------
    configurations:
        Initial ``name -> CompositeOptions`` mapping, used **by reference**
        (mutations through the registry are visible to the caller's dict).
    profiles:
        Initial ``name -> SizeProfile`` mapping, also used by reference.
    builders:
        Initial ``name -> builder`` mapping (copied).
    """

    def __init__(
        self,
        configurations: Optional[Dict[str, CompositeOptions]] = None,
        profiles: Optional[Dict[str, SizeProfile]] = None,
        builders: Optional[Dict[str, Builder]] = None,
    ) -> None:
        self._options: Dict[str, CompositeOptions] = (
            configurations if configurations is not None else {}
        )
        self._profiles: Dict[str, SizeProfile] = (
            profiles if profiles is not None else {}
        )
        self._builders: Dict[str, Builder] = dict(builders) if builders else {}

    @classmethod
    def with_defaults(cls) -> "Registry":
        """A fresh registry pre-populated from the default registry.

        The stores are copies of the default registry's current state --
        the paper's configurations and profiles plus anything registered
        on it since (builder-based configurations included).
        Registrations on the returned registry do not leak into the
        default registry or the legacy module dicts, and vice versa.
        """
        base = default_registry()
        return cls(
            configurations=dict(base._options),
            profiles=dict(base._profiles),
            builders=dict(base._builders),
        )

    # ----------------------------------------------------------------- #
    # Introspection
    # ----------------------------------------------------------------- #

    def __contains__(self, name: object) -> bool:
        return name in self._options or name in self._builders

    def names(self) -> List[str]:
        """Names of all registered configurations, in registration order."""
        return list(self._options) + [
            name for name in self._builders if name not in self._options
        ]

    def profile_names(self) -> List[str]:
        """Names of all registered size profiles."""
        return list(self._profiles)

    def options(self, name: str) -> Optional[CompositeOptions]:
        """The :class:`CompositeOptions` behind ``name``.

        Returns ``None`` for builder-based configurations (they have no
        declarative options form); raises :class:`KeyError` for unknown
        names.
        """
        if name in self._options:
            return self._options[name]
        if name in self._builders:
            return None
        raise KeyError(
            f"unknown configuration {name!r}; known: {self.names()}"
        )

    def resolve_profile(self, profile: ProfileLike) -> SizeProfile:
        """Resolve a profile name (or pass through an instance)."""
        if isinstance(profile, SizeProfile):
            return profile
        try:
            return self._profiles[profile]
        except KeyError:
            raise KeyError(
                f"unknown size profile {profile!r}; known: {sorted(self._profiles)}"
            ) from None

    # ----------------------------------------------------------------- #
    # Registration
    # ----------------------------------------------------------------- #

    def register_configuration(
        self,
        name: str,
        configuration: Union[CompositeOptions, Builder, None] = None,
        *,
        overwrite: bool = False,
    ):
        """Register a configuration under ``name``.

        ``configuration`` is either a :class:`CompositeOptions` (declarative)
        or a builder callable ``builder(profile, **overrides)``.  With no
        ``configuration`` the call returns a decorator::

            @registry.register_configuration("my-predictor")
            def _build(profile):
                return MyPredictor(...)
        """
        if configuration is None:
            def _decorator(builder: Builder) -> Builder:
                self.register_configuration(name, builder, overwrite=overwrite)
                return builder

            return _decorator
        if not overwrite and name in self:
            raise ValueError(
                f"configuration {name!r} is already registered "
                "(pass overwrite=True to replace it)"
            )
        if isinstance(configuration, CompositeOptions):
            self._options[name] = configuration
            self._builders.pop(name, None)
        elif callable(configuration):
            self._builders[name] = configuration
            self._options.pop(name, None)
        else:
            raise TypeError(
                "configuration must be a CompositeOptions or a builder "
                f"callable, got {type(configuration).__name__}"
            )
        return configuration

    def register_profile(
        self,
        name: str,
        profile: Union[SizeProfile, Callable[[], SizeProfile], None] = None,
        *,
        overwrite: bool = False,
    ):
        """Register a size profile under ``name``.

        ``profile`` is a :class:`SizeProfile` or a zero-argument callable
        returning one (decorator form)::

            @registry.register_profile("tiny")
            def _tiny():
                return SizeProfile(...)
        """
        if profile is None:
            def _decorator(fn: Callable[[], SizeProfile]):
                self.register_profile(name, fn(), overwrite=overwrite)
                return fn

            return _decorator
        if callable(profile) and not isinstance(profile, SizeProfile):
            profile = profile()
        if not isinstance(profile, SizeProfile):
            raise TypeError(
                f"profile must be a SizeProfile, got {type(profile).__name__}"
            )
        if not overwrite and name in self._profiles:
            raise ValueError(
                f"size profile {name!r} is already registered "
                "(pass overwrite=True to replace it)"
            )
        self._profiles[name] = profile
        return profile

    def unregister(self, name: str) -> None:
        """Remove a configuration (options- or builder-based)."""
        found = self._options.pop(name, None) is not None
        found = self._builders.pop(name, None) is not None or found
        if not found:
            raise KeyError(f"unknown configuration {name!r}")

    # ----------------------------------------------------------------- #
    # Building
    # ----------------------------------------------------------------- #

    def build(
        self,
        configuration: Union[str, CompositeOptions],
        profile: ProfileLike = "default",
        **overrides,
    ) -> BranchPredictor:
        """Build a predictor from a name or a :class:`CompositeOptions`.

        ``overrides`` are applied on top of the resolved options
        (``dataclasses.replace``) for options-based configurations, or
        passed as keyword arguments to builder-based ones.  For named
        configurations the predictor's ``name`` is set to the registry
        name.
        """
        if isinstance(configuration, CompositeOptions):
            options = self._apply_overrides(configuration, overrides)
            return build(options, profile=self.resolve_profile(profile))
        name = configuration
        builder = self._builders.get(name)
        if builder is not None:
            predictor = builder(profile, **overrides)
            predictor.name = name
            return predictor
        try:
            options = self._options[name]
        except KeyError:
            raise KeyError(
                f"unknown configuration {name!r}; known: {self.names()}"
            ) from None
        options = self._apply_overrides(options, overrides)
        predictor = build(options, profile=self.resolve_profile(profile))
        predictor.name = name
        return predictor

    @staticmethod
    def _apply_overrides(
        options: CompositeOptions, overrides: Dict[str, object]
    ) -> CompositeOptions:
        if not overrides:
            return options
        valid = set(options.__dataclass_fields__)
        unknown = sorted(set(overrides) - valid)
        if unknown:
            raise ValueError(
                f"unknown CompositeOptions override(s) {unknown}; "
                f"valid fields: {sorted(valid)}"
            )
        return replace(options, **overrides)


#: The process-wide default registry.  Its stores are the legacy module
#: dicts, so ``CONFIGURATIONS`` / ``build_named`` / ``_PROFILES`` remain
#: live views of it.
_DEFAULT_REGISTRY = Registry(configurations=CONFIGURATIONS, profiles=_PROFILES)


def default_registry() -> Registry:
    """The process-wide default registry."""
    return _DEFAULT_REGISTRY


def register_configuration(
    name: str,
    configuration: Union[CompositeOptions, Builder, None] = None,
    *,
    overwrite: bool = False,
):
    """Register a configuration on the default registry (decorator-friendly)."""
    return _DEFAULT_REGISTRY.register_configuration(
        name, configuration, overwrite=overwrite
    )


def register_profile(
    name: str,
    profile: Union[SizeProfile, Callable[[], SizeProfile], None] = None,
    *,
    overwrite: bool = False,
):
    """Register a size profile on the default registry (decorator-friendly)."""
    return _DEFAULT_REGISTRY.register_profile(name, profile, overwrite=overwrite)
