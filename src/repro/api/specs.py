"""Declarative predictor specifications.

A :class:`PredictorSpec` is the serializable description of one predictor
variant: the base (a registered configuration name or an explicit
:class:`~repro.predictors.composites.CompositeOptions`), the size profile,
and a dict of parameter overrides.  Specs are plain data -- they survive a
lossless ``to_dict``/``from_dict`` (and JSON) round trip, expand into
parameter grids with :meth:`PredictorSpec.sweep`, travel across process
boundaries for the parallel runner, and build fresh predictors on demand::

    spec = PredictorSpec.from_named("tage-gsc+sic", profile="small")
    predictor = spec.build()

    grid = spec.sweep(oh_update_delay=[0, 15, 63])   # -> three specs
    spec == PredictorSpec.from_dict(spec.to_dict())  # lossless
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Dict, List, Mapping, Optional, Union

from repro.api.registry import Registry, default_registry
from repro.predictors.base import BranchPredictor
from repro.predictors.composites import CompositeOptions

__all__ = ["PredictorSpec"]

#: Keys understood by :meth:`PredictorSpec.from_dict`.
_SPEC_KEYS = {"configuration", "options", "profile", "overrides", "name"}


@dataclass(frozen=True)
class PredictorSpec:
    """Declarative description of one predictor variant.

    Attributes
    ----------
    base:
        A registered configuration name (e.g. ``"tage-gsc+imli"``) or an
        explicit :class:`CompositeOptions`.
    profile:
        Size profile name resolved through the registry at build time.
    overrides:
        Parameter overrides: :class:`CompositeOptions` field replacements
        for options-based specs, keyword arguments for builder-based ones.
    name:
        Optional explicit label; when unset the label is derived from the
        base and the overrides.
    """

    base: Union[str, CompositeOptions]
    profile: str = "default"
    overrides: Mapping[str, Any] = field(default_factory=dict)
    name: Optional[str] = None

    def __post_init__(self) -> None:
        if not isinstance(self.base, (str, CompositeOptions)):
            raise TypeError(
                "base must be a configuration name or CompositeOptions, "
                f"got {type(self.base).__name__}"
            )
        object.__setattr__(self, "overrides", dict(self.overrides))

    def __hash__(self) -> int:
        # The generated hash would choke on the dict field; hashing the
        # override *keys* only stays consistent with the generated __eq__
        # (equal dicts have equal key sets) while keeping specs usable in
        # sets and as dict keys.
        return hash((self.base, self.profile, frozenset(self.overrides), self.name))

    # ----------------------------------------------------------------- #
    # Identity
    # ----------------------------------------------------------------- #

    @property
    def label(self) -> str:
        """Display / cache label of this spec.

        The explicit ``name`` when set; otherwise the base name (or the
        options label) with a ``[key=value,...]`` suffix listing the
        overrides.
        """
        if self.name:
            return self.name
        base = self.base if isinstance(self.base, str) else self.base.label()
        if not self.overrides:
            return base
        suffix = ",".join(f"{key}={self.overrides[key]}" for key in sorted(self.overrides))
        return f"{base}[{suffix}]"

    def content(self) -> str:
        """Canonical, label-independent content of this spec.

        A deterministic JSON dump of :meth:`to_dict` minus the display
        ``name``: two specs that build the same predictor the same way have
        equal content regardless of what they are called, and the string is
        stable across processes and sessions (keys are sorted, no hashes of
        live objects).  Resolved, it is the spec component of the cell key
        that both the suite runner's memo and the persistent result store
        use (:mod:`repro.store`).  Note that a *named* spec and its
        :meth:`resolve`-d explicit-options form have different content;
        resolve first when registry-independent identity is wanted.
        """
        data = self.to_dict()
        data.pop("name", None)
        return json.dumps(data, sort_keys=True, default=repr)

    def content_hash(self) -> str:
        """SHA-256 hex digest of :meth:`content`."""
        return hashlib.sha256(self.content().encode("utf-8")).hexdigest()

    # ----------------------------------------------------------------- #
    # Building
    # ----------------------------------------------------------------- #

    def build(self, registry: Optional[Registry] = None) -> BranchPredictor:
        """Build a fresh predictor for this spec."""
        registry = registry or default_registry()
        predictor = registry.build(self.base, profile=self.profile, **self.overrides)
        predictor.name = self.label
        return predictor

    def resolve(self, registry: Optional[Registry] = None) -> "PredictorSpec":
        """Return an equivalent spec whose base is explicit options.

        Named, options-backed bases are materialised (with the current
        label pinned as ``name`` so it survives the loss of the registry
        name); builder-based and already-explicit specs are returned
        unchanged.  A resolved spec is self-contained: its dict form builds
        the same predictor in a worker process that never saw the caller's
        registrations.
        """
        if isinstance(self.base, CompositeOptions):
            return self
        registry = registry or default_registry()
        options = registry.options(self.base)
        if options is None:  # builder-based: cannot be made declarative
            return self
        return replace(self, base=options, name=self.label)

    def sweep(self, **grids: Any) -> List["PredictorSpec"]:
        """Expand a parameter grid into a list of specs.

        Every keyword maps an override name to a list of values (a scalar
        counts as a one-element list); the result is the cartesian product,
        each spec carrying the merged overrides and a derived label::

            PredictorSpec.from_named("tage-gsc+oh").sweep(
                oh_update_delay=[0, 63], imli_sic=[False, True]
            )  # -> 4 specs

        The explicit ``name`` is dropped so each expanded spec gets a
        distinct derived label.
        """
        if not grids:
            return [replace(self, name=None)]
        names = list(grids)
        axes = [
            value if isinstance(value, (list, tuple)) else [value]
            for value in grids.values()
        ]
        specs = []
        for combo in itertools.product(*axes):
            merged = dict(self.overrides)
            merged.update(zip(names, combo))
            specs.append(replace(self, overrides=merged, name=None))
        return specs

    # ----------------------------------------------------------------- #
    # Serialization
    # ----------------------------------------------------------------- #

    def to_dict(self) -> Dict[str, Any]:
        """Lossless plain-dict form (JSON-safe)."""
        data: Dict[str, Any] = {}
        if isinstance(self.base, CompositeOptions):
            data["options"] = asdict(self.base)
        else:
            data["configuration"] = self.base
        data["profile"] = self.profile
        if self.overrides:
            data["overrides"] = dict(self.overrides)
        if self.name is not None:
            data["name"] = self.name
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PredictorSpec":
        """Inverse of :meth:`to_dict`."""
        unknown = sorted(set(data) - _SPEC_KEYS)
        if unknown:
            raise ValueError(
                f"unknown spec key(s) {unknown}; valid keys: {sorted(_SPEC_KEYS)}"
            )
        has_options = "options" in data
        has_name = "configuration" in data
        if has_options == has_name:
            raise ValueError(
                "a spec needs exactly one of 'configuration' (a registered "
                "name) or 'options' (explicit CompositeOptions fields)"
            )
        base: Union[str, CompositeOptions]
        if has_options:
            base = CompositeOptions(**data["options"])
        else:
            base = data["configuration"]
        return cls(
            base=base,
            profile=data.get("profile", "default"),
            overrides=data.get("overrides") or {},
            name=data.get("name"),
        )

    def to_json(self, indent: Optional[int] = 2) -> str:
        """JSON form of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "PredictorSpec":
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(json.loads(text))

    # ----------------------------------------------------------------- #
    # Constructors
    # ----------------------------------------------------------------- #

    @classmethod
    def from_named(
        cls,
        name: str,
        profile: str = "default",
        *,
        label: Optional[str] = None,
        **overrides: Any,
    ) -> "PredictorSpec":
        """Spec for a registered configuration name.

        ``label`` sets the spec's explicit display name (the ``name``
        field -- called ``label`` here because the positional argument is
        the configuration name).
        """
        return cls(base=name, profile=profile, overrides=overrides, name=label)
