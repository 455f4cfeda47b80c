"""Composite predictor configurations evaluated in the paper.

This module assembles every named configuration of the evaluation section
from the building blocks of the library:

* the two base predictors, ``tage-gsc`` and ``gehl``;
* their IMLI-augmented versions (``+sic``, ``+imli`` = SIC + OH);
* their local-history versions (``+l`` -- the TAGE-SC-L / FTL style
  configurations with local corrector tables and an active loop predictor);
* the combined ``+imli+l`` versions;
* the wormhole-augmented versions (``+wh``) used as the prior-art
  comparison.

The :func:`build` factory and the :data:`CONFIGURATIONS` registry are the
entry points used by the benchmark harness, the examples and the tests.
Two size profiles are provided: ``"default"`` (used by the benchmark
harness) and ``"small"`` (much smaller tables, used by the test suite to
keep runtimes low).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.core.component import NeuralComponent
from repro.core.imli_oh import IMLIOuterHistoryComponent
from repro.core.imli_sic import IMLISameIterationComponent
from repro.predictors.base import BranchPredictor
from repro.predictors.components import IMLICountHashedGlobalComponent, LocalHistoryComponent
from repro.predictors.gehl import GEHLConfig, GEHLPredictor
from repro.predictors.loop import LoopPredictor, LoopPredictorConfig
from repro.predictors.statistical_corrector import StatisticalCorrectorConfig
from repro.predictors.tage import TAGEConfig
from repro.predictors.tage_gsc import TAGEGSCConfig, TAGEGSCPredictor
from repro.predictors.wormhole import WormholePredictor, WormholePredictorConfig
from repro.trace.branch import BranchKind, BranchRecord

__all__ = [
    "CompositeOptions",
    "SharedCoreInfo",
    "SidecarPredictor",
    "SizeProfile",
    "build",
    "build_named",
    "configuration_names",
    "core_key_for",
    "factory",
    "CONFIGURATIONS",
]


# --------------------------------------------------------------------------- #
# Side predictor wrapper
# --------------------------------------------------------------------------- #


class _MutableBranchView:
    """Reusable, mutable record-shaped view used by the fast path.

    The loop and wormhole side predictors consume the record protocol
    (``pc``/``target``/``taken``/``is_conditional``/``is_backward``) but
    never retain the record, so one mutable instance per
    :class:`SidecarPredictor` replaces a fresh
    :class:`~repro.trace.branch.BranchRecord` allocation per branch.  Only
    conditional branches take the fast path, hence the constant
    ``is_conditional``.
    """

    __slots__ = ("pc", "target", "taken", "instruction_gap")

    is_conditional = True
    kind = BranchKind.CONDITIONAL

    def __init__(self) -> None:
        self.pc = 0
        self.target = 0
        self.taken = False
        self.instruction_gap = 0

    @property
    def is_backward(self) -> bool:
        return self.target < self.pc


class SidecarPredictor(BranchPredictor):
    """Wraps a main predictor with loop and/or wormhole side predictors.

    The override policy follows the paper:

    * the wormhole prediction, when confident, overrides everything;
    * the loop prediction overrides the main prediction only when
      ``use_loop_prediction`` is set (the "+L" configurations); in the
      "+WH" configurations the loop predictor is present purely to supply
      trip counts to WH (Section 3.3).
    """

    def __init__(
        self,
        main: BranchPredictor,
        loop_predictor: Optional[LoopPredictor] = None,
        wormhole: Optional[WormholePredictor] = None,
        use_loop_prediction: bool = True,
        name: Optional[str] = None,
    ) -> None:
        self.main = main
        self.loop_predictor = loop_predictor
        self.wormhole = wormhole
        self.use_loop_prediction = use_loop_prediction
        self.name = name or main.name
        self._main_prediction = True
        self._view = _MutableBranchView()
        # The combined-step fast path is exposed (as instance attributes, so
        # ``getattr`` probes see it) only when the wrapped main predictor
        # opts into the fast-path protocol itself.
        if hasattr(main, "predict_update") and hasattr(main, "observe_pc"):
            self.predict_update = self._predict_update_fast
            self.observe_pc = main.observe_pc

    def predict(self, record: BranchRecord) -> bool:
        prediction = self.main.predict(record)
        self._main_prediction = prediction
        if self.loop_predictor is not None and self.use_loop_prediction:
            loop_prediction = self.loop_predictor.predict(record)
            if loop_prediction is not None:
                prediction = loop_prediction
        if self.wormhole is not None:
            wormhole_prediction = self.wormhole.predict(record)
            if wormhole_prediction is not None:
                prediction = wormhole_prediction
        return prediction

    def update(self, record: BranchRecord, prediction: bool) -> None:
        self.main.update(record, self._main_prediction)
        if self.loop_predictor is not None:
            self.loop_predictor.update(record)
        if self.wormhole is not None:
            self.wormhole.update(
                record, main_mispredicted=self._main_prediction != record.taken
            )

    def _predict_update_fast(
        self, pc: int, target: int, taken: bool, kind: int = 0, gap: int = 0
    ) -> bool:
        """Combined predict-and-update fast path.

        The main predictor is trained through its own combined step before
        the side predictors run; that reordering is safe because neither
        side predictor reads the main predictor's state.  The side
        predictors keep their reference-path relative order (both predict,
        then both update).
        """
        main_prediction = self.main.predict_update(pc, target, taken, kind, gap)
        self._main_prediction = main_prediction
        prediction = main_prediction
        view = self._view
        view.pc = pc
        view.target = target
        view.taken = taken
        view.instruction_gap = gap
        loop_predictor = self.loop_predictor
        wormhole = self.wormhole
        if loop_predictor is not None and self.use_loop_prediction:
            loop_prediction = loop_predictor.predict(view)
            if loop_prediction is not None:
                prediction = loop_prediction
        if wormhole is not None:
            wormhole_prediction = wormhole.predict(view)
            if wormhole_prediction is not None:
                prediction = wormhole_prediction
        if loop_predictor is not None:
            loop_predictor.update(view)
        if wormhole is not None:
            wormhole.update(view, main_mispredicted=main_prediction != taken)
        return prediction

    def observe_unconditional(self, record: BranchRecord) -> None:
        self.main.observe_unconditional(record)

    def storage_bits(self) -> int:
        bits = self.main.storage_bits()
        if self.loop_predictor is not None:
            bits += self.loop_predictor.storage_bits()
        if self.wormhole is not None:
            bits += self.wormhole.storage_bits()
        return bits


# --------------------------------------------------------------------------- #
# Size profiles
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class SizeProfile:
    """Scaled table geometries for one size profile.

    Custom profiles are registered through
    :meth:`repro.api.registry.Registry.register_profile`; the two built-in
    profiles live in the default registry under the names ``"default"`` and
    ``"small"``.
    """

    tage: TAGEConfig
    corrector: StatisticalCorrectorConfig
    gehl: GEHLConfig
    sic_entries: int
    oh_prediction_entries: int
    local_entries: int
    local_history_lengths: Sequence[int]
    local_table_size: int
    local_table_history_bits: int
    loop_entries: int


#: Backwards-compatible alias (the class was private before the API layer).
_SizeProfile = SizeProfile


_PROFILES: Dict[str, SizeProfile] = {
    "default": SizeProfile(
        tage=TAGEConfig(),
        corrector=StatisticalCorrectorConfig(),
        gehl=GEHLConfig(),
        sic_entries=512,
        oh_prediction_entries=256,
        local_entries=1024,
        local_history_lengths=(6, 11, 16),
        local_table_size=256,
        local_table_history_bits=16,
        loop_entries=16,
    ),
    "small": SizeProfile(
        tage=TAGEConfig(
            num_tables=6,
            table_entries=256,
            base_entries=1024,
            max_history=80,
            useful_reset_period=4096,
        ),
        corrector=StatisticalCorrectorConfig(
            bias_entries=256,
            global_table_entries=256,
            global_history_lengths=(4, 9, 18),
        ),
        gehl=GEHLConfig(
            num_tables=5,
            table_entries=256,
            bias_entries=256,
            max_history=64,
        ),
        sic_entries=256,
        oh_prediction_entries=256,
        local_entries=256,
        local_history_lengths=(5, 10),
        local_table_size=128,
        local_table_history_bits=12,
        loop_entries=16,
    ),
}


# --------------------------------------------------------------------------- #
# Configuration options and builder
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class CompositeOptions:
    """Feature switches for one composite configuration.

    Attributes
    ----------
    base:
        ``"tage-gsc"`` or ``"gehl"``.
    imli_sic / imli_oh:
        Add the IMLI-SIC / IMLI-OH components to the neural part.
    local:
        Add local-history corrector tables and activate the loop predictor
        (the "+L" configurations of Tables 1 and 2).
    loop:
        Add only the loop predictor as an active side predictor (used to
        reproduce the Section 4.2.2 observation that the loop predictor
        adds little once IMLI-SIC is present).
    wormhole:
        Add the wormhole side predictor (with a loop predictor supplying
        trip counts but not predictions).
    imli_global_tables:
        Number of additional global-history tables whose index also hashes
        the IMLI counter (the optional refinement of Section 4.2; used by
        the ablation benchmarks).
    oh_update_delay:
        Delay, in conditional branches, applied to IMLI history table
        updates (Section 4.3.2 delayed-update experiment).
    """

    base: str = "tage-gsc"
    imli_sic: bool = False
    imli_oh: bool = False
    local: bool = False
    loop: bool = False
    wormhole: bool = False
    imli_global_tables: int = 0
    oh_update_delay: int = 0

    def label(self) -> str:
        """Configuration label used in reports (e.g. ``tage-gsc+imli``)."""
        parts = [self.base]
        if self.imli_sic and self.imli_oh:
            parts.append("imli")
        elif self.imli_sic:
            parts.append("sic")
        elif self.imli_oh:
            parts.append("oh")
        if self.imli_global_tables:
            parts.append("imlihash")
        if self.local:
            parts.append("l")
        elif self.loop:
            parts.append("loop")
        if self.wormhole:
            parts.append("wh")
        return "+".join(parts)


# --------------------------------------------------------------------------- #
# Shared-core decomposition
# --------------------------------------------------------------------------- #
#
# Every composite splits into a *core* -- its learned tables that evolve
# independently of the configuration's corrector/sidecar knobs -- and a
# *head* -- everything else that learns.  The :class:`SharedState` is
# neither: it holds only trace-only structures (global/path history,
# folded registers, the IMLI counter, local-history tables, the IMLI-OH
# outer history), each registered by geometry and advanced once per
# branch, so one state serves every member of a group whatever structures
# their heads register on it.
#
# * ``tage-gsc`` core: the :class:`TAGEEngine`.  Its training
#   (``train_fields(pc, taken, ctx)``) never reads the corrector or the
#   final prediction, so N configurations with identical TAGE geometry
#   evolve byte-identical engines regardless of their heads.
# * ``gehl`` core: nothing learned; the whole adder tree is head.  Sharing
#   the state still dedupes history upkeep and index hashing across heads.
#
# ``core_key_for`` captures exactly the knobs the core depends on;
# everything else (IMLI-SIC/OH, ``oh_update_delay``, ``local``, corrector
# sizing, loop/wormhole sidecars, IMLI-hashed global tables) is head-only.
# :mod:`repro.predictors.shared_core` uses this decomposition to drive one
# core step and N head steps per branch for a batch of same-key specs.


@dataclass(frozen=True)
class SharedCoreInfo:
    """How a composite predictor decomposes for shared-core batching.

    Attached by :func:`build` to every options-based predictor as the
    ``shared_core`` attribute: the hashable ``key`` groups batch members
    that can share one core, and ``options`` / ``sizes`` let
    :mod:`repro.predictors.shared_core` rebuild the member as a light head
    over a shared core.
    """

    key: tuple
    options: CompositeOptions
    sizes: SizeProfile


def core_key_for(options: CompositeOptions, sizes: SizeProfile) -> tuple:
    """Hashable identity of the core that ``(options, sizes)`` would build.

    Two specs whose keys compare equal evolve byte-identical cores over any
    branch stream, so a batch of them can compute that core once per branch.
    The key is the base kind and the full base-engine geometry
    (:class:`~repro.predictors.tage.TAGEConfig` /
    :class:`~repro.predictors.gehl.GEHLConfig`, both frozen all-scalar
    dataclasses; the latter also sizes the shared state's history
    registers).  Head-only knobs (``imli_sic``, ``imli_oh``,
    ``oh_update_delay``, ``local``, ``loop``, ``wormhole``,
    ``imli_global_tables``, corrector sizing) deliberately do not appear:
    the trace-only state they need is registered on the group's shared
    state by geometry.
    """
    if options.base == "tage-gsc":
        return ("tage-gsc", sizes.tage)
    if options.base == "gehl":
        return ("gehl", sizes.gehl)
    raise ValueError(f"unknown base predictor {options.base!r}")


def _head_components(
    options: CompositeOptions, sizes: SizeProfile
) -> List[NeuralComponent]:
    """Fresh extra adder-tree components for one head (bound to a state later)."""
    extra_components: List[NeuralComponent] = []
    if options.imli_sic:
        extra_components.append(
            IMLISameIterationComponent(entries=sizes.sic_entries)
        )
    if options.imli_oh:
        extra_components.append(
            IMLIOuterHistoryComponent(
                prediction_entries=sizes.oh_prediction_entries,
                update_delay=options.oh_update_delay,
            )
        )
    if options.local:
        extra_components.append(
            LocalHistoryComponent(
                history_lengths=list(sizes.local_history_lengths),
                entries=sizes.local_entries,
                table_geometry=(sizes.local_table_size, sizes.local_table_history_bits),
            )
        )
    return extra_components


def _imli_hashed_global(
    options: CompositeOptions, sizes: SizeProfile, state
) -> IMLICountHashedGlobalComponent:
    """The optional IMLI-hashed global tables, bound to ``state``."""
    entries = (
        sizes.corrector.global_table_entries
        if options.base == "tage-gsc"
        else sizes.gehl.table_entries
    )
    return IMLICountHashedGlobalComponent(
        state=state,
        history_lengths=[9, 18][: options.imli_global_tables],
        entries=entries,
    )


def _sidecar_parts(options: CompositeOptions, sizes: SizeProfile) -> Optional[tuple]:
    """``(loop, wormhole, use_loop_prediction)`` for one head, or ``None``."""
    if not (options.local or options.loop or options.wormhole):
        return None
    loop_predictor = LoopPredictor(LoopPredictorConfig(entries=sizes.loop_entries))
    wormhole = (
        WormholePredictor(loop_predictor, WormholePredictorConfig())
        if options.wormhole
        else None
    )
    return loop_predictor, wormhole, options.local or options.loop


def build(
    options: CompositeOptions, profile: Union[str, SizeProfile] = "default"
) -> BranchPredictor:
    """Build the composite predictor described by ``options``.

    Parameters
    ----------
    options:
        Which base predictor and which side components to assemble.
    profile:
        Size profile: a profile name (``"default"`` for the benchmark
        harness, ``"small"`` for fast unit tests, or any name registered on
        the default registry) or a :class:`SizeProfile` instance.
    """
    if isinstance(profile, SizeProfile):
        sizes = profile
    elif profile in _PROFILES:
        sizes = _PROFILES[profile]
    else:
        raise KeyError(f"unknown size profile {profile!r}; known: {sorted(_PROFILES)}")

    extra_components = _head_components(options, sizes)

    label = options.label()
    if options.base == "tage-gsc":
        main = TAGEGSCPredictor(
            config=TAGEGSCConfig(tage=sizes.tage, corrector=sizes.corrector),
            extra_sc_components=extra_components,
            name=label,
        )
        if options.imli_global_tables:
            # The IMLI-hashed global tables need the shared state, so they
            # are appended after the main predictor is built.
            main.corrector.adder.components.append(
                _imli_hashed_global(options, sizes, main.state)
            )
    elif options.base == "gehl":
        main = GEHLPredictor(
            config=sizes.gehl,
            extra_components=extra_components,
            name=label,
        )
        if options.imli_global_tables:
            main.adder.components.append(
                _imli_hashed_global(options, sizes, main.state)
            )
    else:
        raise ValueError(f"unknown base predictor {options.base!r}")

    sidecars = _sidecar_parts(options, sizes)
    if sidecars is None:
        predictor: BranchPredictor = main
    else:
        loop_predictor, wormhole, use_loop_prediction = sidecars
        predictor = SidecarPredictor(
            main,
            loop_predictor=loop_predictor,
            wormhole=wormhole,
            use_loop_prediction=use_loop_prediction,
            name=label,
        )
    predictor.shared_core = SharedCoreInfo(
        key=core_key_for(options, sizes), options=options, sizes=sizes
    )
    return predictor


# --------------------------------------------------------------------------- #
# Named configuration registry
# --------------------------------------------------------------------------- #


def _registry() -> Dict[str, CompositeOptions]:
    configurations: Dict[str, CompositeOptions] = {}
    for base in ("tage-gsc", "gehl"):
        configurations[base] = CompositeOptions(base=base)
        configurations[f"{base}+sic"] = CompositeOptions(base=base, imli_sic=True)
        configurations[f"{base}+oh"] = CompositeOptions(base=base, imli_oh=True)
        configurations[f"{base}+imli"] = CompositeOptions(
            base=base, imli_sic=True, imli_oh=True
        )
        configurations[f"{base}+l"] = CompositeOptions(base=base, local=True)
        configurations[f"{base}+imli+l"] = CompositeOptions(
            base=base, imli_sic=True, imli_oh=True, local=True
        )
        configurations[f"{base}+loop"] = CompositeOptions(base=base, loop=True)
        configurations[f"{base}+sic+loop"] = CompositeOptions(
            base=base, imli_sic=True, loop=True
        )
        configurations[f"{base}+wh"] = CompositeOptions(base=base, wormhole=True)
        configurations[f"{base}+sic+wh"] = CompositeOptions(
            base=base, imli_sic=True, wormhole=True
        )
    # The paper's TAGE-SC-L is TAGE-GSC with local history and the loop
    # predictor activated; the "record" configuration adds the IMLI
    # components on top (Section 5).
    configurations["tage-sc-l"] = CompositeOptions(base="tage-gsc", local=True)
    configurations["tage-sc-l+imli"] = CompositeOptions(
        base="tage-gsc", imli_sic=True, imli_oh=True, local=True
    )
    return configurations


#: The paper's named configurations.  This dict doubles as the option store
#: of the default :class:`repro.api.registry.Registry`, so configurations
#: registered there (``register_configuration``) appear here too and vice
#: versa.  Prefer the registry for new code; this name is kept as a
#: backwards-compatible view.
CONFIGURATIONS: Dict[str, CompositeOptions] = _registry()


def configuration_names() -> List[str]:
    """Names of all registered configurations (options- and builder-based)."""
    from repro.api.registry import default_registry

    return default_registry().names()


def build_named(name: str, profile: str = "default") -> BranchPredictor:
    """Build one of the registered configurations by name.

    Thin shim over :meth:`repro.api.registry.Registry.build` on the default
    registry, kept for backwards compatibility.
    """
    from repro.api.registry import default_registry

    return default_registry().build(name, profile=profile)


def factory(name: str, profile: str = "default") -> Callable[[], BranchPredictor]:
    """Return a zero-argument factory for a registered configuration.

    The simulation runner builds a fresh predictor per trace, so factories
    rather than instances are passed around.
    """
    def _build() -> BranchPredictor:
        return build_named(name, profile=profile)

    return _build
