"""Macro architecture search space: staged networks beyond the fixed backbone.

NASBench-101 freezes the macro-architecture — three stacks of three copies of
one cell, channel count doubling at each downsample — and searches only the
cell.  The hardware study wants the opposite freedom too: networks whose
*stages* differ (a distinct cell per stage, a per-stage depth, a per-stage
width schedule) stress the accelerator in ways no single-cell expansion can
(parameter-cache pressure from wide late stages, activation spill from deep
early stages).

:class:`MacroSpec` is that generalization: an ordered tuple of
:class:`StageSpec` entries (cell, depth, width multiplier) plus the stem and
classifier settings, validated on construction and content-fingerprinted like
:class:`~repro.nasbench.cell.Cell` so populations de-duplicate by identity.
The expansion rule is the strict superset of the legacy one — stage ``i``
enters through a 2x2 stride-2 downsample (except stage 0) and rescales the
running channel count by its width multiplier — so the legacy
:class:`~repro.nasbench.network.NetworkConfig` is exactly the trivial
macro spec (:meth:`MacroSpec.from_network_config`: one cell everywhere,
stage-0 multiplier 1, multiplier 2 after every downsample) and
:func:`~repro.nasbench.network.build_network` stays a thin wrapper producing
bit-for-bit identical layer lists.

The expanded layer rows (:meth:`MacroSpec.layer_blocks`) remain the single
source of truth: :class:`~repro.nasbench.layer_table.LayerTable` packs them
for the compiler and the fused grid kernel, and :meth:`MacroSpec.build_layers`
is their named :class:`~repro.nasbench.network.LayerSpec` view for the scalar
oracle.  :attr:`MacroSpec.trainable_parameters` walks the same stage schedule
and counts each cell instance from its vertex channels, without the rows.
Nothing downstream needs macro awareness beyond plumbing fingerprints
through dataset records, store keys and sweep manifests.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from ..errors import InvalidCellError
from .cell import Cell
from .network import (
    KIND_CONV,
    KIND_DENSE,
    KIND_DOWNSAMPLE,
    KIND_GLOBAL_POOL,
    LayerBlock,
    LayerSpec,
    NetworkConfig,
    NetworkSpec,
    cell_rows,
    cell_trainable_parameters,
    layer_specs,
    layer_trainable_parameters,
)

#: Most stages a macro spec may have (each stage past the first downsamples,
#: so deep schedules shrink the spatial grid fast; eight is already extreme
#: for 32x32 inputs and keeps random/mutated specs bounded).
MAX_STAGES = 8

#: Most cell repetitions within one stage.
MAX_STAGE_DEPTH = 16

#: Canonical width-multiplier ladder used by random sampling and the
#: width-step mutation.  Any positive multiplier is *valid* on a
#: :class:`StageSpec`; the ladder only discretizes the search moves.
WIDTH_MULTIPLIERS: tuple[float, ...] = (0.5, 1.0, 1.5, 2.0, 3.0, 4.0)

#: Largest accepted width multiplier (guards mutated/deserialized specs).
MAX_WIDTH_MULTIPLIER = 8.0


@dataclass(frozen=True)
class StageSpec:
    """One stage of a macro architecture: a cell, repeated, at a width.

    Parameters
    ----------
    cell:
        The cell expanded by every repetition of this stage.
    depth:
        Number of cell instances stacked in the stage (``cells_per_stack``
        of the legacy backbone).
    width_multiplier:
        Factor applied to the running channel count when the network enters
        this stage (the legacy backbone uses 1 for stage 0 and 2 afterwards).
    """

    cell: Cell
    depth: int = 3
    width_multiplier: float = 2.0

    def __post_init__(self) -> None:
        if not isinstance(self.depth, int) or isinstance(self.depth, bool):
            raise InvalidCellError(
                f"stage depth must be an integer, got {self.depth!r}"
            )
        if not 1 <= self.depth <= MAX_STAGE_DEPTH:
            raise InvalidCellError(
                f"stage depth must be in [1, {MAX_STAGE_DEPTH}], got {self.depth}"
            )
        multiplier = self.width_multiplier
        if not isinstance(multiplier, (int, float)) or isinstance(multiplier, bool):
            raise InvalidCellError(
                f"stage width_multiplier must be a number, got {multiplier!r}"
            )
        if not math.isfinite(multiplier) or not 0.0 < multiplier <= MAX_WIDTH_MULTIPLIER:
            raise InvalidCellError(
                "stage width_multiplier must be a finite value in "
                f"(0, {MAX_WIDTH_MULTIPLIER}], got {multiplier!r}"
            )
        object.__setattr__(self, "width_multiplier", float(multiplier))

    def to_dict(self) -> dict:
        """JSON-serializable description of the stage."""
        return {
            "cell": self.cell.to_dict(),
            "depth": self.depth,
            "width_multiplier": self.width_multiplier,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "StageSpec":
        """Reconstruct a stage from :meth:`to_dict` output."""
        return cls(
            cell=Cell.from_dict(payload["cell"]),
            depth=int(payload["depth"]),
            width_multiplier=float(payload["width_multiplier"]),
        )


@dataclass(frozen=True, eq=False)
class MacroSpec:
    """A staged macro architecture over NASBench cells.

    Follows the :class:`~repro.nasbench.cell.Cell` conventions: validated in
    a custom ``__init__`` (raising :class:`InvalidCellError` with the
    offending field named), hashable and comparable by a cached content
    :attr:`fingerprint` — over the *pruned* per-stage cell fingerprints, so
    two specs whose stage cells are isomorphic are the same model — and
    round-trippable through :meth:`to_dict` / :meth:`from_dict`.
    """

    stages: tuple[StageSpec, ...]
    stem_channels: int = 128
    image_size: int = 32
    image_channels: int = 3
    num_classes: int = 10
    _fingerprint: str | None = field(init=False, repr=False, compare=False)

    def __init__(
        self,
        stages,
        stem_channels: int = 128,
        image_size: int = 32,
        image_channels: int = 3,
        num_classes: int = 10,
    ):
        object.__setattr__(self, "stages", tuple(stages))
        object.__setattr__(self, "stem_channels", int(stem_channels))
        object.__setattr__(self, "image_size", int(image_size))
        object.__setattr__(self, "image_channels", int(image_channels))
        object.__setattr__(self, "num_classes", int(num_classes))
        object.__setattr__(self, "_fingerprint", None)
        self._validate()

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #
    def _validate(self) -> None:
        if not self.stages:
            raise InvalidCellError("a macro spec needs at least one stage")
        if len(self.stages) > MAX_STAGES:
            raise InvalidCellError(
                f"macro spec has {len(self.stages)} stages, the maximum is {MAX_STAGES}"
            )
        for stage in self.stages:
            if not isinstance(stage, StageSpec):
                raise InvalidCellError(
                    f"macro stages must be StageSpec instances, got {type(stage).__name__}"
                )
        for name in ("stem_channels", "image_size", "image_channels", "num_classes"):
            if getattr(self, name) <= 0:
                raise InvalidCellError(
                    f"macro spec field {name} must be positive, got {getattr(self, name)}"
                )
        if self.image_size < 2 ** (len(self.stages) - 1):
            raise InvalidCellError(
                f"image size {self.image_size} too small for "
                f"{len(self.stages)} stages ({len(self.stages) - 1} downsamples)"
            )
        # Every stage must keep at least one channel after its rescale; the
        # rounding rule below clamps at one, so only validate the stem here.

    # ------------------------------------------------------------------ #
    # Identity
    # ------------------------------------------------------------------ #
    @property
    def fingerprint(self) -> str:
        """Content fingerprint over pruned stage cells and the macro shape."""
        if self._fingerprint is None:
            payload = {
                "kind": "macro-spec",
                "stages": [
                    [stage.cell.fingerprint, stage.depth, stage.width_multiplier]
                    for stage in self.stages
                ],
                "stem_channels": self.stem_channels,
                "image_size": self.image_size,
                "image_channels": self.image_channels,
                "num_classes": self.num_classes,
            }
            text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
            value = hashlib.sha256(text.encode("utf-8")).hexdigest()
            object.__setattr__(self, "_fingerprint", value)
        return self._fingerprint

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MacroSpec):
            return NotImplemented
        return self.fingerprint == other.fingerprint

    def __hash__(self) -> int:
        return hash(self.fingerprint)

    # ------------------------------------------------------------------ #
    # Shape queries
    # ------------------------------------------------------------------ #
    @property
    def num_stages(self) -> int:
        """Number of stages."""
        return len(self.stages)

    @property
    def total_cells(self) -> int:
        """Total cell instances across all stages."""
        return sum(stage.depth for stage in self.stages)

    @property
    def stage_channels(self) -> list[int]:
        """Channel count of each stage's cells, after its width rescale."""
        return [channels for _in_channels, channels, _stage in self._stage_walk()]

    @property
    def trainable_parameters(self) -> int:
        """Trainable parameters of the expanded network, without expanding it.

        Equal to ``self.build_network().trainable_parameters``: the stem
        convolution, each stage's cell instances counted per vertex by
        :func:`~repro.nasbench.network.cell_trainable_parameters`, and the
        dense head.
        """
        total = layer_trainable_parameters(
            KIND_CONV, self.image_channels, self.stem_channels, 3, True
        )
        channels = self.stem_channels
        for in_channels, channels, stage in self._stage_walk():
            total += cell_trainable_parameters(
                stage.cell.prune(), in_channels, channels, stage.depth
            )
        return total + layer_trainable_parameters(KIND_DENSE, channels, self.num_classes, 1, False)

    def _stage_walk(self) -> Iterator[tuple[int, int, StageSpec]]:
        """``(in_channels, channels, stage)`` per stage, in order.

        The one stage schedule that :meth:`layer_blocks`,
        :attr:`trainable_parameters` and :attr:`stage_channels` walk: each
        stage rescales the running channel count by its width multiplier,
        and its first cell takes the previous stage's width (the stem's for
        stage 0).
        """
        in_channels = channels = self.stem_channels
        for stage in self.stages:
            channels = max(1, int(round(channels * stage.width_multiplier)))
            yield in_channels, channels, stage
            in_channels = channels

    # ------------------------------------------------------------------ #
    # Expansion
    # ------------------------------------------------------------------ #
    def layer_blocks(self) -> list[LayerBlock]:
        """Expand the macro spec into its layer rows, in topological order.

        The loop is the legacy :func:`~repro.nasbench.network.build_network`
        expansion generalized per stage: a stem convolution, then each stage
        (downsample-on-entry except stage 0, width rescale, ``depth`` cell
        expansions), then the global-pool + dense head.  Each block carries
        its layer-name prefix (``stack{i}/cell{j}``, ``stack{i}`` for the
        downsample) and spatial size; the cells of a stage that see the same
        input width share one row list, so a stage expands its cell at most
        twice.
        """
        height = width = self.image_size
        channels = self.stem_channels
        blocks: list[LayerBlock] = [
            ("stem", height, width, [("conv3x3", KIND_CONV, self.image_channels, channels, 3, 1)])
        ]

        for stack_index, (in_channels, channels, stage) in enumerate(self._stage_walk()):
            if stack_index > 0:
                downsample = ("downsample", KIND_DOWNSAMPLE, in_channels, in_channels, 2, 2)
                blocks.append((f"stack{stack_index}", height, width, [downsample]))
                height = math.ceil(height / 2)
                width = math.ceil(width / 2)

            cell = stage.cell.prune()
            rows = cell_rows(cell, in_channels, channels)
            for cell_index in range(stage.depth):
                if cell_index == 1 and in_channels != channels:
                    rows = cell_rows(cell, channels, channels)
                blocks.append((f"stack{stack_index}/cell{cell_index}", height, width, rows))

        pool = ("global_pool", KIND_GLOBAL_POOL, channels, channels, 1, 1)
        blocks.append(("head", height, width, [pool]))
        blocks.append(("head", 1, 1, [("dense", KIND_DENSE, channels, self.num_classes, 1, 1)]))
        return blocks

    def build_layers(self) -> tuple[LayerSpec, ...]:
        """The named :class:`~repro.nasbench.network.LayerSpec` view of
        :meth:`layer_blocks` (what the scalar simulator walks)."""
        return tuple(layer_specs(self.layer_blocks()))

    def build_network(self) -> NetworkSpec:
        """Expand into a :class:`~repro.nasbench.network.NetworkSpec`.

        The spec's ``cell`` is the (pruned) first-stage cell and its
        ``config`` the nearest legacy description (stage count and first
        -stage depth); the ``layers`` tuple — the part every downstream
        consumer reads — is the exact staged expansion.
        """
        config = NetworkConfig(
            stem_channels=self.stem_channels,
            num_stacks=len(self.stages),
            cells_per_stack=self.stages[0].depth,
            image_size=self.image_size,
            image_channels=self.image_channels,
            num_classes=self.num_classes,
        )
        return NetworkSpec(
            cell=self.stages[0].cell.prune(),
            config=config,
            layers=self.build_layers(),
        )

    @property
    def representative_cell(self) -> Cell:
        """The pruned first-stage cell (accuracy surrogate / legacy fields)."""
        return self.stages[0].cell.prune()

    # ------------------------------------------------------------------ #
    # Legacy bridge
    # ------------------------------------------------------------------ #
    @classmethod
    def from_network_config(
        cls, cell: Cell, config: NetworkConfig | None = None
    ) -> "MacroSpec":
        """The trivial macro spec of the legacy single-cell expansion.

        Every stage carries the same (pruned) cell at the legacy depth;
        stage 0 keeps the stem width (multiplier 1) and every later stage
        doubles it (multiplier 2) — exactly the legacy channel schedule, so
        :meth:`build_layers` reproduces
        :func:`~repro.nasbench.network.build_network` bit for bit.
        """
        if config is None:
            config = NetworkConfig()
        pruned = cell.prune()
        stages = tuple(
            StageSpec(
                cell=pruned,
                depth=config.cells_per_stack,
                width_multiplier=1.0 if index == 0 else 2.0,
            )
            for index in range(config.num_stacks)
        )
        return cls(
            stages,
            stem_channels=config.stem_channels,
            image_size=config.image_size,
            image_channels=config.image_channels,
            num_classes=config.num_classes,
        )

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        """Return a JSON-serializable description of the macro spec."""
        return {
            "stages": [stage.to_dict() for stage in self.stages],
            "stem_channels": self.stem_channels,
            "image_size": self.image_size,
            "image_channels": self.image_channels,
            "num_classes": self.num_classes,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "MacroSpec":
        """Reconstruct a macro spec from :meth:`to_dict` output."""
        return cls(
            tuple(StageSpec.from_dict(entry) for entry in payload["stages"]),
            stem_channels=int(payload["stem_channels"]),
            image_size=int(payload["image_size"]),
            image_channels=int(payload["image_channels"]),
            num_classes=int(payload["num_classes"]),
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        shape = ", ".join(
            f"(d={stage.depth}, w={stage.width_multiplier:g})" for stage in self.stages
        )
        return f"MacroSpec(stages=[{shape}], stem={self.stem_channels})"


# ---------------------------------------------------------------------- #
# Dispatch and sampling helpers
# ---------------------------------------------------------------------- #
def expand_architecture(
    arch: Cell | MacroSpec, network_config: NetworkConfig | None = None
) -> NetworkSpec:
    """Expand either architecture form into its network.

    The single dispatch point the sweep executors share: a
    :class:`MacroSpec` carries its own macro settings and ignores
    *network_config*; a bare :class:`~repro.nasbench.cell.Cell` expands
    through the legacy backbone.
    """
    if isinstance(arch, MacroSpec):
        return arch.build_network()
    from .network import build_network  # deferred: network imports us lazily

    return build_network(arch, network_config)


def architecture_blocks(
    arch: Cell | MacroSpec, network_config: NetworkConfig | None = None
) -> list[LayerBlock]:
    """Layer rows of either architecture form (the rows
    :func:`expand_architecture` names), with the same dispatch."""
    if isinstance(arch, MacroSpec):
        return arch.layer_blocks()
    return MacroSpec.from_network_config(arch, network_config).layer_blocks()


def architecture_to_dict(arch: Cell | MacroSpec) -> dict:
    """Tagged JSON form of either architecture (see :func:`architecture_from_dict`)."""
    if isinstance(arch, MacroSpec):
        return {"kind": "macro", **arch.to_dict()}
    return {"kind": "cell", **arch.to_dict()}


def architecture_from_dict(payload: dict) -> Cell | MacroSpec:
    """Inverse of :func:`architecture_to_dict`; untagged payloads are cells
    (the pre-macro serialization format)."""
    kind = payload.get("kind", "cell")
    if kind == "macro":
        return MacroSpec.from_dict(payload)
    if kind == "cell":
        return Cell.from_dict(payload)
    raise InvalidCellError(f"unknown architecture kind {kind!r}")


def random_macro(
    rng: np.random.Generator,
    max_stages: int = 3,
    max_stage_depth: int = 3,
    max_vertices: int | None = None,
    max_edges: int | None = None,
    stem_channels: int = 128,
    image_size: int = 32,
    image_channels: int = 3,
    num_classes: int = 10,
) -> MacroSpec:
    """Draw one uniform random macro spec.

    Stage count and per-stage depth are uniform in ``[1, max]``, each stage's
    cell is an independent :func:`~repro.nasbench.generator.random_cell`, and
    width multipliers are drawn from the :data:`WIDTH_MULTIPLIERS` ladder.
    """
    from .generator import random_cell  # deferred: generator imports Cell only
    from .ops import MAX_EDGES, MAX_VERTICES

    max_vertices = MAX_VERTICES if max_vertices is None else max_vertices
    max_edges = MAX_EDGES if max_edges is None else max_edges
    num_stages = 1 + int(rng.integers(max_stages))
    stages = tuple(
        StageSpec(
            cell=random_cell(rng, max_vertices, max_edges),
            depth=1 + int(rng.integers(max_stage_depth)),
            width_multiplier=float(
                WIDTH_MULTIPLIERS[int(rng.integers(len(WIDTH_MULTIPLIERS)))]
            ),
        )
        for _ in range(num_stages)
    )
    return MacroSpec(
        stages,
        stem_channels=stem_channels,
        image_size=image_size,
        image_channels=image_channels,
        num_classes=num_classes,
    )
