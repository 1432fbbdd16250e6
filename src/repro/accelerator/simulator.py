"""The runtime accelerator model: a design point plus its feature format.

An accelerator is declared as a
:class:`~repro.accelerator.design.DesignPoint` (the *what*: paper Table I's
design choices) and executed by :func:`~repro.accelerator.pipeline.simulate_design`
(the *how*: the five-stage pipeline).  :class:`AcceleratorModel` is the thin
wrapper the registry instantiates and a :class:`~repro.core.session.Session`
memoizes: it pairs a design point with its resolved feature-format instance,
so runs of the same design share one format object.
"""

from __future__ import annotations

import copy
from typing import Dict, Optional, Sequence

from repro.accelerator.design import DesignPoint
from repro.accelerator.pipeline import simulate_design
from repro.core.config import SystemConfig
from repro.core.results import SimulationResult
from repro.formats.base import FeatureFormat
from repro.gcn.providers import SparsityProvider
from repro.graphs.datasets import Dataset
from repro.memory.replay import TraceCache


class AcceleratorModel:
    """A runtime accelerator model: a design point plus its feature format."""

    def __init__(self, design: DesignPoint) -> None:
        self._set_design(design)

    def _set_design(self, design: DesignPoint) -> None:
        """Install ``design`` (and its format instance) on this model."""
        self._design = design
        self._format = design.format_instance()

    @property
    def design(self) -> DesignPoint:
        """The design point this model executes."""
        return self._design

    @property
    def name(self) -> str:
        """Registry key of the design (``design.name``)."""
        return self._design.name

    @property
    def feature_format(self) -> FeatureFormat:
        """The feature format instance used for intermediate features."""
        return self._format

    def use_design(self, design: DesignPoint) -> "AcceleratorModel":
        """A copy of this model executing a different design point.

        The receiver is left untouched (sessions memoize and share model
        instances across runs); the reconfigured copy is returned.
        """
        model = copy.copy(self)
        model._set_design(design)
        return model

    def use_format(
        self, format_name: str, slice_size: Optional[int] = None
    ) -> "AcceleratorModel":
        """A copy of this model using a different intermediate-feature format.

        Used by :class:`repro.core.session.Session` to apply a
        :class:`~repro.core.runspec.RunSpec` feature-format override.  The
        copy's design point is normalised like any directly-constructed one,
        so overriding a design with its own native format yields an *equal*
        design (no duplicate session cache entries).
        """
        return self.use_design(self._design.with_format(format_name, slice_size))

    def describe(self) -> Dict[str, object]:
        """Row of the paper's Table I for this accelerator."""
        description = self._design.describe()
        # The live format instance wins over the design's reference (they
        # only differ for exotic externally-injected formats).
        description["compressed_feature"] = self._format.compressed
        description["feature_format"] = self._format.name
        return description

    def simulate(
        self,
        dataset: Dataset,
        config: Optional[SystemConfig] = None,
        variant: str = "gcn",
        max_sampled_layers: int = 6,
        seed: int = 0,
        trace_cache: Optional[TraceCache] = None,
        sparsity: Optional[SparsityProvider] = None,
        capacity_spectrum: Sequence[int] = (),
    ) -> SimulationResult:
        """Simulate a full deep-GCN inference on ``dataset``.

        See :func:`repro.accelerator.pipeline.simulate_design` for the
        parameter semantics (including ``capacity_spectrum``, which seeds
        the replay memo for a whole capacity sweep); this wrapper supplies
        the model's design point and shared format instance.
        """
        return simulate_design(
            self._design,
            dataset,
            config=config,
            variant=variant,
            max_sampled_layers=max_sampled_layers,
            seed=seed,
            trace_cache=trace_cache,
            feature_format=self._format,
            sparsity=sparsity,
            capacity_spectrum=capacity_spectrum,
        )


__all__ = ["AcceleratorModel"]
