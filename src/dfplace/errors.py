"""Exception types raised across the package, one class per failure mode.

Each error carries the exit code of its category (``exit_code``), which the
command line returns for it: 2 config, 4 netlist input, 5 clustering, 6
placement and metrics.
"""


class DfplaceError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 7  # no category: an unexpected internal error


class InputError(DfplaceError):
    """The netlist input is invalid."""

    exit_code = 4


class PlacementError(DfplaceError):
    """Placement or evaluation cannot proceed on the given clusters."""

    exit_code = 6


class MalformedDocument(InputError):
    """Input document is structurally invalid (bad field, wrong type, ...)."""


class MissingInstances(InputError):
    """Netlist declares no instances."""


class DanglingPin(InputError):
    """A net references an instance or pin that does not exist."""


class DuplicateName(InputError):
    """Two instances (or masters) share the same name."""


class BadOutline(InputError):
    """Placement outline has a non-positive width or height."""


class UnsupportedConstruct(InputError):
    """Verilog source uses a construct outside the structural subset."""


class UnknownMaster(InputError):
    """An instantiated module has no geometry definition."""


class ThresholdConflict(DfplaceError):
    """Clustering thresholds are inconsistent (min >= max)."""

    exit_code = 5


class DegenerateCluster(PlacementError):
    """Cluster has zero area or zero instance count where positive is required."""


class EmptyGraph(PlacementError):
    """No clusters available for placement."""


class BadPermutation(PlacementError):
    """Sequence-pair halves are not permutations of the same index set."""


class UnplacedCluster(PlacementError):
    """An edge references a cluster that has no position in the floorplan."""


class EmptyPointSet(PlacementError):
    """HPWL requested for an empty point set."""


class ConfigError(DfplaceError):
    """Pipeline configuration is invalid (unknown key, bad value)."""

    exit_code = 2


class PipelineStageError(DfplaceError):
    """Wraps an error raised inside a pipeline stage with stage context."""

    def __init__(self, stage, cause):
        super().__init__(f"stage '{stage}': {cause}")
        self.stage = stage
        self.cause = cause
