"""daoplint rule families; importing this package registers every rule.

Rule families (see ``docs/linting.md`` for the paper justification):

- :mod:`repro.lint.rules.determinism` (DET00x) -- no hidden entropy or
  wall-clock reads; the simulation is deterministic end-to-end.
- :mod:`repro.lint.rules.layering` (LAY001/LAY002) -- the package
  import DAG and its registration completeness.
- :mod:`repro.lint.rules.engine_contract` (ENG00x) -- the "identical
  substrate" guarantee for DAOP vs. the baselines.
- :mod:`repro.lint.rules.api_hygiene` (API00x) -- docstrings, __all__
  consistency, and units on hardware-model dataclass fields.
- :mod:`repro.lint.rules.timeline` (TL00x) -- the timeline op record is
  append-only and owned by repro.hardware.
- :mod:`repro.lint.rules.docs_sync` (DOC001/NUM001) -- registered
  engines stay documented in the architecture taxonomy, and golden
  tests compare floats through ``pytest.approx``.
"""

from repro.lint.rules.api_hygiene import (
    DunderAllRule,
    ExportDriftRule,
    FieldUnitsRule,
    ModuleDocstringRule,
)
from repro.lint.rules.determinism import (
    StdlibRandomRule,
    UnseededNumpyRule,
    WallClockRule,
)
from repro.lint.rules.docs_sync import (
    EngineTaxonomyDocRule,
    FloatEqualityRule,
)
from repro.lint.rules.engine_contract import (
    BaselineMigrationRule,
    ExpertStageApiRule,
    PrivateSubstrateAccessRule,
    SubstrateOverrideRule,
)
from repro.lint.rules.layering import (
    LAYERS,
    ImportLayeringRule,
    PackageRegistrationRule,
)
from repro.lint.rules.timeline import TimelineOpsMutationRule

__all__ = [
    "DunderAllRule",
    "ExportDriftRule",
    "FieldUnitsRule",
    "ModuleDocstringRule",
    "EngineTaxonomyDocRule",
    "FloatEqualityRule",
    "StdlibRandomRule",
    "UnseededNumpyRule",
    "WallClockRule",
    "BaselineMigrationRule",
    "ExpertStageApiRule",
    "PrivateSubstrateAccessRule",
    "SubstrateOverrideRule",
    "LAYERS",
    "ImportLayeringRule",
    "PackageRegistrationRule",
    "TimelineOpsMutationRule",
]
