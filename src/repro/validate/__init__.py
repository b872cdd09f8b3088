"""Runtime invariant auditors for schedules, tilings and reports.

The validation layer proves that every artifact the simulator produces
is *internally consistent*:

* :mod:`repro.validate.schedule` -- every
  :class:`~repro.dpipe.scheduler.ScheduleResult` respects dependency
  order, books each PE array exclusively, interleaves epochs legally
  and reports the exact earliest-finish makespan of Eq. 43-46.
* :mod:`repro.validate.tiling` -- every accepted
  :class:`~repro.tileseek.buffer_model.TilingConfig` genuinely fits
  the Table-2 buffer capacities, and its traffic/energy assessment is
  reproducible from first principles.
* :mod:`repro.validate.conservation` -- every
  :class:`~repro.sim.stats.RunReport` conserves words and energy:
  per-phase DRAM traffic balances against tensor footprints, and
  energy equals accesses times the per-access table.
* :mod:`repro.validate.oracle` -- the cascade DAGs imply exactly the
  operation counts the simulator charges, and the cascades compute
  the same numbers as :mod:`repro.reference.functional`.

Auditors run automatically behind the ``REPRO_VALIDATE`` flag (see
:mod:`repro.validate.config`): on by default in the test suite, off in
hot sweep paths.  ``python -m repro validate`` audits one grid point
end to end.

This package ``__init__`` deliberately exports only the flag handling
and the report types; the auditors and the orchestration layer
(:mod:`repro.validate.runner`) are imported lazily by their consumers
to keep hot modules import-cycle-free.
"""

from repro._exports import export_names, lazy_exports

_EXPORTS = {
    "repro.validate.config": (
        "ENV_VALIDATE", "force_validation", "validation_enabled",
    ),
    "repro.validate.report": ("AuditCheck", "AuditReport", "AuditViolation"),
}

__all__ = export_names(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)
