"""Developer tooling for the repro engine: the determinism linter.

``python -m repro.devtools.lint src`` (or ``repro lint``) machine-checks
the coding rules behind the repo's determinism contracts -- seeded RNG
only, no wall-clock reads, ordered iteration over fault sets, frozen spec
dataclasses.  See :mod:`repro.devtools.rules` for the rule catalog and
``docs/devtools.md`` for the human-readable version.
"""
