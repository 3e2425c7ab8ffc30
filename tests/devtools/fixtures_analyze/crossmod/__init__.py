"""Fixture package: cross-module defects the file-scope rules cannot see.

Every module here is clean under the ``file`` rule family (the defects
only exist across module boundaries), yet the ``units`` and ``purity``
families flag each one — the test-suite asserts both directions.
``timing.py`` is the deliberate exception: it contains the *direct*
wall-clock read the file rules do catch, so the tests can show the
transitive finding in ``jitter.py`` is new information.
"""

__all__ = []
