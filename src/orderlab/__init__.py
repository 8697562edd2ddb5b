"""orderlab: fake-order injection, detection and rectification for
sequential recommenders, end to end and deterministically seeded."""

__version__ = "0.1.0"
