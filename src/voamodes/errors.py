"""Shared exception types."""


class TruncationOverflow(Exception):
    """A requested result lies above the configured weight/level cap."""


class NonHomogeneous(Exception):
    """An operation requiring a homogeneous vector got a mixed one."""


class OutOfTable(Exception):
    """A map-table lookup outside the stored generator grid."""
