"""Test helper: the rows of a ``density_sweep`` table, one dict per lattice."""


def sweep_rows(table):
    """One dict per lattice, keyed like ``table``, built from its columns."""
    return [dict(zip(table, values)) for values in zip(*table.values())]
