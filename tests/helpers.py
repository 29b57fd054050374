"""Assertions shared by several test modules."""


def assert_counters_equal_ledger(result):
    """A traced cluster run's ``wire.bytes*`` counters equal its wire ledger.

    ``wire.bytes*`` carry the raw (pre-codec) sizes and
    ``wire.bytes_encoded*`` what physically crossed the sockets.  Both must
    equal the ledger in total, per direction and per kind, and no counter
    may name a direction or kind the ledger never recorded.  ``result``
    needs only ``.trace`` and ``.ledger.wire``.
    """
    wire = result.ledger.wire
    directions = {rec.direction for rec in wire.records}
    expected = {
        "wire.bytes": wire.total_raw_bytes(),
        "wire.bytes_encoded": wire.total_bytes(),
    }
    for prefix, by_direction, by_kind in (
        ("wire.bytes", wire.raw_bytes_by_direction(), wire.raw_bytes_by_kind()),
        ("wire.bytes_encoded", wire.bytes_by_direction(), wire.bytes_by_kind()),
    ):
        expected.update({f"{prefix}.{d}": by_direction[d] for d in directions})
        expected.update({f"{prefix}.{kind}": n for kind, n in by_kind.items()})
    actual = {
        name: int(value) for name, value in result.trace.metrics.counters.items()
        if name.startswith("wire.bytes")
    }
    assert actual == expected
