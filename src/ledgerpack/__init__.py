"""ledgerpack: parse Bitcoin-style ledgers, measure them, shrink their footprint."""

__version__ = "0.1.0"
