"""Analysis layer: paper reference data, table builders and comparisons.

The benchmark harness uses this package to print, for every table of the
paper, the reproduced rows side by side with the published numbers and a set
of trend checks (who wins, by what factor).  For Table I the fidelity ledger
(``table1_ledger``) also records every paper cell's model value and error,
or the typed reason the model has no point for it.
"""

from repro.analysis.reference import (
    PAPER_TABLE1,
    PAPER_TABLE2,
    PAPER_TABLE3,
    TABLE1_PARALLELISMS,
    TABLE1_ROUTINGS,
    TABLE1_TOPOLOGIES,
    Table1Cell,
    Table3Row,
)
from repro.analysis.tables import (
    build_ber_table,
    build_table1,
    build_table2,
    build_table3,
    check_table1_trends,
    table1_ledger,
)

__all__ = [
    "PAPER_TABLE1",
    "PAPER_TABLE2",
    "PAPER_TABLE3",
    "TABLE1_PARALLELISMS",
    "TABLE1_ROUTINGS",
    "TABLE1_TOPOLOGIES",
    "Table1Cell",
    "Table3Row",
    "build_ber_table",
    "build_table1",
    "build_table2",
    "build_table3",
    "check_table1_trends",
    "table1_ledger",
]
