"""qcas: quantum architecture search with soft resource constraints.

Subpackages:
    sim         dense statevector simulation primitives
    cell        graph-based circuit intermediate representation
    optim       derivative-free parameter optimization
    controller  numpy transformer mutation policy (REINFORCE + Adam)
    res         random elastic search
    relm        regularized evolution with learned mutation
    tasks       benchmark task definitions and dataset generators
    cli         seeded experiment driver
"""

__version__ = "0.1.0"
