"""Exact matrix-mode algebras over the rank-1 free boson.

Doubly indexed matrices over a vertex operator algebra carry a residue
product; evaluation maps turn them into operators on Fock modules, and
intertwining operators correspond to module-map tables.  Everything is
computed in exact rational arithmetic and verified by the `voa-modes`
command-line suites.
"""

from .errors import (
    NonHomogeneous,
    OutOfTable,
    TruncationOverflow,
)
from .series import (
    gen_binomial,
    rat,
    rat_str,
)
from .heisenberg import (
    FockVector,
    conformal_vector,
    partitions_of,
    vacuum,
    weight_of,
    zero_vector,
)
from .fock import (
    FockIntertwiner,
    FockModule,
    right_vertex_op,
)
from .matrices import (
    IndexedMatrix,
    diamond_left,
    diamond_wv,
    identity_n,
    jacobi_kernel_element,
    omega0_n,
    omega1_n,
    opposite_map,
    probe_equal,
)
from .correspondence import (
    MapTable,
    certify_jacobi,
    certify_l1_derivative,
    reachability_closure,
    roundtrip,
    yf_series,
)
from .suites import RunConfig, SuiteReport, run_suites
