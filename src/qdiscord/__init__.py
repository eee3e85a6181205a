"""qdiscord: decide, quantify and exploit quantum discord in bipartite states.

Core surface: the SVD/commutator zero-discord criterion with its rank
witness, closed-form and oracle geometric discord for two qubits, entropic
discord by projective measurement optimization, and DQC1 trace-estimation
analysis.
"""

from .basis import gell_mann_basis
from .correlation import (
    CorrelationMatrix,
    LocalOperatorPair,
    PartialRowsVerdict,
    ZeroDiscordVerdict,
    correlation_matrix,
    local_operators,
    numerical_rank,
    partial_rows_witness,
    zero_discord_test,
)
from .dqc1 import (
    Dqc1Classicality,
    Dqc1Instance,
    TraceEstimate,
    dqc1_classicality_check,
    dqc1_exact_readout,
    dqc1_output_state,
    dqc1_sample_trace,
)
from .entropic import (
    ClassicalCorrelationResult,
    classical_correlation_qa,
    entropic_discord,
    fibonacci_sphere,
    mutual_information,
)
from .errors import (
    DimensionError,
    NonHermitianError,
    NotUnitaryError,
    OutsidePhysicalError,
    ParseError,
    QDiscordError,
    ValidationError,
)
from .geometric import (
    BlochTriple,
    GeometricResult,
    bell_diagonal_discord,
    bloch_triple,
    geometric_discord_2q,
    geometric_discord_oracle,
    octahedron_contains,
    state_from_bloch,
    tetrahedron_contains,
)
from .linalg import (
    DensityMatrix,
    partial_trace,
    von_neumann_entropy,
)
from .states import (
    bell_diagonal_state,
    bell_state,
    classical_quantum_state,
    facet_state,
    four_nonorthogonal_state,
    measure_prepare_channel_a,
    projector,
    random_density_matrix,
    random_unitary,
)

__version__ = "0.1.0"
