"""Cooperative data exchange: rate allocation over cut-set polyhedra and
verified network-coded transmission schedules."""

from .gf import (
    FieldSpec,
    FMatrix,
    RowBasis,
    ShapeError,
    SingularSystem,
    rank,
    solve_full_rank,
)
from .model import (
    CutSetOracle,
    InfeasibleInstance,
    InstanceError,
    ProblemInstance,
    TableTooLarge,
    generate_instance,
    in_cut_set_region,
    instance_from_packet_sets,
    load_instance,
    preset_instance,
    save_instance,
)
from .netcode import (
    ConstructionFailed,
    DecodeReport,
    ExchangeState,
    InfeasibleRates,
    NotDecodable,
    RngSpec,
    TransmissionSchedule,
    construct_code,
    decode,
    load_schedule,
    randomized_alloc,
    save_schedule,
    transmit_values,
    verify_decodable,
)
from .ratealloc import (
    Allocation,
    FairCost,
    Infeasible,
    LinearCost,
    MinCostResult,
    TableCost,
    convex_alloc,
    eval_h,
    min_cost,
    min_sum_rate,
    modified_edmonds,
    subgradient_minimizer,
)

__version__ = "0.1.0"
