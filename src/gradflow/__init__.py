"""Reverse-mode differentiation and store/recompute planning for dataflow
programs."""

from .autodiff import (
    BackwardBundle,
    CCS,
    GradientResult,
    build_backward,
    derivative,
    extract_ccs,
    gradient,
    restrict_to_ccs,
    reverse_loop_header,
)
from .checkpointing import (
    AffineBytes,
    ForwardedValue,
    ILPProblem,
    ILPSolution,
    MemoryEvent,
    PathSequence,
    PlanResult,
    RecomputePlan,
    apply_plan,
    build_ilp,
    build_memory_sequences,
    collect_forwarded,
    plan,
    run_planned,
    solve_ilp,
)
from .errors import (
    BatchDivergence,
    DependentUnreachable,
    Diagnostic,
    DomainError,
    GradflowError,
    Infeasible,
    IrrecomputableValue,
    MissingTapeValue,
    NegativeResident,
    NoFixpoint,
    NonDifferentiableOp,
    NonTermination,
    OutOfBounds,
    PathExplosion,
    ProgramSyntaxError,
    ShapeMismatch,
    UnboundName,
    UnresolvableTripCount,
    UnsupportedConstruct,
    UnsupportedLoop,
    ValidationFailed,
)
from .frontend import (
    FORMAT_VERSION,
    ProgramBuilder,
    load_program,
    parse_program,
    program_to_dict,
    serialize_program,
)
from .interpreter import (
    RunResult,
    Tape,
    count_flops,
    run_backward,
    run_forward,
)
from .ir import (
    DataDescriptor,
    Program,
    size_bytes,
    validate,
    validate_or_raise,
)
from .verification import (
    MemoryTimeline,
    brute_force_plan,
    compare_gradients,
    finite_difference_gradient,
    sample_inputs,
    simulate_memory,
)
from .versions import analyze_versions

__all__ = [name for name in dir() if not name.startswith("_")]
