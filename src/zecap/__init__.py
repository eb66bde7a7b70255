"""Zero-error coding workbench for binary channels with input and output run memory."""

from .capacity import (
    CapacityResult,
    bounds_table,
    capacity,
    lambda_root,
    multinacci_root,
    multinacci_value,
    omega_root,
)
from .channel import ChannelParams, condition_a, condition_b, step_outputs, transition_prob
from .codesearch import (
    Code,
    SearchResult,
    optimal_code,
    rate,
    read_code_file,
    replace_codeword,
    search,
    verify_code,
    write_code_file,
)
from .confusability import (
    ConfusabilityGraph,
    build_graph,
    confusable_dp,
    output_membership,
    possible_outputs,
)
from .constructions import (
    forbidden_run_code,
    forbidden_run_counts,
    growth_ratio,
    no_run_break_counts,
    pairwise_block_code,
)
from .errors import CapExceededError, PreconditionError, ZecapError
from .sequences import Bits, all_sequences, contains_run
from .simulate import DecodeResult, TrialReport, decode, sample_output, zero_error_trial

__version__ = "0.1.0"

__all__ = [
    "Bits",
    "CapExceededError",
    "CapacityResult",
    "ChannelParams",
    "Code",
    "ConfusabilityGraph",
    "DecodeResult",
    "PreconditionError",
    "SearchResult",
    "TrialReport",
    "ZecapError",
    "all_sequences",
    "bounds_table",
    "build_graph",
    "capacity",
    "condition_a",
    "condition_b",
    "confusable_dp",
    "contains_run",
    "decode",
    "forbidden_run_code",
    "forbidden_run_counts",
    "growth_ratio",
    "lambda_root",
    "multinacci_root",
    "multinacci_value",
    "no_run_break_counts",
    "omega_root",
    "optimal_code",
    "output_membership",
    "pairwise_block_code",
    "possible_outputs",
    "rate",
    "read_code_file",
    "replace_codeword",
    "sample_output",
    "search",
    "step_outputs",
    "transition_prob",
    "verify_code",
    "write_code_file",
    "zero_error_trial",
]
