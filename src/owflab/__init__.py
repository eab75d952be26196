"""One-way function laboratory: rewrite systems, pair lists, and tilings
compiled from Turing machines, with deterministic-closure semantics and
brute-force inversion experiments."""

from .bitcodes import gamma_decode, gamma_encode, is_bits
from .coding import (
    BLOCKS,
    CodeTable,
    CodingError,
    UNDECOMPOSABLE,
    block_decompose,
    build_code_table,
    code_len_bound,
    decode,
    encode,
    table_from_json,
    table_to_json,
    verify_properties,
)
from .inverter import (
    Found,
    LimitExceeded,
    NotFound,
    backward_search,
    brute_invert,
    invert_staf_target,
    owf_experiment,
    rows_to_csv,
    staf_payload,
    staf_target,
)
from .kernels import backend_name
from .machine import (
    BLANK,
    LIBRARY_NAMES,
    Machine,
    MachineParseError,
    library_machine,
    machine_source,
    parse_machine,
    run,
    step_bound,
)
from .pcp import (
    PAPER_POLICY,
    PairList,
    PcpCompilation,
    YieldStep,
    compile_pcp,
    expected_pair_counts,
    pairs_from_text,
    pairs_to_text,
    parse_pcp_instance,
    pcp_decode_output,
    pcp_det_closure,
    pcp_encode_input,
    ptf,
    ptf_budget,
    serialize_pcp_instance,
    verify_witness,
    yield_successors,
)
from .sampler import (
    DefaultUniform,
    PcpSample,
    StsSample,
    instance_size,
    int_probability,
    length_probability,
    make_rng,
    sample_int,
    sample_pcp_instance,
    sample_string,
    sample_sts_instance,
    truncated_mass_bound,
)
from .semithue import (
    ClosureOutcome,
    DeterminismPolicy,
    InstanceParseError,
    LOOKAHEAD8,
    RewriteSystem,
    STRICT,
    StepOutcome,
    TraceStep,
    det_closure,
    det_step,
    instance_from_text,
    instance_to_text,
    parse_instance,
    serialize_instance,
    staf,
    staf_budget,
    trace_to_jsonl,
)
from .stcompile import (
    CompileError,
    NOT_FINAL,
    StCompilation,
    compile_semithue,
    expected_schema_counts,
    st_decode_output,
    st_encode_input,
)
from .tiling import (
    AmbiguousRow,
    Completed,
    Stalled,
    Tile,
    TileSet,
    TilingError,
    bottom_row,
    compile_tileset,
    extract_output,
    next_rows,
    parse_tiling_instance,
    serialize_tiling_instance,
    tile_closure,
    tileset_from_text,
    tileset_to_text,
    tiling_f,
)

__version__ = "1.0.0"
