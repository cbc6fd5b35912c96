"""dfplace: dataflow-driven macro placement at cluster granularity.

Pipeline: parse a structural netlist, bundle buses, cluster by hierarchy,
extract direct/indirect/two-hop dataflow connections, globally place cell
clusters, anneal the macro sequence pair against a dataflow-weighted loss
with area feedback, then fine-tune macro orientations along the dominant
dataflow direction.
"""

from .clustering import (
    CELL_CLUSTER,
    MACRO_CLUSTER,
    Cluster,
    ClusteredNetlist,
    build_clusters,
    compute_cluster_edges,
    dump_clusters,
)
from .dataflow import (
    CC,
    MC,
    MCC,
    MM_DIRECT,
    MM_INDIRECT,
    DataflowEdge,
    DataflowGraph,
    classify_direct_edges,
    cell_hop_weight,
    export_graph,
    extract_dataflow,
    extract_indirect_mm,
    extract_two_hop,
)
from .finetune import (
    FlipDecision,
    FlipVector,
    decide_and_apply_flip,
    decompose_dataflow_vectors,
    order_macros_for_flipping,
    run_flipping_pass,
)
from .metrics import (
    CongestionGrid,
    RunReport,
    calibrate_capacity,
    category_hpwl,
    congestion,
    emit_report,
    hpwl,
    total_hpwl,
)
from .netlist import (
    Instance,
    Master,
    Net,
    Nets,
    Netlist,
    bundle_buses,
    parse_netlist,
    serialize_netlist,
)
from .pipeline import (
    PipelineConfig,
    PipelineResult,
    StageTiming,
    load_config,
    run_pipeline,
)
from .placer import (
    Floorplan,
    LossBreakdown,
    MacroPlacement,
    PlacerConfig,
    SaSchedule,
    SequencePair,
    compute_loss,
    evaluate_sequence_pair,
    global_place_clusters,
    macro_shapes,
    normalize_macro_area,
    run_sa,
)
from .render import render_svg
from .synth import generate_design, random_netlist

__version__ = "0.1.0"


def __getattr__(name):
    # the Verilog parser is imported on first use: without cached bytecode
    # every import compiles it, and a JSON run never calls it
    if name == "parse_verilog_subset":
        from .verilog import parse_verilog_subset

        return parse_verilog_subset
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
