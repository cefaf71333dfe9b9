"""Which public callables of each layer the traced run wraps, and the
per-layer metrics computed from their spans.

``PER_LAYER`` is the layer-to-metric map: every per-layer metric with
its layer and the end-to-end metric and workload it should move (on
the other workloads the prediction is no change).  BENCHMARK.json lists
the same names with their units.
"""

from __future__ import annotations

from typing import Any, Dict, List

from tracing import Recorder, mean_ms, obs_value

#: name -> (layer, what it should move); units and directions are in
#: BENCHMARK.json
PER_LAYER: Dict[str, tuple] = {
    "core.select_ms": ("repro.core", "op_cpu_ms.p50 on stream"),
    "core.score_ms": ("repro.core", "op_cpu_ms.p50 on stream and serve"),
    "core.rows_scored": ("repro.core", "op_cpu_ms.p50 on stream"),
    "core.keep_ratio": ("repro.core", "op_cpu_ms.p50 on stream"),
    "nn.conv2d_fwd_ms": ("repro.nn", "op_cpu_ms.p50/p90 on stream; op_cpu_ms.p50 on fleet"),
    "nn.im2col_ms": ("repro.nn", "op_cpu_ms.p50/p90 on stream; op_cpu_ms.p50 on fleet"),
    "nn.col2im_ms": ("repro.nn", "op_cpu_ms.p50/p90 on stream; op_cpu_ms.p50 on fleet"),
    "nn.im2col_bytes": ("repro.nn", "op_cpu_ms.p50 on stream"),
    "nn.backward_ms": ("repro.nn", "op_cpu_ms.p50/p90 on stream; op_cpu_ms.p50 on fleet"),
    "nn.ntxent_ms": ("repro.nn", "op_cpu_ms.p50 on stream"),
    "nn.adam_ms": ("repro.nn", "op_cpu_ms.p50 on stream"),
    "data.augment_ms": ("repro.data", "op_cpu_ms.p50 on stream"),
    "data.segment_wait_ms": ("repro.data", "op_cpu_ms.p50 on stream"),
    "train.probe_ms": ("repro.train", "items_per_cpu_s on stream"),
    "train.knn_ms": ("repro.train", "items_per_cpu_s on stream; op_cpu_ms.p50 on fleet"),
    "session.build_ms": ("repro.session", "op_cpu_ms.p50 on fleet"),
    "session.run_ms": ("repro.session", "op_cpu_ms.p50 on fleet"),
    "fleet.sample_ms": ("repro.fleet", "op_cpu_ms.p50 on fleet"),
    "fleet.aggregate_ms": ("repro.fleet", "op_cpu_ms.p50 on fleet"),
    "fleet.jobs_ms": ("repro.fleet", "op_cpu_ms.p50 on fleet"),
    "fleet.eval_ms": ("repro.fleet", "op_cpu_ms.p50 on fleet"),
    "fleet.round_self_ms": ("repro.fleet", "op_cpu_ms.p50 and peak_rss_mb on fleet"),
    "fleet.devices_seen": ("repro.fleet", "peak_rss_mb on fleet"),
    "fleet.device_knn_acc": ("repro.fleet", "nothing (learning quality of the fleet's devices)"),
    "wire.encode_ms": ("repro.experiments.wire", "op_cpu_ms.p50 on fleet"),
    "wire.decode_ms": ("repro.experiments.wire", "op_cpu_ms.p50 on fleet"),
    "wire.bytes_sent": ("repro.experiments.wire", "op_cpu_ms.p50 on fleet"),
    "wire.compression_ratio": ("repro.experiments.wire", "op_cpu_ms.p50 on fleet"),
    "serve.server_ms": ("repro.serve", "op_cpu_ms.p50/p90 on serve"),
    "serve.transport_ms": ("repro.serve", "op_cpu_ms.p50/p90 on serve"),
    "serve.forward_ms": ("repro.serve", "op_cpu_ms.p50/p90 on serve"),
    "serve.batch_size": ("repro.serve", "op_cpu_ms.p50/p90 on serve"),
    "serve.cache_hit_rate": ("repro.serve", "op_cpu_ms.p50/p90 on serve"),
    "serve.publish_ms": ("repro.serve", "op_cpu_ms.p90 on serve"),
    "serve.queue_depth.p99": ("repro.serve", "op_cpu_ms.p90 on serve"),
    "gen.lag_ms.p99": ("load generator", "nothing (validity check)"),
    "gen.encode_ms": ("load generator", "nothing (validity check)"),
    "obs.trace_overhead": ("repro.obs", "nothing (reported)"),
    "wall.op_ms.p50": ("wall clock", "nothing bounded: what a user waits, neighbours included"),
    "wall.op_ms.tail": ("wall clock", "nothing bounded: what a user waits, neighbours included"),
}


def empty_metrics() -> Dict[str, float]:
    """Every per-layer metric at 0 (a layer the workload never runs)."""
    return {name: 0.0 for name in PER_LAYER}


def install(recorder: Recorder) -> None:
    """Wrap the in-process layers' public callables (stream and fleet)."""
    import repro.fleet.coordinator as coordinator_mod
    import repro.session as session_mod
    from repro.core.replacement import ContrastScoringPolicy
    from repro.core.scoring import ContrastScorer
    from repro.data.augment import SimCLRAugment
    from repro.data.drift import DriftStream
    from repro.data.scenarios import StreamWrapper
    from repro.data.stream import TemporalStream
    from repro.experiments.wire import WireFormat
    from repro.fleet.aggregators import Aggregator
    from repro.fleet.sampling import ClientSampler
    from repro.nn import functional as F
    from repro.nn.backend.base import ArrayBackend
    from repro.nn.losses import NTXentLoss
    from repro.nn.optim import Adam
    from repro.nn.tensor import Tensor, is_grad_enabled
    from repro.train.knn import KnnProbe

    counts = recorder.counts

    def note_select(args, kwargs, result, buffered):
        counts["core.selects"] += 1
        counts["core.rows_scored"] += result.num_scored
        counts["core.kept_new"] += int((result.keep_indices >= buffered).sum())

    def unfold_name(args, kwargs):
        grad_free = kwargs.get("grad_free", args[5] if len(args) > 5 else False)
        return "nn.im2col_infer" if grad_free else "nn.im2col"

    def note_unfold(args, kwargs, result, _):
        if unfold_name(args, kwargs) == "nn.im2col":
            counts["nn.im2col_bytes"] += result.nbytes

    recorder.patch_tree(
        ContrastScoringPolicy, "select", "core.select",
        before=lambda args, kwargs: args[1].size, after=note_select,
    )
    recorder.patch_tree(ContrastScorer, "score", "core.score")
    recorder.patch(
        F, "conv2d", "nn.conv2d",
        rename=lambda args, kwargs: "nn.conv2d"
        if is_grad_enabled() and args[1].requires_grad
        else "nn.conv2d_infer",
    )
    recorder.patch_tree(
        ArrayBackend, "im2col", "nn.im2col", rename=unfold_name, after=note_unfold
    )
    recorder.patch_tree(ArrayBackend, "col2im", "nn.col2im")
    recorder.patch(Tensor, "backward", "nn.backward")
    recorder.patch(NTXentLoss, "__call__", "nn.ntxent")
    recorder.patch(Adam, "step", "nn.adam")
    recorder.patch_tree(SimCLRAugment, "__call__", "data.augment")
    for stream_base in (TemporalStream, DriftStream, StreamWrapper):
        recorder.patch_iterator_tree(stream_base, "segments", "data.segment")
    recorder.patch(session_mod, "evaluate_encoder", "train.probe")
    recorder.patch(KnnProbe, "score", "train.knn")
    recorder.patch(session_mod, "build_components", "session.build")
    recorder.patch(coordinator_mod, "build_components", "session.build")
    recorder.patch(session_mod.Session, "run", "session.run")
    recorder.patch_tree(ClientSampler, "sample", "fleet.sample")
    recorder.patch_tree(Aggregator, "aggregate", "fleet.aggregate")
    recorder.patch(coordinator_mod, "run_jobs", "fleet.jobs")
    recorder.patch(coordinator_mod.FleetCoordinator, "_evaluate_global", "fleet.eval")
    recorder.patch_tree(WireFormat, "encode", "wire.encode")
    recorder.patch_tree(WireFormat, "decode", "wire.decode")


def in_process_metrics(
    summary: Dict[str, Dict[str, float]],
    counts: Dict[str, float],
    snapshot: List[Dict[str, Any]],
    rounds: int = 0,
) -> Dict[str, float]:
    """Per-layer metrics of a traced stream or fleet phase."""
    out = empty_metrics()
    for metric, span in (
        ("core.select_ms", "core.select"),
        ("core.score_ms", "core.score"),
        ("nn.conv2d_fwd_ms", "nn.conv2d"),
        ("nn.im2col_ms", "nn.im2col"),
        ("nn.col2im_ms", "nn.col2im"),
        ("nn.backward_ms", "nn.backward"),
        ("nn.ntxent_ms", "nn.ntxent"),
        ("nn.adam_ms", "nn.adam"),
        ("data.augment_ms", "data.augment"),
        ("data.segment_wait_ms", "data.segment"),
        ("train.probe_ms", "train.probe"),
        ("train.knn_ms", "train.knn"),
        ("session.build_ms", "session.build"),
        ("session.run_ms", "session.run"),
        ("fleet.sample_ms", "fleet.sample"),
        ("fleet.aggregate_ms", "fleet.aggregate"),
        ("fleet.jobs_ms", "fleet.jobs"),
        ("fleet.eval_ms", "fleet.eval"),
        ("wire.encode_ms", "wire.encode"),
        ("wire.decode_ms", "wire.decode"),
    ):
        out[metric] = mean_ms(summary, span)
    selects = counts.get("core.selects", 0.0)
    if selects:
        out["core.rows_scored"] = counts["core.rows_scored"] / selects
    if counts.get("core.rows_scored"):
        out["core.keep_ratio"] = counts["core.kept_new"] / counts["core.rows_scored"]
    unfolds = summary.get("nn.im2col", {}).get("calls", 0)
    if unfolds:
        out["nn.im2col_bytes"] = counts["nn.im2col_bytes"] / unfolds
    if rounds:
        out["fleet.round_self_ms"] = summary["fleet.round"]["self_s"] * 1e3 / rounds
        out["wire.bytes_sent"] = obs_value(snapshot, "fleet.bytes_sent") / rounds
    ratios = [e["value"] for e in snapshot if e["name"] == "fleet.compression_ratio"]
    if ratios:
        out["wire.compression_ratio"] = float(ratios[-1])
    return out
