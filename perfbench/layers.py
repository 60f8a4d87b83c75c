"""Where the traced run puts its spans, and the per-layer metrics it
derives from them.

Spans sit at the public boundaries of the ``cuetrack`` modules. A later
change that renames one of these attributes leaves its metrics at 0 and
is listed under ``unwrapped`` in the run's output; the run itself goes on.
"""

from __future__ import annotations

from cuetrack import (autodiff, heads, matching, metrics, model, simulator, stog,
                      tracker, training)

from spans import Target, Totals, Tracer, contexts, gc_in, self_times, within


def _observe_match(tr: Tracer, args: dict, result) -> None:
    tr.add("tracker.memory", len(args["memory"]))
    tr.add("tracker.dets", len(args["detections"]))
    tr.add("tracker.births", result[1] - args["next_id"])


TARGETS = [
    Target(autodiff.Tensor, "backward", "autodiff.backward"),
    Target(autodiff.ParameterStore, "leaves", "autodiff.store"),
    Target(autodiff.ParameterStore, "harvest", "autodiff.store"),
    Target(autodiff.ParameterStore, "zero_grads", "autodiff.store"),
    Target(autodiff, "load_checkpoint", "autodiff.load_checkpoint"),
    Target(heads, "head_forward", "heads.head_forward"),
    # named after its ``prefix`` argument: stog.l0 ... stog.l3
    Target(stog, "propagation_layer", "stog.layer", name_arg="prefix"),
    Target(matching, "score_matrix", "matching.score_matrix"),
    Target(matching, "augment_dustbin", "matching.augment_dustbin"),
    Target(matching, "sinkhorn_log", "matching.sinkhorn_log"),
    Target(matching, "association_loss", "matching.association_loss"),
    Target(model.AssocModel, "embed", "model.embed"),
    Target(model.AssocModel, "pair_log_plan", "model.pair_log_plan"),
    Target(model.AssocModel, "forward_pair", "model.forward_pair"),
    Target(tracker, "match_frame", "tracker.match_frame", observe=_observe_match),
    Target(tracker, "update_memo", "tracker.update_memo"),
    Target(training, "sample_pair", "training.sample_pair"),
    Target(training, "dat_match", "training.dat_match"),
    Target(training, "build_target", "training.build_target"),
    # one SGD step; its self time is the parameter update
    Target(training, "_train_step", "training.step"),
    Target(simulator, "generate_dataset", "simulator.generate_dataset"),
    Target(simulator, "read_dataset", "simulator.read_dataset"),
    Target(metrics, "association_accuracy", "metrics.association_accuracy"),
]
NODE_CLASS = autodiff.Tensor

# name -> unit; the order is the order of the output
PER_LAYER = {
    "autodiff.nodes_per_frame": "count/frame",
    "autodiff.nodes_per_pair": "count/pair",
    "autodiff.backward_ms_per_pair": "ms/pair",
    "runtime.gc_gen2_count": "count/kop",
    "runtime.gc_ms": "ms/op",
    "heads.calls_per_frame": "count/frame",
    "heads.ms_per_frame": "ms/frame",
    "heads.ms_per_pair": "ms/pair",
    "stog.l0.ms": "ms/call",
    "stog.l1.ms": "ms/call",
    "stog.l2.ms": "ms/call",
    "stog.l3.ms": "ms/call",
    "matching.sinkhorn_ms": "ms/call",
    "matching.sinkhorn_nodes_per_call": "count/call",
    "matching.score_dustbin_ms": "ms/call",
    "matching.loss_ms_per_pair": "ms/pair",
    "model.embed_ms": "ms/call",
    "model.pair_log_plan_ms": "ms/call",
    "model.forward_pair_ms": "ms/call",
    "tracker.match_frame_ms": "ms/frame",
    "tracker.update_memo_ms": "ms/frame",
    "tracker.assign_self_ms": "ms/frame",
    "tracker.memory_size_mean": "count",
    "tracker.dets_per_frame_mean": "count",
    "tracker.births_per_frame": "count/frame",
    "training.target_ms_per_pair": "ms/pair",
    "training.update_ms_per_step": "ms/step",
    "training.pairs_used_frac": "ratio",
    "simulator.generate_s": "s/setup",
    "simulator.read_dataset_s": "s/setup",
    "autodiff.load_checkpoint_ms": "ms/call",
    "metrics.association_accuracy_ms": "ms/call",
    "trace.overhead_frac": "ratio",
    "trace.spans_per_op": "count/op",
}


# spans under these are frame work (the tracker) or pair work (a training step)
CONTEXT_ROOTS = {"tracker.match_frame": "frame", "tracker.update_memo": "frame",
                 "training.step": "pair"}


def _per(x: float, n: float) -> float:
    return x / n if n else 0.0


def per_layer(tracer: Tracer, setups: int, setup_rec: list, measure_rec: list,
              ops: int, traced_ms_per_op: float,
              untraced_ms_per_op: float) -> dict[str, float]:
    """Per-layer values of one traced run.

    A layer's time and node count are taken per call, or per frame or
    pair, over every span of the traced run: set-up, measured segment and
    final checks. So ``track_desk`` also reports the training it does in
    set-up, and ``train_desk`` the tracking of its final check. Set-up
    metrics are per set-up; garbage collection and the tracing cost are
    per frame or pair of the measured segment, where ``ops`` ran.
    """
    selfs = self_times(tracer.spans)
    ctx = contexts(tracer.spans, CONTEXT_ROOTS)
    run = Totals(tracer, lambda i: True, selfs)
    frame = Totals(tracer, lambda i: ctx[i] == "frame", selfs)
    pair = Totals(tracer, lambda i: ctx[i] == "pair", selfs)
    setup = Totals(tracer, within(tracer, setup_rec), selfs)
    measured = Totals(tracer, within(tracer, measure_rec), selfs)
    gc_s, gc_gen2 = gc_in(tracer, measure_rec)
    calls = run.calls.get
    frames = calls("tracker.match_frame", 0)
    pairs = calls("matching.association_loss", 0)  # pairs with a target
    frame_nodes = run.nodes.get("tracker.match_frame", 0) + \
        run.nodes.get("tracker.update_memo", 0)

    def per_call(*names: str) -> float:
        return _per(run.ms(*names), calls(names[0], 0))

    out = {
        "autodiff.nodes_per_frame": _per(frame_nodes, frames),
        "autodiff.nodes_per_pair": _per(run.nodes.get("training.step", 0), pairs),
        "autodiff.backward_ms_per_pair": _per(pair.ms("autodiff.backward"), pairs),
        "runtime.gc_gen2_count": _per(1000.0 * gc_gen2, ops),
        "runtime.gc_ms": _per(1000.0 * gc_s, ops),
        "heads.calls_per_frame": _per(frame.calls.get("heads.head_forward", 0), frames),
        "heads.ms_per_frame": _per(frame.ms("heads.head_forward"), frames),
        "heads.ms_per_pair": _per(pair.ms("heads.head_forward"), pairs),
    }
    for i in range(4):
        out[f"stog.l{i}.ms"] = per_call(f"stog.l{i}")
    out.update({
        "matching.sinkhorn_ms": per_call("matching.sinkhorn_log"),
        "matching.sinkhorn_nodes_per_call": _per(
            run.nodes.get("matching.sinkhorn_log", 0), calls("matching.sinkhorn_log", 0)),
        "matching.score_dustbin_ms": per_call("matching.score_matrix",
                                              "matching.augment_dustbin"),
        "matching.loss_ms_per_pair": per_call("matching.association_loss"),
        "model.embed_ms": per_call("model.embed"),
        "model.pair_log_plan_ms": per_call("model.pair_log_plan"),
        "model.forward_pair_ms": per_call("model.forward_pair"),
        "tracker.match_frame_ms": per_call("tracker.match_frame"),
        "tracker.update_memo_ms": _per(run.ms("tracker.update_memo"), frames),
        "tracker.assign_self_ms": _per(run.self_ms("tracker.match_frame"), frames),
        "tracker.memory_size_mean": _per(tracer.counts.get("tracker.memory", 0), frames),
        "tracker.dets_per_frame_mean": _per(tracer.counts.get("tracker.dets", 0), frames),
        "tracker.births_per_frame": _per(tracer.counts.get("tracker.births", 0), frames),
        "training.target_ms_per_pair": _per(
            run.ms("training.dat_match", "training.build_target"),
            calls("training.build_target", 0)),
        "training.update_ms_per_step": _per(run.self_ms("training.step"),
                                            calls("training.step", 0)),
        "training.pairs_used_frac": _per(pairs, calls("training.sample_pair", 0)),
        "simulator.generate_s": _per(setup.total_s.get("simulator.generate_dataset", 0.0),
                                     setups),
        "simulator.read_dataset_s": _per(setup.total_s.get("simulator.read_dataset", 0.0),
                                         setups),
        "autodiff.load_checkpoint_ms": per_call("autodiff.load_checkpoint"),
        "metrics.association_accuracy_ms": per_call("metrics.association_accuracy"),
        "trace.overhead_frac": _per(traced_ms_per_op, untraced_ms_per_op) - 1.0
        if untraced_ms_per_op else 0.0,
        # the measured segment's own phase span is not a layer's
        "trace.spans_per_op": _per(measured.span_count - 1, ops),
    })
    return out
