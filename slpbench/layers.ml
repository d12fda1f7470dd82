(* What the traced run records around a call into the pipeline: the
   per-pass timings and loop counters of [Pipeline.result], and the
   vectorizer report's Stats phases and counters. *)

open Snslp_passes
open Snslp_vectorizer

let record_stats (s : Stats.t) ~slp_span =
  List.iter (fun (phase, sec) -> Trace.split ~parent:slp_span ("vectorizer." ^ phase) sec)
    (Stats.phases_sorted s);
  let c name v = Trace.count ("vectorizer." ^ name) (float_of_int v) in
  c "graphs_built" s.Stats.graphs_built;
  c "graphs_vectorized" s.Stats.graphs_vectorized;
  c "gathers" s.Stats.gathers;
  c "supernodes" (Stats.num_supernodes s);
  c "vector_instrs" s.Stats.vector_instrs_emitted;
  c "scalars_erased" s.Stats.scalars_erased;
  c "reductions" s.Stats.reductions;
  c "deps_builds" s.Stats.deps_builds;
  c "deps_refreshes" s.Stats.deps_refreshes;
  c "pack_candidates" s.Stats.pack_candidates;
  c "pack_expansions" s.Stats.pack_expansions;
  c "pack_pruned" s.Stats.pack_pruned;
  c "pack_plans" s.Stats.pack_plans;
  c "revec_pairs" s.Stats.revec_pairs;
  c "revec_widened" s.Stats.revec_widened;
  c "lookahead_hits" s.Stats.lookahead_hits;
  c "lookahead_misses" s.Stats.lookahead_misses;
  c "reach_hits" s.Stats.reach_hits;
  c "reach_misses" s.Stats.reach_misses

(* [pipeline ~op ~parent ~start r]: the passes of [r] as derived
   children of span [parent] (which began at [start]), the vectorizer
   phases as splits of its slp pass, and the counters. *)
let pipeline ~op ~parent ~start (r : Pipeline.result) =
  if !Trace.enabled then begin
    let ids =
      Trace.sequential ~op ~parent ~start
        (List.map (fun (t : Pipeline.timing) -> ("passes." ^ t.Pipeline.pass, t.Pipeline.seconds))
           r.Pipeline.timings)
    in
    (match (r.Pipeline.vect_report, List.assoc_opt "passes.slp" ids) with
    | Some rep, Some slp_span -> record_stats rep.Vectorize.stats ~slp_span
    | Some rep, None -> record_stats rep.Vectorize.stats ~slp_span:parent
    | None, _ -> ());
    (match r.Pipeline.validation with
    | Some v -> Trace.split ~parent "lint.validate" v.Pipeline.validate_seconds
    | None -> ());
    match r.Pipeline.loop_stats with
    | Some l ->
        let c name v = Trace.count ("loops." ^ name) (float_of_int v) in
        c "found" l.Pipeline.loops;
        c "counted" l.Pipeline.counted;
        c "unrolled_full" l.Pipeline.unrolled_full;
        c "unrolled_partial" l.Pipeline.unrolled_partial;
        c "blocks_jammed" l.Pipeline.blocks_merged
    | None -> ()
  end

(* Run [f] inside span [name], charging the words it allocates to
   counter [alloc] (in millions). *)
let alloc_span ~op ~parent ~alloc name f =
  if not !Trace.enabled then f (-1)
  else begin
    let a0 = Common.alloc_words () in
    let r = Trace.span ~op ~parent name f in
    Trace.count alloc ((Common.alloc_words () -. a0) /. 1e6);
    r
  end

(* Per-round totals of the whole process's allocation and major
   collections; call around each traced round. *)
let gc_round f =
  if not !Trace.enabled then f ()
  else begin
    let a0 = Common.alloc_words () in
    let m0 = (Gc.quick_stat ()).Gc.major_collections in
    let r = f () in
    Trace.count "gc.alloc_mw" ((Common.alloc_words () -. a0) /. 1e6);
    Trace.count "gc.major_collections"
      (float_of_int ((Gc.quick_stat ()).Gc.major_collections - m0));
    r
  end

(* The per-layer figures of a traced run: seconds become ms per round,
   counters stay per round; both are medians over the traced rounds.
   [extra] supplies figures the workload computes itself. *)
let report ~extra =
  let med xs = Common.median xs in
  let by_name = Hashtbl.create 64 in
  List.iter
    (fun (name, _unit) ->
      let v =
        if String.ends_with ~suffix:".ms" name then
          1e3 *. med (Trace.seconds_by_round (String.sub name 0 (String.length name - 3)))
        else med (Trace.counter_by_round name)
      in
      Hashtbl.replace by_name name v)
    Metrics.per_layer;
  let counter n = med (Trace.counter_by_round n) in
  Hashtbl.replace by_name "vectorizer.graphs_vectorized_ratio"
    (Metrics.ratio (counter "vectorizer.graphs_vectorized") (counter "vectorizer.graphs_built"));
  Hashtbl.replace by_name "vectorizer.lookahead_hit_ratio"
    (Metrics.ratio (counter "vectorizer.lookahead_hits")
       (counter "vectorizer.lookahead_hits" +. counter "vectorizer.lookahead_misses"));
  Hashtbl.replace by_name "vectorizer.reach_hit_ratio"
    (Metrics.ratio (counter "vectorizer.reach_hits")
       (counter "vectorizer.reach_hits" +. counter "vectorizer.reach_misses"));
  List.iter (fun (k, v) -> Hashtbl.replace by_name k v) extra;
  List.map (fun (name, unit) -> (name, Hashtbl.find by_name name, unit)) Metrics.per_layer
