(* Metric names and units, in the order BENCHMARK.json lists them,
   and the end-to-end figures every workload derives from its timed
   rounds.  Every run prints every metric of its mode; a layer a
   workload does not exercise reads 0. *)

let ladder_cycles = List.map (fun (r : Ladder.rung) -> "sim_cycles." ^ r.Ladder.name) Ladder.all

let end_to_end =
  [
    ("setup_s", "s");
    ("compile_rate", "instrs/s");
    ("compile_geomean_ms", "ms");
    ("code_size", "instrs");
  ]
  @ List.map (fun n -> (n, "cycles")) ladder_cycles
  @ [
      ("request_rate", "1/s");
      ("request_p50_ms", "ms");
      ("request_p99_ms", "ms");
      ("stats_p50_ms", "ms");
      ("verify_rate", "cases/s");
      ("peak_rss_mb", "MiB");
    ]

let passes =
  [ "fold"; "simplify"; "cse"; "unroll"; "ifconv"; "jam"; "fold2"; "simplify2"; "cse2";
    "revec"; "dce"; "verify" ]

let phases =
  [ "deps"; "graph"; "massage"; "reorder"; "cost"; "emit"; "rewire"; "erase"; "sched";
    "cg-verify"; "codegen"; "pack"; "reduction" ]

let vectorizer_counts =
  [ "graphs_built"; "gathers"; "supernodes"; "vector_instrs"; "scalars_erased"; "reductions";
    "deps_builds"; "deps_refreshes"; "pack_candidates"; "pack_expansions"; "pack_pruned";
    "pack_plans"; "revec_pairs"; "revec_widened" ]

let loop_counts = [ "found"; "counted"; "unrolled_full"; "unrolled_partial"; "blocks_jammed" ]

let per_layer =
  [ ("frontend.ms", "ms"); ("frontend.alloc_mw", "Mwords"); ("frontend.instrs", "instrs") ]
  @ List.map (fun p -> ("passes." ^ p ^ ".ms", "ms")) passes
  @ [ ("passes.alloc_mw", "Mwords") ]
  @ List.map (fun c -> ("loops." ^ c, "count")) loop_counts
  @ [ ("passes.slp.ms", "ms") ]
  @ List.map (fun p -> ("vectorizer." ^ p ^ ".ms", "ms")) phases
  @ List.map (fun c -> ("vectorizer." ^ c, "count")) vectorizer_counts
  @ [
      ("vectorizer.graphs_vectorized_ratio", "ratio");
      ("vectorizer.lookahead_hit_ratio", "ratio");
      ("vectorizer.reach_hit_ratio", "ratio");
      ("lint.validate.ms", "ms");
      ("lint.semhash.ms", "ms");
      ("lint.valid", "count");
      ("lint.unknown", "count");
      ("service.protocol.ms", "ms");
      ("service.handle.replay.ms", "ms");
      ("service.handle.variant.ms", "ms");
      ("service.handle.miss.ms", "ms");
      ("service.stats.ms", "ms");
      ("service.cache.hits_textual", "count");
      ("service.cache.hits_semantic", "count");
      ("service.cache.misses", "count");
      ("service.cache.evictions", "count");
      ("service.cache.hit_ratio", "ratio");
      ("parallel.batch_jobs", "jobs");
      ("interp.ms", "ms");
      ("interp.ns_per_instr", "ns");
      ("fuzz.gen.ms", "ms");
      ("fuzz.oracle.ms", "ms");
      ("gc.alloc_mw", "Mwords");
      ("gc.major_collections", "count");
      ("trace.overhead_pct", "%");
      ("trace.uncovered_pct", "%");
    ]

(* --- End-to-end figures from timed rounds ------------------------------ *)

(* Ratio of two counters, 0 when the denominator is. *)
let ratio a b = if b > 0.0 then a /. b else 0.0

type sample = { item : int; seconds : float; compile_s : float; instrs : int }
(** One operation: which input (stable across rounds), its request
    latency, the part of it spent compiling, and the frontend-output
    instructions it turned into code. *)

type round = { samples : sample list; busy_s : float; compile_busy_s : float }
(** One timed round, the seconds its request rate is taken over and
    the seconds its compile rate is taken over. *)

(* A sample and a round where the whole request is the compile. *)
let sample ~item ~seconds ~instrs = { item; seconds; compile_s = seconds; instrs }
let round samples ~busy_s = { samples; busy_s; compile_busy_s = busy_s }

(* Per item, the median of [f] over its samples. *)
let item_medians f samples =
  let per_item = Hashtbl.create 256 in
  List.iter
    (fun s ->
      Hashtbl.replace per_item s.item (f s :: Option.value (Hashtbl.find_opt per_item s.item) ~default:[]))
    samples;
  Hashtbl.fold (fun _ xs acc -> Common.median xs :: acc) per_item []

(* The timing metrics of [rounds].  Rates are taken over the whole
   run, not per round: the host's speed drifts by up to a quarter over
   tens of seconds, and a median of per-round rates follows whichever
   speed most rounds saw.  The latency percentiles are taken over each
   item's median latency: with a few samples per item, a major
   collection or a host stall landing on one of the slowest items moved
   a per-sample p99 by a quarter between runs, and on service, whose
   p50 falls in the tail of the replay frames' latencies, per-sample
   p50s ran from 0.07 to 0.14 ms. *)
let timing ~(rounds : round list) ~(snapshots : float list) =
  let rate f busy = ratio (Common.sum (List.map f rounds)) (Common.sum (List.map busy rounds)) in
  let all = List.concat_map (fun r -> r.samples) rounds in
  let lat = item_medians (fun s -> s.seconds) all in
  [
    ( "compile_rate",
      rate
        (fun r -> float_of_int (Common.sumi (List.map (fun s -> s.instrs) r.samples)))
        (fun r -> r.compile_busy_s) );
    ("compile_geomean_ms", 1e3 *. Common.geomean (item_medians (fun s -> s.compile_s) all));
    ("request_rate", rate (fun r -> float_of_int (List.length r.samples)) (fun r -> r.busy_s));
    ("request_p50_ms", 1e3 *. Common.percentile 50.0 lat);
    ("request_p99_ms", 1e3 *. Common.percentile 99.0 lat);
    ("stats_p50_ms", 1e3 *. Common.percentile 50.0 snapshots);
  ]

(* The counter snapshot `snslpc --stats` prints for a set of compiles:
   the merged vectorizer stats plus their phase table.  Its seconds. *)
let stats_snapshot results =
  let t0 = Common.now_s () in
  let st = Snslp_driver.Driver.merged_stats results in
  let s = Fmt.str "%a@.%a" Snslp_vectorizer.Stats.pp st Snslp_vectorizer.Stats.pp_phases st in
  ignore (Sys.opaque_identity s);
  Common.now_s () -. t0

