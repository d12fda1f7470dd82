(* The [verify] workload: a seeded Gen draw, half default_profile and
   half loopy_profile, each case generated and pushed through
   Oracle.run_case ~validate:true over the ladder.  The translation
   validator, the loop summaries and the differential interpreter do
   most of the work here; elsewhere they run untimed or not at all.

   An operation is one case: Gen.generate, then the oracle.  A round
   is the whole draw, in draw order. *)

open Snslp_ir
module Gen = Snslp_fuzzer.Gen
module Oracle = Snslp_fuzzer.Oracle
module Campaign = Snslp_fuzzer.Campaign
module Pipeline = Snslp_passes.Pipeline
module Validate = Snslp_lint.Validate
module Semhash = Snslp_lint.Semhash

(* The draw: a fixed core of [core] cases (campaign seed 0) and a
   seeded tail of [cases - core] cases (campaign seed --seed).  Per-case
   cost and code vary widely, so a fully seeded draw of this size moved
   rates by ~12% and code size by ~6% between seeds; the fixed core
   keeps runs on different seeds comparable, the tail still puts
   unseen cases through the oracle.  Code size and cycles are taken
   over the core only, so they repeat exactly for every seed. *)
let cases = 256
let core = 224

type case = { k : int; case_seed : int; profile : Gen.profile }

let draw ~seed =
  List.init cases (fun k ->
      {
        k;
        case_seed =
          (if k < core then Campaign.case_seed ~seed:0 k else Campaign.case_seed ~seed k);
        profile = (if k mod 2 = 0 then Gen.default_profile else Gen.loopy_profile);
      })

let configs = List.map (fun (r : Ladder.rung) -> (r.Ladder.name, r.Ladder.setting)) Ladder.all

let generate c = Gen.generate ~profile:c.profile ~seed:c.case_seed ()

(* One operation; the traced run adds spans for generation and the
   oracle (with the interpreter's seconds as a split), then a probe
   outside the operation's latency: the sn-slp compile's passes, the
   validator on its output and the semantic cache key. *)
let probe_s = ref 0.0

let run_op c =
  let op = Trace.fresh_op () in
  let exec = Oracle.create_exec_stats () in
  let t0 = Common.now_s () in
  let f = generate c in
  let t1 = Common.now_s () in
  let findings = Oracle.run_case ~stats:exec ~configs ~validate:true f in
  let t2 = Common.now_s () in
  if !Trace.enabled then begin
    let root = Trace.add_span ~op ~parent:(-1) ~derived:false "case" t0 t2 in
    ignore (Trace.add_span ~op ~parent:root ~derived:false "fuzz.gen" t0 t1);
    let oracle = Trace.add_span ~op ~parent:root ~derived:false "fuzz.oracle" t1 t2 in
    Trace.split ~parent:oracle "interp" exec.Oracle.exec_seconds;
    Trace.count "interp.instrs" (float_of_int exec.Oracle.exec_instrs);
    let p0 = Common.now_s () in
    let probe =
      Layers.alloc_span ~op ~parent:(-1) ~alloc:"passes.alloc_mw" "probe" (fun sid ->
          let s = Common.now_s () in
          let r = Pipeline.run ~setting:Ladder.snslp.Ladder.setting f in
          Layers.pipeline ~op ~parent:sid ~start:s r;
          r)
    in
    let verdict =
      Trace.span ~op ~parent:(-1) "lint.validate" (fun _ ->
          Validate.compare_funcs ~tolerance:(Gen.tolerance_for f) f probe.Pipeline.func)
    in
    (match verdict with
    | Validate.Valid -> Trace.count "lint.valid" 1.0
    | Validate.Unknown _ -> Trace.count "lint.unknown" 1.0
    | Validate.Mismatch _ -> ());
    Trace.span ~op ~parent:(-1) "lint.semhash" (fun _ ->
        ignore (Semhash.cache_key ~fingerprint:"o3" f));
    probe_s := !probe_s +. (Common.now_s () -. p0)
  end;
  (t2 -. t0, f, findings, exec)

let run ~seed ~seconds ~trace : Outcome.t =
  let setup =
    let once () =
      let t0 = Common.now_s () in
      let d = draw ~seed in
      (* Warm-up: the first 24 cases through the oracle; with 8, the
         set-up time moved by a quarter between runs. *)
      List.iteri (fun i c -> if i < 24 then ignore (run_op c)) d;
      (Common.now_s () -. t0, d)
    in
    Outcome.setup 3 once
  in
  let draw = setup.Outcome.state in
  Trace.reset ();
  let tally = Checks.tally () in
  let funcs = Array.make cases None in
  let instrs = Array.make cases 0 in
  let rounds = ref [] and interp_runs = ref 0 and interp_s = ref 0.0 in
  (* The `snslpc --stats` snapshot of the core's sn-slp compiles (made
     after the first round), taken every 8 cases of each later round of
     an untraced run.  Taken in a burst after the rounds instead, its
     median read 0.55–1.1 ms from run to run. *)
  let snslp_core = ref [] and snaps = ref [] in
  let traced_s, untraced_s =
    Outcome.rounds ~seconds ~trace (fun r ~traced ->
        let samples = ref [] in
        let runs = ref 0 and exec_s = ref 0.0 in
        probe_s := 0.0;
        let w0 = Common.now_s () in
        Layers.gc_round (fun () ->
            List.iter
              (fun c ->
                let dt, f, findings, exec = run_op c in
                if funcs.(c.k) = None then begin
                  funcs.(c.k) <- Some f;
                  instrs.(c.k) <- Func.num_instrs f
                end;
                Checks.record tally
                  (Checks.no_findings ~name:(Printf.sprintf "case seed %d" c.case_seed) findings);
                runs := !runs + exec.Oracle.exec_runs;
                exec_s := !exec_s +. exec.Oracle.exec_seconds;
                samples := Metrics.sample ~item:c.k ~seconds:dt ~instrs:instrs.(c.k) :: !samples;
                if r > 0 && (not trace) && (c.k + 1) mod 8 = 0 then
                  snaps := Metrics.stats_snapshot !snslp_core :: !snaps)
              draw);
        if not traced then begin
          rounds :=
            Metrics.round !samples ~busy_s:(Common.sum (List.map (fun s -> s.Metrics.seconds) !samples))
            :: !rounds;
          interp_runs := !interp_runs + !runs;
          interp_s := !interp_s +. !exec_s
        end;
        let wall = Common.now_s () -. w0 -. !probe_s in
        if r = 0 then
          snslp_core :=
            List.init core (fun k -> Pipeline.run ~setting:Ladder.snslp.Ladder.setting (Option.get funcs.(k)));
        wall)
  in
  let rss = Common.peak_rss_mb () in
  let metrics =
    if trace then
      let interp_s = Common.median (Trace.seconds_by_round "interp") in
      let interp_instrs = Common.median (Trace.counter_by_round "interp.instrs") in
      Layers.report
        ~extra:
          [
            ("interp.ns_per_instr", Metrics.ratio (interp_s *. 1e9) interp_instrs);
            ("trace.overhead_pct", Outcome.overhead_pct ~traced:traced_s ~untraced:untraced_s);
            ("trace.uncovered_pct", 100.0 *. Trace.uncovered_share "case");
          ]
    else begin
      (* Code size and the cycle ladder of the core: each case under
         each setting, simulated once on the oracle's memory. *)
      let fs = List.filteri (fun k _ -> k < core) (Array.to_list (Array.map Option.get funcs)) in
      let code_size = ref 0 in
      let compiled =
        List.map
          (fun (rung : Ladder.rung) ->
            ( rung,
              if rung == Ladder.snslp then !snslp_core
              else List.map (Pipeline.run ~setting:rung.Ladder.setting) fs ))
          Ladder.all
      in
      let cycles =
        List.map
          (fun ((rung : Ladder.rung), results) ->
            let target, model = Ladder.target_model rung in
            let per_case =
              List.map2
                (fun f (r : Pipeline.result) ->
                  let g = r.Pipeline.func in
                  code_size := !code_size + Func.num_instrs g;
                  (Snslp_simperf.Simperf.measure ?model ?target g ~memory:(Oracle.fresh_memory f)
                     ~make_args:(fun _ -> Oracle.make_args f)
                     ~iters:1)
                    .Snslp_simperf.Simperf.cycles)
                fs results
            in
            ("sim_cycles." ^ rung.Ladder.name, Common.geomean per_case))
          compiled
      in
      (* The verify rate counts every case; the latency distribution
         (geomean, p50, p99) is over the core cases, so that one heavy
         case in the seeded tail cannot move it. *)
      let all = Metrics.timing ~rounds:!rounds ~snapshots:!snaps in
      let on_core =
        Metrics.timing ~snapshots:!snaps
          ~rounds:
            (List.map
               (fun (r : Metrics.round) ->
                 { r with Metrics.samples = List.filter (fun x -> x.Metrics.item < core) r.Metrics.samples })
               !rounds)
      in
      let pick names from = List.map (fun n -> (n, List.assoc n from)) names in
      Outcome.with_units Metrics.end_to_end
        ([ ("setup_s", Outcome.setup_seconds setup); ("code_size", float_of_int !code_size) ]
        @ cycles
        @ pick [ "compile_rate"; "stats_p50_ms" ] all
        @ pick [ "compile_geomean_ms"; "request_p50_ms"; "request_p99_ms" ] on_core
        @ [
            ("request_rate", Metrics.ratio (float_of_int !interp_runs) !interp_s);
            ("verify_rate", List.assoc "request_rate" all);
            ("peak_rss_mb", rss);
          ])
    end
  in
  { Outcome.tally; metrics }
