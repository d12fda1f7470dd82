(* The [kernels] and [programs] workloads: timed passes of whole
   compiles over fixed inputs, then the output checks.

   kernels  — the 26 registry kernels, lowered once in set-up; an
              operation is one Pipeline.run of (kernel, ladder
              setting).  The vectorizer does most of the work.
   programs — the 19 whole programs as KernelC text; an operation is
              Frontend.compile + Pipeline.run + printing under o3,
              lslp or sn-slp, as snslpc does.  The frontend and the
              scalar passes do most of the work.

   The seed fixes the order of the operations within a pass; the
   inputs themselves are the repository's fixed kernels and
   programs. *)

open Snslp_ir
open Snslp_kernels
open Snslp_passes
module Frontend = Snslp_frontend.Frontend
module Interp = Snslp_interp.Interp

type kind = Kernels | Programs

type input = {
  reg : Registry.t;
  func : Defs.func; (* the frontend output *)
  instrs : int;
}

type item = { idx : int; input : input; rung : Ladder.rung }

type output = { results : Pipeline.result list; text : string }

let print_funcs rs =
  String.concat "\n" (List.map (fun r -> Printer.func_to_string r.Pipeline.func) rs)

let inputs kind =
  let regs =
    match kind with
    | Kernels -> Registry.all
    | Programs -> List.map Fullbench.to_registry Fullbench.all
  in
  List.map
    (fun (reg : Registry.t) ->
      let func = Frontend.compile_one reg.Registry.source in
      { reg; func; instrs = Func.num_instrs func })
    regs

let rungs = function Kernels -> Ladder.all | Programs -> Ladder.programs

let items kind ins =
  List.concat_map (fun input -> List.map (fun rung -> (input, rung)) (rungs kind)) ins
  |> List.mapi (fun idx (input, rung) -> { idx; input; rung })

(* One operation, answered as `snslpc` answers it: the compile, then
   the optimized IR printed.  It returns the compile's seconds, the
   whole request's seconds, the results and the printed IR.  The
   traced run records its spans after the clock stops. *)
let run_op kind item =
  let op = Trace.fresh_op () in
  match kind with
  | Kernels ->
      let a0 = if !Trace.enabled then Common.alloc_words () else 0.0 in
      let t0 = Common.now_s () in
      let r = Pipeline.run ~setting:item.rung.Ladder.setting item.input.func in
      let t1 = Common.now_s () in
      let text = print_funcs [ r ] in
      let t2 = Common.now_s () in
      if !Trace.enabled then begin
        Trace.count "passes.alloc_mw" ((Common.alloc_words () -. a0) /. 1e6);
        let root = Trace.add_span ~op ~parent:(-1) ~derived:false "compile" t0 t2 in
        let sid = Trace.add_span ~op ~parent:root ~derived:false "pipeline" t0 t1 in
        Layers.pipeline ~op ~parent:sid ~start:t0 r;
        ignore (Trace.add_span ~op ~parent:root ~derived:false "print" t1 t2)
      end;
      (t1 -. t0, t2 -. t0, [ r ], text)
  | Programs ->
      let a0 = if !Trace.enabled then Common.alloc_words () else 0.0 in
      let t0 = Common.now_s () in
      let funcs = Frontend.compile item.input.reg.Registry.source in
      let t1 = Common.now_s () in
      let a1 = if !Trace.enabled then Common.alloc_words () else 0.0 in
      let timed =
        List.map
          (fun f ->
            let s = Common.now_s () in
            let r = Pipeline.run ~setting:item.rung.Ladder.setting f in
            (r, s, Common.now_s ()))
          funcs
      in
      let t2 = Common.now_s () in
      let a2 = if !Trace.enabled then Common.alloc_words () else 0.0 in
      let results = List.map (fun (r, _, _) -> r) timed in
      let text = print_funcs results in
      let t3 = Common.now_s () in
      if !Trace.enabled then begin
        Trace.count "frontend.alloc_mw" ((a1 -. a0) /. 1e6);
        Trace.count "passes.alloc_mw" ((a2 -. a1) /. 1e6);
        Trace.count "frontend.instrs"
          (float_of_int (Common.sumi (List.map Func.num_instrs funcs)));
        let root = Trace.add_span ~op ~parent:(-1) ~derived:false "compile" t0 t3 in
        ignore (Trace.add_span ~op ~parent:root ~derived:false "frontend" t0 t1);
        List.iter
          (fun (r, s, e) ->
            let sid = Trace.add_span ~op ~parent:root ~derived:false "pipeline" s e in
            Layers.pipeline ~op ~parent:sid ~start:s r)
          timed;
        ignore (Trace.add_span ~op ~parent:root ~derived:false "print" t2 t3)
      end;
      (t2 -. t0, t3 -. t0, results, text)

let setup kind ~seed =
  let t0 = Common.now_s () in
  let ins = inputs kind in
  let its = items kind ins in
  let order = Array.of_list (Common.shuffle (Common.rng seed) its) in
  (* Warm-up: every operation of kernels once; for programs, the five
     smallest programs under each setting. *)
  let warm =
    match kind with
    | Kernels -> Array.to_list order
    | Programs ->
        let small =
          List.filteri (fun i _ -> i < 5)
            (List.sort (fun a b -> compare a.instrs b.instrs) ins)
        in
        List.filter (fun it -> List.memq it.input small) its
  in
  List.iter (fun it -> ignore (run_op kind it)) warm;
  (Common.now_s () -. t0, ins, order)

let timed kind ~order ~seconds ~trace =
  let n = Array.length order in
  let first = Array.make n { results = []; text = "" } in
  let tally = Checks.tally () in
  let every = max 1 ((n + 11) / 12) in
  let rounds = ref [] and snaps = ref [] in
  let last_pass = ref [] in
  let traced_s, untraced_s =
    Outcome.rounds ~seconds ~trace (fun r ~traced ->
        let samples = ref [] and done_ = ref [] in
        let previous = List.rev !last_pass in
        let w0 = Common.now_s () in
        Layers.gc_round (fun () ->
            Array.iteri
              (fun k it ->
                let compile_s, seconds, results, text = run_op kind it in
                samples :=
                  { Metrics.item = it.idx; seconds; compile_s; instrs = it.input.instrs } :: !samples;
                done_ := List.rev_append results !done_;
                if r = 0 then first.(it.idx) <- { results; text }
                else
                  Checks.record tally
                    (Checks.same_text ~name:(it.input.reg.Registry.name ^ "/" ^ it.rung.Ladder.name)
                       ~expected:first.(it.idx).text text);
                (* Twelve `snslpc --stats` snapshots per pass, each over
                   the whole previous pass, so every snapshot does the
                   same work whatever the seed's order. *)
                if r > 0 && (k + 1) mod every = 0 then begin
                  let s = Metrics.stats_snapshot previous in
                  if not traced then snaps := s :: !snaps
                end)
              order);
        last_pass := !done_;
        if not traced then
          rounds :=
            {
              Metrics.samples = !samples;
              busy_s = Common.sum (List.map (fun s -> s.Metrics.seconds) !samples);
              compile_busy_s = Common.sum (List.map (fun s -> s.Metrics.compile_s) !samples);
            }
            :: !rounds;
        Common.now_s () -. w0)
  in
  (!rounds, !snaps, first, tally, traced_s, untraced_s)

(* --- Checks -------------------------------------------------------------- *)

let tolerance = 1e-12
let check_iters (reg : Registry.t) = min reg.Registry.default_iters 64

let check kind ~ins ~(first : output array) ~tally ~order =
  let item_of name rung =
    Array.to_list order
    |> List.find (fun it ->
           String.equal it.input.reg.Registry.name name && String.equal it.rung.Ladder.name rung)
  in
  (* Semantic check of every first-pass output against the
     unoptimised function on the tree-walking engine. *)
  let refs = Hashtbl.create 32 in
  List.iter
    (fun i ->
      let wl = Workload.prepare ~iters:(check_iters i.reg) i.reg in
      Hashtbl.replace refs i.reg.Registry.name
        (wl, Workload.run_interp ~engine:Interp.Tree wl wl.Workload.func))
    ins;
  let semantic ~input ~label (r : Pipeline.result) =
    let wl, reference = Hashtbl.find refs input in
    Checks.memory ~name:label ~tolerance ~reference (Workload.run_interp wl r.Pipeline.func)
  in
  Array.iter
    (fun it ->
      let input = it.input.reg.Registry.name in
      let label = input ^ "/" ^ it.rung.Ladder.name in
      Checks.record tally
        (match first.(it.idx).results with
        | [] -> Error (label ^ ": no output")
        | rs -> Checks.all_ok (List.map (semantic ~input ~label) rs)))
    order;
  (* Settings the timed passes do not compile (programs only), for the
     cycle ladder: compiled and checked here. *)
  let extra =
    List.concat_map
      (fun i ->
        List.filter_map
          (fun (rung : Ladder.rung) ->
            if List.memq rung (rungs kind) then None
            else begin
              let r = Pipeline.run ~setting:rung.Ladder.setting i.func in
              let input = i.reg.Registry.name in
              Checks.record tally (semantic ~input ~label:(input ^ "/" ^ rung.Ladder.name) r);
              Some ((i.reg.Registry.name, rung.Ladder.name), r.Pipeline.func)
            end)
          Ladder.all)
      ins
  in
  let output name (rung : Ladder.rung) =
    match List.assoc_opt (name, rung.Ladder.name) extra with
    | Some f -> f
    | None -> (List.hd first.((item_of name rung.Ladder.name).idx).results).Pipeline.func
  in
  (* Fig. 2/3 costs, from the timed passes' own reports. *)
  if kind = Kernels then begin
    List.iter
      (fun ((kernel, rung), _) ->
        let r = List.hd first.((item_of kernel rung).idx).results in
        Checks.record tally (Checks.figure_cost ~kernel ~rung r.Pipeline.vect_report))
      Checks.figure_costs;
    (* Every loop form must leave memory bit-identical to its twin's. *)
    List.iter
      (fun ((lk : Registry.t), (tw : Registry.t)) ->
        List.iter
          (fun (rung : Ladder.rung) ->
            let wl = Workload.prepare ~iters:(check_iters lk) lk in
            let a = Workload.run_interp wl (output lk.Registry.name rung) in
            let b = Workload.run_interp wl (output tw.Registry.name rung) in
            Checks.record tally
              (Checks.memory_equal ~name:(lk.Registry.name ^ "/" ^ rung.Ladder.name) a b))
          Ladder.all)
      Registry.loop_pairs
  end;
  (* A validated compile, outside the timed loop, never answers
     Mismatch.  The verify rate is compiles validated per second of the
     validator's own time over several validated passes: eight on
     kernels, whose pass validates in ~0.1 s (three read 0.29 apart
     between runs), three on programs, whose pass takes ~4 s. *)
  let passes = match kind with Kernels -> 8 | Programs -> 3 in
  let validated_pass () =
    Array.fold_left
      (fun acc it ->
        let r = Pipeline.run ~validate:true ~setting:it.rung.Ladder.setting it.input.func in
        let v = Option.get r.Pipeline.validation in
        Checks.record tally
          (Checks.no_mismatch ~name:(it.input.reg.Registry.name ^ "/" ^ it.rung.Ladder.name) v);
        acc +. v.Pipeline.validate_seconds)
      0.0 order
  in
  let verify_rate =
    Metrics.ratio
      (float_of_int (passes * Array.length order))
      (Common.sum (List.init passes (fun _ -> validated_pass ())))
  in
  let code_size =
    Array.fold_left
      (fun acc o ->
        acc + Common.sumi (List.map (fun r -> Func.num_instrs r.Pipeline.func) o.results))
      0 first
  in
  (* The cycle ladder: each setting's code simulated at the input's
     default iteration count on the setting's own target and model. *)
  let workloads = List.map (fun i -> Workload.prepare i.reg) ins in
  let cycles =
    List.map
      (fun (rung : Ladder.rung) ->
        let target, model = Ladder.target_model rung in
        let per_input =
          List.map2
            (fun i wl ->
              (Workload.measure ?model ?target wl (output i.reg.Registry.name rung))
                .Snslp_simperf.Simperf.cycles)
            ins workloads
        in
        ("sim_cycles." ^ rung.Ladder.name, Common.geomean per_input))
      Ladder.all
  in
  (code_size, cycles, verify_rate)
