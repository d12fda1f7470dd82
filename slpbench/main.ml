(* slpbench — the repository's benchmark.

     slpbench.exe --workload kernels|programs|service|verify
                  --seed N --seconds S --trace 0|1 [--daemon PATH]
     slpbench.exe selftest [--daemon PATH]
     slpbench.exe observe [--daemon PATH]

   A run sets up, measures for S seconds in whole rounds, checks every
   output, and prints as its last line one JSON object: correct,
   attempted, failed and the metrics — the end-to-end metrics with
   --trace 0, the per-layer metrics with --trace 1.  A traced run also
   writes its spans to .slpbench-out/ in the working directory.
   `selftest` feeds each output check one corrupted output and fails
   unless the run reports exactly that operation as failed; `observe`
   recomputes the observations README.md records. *)

let compile_workload kind ~seed ~seconds ~trace =
  (* Kernels set-up is one pass, as short and noisy as a pass, so it
     is repeated more often than the programs set-up. *)
  let setup =
    Outcome.setup (if kind = Compile_wl.Kernels then 3 else 2) (fun () ->
        let s, ins, order = Compile_wl.setup kind ~seed in
        (s, (ins, order)))
  in
  let ins, order = setup.Outcome.state in
  Trace.reset ();
  let rounds, snaps, first, tally, traced_s, untraced_s =
    Compile_wl.timed kind ~order ~seconds ~trace
  in
  let rss = Common.peak_rss_mb () in
  let code_size, cycles, verify_rate = Compile_wl.check kind ~ins ~first ~tally ~order in
  let metrics =
    if trace then
      Layers.report
        ~extra:
          [
            ("trace.overhead_pct", Outcome.overhead_pct ~traced:traced_s ~untraced:untraced_s);
            ("trace.uncovered_pct", 100.0 *. Trace.uncovered_share "compile");
          ]
    else
      Outcome.with_units Metrics.end_to_end
        ([ ("setup_s", Outcome.setup_seconds setup); ("code_size", float_of_int code_size) ]
        @ cycles
        @ Metrics.timing ~rounds ~snapshots:snaps
        @ [ ("verify_rate", verify_rate); ("peak_rss_mb", rss) ])
  in
  { Outcome.tally; metrics }

let workloads = [ "kernels"; "programs"; "service"; "verify" ]

let run_workload ~daemon ~workload ~seed ~seconds ~trace =
  match workload with
  | "kernels" -> compile_workload Compile_wl.Kernels ~seed ~seconds ~trace
  | "programs" -> compile_workload Compile_wl.Programs ~seed ~seconds ~trace
  | "service" -> Service_wl.run ~daemon ~seed ~seconds ~trace
  | "verify" -> Verify_wl.run ~seed ~seconds ~trace
  | w -> failwith ("unknown workload " ^ w)

let result_json (r : Outcome.t) =
  Common.Obj
    [
      ("correct", Common.Bool (r.Outcome.tally.Checks.failed = 0));
      ("attempted", Common.Int r.Outcome.tally.Checks.attempted);
      ("failed", Common.Int r.Outcome.tally.Checks.failed);
      ( "metrics",
        Common.Obj
          (List.map
             (fun (name, v, unit) ->
               (name, Common.Obj [ ("value", Common.Num v); ("unit", Common.Str unit) ]))
             r.metrics) );
    ]

let write_trace ~workload ~seed =
  let dir = ".slpbench-out" in
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  let path = Filename.concat dir (Printf.sprintf "trace-%s-%d.jsonl" workload seed) in
  Trace.write path;
  Printf.eprintf "spans written to %s\n" path

(* Each corruption on the smallest run that reaches its check; the
   run must count exactly one failed operation. *)
let selftest ~daemon =
  let cases =
    [
      ("memory", "kernels"); ("loop-pair", "kernels"); ("figure", "kernels");
      ("validate", "kernels"); ("determinism", "kernels"); ("reply", "service");
      ("err-reply", "service"); ("stats", "service"); ("oracle", "verify");
    ]
  in
  assert (List.sort compare (List.map fst cases) = List.sort compare Checks.all);
  let caught =
    List.map
      (fun (check, workload) ->
        Checks.corrupt := Some check;
        let r = run_workload ~daemon ~workload ~seed:1 ~seconds:0.0 ~trace:false in
        let pass = r.Outcome.tally.Checks.failed = 1 && !Checks.corrupt = None in
        Printf.printf "%-12s on %-8s: %d of %d operations failed — %s\n%!" check workload
          r.Outcome.tally.Checks.failed r.Outcome.tally.Checks.attempted
          (if pass then "caught" else "NOT CAUGHT");
        pass)
      cases
  in
  if List.mem false caught then exit 1

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let daemon = ref "_build/default/bin/snslpd.exe" in
  let mode = ref "run" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat "|" workloads);
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " measuring time");
      ("--trace", Arg.Set_int trace, " 1 for the traced, per-layer run");
      ("--daemon", Arg.Set_string daemon, " path of the snslpd executable");
    ]
    (fun a -> mode := a)
    "slpbench.exe [selftest|observe] --workload W --seed N --seconds S --trace 0|1";
  match !mode with
  | "selftest" -> selftest ~daemon:!daemon
  | "observe" -> Observe.run ~daemon:!daemon
  | _ ->
      if not (List.mem !workload workloads) then begin
        prerr_endline ("unknown workload '" ^ !workload ^ "'");
        exit 2
      end;
      let trace = !trace = 1 in
      let r = run_workload ~daemon:!daemon ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace in
      if trace then write_trace ~workload:!workload ~seed:!seed;
      print_endline (Common.json_to_string (result_json r))
