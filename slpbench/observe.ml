(* `slpbench.exe observe`: recomputes the observations README.md
   records — where a kernels pass spends its time, how many registry
   kernels offer global packing exactly one candidate, the per-kernel
   cycle ladder, the frontend's
   share of a programs pass and how it scales with source size, and
   how snslpd's stats latency grows with the requests it has served.
   Each figure is printed next to the README's claim, and the command
   exits 1 when a claim no longer holds. *)

open Snslp_kernels
open Snslp_passes
module Frontend = Snslp_frontend.Frontend

let claims_ok = ref true

let claim what ok =
  Printf.printf "  %s — %s\n" what (if ok then "holds" else "DOES NOT HOLD");
  if not ok then claims_ok := false

let median_time n f =
  Common.median
    (List.init n (fun _ ->
         let t0 = Common.now_s () in
         ignore (Sys.opaque_identity (f ()));
         Common.now_s () -. t0))

let kernels () =
  let ins = Compile_wl.inputs Compile_wl.Kernels in
  let items = Compile_wl.items Compile_wl.Kernels ins in
  let per =
    List.map
      (fun (it : Compile_wl.item) ->
        ( it,
          median_time 5 (fun () ->
              Pipeline.run ~setting:it.Compile_wl.rung.Ladder.setting it.Compile_wl.input.Compile_wl.func) ))
      items
  in
  let total = Common.sum (List.map snd per) in
  let share p = Common.sum (List.filter_map (fun (it, t) -> if p it then Some t else None) per) /. total in
  let milc = share (fun it -> String.equal it.Compile_wl.input.Compile_wl.reg.Registry.name "milc_mat_vec") in
  let global = share (fun it -> String.equal it.Compile_wl.rung.Ladder.name "global") in
  Printf.printf "kernels: pass of %d compiles takes %.3f s (sum of per-compile medians)\n"
    (List.length per) total;
  Printf.printf "  milc_mat_vec: %.1f%% of the pass; global setting: %.1f%%\n" (100. *. milc) (100. *. global);
  claim "milc_mat_vec is over half of a kernels pass" (milc > 0.5);
  claim "the global setting is over a fifth of a kernels pass" (global > 0.2);
  let single =
    List.filter
      (fun (k : Registry.t) ->
        let r =
          Pipeline.run ~setting:Ladder.global.Ladder.setting (Frontend.compile_one k.Registry.source)
        in
        match r.Pipeline.vect_report with
        | Some rep -> rep.Snslp_vectorizer.Vectorize.stats.Snslp_vectorizer.Stats.pack_candidates = 1
        | None -> false)
      Registry.all
  in
  Printf.printf "  kernels with exactly one pack candidate under global: %d of %d (%s)\n"
    (List.length single) (List.length Registry.all)
    (String.concat ", " (List.map (fun (k : Registry.t) -> k.Registry.name) single))

(* The per-kernel cycle ladder: each registry kernel's code under each
   setting, simulated at its default iteration count on the setting's
   own target and model (what the kernels workload's sim_cycles.*
   geomeans summarise). *)
let ladder () =
  Printf.printf "cycle ladder (simulated cycles per kernel run)\n  %-20s" "kernel";
  List.iter (fun (r : Ladder.rung) -> Printf.printf " %12s" r.Ladder.name) Ladder.all;
  print_newline ();
  List.iter
    (fun (k : Registry.t) ->
      let wl = Workload.prepare k in
      Printf.printf "  %-20s" k.Registry.name;
      List.iter
        (fun (r : Ladder.rung) ->
          let target, model = Ladder.target_model r in
          let f = (Pipeline.run ~setting:r.Ladder.setting wl.Workload.func).Pipeline.func in
          Printf.printf " %12.0f" (Workload.measure ?model ?target wl f).Snslp_simperf.Simperf.cycles)
        Ladder.all;
      print_newline ())
    Registry.all

let programs () =
  let ins = Compile_wl.inputs Compile_wl.Programs in
  let rows =
    List.map
      (fun (i : Compile_wl.input) ->
        let src = i.Compile_wl.reg.Registry.source in
        let fe = median_time 3 (fun () -> Frontend.compile src) in
        let pipe =
          List.map
            (fun (r : Ladder.rung) ->
              median_time 3 (fun () -> Pipeline.run ~setting:r.Ladder.setting i.Compile_wl.func))
            Ladder.programs
        in
        (i.Compile_wl.reg.Registry.name, String.length src, i.Compile_wl.instrs, fe, pipe))
      ins
  in
  Printf.printf "programs: %-14s %7s %7s %9s %9s %9s %9s\n" "program" "bytes" "instrs"
    "fe ms" "o3 ms" "lslp ms" "sn-slp ms";
  List.iter
    (fun (n, b, ins, fe, pipe) ->
      Printf.printf "          %-14s %7d %7d %9.2f %s\n" n b ins (fe *. 1e3)
        (String.concat " " (List.map (fun t -> Printf.sprintf "%9.2f" (t *. 1e3)) pipe)))
    rows;
  let fe_total = 3.0 *. Common.sum (List.map (fun (_, _, _, fe, _) -> fe) rows) in
  let pipe_total = Common.sum (List.concat_map (fun (_, _, _, _, p) -> p) rows) in
  let share = fe_total /. (fe_total +. pipe_total) in
  Printf.printf "  Frontend.compile share of a programs pass: %.1f%%\n" (100. *. share);
  claim "Frontend.compile is over half of a programs pass" (share > 0.5);
  let find n = List.find (fun (m, _, _, _, _) -> String.equal m n) rows in
  let _, b1, _, fe1, _ = find "400.perlbench" and _, b2, _, fe2, p2 = find "447.dealII" in
  let snslp2 = List.nth p2 2 in
  Printf.printf
    "  447.dealII vs 400.perlbench: %.1fx the bytes, %.1fx the frontend time; dealII's frontend is %.1fx its sn-slp pipeline\n"
    (float_of_int b2 /. float_of_int b1) (fe2 /. fe1) (fe2 /. snslp2);
  claim "frontend time grows faster than source size" (fe2 /. fe1 > float_of_int b2 /. float_of_int b1)

let service ~daemon =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let frames = Service_wl.stream ~seed:1 in
  let rounds = List.init 3 (fun _ -> Service_wl.serve_round daemon frames) in
  let positions =
    List.filteri (fun _ (_, f) -> f = Service_wl.Stats) (List.mapi (fun i f -> (i, f)) frames)
  in
  Printf.printf "service: stats latency by requests served (median of 3 daemons)\n";
  let lat =
    List.mapi
      (fun k (i, _) ->
        let ms = 1e3 *. Common.median (List.map (fun (r : Service_wl.round) -> r.Service_wl.latency.(i)) rounds) in
        Printf.printf "  after %5d frames: %.3f ms\n" ((k + 1) * Service_wl.stats_every) ms;
        ms)
      positions
  in
  let first = List.hd lat and last = List.nth lat (List.length lat - 1) in
  claim "stats latency grows with the requests served" (last > first)

let run ~daemon =
  kernels ();
  ladder ();
  programs ();
  service ~daemon;
  if not !claims_ok then exit 1
