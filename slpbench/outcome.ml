(* What one run reports, and helpers every workload uses to assemble
   it. *)

type t = {
  tally : Checks.tally;
  metrics : (string * float * string) list; (* name, value, unit *)
}

let with_units names values =
  List.map (fun (name, unit) -> (name, List.assoc name values, unit)) names

(* Tracing overhead: median traced round over median untraced round,
   as a percentage above 1. *)
let overhead_pct ~traced ~untraced =
  if untraced = [] || traced = [] then 0.0
  else 100.0 *. ((Common.median traced /. Common.median untraced) -. 1.0)

(* A workload's set-up: [once] returns its seconds and the state it
   built.  It runs [n] times before the rounds; the first run's state is
   the one measured. *)
type 'a setup = { state : 'a; times : float list; once : unit -> float * 'a }

let setup n once =
  let runs = List.init n (fun _ -> once ()) in
  { state = snd (List.hd runs); times = List.map fst runs; once }

(* The reported set-up time: the median of the set-ups timed before the
   rounds and as many again timed after them.  The host's speed drifts
   by up to a quarter over tens of seconds, and set-ups timed only at
   the start saw one moment of that drift.  Call it after reading the
   peak resident set, which the later set-ups must not raise. *)
let setup_seconds s =
  Common.median (s.times @ List.map (fun _ -> fst (s.once ())) s.times)

(* Whole rounds until [seconds] have passed: at least two, and with
   tracing at least four, alternating untraced (even) and traced (odd)
   rounds.  [round r ~traced] runs round [r] and returns the wall
   seconds it counts; the result is (traced, untraced) walls. *)
let rounds ~seconds ~trace (round : int -> traced:bool -> float) =
  let deadline = Common.now_s () +. seconds in
  let traced_s = ref [] and untraced_s = ref [] in
  let rec loop r =
    let traced = trace && r mod 2 = 1 in
    Trace.enabled := traced;
    Trace.round := r;
    let wall = round r ~traced in
    Trace.enabled := false;
    if traced then traced_s := wall :: !traced_s else untraced_s := wall :: !untraced_s;
    if Common.now_s () < deadline || r < 1 || (trace && r < 3) then loop (r + 1)
  in
  loop 0;
  (!traced_s, !untraced_s)
