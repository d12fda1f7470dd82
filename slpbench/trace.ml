(* The traced run's span store.

   A span is one call into a layer's public function, timed by the
   benchmark: a name, a start, an end, the span that caused it, the
   operation it belongs to (spans of one operation share [op]) and the
   timed round it ran in.  Durations a layer reports about itself
   (Pipeline.result.timings, the vectorizer's Stats phases, the
   oracle's interpreter seconds) are kept as splits of the span that
   made the call: the library gives durations, not instants.  Pipeline
   passes run one after another, so their splits are also laid end to
   end as [derived] child spans, which is what the coverage figure
   needs.

   Everything stays in memory while the run measures and is written
   out once at the end.  With tracing off every entry point only runs
   its thunk. *)

type span = {
  sid : int;
  op : int;
  round : int;
  name : string;
  parent : int; (* -1 at the root of an operation *)
  t0 : float;
  t1 : float;
  derived : bool;
}

type split = { s_round : int; s_parent : int; s_name : string; seconds : float }

let enabled = ref false
let round = ref 0
let spans : span list ref = ref []
let splits : split list ref = ref []
let counters : (int * string, float) Hashtbl.t = Hashtbl.create 64
let next_sid = ref 0
let next_op = ref 0

let reset () =
  spans := [];
  splits := [];
  Hashtbl.reset counters;
  next_sid := 0;
  next_op := 0

let fresh_op () =
  incr next_op;
  !next_op

let add_span ~op ~parent ~derived name t0 t1 =
  incr next_sid;
  spans :=
    { sid = !next_sid; op; round = !round; name; parent; t0; t1; derived } :: !spans;
  !next_sid

(* [span ~op ~parent name f] runs [f] and, when tracing, records it;
   [f] receives the new span's id so nested calls can name it as
   their parent.  The id is reserved before [f] runs. *)
let span ~op ~parent name (f : int -> 'a) : 'a =
  if not !enabled then f (-1)
  else begin
    incr next_sid;
    let sid = !next_sid in
    let t0 = Common.now_s () in
    let r = f sid in
    let t1 = Common.now_s () in
    spans := { sid; op; round = !round; name; parent; t0; t1; derived = false } :: !spans;
    r
  end

let split ~parent name seconds =
  if !enabled then
    splits := { s_round = !round; s_parent = parent; s_name = name; seconds } :: !splits

(* Lay [parts] end to end from [start] as derived children of
   [parent]; the new span ids, by name. *)
let sequential ~op ~parent ~start parts =
  if not !enabled then []
  else
    snd
      (List.fold_left
         (fun (t, acc) (name, seconds) ->
           let sid = add_span ~op ~parent ~derived:true name t (t +. seconds) in
           (t +. seconds, (name, sid) :: acc))
         (start, []) parts)

let count name v =
  if !enabled then
    let key = (!round, name) in
    Hashtbl.replace counters key
      (v +. Option.value (Hashtbl.find_opt counters key) ~default:0.0)

(* --- Reading the store back -------------------------------------------- *)

let rounds () =
  List.sort_uniq compare (List.map (fun s -> s.round) !spans)

(* Per traced round: summed seconds of the spans and splits called
   [name].  The (round, name) totals are folded once per read-back. *)
let totals = lazy
  (let t = Hashtbl.create 256 in
   let add key d =
     Hashtbl.replace t key (d +. Option.value (Hashtbl.find_opt t key) ~default:0.0)
   in
   List.iter (fun s -> add (s.round, s.name) (s.t1 -. s.t0)) !spans;
   List.iter (fun s -> add (s.s_round, s.s_name) s.seconds) !splits;
   t)

let seconds_by_round name =
  let t = Lazy.force totals in
  List.map
    (fun r -> Option.value (Hashtbl.find_opt t (r, name)) ~default:0.0)
    (rounds ())

let counter_by_round name =
  List.map
    (fun r -> Option.value (Hashtbl.find_opt counters (r, name)) ~default:0.0)
    (rounds ())

(* Share of the operations rooted at spans named [root] that no layer
   span covers: the self time (duration minus direct children) of every
   span that has children, over the roots' summed duration. *)
let uncovered_share root =
  let children = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          ((s.t1 -. s.t0) +. Option.value (Hashtbl.find_opt children s.parent) ~default:0.0))
    !spans;
  let roots = Hashtbl.create 256 in
  List.iter (fun s -> if String.equal s.name root then Hashtbl.replace roots s.op ()) !spans;
  let total, uncovered =
    List.fold_left
      (fun (tot, unc) s ->
        if not (Hashtbl.mem roots s.op) then (tot, unc)
        else
          let d = s.t1 -. s.t0 in
          let tot = if String.equal s.name root then tot +. d else tot in
          match Hashtbl.find_opt children s.sid with
          | Some c -> (tot, unc +. Float.max 0.0 (d -. c))
          | None -> (tot, unc))
      (0.0, 0.0) !spans
  in
  if total > 0.0 then uncovered /. total else 0.0

(* One JSON object per line: spans (times in microseconds from the
   first span), then splits, then counters. *)
let write path =
  let base =
    List.fold_left (fun m s -> Float.min m s.t0) infinity !spans
  in
  let us t = Common.Raw (Printf.sprintf "%.1f" ((t -. base) *. 1e6)) in
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun s ->
          Printf.fprintf oc "%s\n"
            (Common.json_to_string
               (Common.Obj
                  [
                    ("span", Common.Int s.sid);
                    ("op", Common.Int s.op);
                    ("round", Common.Int s.round);
                    ("name", Common.Str s.name);
                    ("parent", Common.Int s.parent);
                    ("start_us", us s.t0);
                    ("end_us", us s.t1);
                    ("derived", Common.Bool s.derived);
                  ])))
        (List.rev !spans);
      List.iter
        (fun s ->
          Printf.fprintf oc "%s\n"
            (Common.json_to_string
               (Common.Obj
                  [
                    ("split", Common.Str s.s_name);
                    ("round", Common.Int s.s_round);
                    ("parent", Common.Int s.s_parent);
                    ("seconds", Common.Num s.seconds);
                  ])))
        (List.rev !splits);
      Hashtbl.iter
        (fun (r, name) v ->
          Printf.fprintf oc "%s\n"
            (Common.json_to_string
               (Common.Obj
                  [ ("counter", Common.Str name); ("round", Common.Int r); ("value", Common.Num v) ])))
        counters)
