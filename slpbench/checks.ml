(* The output checks.  Each compares an output of the program against
   a result computed apart from it (the unoptimised function on the
   tree-walking interpreter, an in-process compile, the paper's
   figures) or against a property the method must have.  A failed
   check marks its operation as failed.

   [corrupt] exists for the self-test: when it names a check, the
   first output that check sees is damaged before it is checked, and
   the run must then count exactly that operation as failed. *)

open Snslp_interp

let corrupt : string option ref = ref None

(* True exactly once per run for the check named [name]. *)
let corrupting name =
  match !corrupt with
  | Some c when String.equal c name ->
      corrupt := None;
      true
  | _ -> false

(* Flip the first stored value of the first buffer (by argument
   position) in place. *)
let flip_value (m : Memory.t) =
  let positions = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) m []) in
  match positions with
  | [] -> ()
  | p :: _ -> (
      match Memory.buffer m ~arg_pos:p with
      | Memory.F_buf a when Array.length a > 0 -> a.(0) <- a.(0) +. 1.0
      | Memory.I_buf a when Array.length a > 0 -> a.(0) <- Int64.add a.(0) 1L
      | _ -> ())

let memory ~name ~tolerance ~(reference : Memory.t) (got : Memory.t) =
  if corrupting "memory" then flip_value got;
  let d = Memory.max_rel_diff reference got in
  if d <= tolerance then Ok ()
  else Error (Printf.sprintf "%s: memory differs from the reference (max rel diff %g)" name d)

let memory_equal ~name (a : Memory.t) (b : Memory.t) =
  if corrupting "loop-pair" then flip_value b;
  if Memory.equal a b then Ok ()
  else Error (Printf.sprintf "%s: loop form and twin leave different memory" name)

(* The paper's Fig. 2/3 SLP-graph costs, per setting. *)
let figure_costs =
  [
    (("motiv_leaf", "slp"), 0.0);
    (("motiv_leaf", "lslp"), 0.0);
    (("motiv_leaf", "sn-slp"), -6.0);
    (("motiv_trunk", "slp"), 4.0);
    (("motiv_trunk", "lslp"), 4.0);
    (("motiv_trunk", "sn-slp"), -6.0);
  ]

let figure_cost ~kernel ~rung (report : Snslp_vectorizer.Vectorize.report option) =
  let want = List.assoc (kernel, rung) figure_costs in
  match report with
  | Some { Snslp_vectorizer.Vectorize.trees = [ t ]; _ } ->
      let got = t.Snslp_vectorizer.Vectorize.cost.Snslp_vectorizer.Cost.total in
      let got = if corrupting "figure" then got +. 1.0 else got in
      if Float.abs (got -. want) <= 1e-9 then Ok ()
      else Error (Printf.sprintf "%s under %s: SLP-graph cost %g, paper %g" kernel rung got want)
  | _ -> Error (Printf.sprintf "%s under %s: expected exactly one SLP graph" kernel rung)

let no_mismatch ~name (v : Snslp_passes.Pipeline.validation) =
  let open Snslp_lint.Validate in
  let is_mismatch = function Mismatch _ -> true | _ -> false in
  let verdicts = v.Snslp_passes.Pipeline.end_verdict :: List.map snd v.Snslp_passes.Pipeline.pass_verdicts in
  let verdicts =
    if corrupting "validate" then Mismatch { where = "corrupted"; detail = "corrupted" } :: verdicts
    else verdicts
  in
  match List.find_opt is_mismatch verdicts with
  | None -> Ok ()
  | Some m -> Error (Printf.sprintf "%s: validator answers %s" name (verdict_to_string m))

let same_text ~name ~expected got =
  let got = if corrupting "determinism" then got ^ " " else got in
  if String.equal expected got then Ok ()
  else Error (Printf.sprintf "%s: output differs between passes" name)

(* A compiled reply must be one of the renderings an in-process
   compile accepts for it. *)
let reply ~name ~accepted got =
  let got = if corrupting "reply" then got ^ "\n; altered" else got in
  if List.exists (String.equal got) accepted then Ok ()
  else Error (Printf.sprintf "%s: reply differs from the in-process compile" name)

let err_reply ~name (r : Snslp_service.Protocol.response) =
  let r = if corrupting "err-reply" then Snslp_service.Protocol.Compiled { statuses = []; ir = "" } else r in
  match r with
  | Snslp_service.Protocol.Err _ -> Ok ()
  | _ -> Error (Printf.sprintf "%s: expected an err reply" name)

(* served = hits_textual + hits_semantic + misses + err replies. *)
let stats_balance ~errs (kvs : (string * string) list) =
  let get k = Option.bind (List.assoc_opt k kvs) int_of_string_opt in
  let get k = if String.equal k "misses" && corrupting "stats" then Option.map succ (get k) else get k in
  match (get "served", get "hits_textual", get "hits_semantic", get "misses") with
  | Some s, Some ht, Some hs, Some m when s = ht + hs + m + errs -> Ok ()
  | Some s, Some ht, Some hs, Some m ->
      Error
        (Printf.sprintf "stats: served %d <> hits_textual %d + hits_semantic %d + misses %d + errs %d"
           s ht hs m errs)
  | _ -> Error "stats: counters missing from the reply"

let no_findings ~name (fs : Snslp_fuzzer.Oracle.finding list) =
  let fs =
    if corrupting "oracle" then
      { Snslp_fuzzer.Oracle.config = "corrupted"; kind = Snslp_fuzzer.Oracle.Mismatch "corrupted" } :: fs
    else fs
  in
  match fs with
  | [] -> Ok ()
  | f :: _ -> Error (Printf.sprintf "%s: %s" name (Snslp_fuzzer.Oracle.finding_to_string f))

(* The checks the self-test corrupts, one each. *)
let all =
  [ "memory"; "loop-pair"; "figure"; "validate"; "determinism"; "reply"; "err-reply"; "stats"; "oracle" ]

(* --- Tally ---------------------------------------------------------------- *)

type tally = { mutable attempted : int; mutable failed : int }

let tally () = { attempted = 0; failed = 0 }

let record t (r : (unit, string) result) =
  t.attempted <- t.attempted + 1;
  match r with
  | Ok () -> ()
  | Error e ->
      t.failed <- t.failed + 1;
      prerr_endline ("check failed: " ^ e)

(* An operation passes only when every check on its output passes. *)
let all_ok (rs : (unit, string) result list) =
  List.fold_left (fun acc r -> match acc with Error _ -> acc | Ok () -> r) (Ok ()) rs
