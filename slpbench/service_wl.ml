(* The [service] workload: one closed-loop client drives one snslpd
   over its stdio protocol with a fixed-length, seeded stream.

   The catalog is every registry kernel but milc_mat_vec under each
   ladder setting's mode spelling (25 × 6 pairs); milc_mat_vec is left
   out because one of its misses costs 30–90× any other, so p99 would
   count how many of its variants a seed happens to draw.  Pair
   popularity is Zipf over a fixed ranking.  Top-level frames come in
   fixed numbers, in seeded order:

     replay   a base catalog source, byte for byte — after its first
              touch the request-index fast path answers it
     variant  a renamed and/or operand-commuted rewrite of a touched
              pair — a structural or semantic hit through the
              frontend and Semhash
     fresh    a touched pair with one or two +/− flipped — a
              semantically new key, compiled and inserted; there are
              more distinct keys than the 256-entry cache, so the LRU
              evicts
     err      an unknown mode or a KernelC source naming an
              undeclared array — the answer must be err
     batch    four compile frames (replay, replay, variant, fresh)
              answered as one batch
   plus a stats frame after every 100 frames and a last one after the
   stream.  Every catalog pair is touched by a replay frame before any
   variant of it, so each pair's first reply is its own compile.

   The stream has a fixed count, not a fixed duration: the daemon keeps
   every latency and sorts the whole list on each stats, so a run
   bounded by time would tie stats latency to the host's speed.  A
   round is one fresh daemon serving the whole stream. *)

open Snslp_ir
open Snslp_kernels
module Pipeline = Snslp_passes.Pipeline
module Ast = Snslp_frontend.Ast
module Frontend = Snslp_frontend.Frontend
module Protocol = Snslp_service.Protocol
module Server = Snslp_service.Server
module Cache = Snslp_service.Cache
module Semhash = Snslp_lint.Semhash

let stats_every = 100

(* Set-up (stream, daemon start, first reply) is short and noisy, so it
   is repeated more often than the other workloads' set-ups. *)
let setups = 4

(* Exact counts per class; batches hold 4 compile frames each. *)
let class_counts = [ (`Replay, 1100); (`Variant, 400); (`Fresh, 300); (`Err, 80); (`Batch, 120) ]
let batch_shape = [ `Replay; `Replay; `Variant; `Fresh ]

type cls = Replay | Variant | Fresh | Err

let cls_name = function Replay -> "replay" | Variant -> "variant" | Fresh -> "miss" | Err -> "err"

type compile = {
  cls : cls;
  mode : string;
  source : string;
  pair : (string * string) option; (* (kernel, rung) of a replay *)
}

type frame = Single of compile | Batch of compile list | Stats

let catalog =
  List.filter (fun (k : Registry.t) -> not (String.equal k.Registry.name "milc_mat_vec")) Registry.all

(* --- Rewrites of a parsed kernel ---------------------------------------- *)

(* Rewrite the [n]-th node (in preorder over value expressions, index
   expressions excluded) that [pick] accepts. *)
let rewrite_nth ~pick ~f n (k : Ast.kernel) =
  let count = ref 0 in
  let rec expr (e : Ast.expr) =
    match e.Ast.desc with
    | Ast.Binary (op, a, b) ->
        let here = if pick op then (incr count; !count - 1 = n) else false in
        let a = expr a and b = expr b in
        if here then { e with Ast.desc = f op a b } else { e with Ast.desc = Ast.Binary (op, a, b) }
    | Ast.Unary (u, a) -> { e with Ast.desc = Ast.Unary (u, expr a) }
    | _ -> e
  in
  let rec stmt (s : Ast.stmt) =
    match s.Ast.sdesc with
    | Ast.Let (t, v, e) -> { s with Ast.sdesc = Ast.Let (t, v, expr e) }
    | Ast.Store (a, i, e) -> { s with Ast.sdesc = Ast.Store (a, i, expr e) }
    | Ast.If (c, t, e) -> { s with Ast.sdesc = Ast.If (c, List.map stmt t, List.map stmt e) }
    | Ast.For l -> { s with Ast.sdesc = Ast.For { l with Ast.fbody = List.map stmt l.Ast.fbody } }
  in
  let k' = { k with Ast.kbody = List.map stmt k.Ast.kbody } in
  (k', !count)

let count_nodes ~pick k = snd (rewrite_nth ~pick ~f:(fun op a b -> Ast.Binary (op, a, b)) (-1) k)

let commutative = function Ast.Add | Ast.Mul -> true | _ -> false
let additive = function Ast.Add | Ast.Sub -> true | _ -> false

let commute st k =
  let n = count_nodes ~pick:commutative k in
  if n = 0 then k
  else fst (rewrite_nth ~pick:commutative ~f:(fun op a b -> Ast.Binary (op, b, a)) (Random.State.int st n) k)

let flip st k =
  let n = count_nodes ~pick:additive k in
  if n = 0 then k
  else
    fst
      (rewrite_nth ~pick:additive
         ~f:(fun op a b -> Ast.Binary ((if op = Ast.Add then Ast.Sub else Ast.Add), a, b))
         (Random.State.int st n) k)

let print_kernel k = Fmt.str "%a" Ast.pp_kernel k

(* --- The stream ---------------------------------------------------------- *)

let stream ~seed =
  let st = Common.rng seed in
  let parsed = List.map (fun (k : Registry.t) -> (k, List.hd (Frontend.parse k.Registry.source))) catalog in
  (* The popularity ranking is fixed (one constant shuffle); the seed
     draws the stream over it.  A seeded ranking would let the seed
     decide which kernels are hot, and with them every latency. *)
  let pairs =
    Array.of_list
      (Common.shuffle (Common.rng 0)
         (List.concat_map (fun kp -> List.map (fun r -> (kp, r)) Ladder.all) parsed))
  in
  let n = Array.length pairs in
  let cdf =
    let w = Array.init n (fun r -> 1.0 /. float_of_int (r + 1)) in
    let total = Array.fold_left ( +. ) 0.0 w in
    let acc = ref 0.0 in
    Array.map (fun x -> acc := !acc +. (x /. total); !acc) w
  in
  let zipf () =
    let u = Random.State.float st 1.0 in
    let rec find i = if i >= n - 1 || cdf.(i) >= u then i else find (i + 1) in
    find 0
  in
  let touched = Array.make n false in
  let touched_list = ref [] in
  let touch i =
    if not touched.(i) then begin
      touched.(i) <- true;
      touched_list := i :: !touched_list
    end
  in
  (* Catalog slots: enough replay frames reserved to touch every pair. *)
  let replays = List.assoc `Replay class_counts + (2 * List.assoc `Batch class_counts) in
  let catalog_slots = Hashtbl.create n in
  List.iteri (fun i s -> if i < n then Hashtbl.replace catalog_slots s ())
    (Common.shuffle st (List.init replays Fun.id));
  let next_untouched = ref 0 in
  let replay_no = ref 0 in
  let base i =
    let ((reg : Registry.t), _), (rung : Ladder.rung) = pairs.(i) in
    { cls = Replay; mode = rung.Ladder.mode; source = reg.Registry.source;
      pair = Some (reg.Registry.name, rung.Ladder.name) }
  in
  let replay () =
    let slot = !replay_no in
    incr replay_no;
    let i =
      if Hashtbl.mem catalog_slots slot then begin
        while !next_untouched < n && touched.(!next_untouched) do incr next_untouched done;
        if !next_untouched < n then !next_untouched else zipf ()
      end
      else zipf ()
    in
    touch i;
    base i
  in
  (* A touched pair, by popularity. *)
  let touched_pair () =
    let rec go tries =
      let i = zipf () in
      if touched.(i) || tries > 50 then i else go (tries + 1)
    in
    let i = go 0 in
    if touched.(i) then i else List.hd !touched_list
  in
  let seen = Hashtbl.create 1024 in
  let variant () =
    let i = touched_pair () in
    let ((_, k), (rung : Ladder.rung)) = pairs.(i) in
    let k = if Random.State.int st 10 < 6 then commute st k else k in
    let k =
      if Random.State.bool st then { k with Ast.kname = k.Ast.kname ^ "_v" ^ string_of_int (Random.State.int st 4) }
      else k
    in
    { cls = Variant; mode = rung.Ladder.mode; source = print_kernel k; pair = None }
  in
  let fresh () =
    let rec go tries =
      let i = touched_pair () in
      let ((_, k), (rung : Ladder.rung)) = pairs.(i) in
      let k = flip st k in
      let k = if Random.State.bool st then flip st k else k in
      let source = print_kernel k in
      let key = rung.Ladder.mode ^ "\x00" ^ source in
      if Hashtbl.mem seen key && tries < 20 then go (tries + 1)
      else begin
        Hashtbl.replace seen key ();
        { cls = Fresh; mode = rung.Ladder.mode; source; pair = None }
      end
    in
    go 0
  in
  let err () =
    let i = touched_pair () in
    let ((reg : Registry.t), k), (rung : Ladder.rung) = pairs.(i) in
    if Random.State.bool st then
      { cls = Err; mode = rung.Ladder.mode ^ "+bogus"; source = reg.Registry.source; pair = None }
    else
      let rec undeclared (s : Ast.stmt) =
        match s.Ast.sdesc with
        | Ast.Store (_, i, e) -> { s with Ast.sdesc = Ast.Store ("undeclared_array", i, e) }
        | Ast.If (c, t, e) ->
            { s with Ast.sdesc = Ast.If (c, List.map undeclared t, List.map undeclared e) }
        | Ast.For l ->
            { s with Ast.sdesc = Ast.For { l with Ast.fbody = List.map undeclared l.Ast.fbody } }
        | Ast.Let _ -> s
      in
      { cls = Err; mode = rung.Ladder.mode;
        source = print_kernel { k with Ast.kbody = List.map undeclared k.Ast.kbody }; pair = None }
  in
  let one = function `Replay -> replay () | `Variant -> variant () | `Fresh -> fresh () | `Err -> err () in
  let classes =
    Common.shuffle st (List.concat_map (fun (c, k) -> List.init k (fun _ -> c)) class_counts)
  in
  (* The first frame touches a pair, so every later class has one. *)
  let classes =
    match List.partition (fun c -> c = `Replay) classes with
    | r :: rs, others -> r :: Common.shuffle st (rs @ others)
    | [], others -> others
  in
  let frames =
    List.concat
      (List.mapi
         (fun i c ->
           let f =
             match c with
             | `Batch -> Batch (List.map one (Common.shuffle st batch_shape))
             | (`Replay | `Variant | `Fresh | `Err) as c -> Single (one c)
           in
           if (i + 1) mod stats_every = 0 then [ f; Stats ] else [ f ])
         classes)
  in
  assert (List.for_all (fun i -> touched.(i)) (List.init n Fun.id));
  frames

(* --- The wire ------------------------------------------------------------ *)

let source_lines s =
  let s = if String.ends_with ~suffix:"\n" s then String.sub s 0 (String.length s - 1) else s in
  if s = "" then [] else String.split_on_char '\n' s

let compile_lines c =
  let body = source_lines c.source in
  Printf.sprintf "compile %s %d" c.mode (List.length body) :: body

let frame_lines = function
  | Single c -> compile_lines c
  | Batch cs -> Printf.sprintf "batch %d" (List.length cs) :: List.concat_map compile_lines cs
  | Stats -> [ "stats" ]

let replies_expected = function Single _ | Stats -> 1 | Batch cs -> List.length cs

type daemon = { pid : int; oc : out_channel; ic : in_channel }

let spawn path =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process path [| path |] in_r out_w Unix.stderr in
  Unix.close in_r;
  Unix.close out_w;
  { pid; oc = Unix.out_channel_of_descr in_w; ic = Unix.in_channel_of_descr out_r }

let send d lines =
  List.iter
    (fun l ->
      output_string d.oc l;
      output_char d.oc '\n')
    lines;
  flush d.oc

let receive d = Protocol.read_response (fun () -> In_channel.input_line d.ic)

(* One frame: its replies (a parse failure or a dead daemon reads as
   an [Error]) and its latency, first line written to last reply line
   read. *)
let exchange d frame =
  let t0 = Common.now_s () in
  let replies =
    try
      send d (frame_lines frame);
      List.init (replies_expected frame) (fun _ ->
          match receive d with
          | Some r -> r
          | None -> Error "daemon closed the stream")
    with Sys_error e -> [ Error e ]
  in
  (replies, Common.now_s () -. t0)

let stop d =
  (try
     send d [ "quit" ];
     close_out d.oc
   with Sys_error _ -> ());
  ignore (Unix.waitpid [] d.pid);
  close_in_noerr d.ic

(* A fresh daemon that has answered one stats frame. *)
let start path =
  let d = spawn path in
  ignore (exchange d Stats);
  d

let render = function
  | Ok (Protocol.Compiled { statuses; ir }) -> "ok " ^ String.concat "," statuses ^ "\n" ^ ir
  | Ok (Protocol.Err e) -> "err " ^ e
  | Ok (Protocol.Stats_reply _) -> "stats"
  | Error e -> "broken " ^ e

type round = {
  replies : (Protocol.response, string) result list array; (* per frame *)
  latency : float array; (* per frame *)
  wall : float;
  rss_mb : float;
  last_stats : (Protocol.response, string) result option;
}

let serve_round path frames =
  let d = start path in
  let frames = Array.of_list frames in
  let replies = Array.make (Array.length frames) [] in
  let latency = Array.make (Array.length frames) 0.0 in
  let t0 = Common.now_s () in
  Array.iteri
    (fun i f ->
      let r, dt = exchange d f in
      replies.(i) <- r;
      latency.(i) <- dt)
    frames;
  let wall = Common.now_s () -. t0 in
  let last_stats =
    match exchange d Stats with [ r ], _ -> Some r | _ -> None
  in
  let rss_mb = Common.peak_rss_mb ~pid:d.pid () in
  stop d;
  { replies; latency; wall; rss_mb; last_stats }

(* --- The in-process traced round --------------------------------------- *)

let print_func f =
  let s = Fmt.str "%a" Printer.pp_func f in
  let n = ref (String.length s) in
  while !n > 0 && (s.[!n - 1] = '\n' || s.[!n - 1] = '\r') do decr n done;
  String.sub s 0 !n

let fingerprint (r : Ladder.rung) =
  match r.Ladder.setting with None -> "o3" | Some c -> Snslp_vectorizer.Config.fingerprint c

(* The daemon's own loop, Server.serve, in this process, one frame per
   conversation.  The reader and writer stamp the frame's lines, so a
   frame splits into reading the request (service.protocol), the work
   between its last request line and its first reply line
   (service.handle.<class>, or service.stats for a stats frame), and
   writing the reply (service.protocol).  Server.serve records each
   request's latency as the daemon does, so a stats frame sorts the
   real latency list.  Probes run outside the frame: the frontend and
   the semantic cache key on the source of each variant and miss, and
   Driver.adaptive_jobs on each batch. *)
let traced_round frames =
  let srv = Server.create () in
  let probe_s = ref 0.0 and batches = ref 0 in
  let t0 = Common.now_s () in
  let replies =
  List.map
    (fun frame ->
      let op = Trace.fresh_op () in
      let stamp () = if !Trace.enabled then Common.now_s () else 0.0 in
      let pending = ref (frame_lines frame) in
      let last_read = ref 0.0 and first_write = ref None and eof = ref 0.0 in
      let reader () =
        match !pending with
        | [] ->
            eof := stamp ();
            None
        | l :: rest ->
            pending := rest;
            last_read := stamp ();
            Some l
      in
      let out = ref [] in
      let writer l =
        if !first_write = None then first_write := Some (stamp ());
        out := l :: !out
      in
      let f0 = stamp () in
      Server.serve srv ~reader ~writer;
      let f1 = stamp () in
      let probe c =
        match
          Layers.alloc_span ~op ~parent:(-1) ~alloc:"frontend.alloc_mw" "frontend" (fun _ ->
              Frontend.compile c.source)
        with
        | funcs ->
            Trace.count "frontend.instrs" (float_of_int (Common.sumi (List.map Func.num_instrs funcs)));
            let rung = Option.get (Ladder.by_mode c.mode) in
            Trace.span ~op ~parent:(-1) "lint.semhash" (fun _ ->
                List.iter (fun f -> ignore (Semhash.cache_key ~fingerprint:(fingerprint rung) f)) funcs)
        | exception Frontend.Error _ -> ()
      in
      (* The pool width the daemon picks for a batch: the widest of its
         modes' adaptive choices. *)
      let batch_jobs cs =
        List.fold_left
          (fun acc (r : Ladder.rung) ->
            let funcs =
              List.concat_map
                (fun c ->
                  if String.equal c.mode r.Ladder.mode then
                    try Frontend.compile c.source with Frontend.Error _ -> []
                  else [])
                cs
            in
            if funcs = [] then acc else max acc (Snslp_driver.Driver.adaptive_jobs r.Ladder.setting funcs))
          0 Ladder.all
      in
      if !Trace.enabled then begin
        let root = Trace.add_span ~op ~parent:(-1) ~derived:false "frame" f0 f1 in
        let answered = Option.value !first_write ~default:!eof in
        let work =
          match frame with
          | Stats -> "service.stats"
          | Single c -> "service.handle." ^ cls_name c.cls
          | Batch _ -> "service.handle.batch"
        in
        ignore (Trace.add_span ~op ~parent:root ~derived:false "service.protocol" f0 !last_read);
        ignore (Trace.add_span ~op ~parent:root ~derived:false work !last_read answered);
        ignore (Trace.add_span ~op ~parent:root ~derived:false "service.protocol" answered !eof);
        let p0 = Common.now_s () in
        (match frame with
        | Single ({ cls = Variant | Fresh; _ } as c) -> probe c
        | Batch cs ->
            incr batches;
            Trace.count "parallel.batch_jobs_sum" (float_of_int (batch_jobs cs));
            List.iter (fun c -> if c.cls = Variant || c.cls = Fresh then probe c) cs
        | _ -> ());
        probe_s := !probe_s +. (Common.now_s () -. p0)
      end;
      List.rev !out)
    frames
  in
  let wall = Common.now_s () -. t0 -. !probe_s in
  if !Trace.enabled then begin
    let c = Cache.counters (Server.cache srv) in
    let cnt name v = Trace.count name (float_of_int v) in
    cnt "service.cache.hits_textual" c.Cache.hits_textual;
    cnt "service.cache.hits_semantic" c.Cache.hits_semantic;
    cnt "service.cache.misses" c.Cache.misses;
    cnt "service.cache.evictions" c.Cache.evictions;
    cnt "parallel.batches" !batches;
    match Server.stats_reply srv with
    | Protocol.Stats_reply kvs ->
        List.iter
          (fun (metric, key) ->
            match Option.bind (List.assoc_opt key kvs) float_of_string_opt with
            | Some v -> Trace.count metric v
            | None -> ())
          [
            ("loops.found", "loops_found"); ("loops.counted", "loops_counted");
            ("loops.unrolled_full", "loops_unrolled_full");
            ("loops.unrolled_partial", "loops_unrolled_partial");
            ("loops.blocks_jammed", "loop_blocks_jammed");
            ("vectorizer.pack_candidates", "pack_candidates");
            ("vectorizer.pack_expansions", "pack_expansions");
            ("vectorizer.pack_pruned", "pack_pruned"); ("vectorizer.pack_plans", "pack_plans");
            ("vectorizer.revec_pairs", "revec_pairs"); ("vectorizer.revec_widened", "revec_widened");
          ]
    | _ -> ()
  end;
  (wall, replies)

(* The replies a frame's response lines carry. *)
let parse_replies frame lines =
  let pending = ref lines in
  let reader () =
    match !pending with
    | [] -> None
    | l :: rest ->
        pending := rest;
        Some l
  in
  List.init (replies_expected frame) (fun _ ->
      match Protocol.read_response reader with Some r -> r | None -> Error "no reply")

(* --- Checks ------------------------------------------------------------- *)

type reference = {
  instrs : int; (* frontend-output instructions of the source *)
  accepted : string list; (* renderings a correct reply may carry *)
}

(* In-process references for every compile in the stream: each source
   compiled under its mode's setting, and grouped by semantic cache
   key; a reply is correct when it is the renamed compile of some
   stream source with its key — its own compile included.  Also the
   number of Semhash.cache_key calls made and their summed seconds. *)
let references compiles =
  let distinct = Hashtbl.create 1024 in
  let keys = ref 0 and key_s = ref 0.0 in
  let cache_key ~fingerprint f =
    let t0 = Common.now_s () in
    let k = Semhash.cache_key ~fingerprint f in
    key_s := !key_s +. (Common.now_s () -. t0);
    incr keys;
    k
  in
  List.iter
    (fun c ->
      if c.cls <> Err && not (Hashtbl.mem distinct (c.mode, c.source)) then
        let rung = Option.get (Ladder.by_mode c.mode) in
        let funcs = Frontend.compile c.source in
        let compiled =
          List.map
            (fun f ->
              (f, cache_key ~fingerprint:(fingerprint rung) f,
               (Pipeline.run ~setting:rung.Ladder.setting f).Pipeline.func))
            funcs
        in
        Hashtbl.replace distinct (c.mode, c.source) compiled)
    compiles;
  let by_key = Hashtbl.create 1024 in
  Hashtbl.iter
    (fun _ compiled ->
      List.iter
        (fun (_, key, g) ->
          let gs = Option.value (Hashtbl.find_opt by_key key) ~default:[] in
          if not (List.memq g gs) then Hashtbl.replace by_key key (g :: gs))
        compiled)
    distinct;
  let refs = Hashtbl.create 1024 in
  Hashtbl.iter
    (fun k compiled ->
      let own = String.concat "\n" (List.map (fun (_, _, g) -> print_func g) compiled) in
      let accepted =
        match compiled with
        | [ (f, key, _) ] ->
            own
            :: List.map
                 (fun g -> print_func { g with Defs.fname = f.Defs.fname })
                 (Hashtbl.find by_key key)
        | _ -> [ own ]
      in
      Hashtbl.replace refs k
        { instrs = Common.sumi (List.map (fun (f, _, _) -> Func.num_instrs f) compiled); accepted })
    distinct;
  (refs, !keys, !key_s)

let compiles_of = function Single c -> [ c ] | Batch cs -> cs | Stats -> []

let check_compile refs c reply =
  let name = Printf.sprintf "%s %s" (cls_name c.cls) c.mode in
  match c.cls with
  | Err -> (
      match reply with
      | Ok r -> Checks.err_reply ~name r
      | Error e -> Error (name ^ ": " ^ e))
  | Replay | Variant | Fresh -> (
      match reply with
      | Ok (Protocol.Compiled { ir; _ }) ->
          Checks.reply ~name ~accepted:(Hashtbl.find refs (c.mode, c.source)).accepted ir
      | Ok (Protocol.Err e) -> Error (name ^ ": err " ^ e)
      | Ok (Protocol.Stats_reply _) -> Error (name ^ ": stats reply to a compile")
      | Error e -> Error (name ^ ": " ^ e))

let check_frame refs frame replies =
  match frame with
  | Stats -> (
      match replies with
      | [ Ok (Protocol.Stats_reply _) ] -> Ok ()
      | _ -> Error "stats frame: no stats reply")
  | Single _ | Batch _ ->
      let cs = compiles_of frame in
      if List.length cs <> List.length replies then Error "frame: wrong reply count"
      else Checks.all_ok (List.map2 (check_compile refs) cs replies)

let err_replies (r : round) =
  Array.fold_left
    (fun acc rs ->
      acc + List.length (List.filter (function Ok (Protocol.Err _) -> true | _ -> false) rs))
    0 r.replies

(* --- The run ------------------------------------------------------------- *)

let run ~daemon ~seed ~seconds ~trace : Outcome.t =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  if not (Sys.file_exists daemon) then failwith ("no snslpd executable at " ^ daemon);
  let setup =
    let once () =
      let t0 = Common.now_s () in
      let frames = stream ~seed in
      let d = start daemon in
      let dt = Common.now_s () -. t0 in
      stop d;
      (dt, frames)
    in
    Outcome.setup setups once
  in
  let frames = setup.Outcome.state in
  let tally = Checks.tally () in
  if trace then begin
    Trace.reset ();
    let traced_s, untraced_s =
      Outcome.rounds ~seconds ~trace:true (fun r ~traced:_ ->
          let wall, lines = Layers.gc_round (fun () -> traced_round frames) in
          (* The in-process replies of the first round are checked like
             the daemon's. *)
          if r = 0 then begin
            let refs, _, _ = references (List.concat_map compiles_of frames) in
            List.iter2
              (fun f ls -> Checks.record tally (check_frame refs f (parse_replies f ls)))
              frames lines
          end;
          wall)
    in
    let counter n = Common.median (Trace.counter_by_round n) in
    let hits = counter "service.cache.hits_textual" +. counter "service.cache.hits_semantic" in
    {
      Outcome.tally;
      metrics =
        Layers.report
          ~extra:
            [
              ("service.cache.hit_ratio", Metrics.ratio hits (hits +. counter "service.cache.misses"));
              ("parallel.batch_jobs", Metrics.ratio (counter "parallel.batch_jobs_sum") (counter "parallel.batches"));
              ("trace.overhead_pct", Outcome.overhead_pct ~traced:traced_s ~untraced:untraced_s);
              ("trace.uncovered_pct", 100.0 *. Trace.uncovered_share "frame");
            ];
    }
  end
  else begin
    let rounds = ref [] in
    ignore
      (Outcome.rounds ~seconds ~trace:false (fun _ ~traced:_ ->
           let r = serve_round daemon frames in
           rounds := r :: !rounds;
           r.wall));
    let rounds = List.rev !rounds in
    let first = List.hd rounds in
    let frames_a = Array.of_list frames in
    (* Round one against the in-process references; later rounds must
       repeat its replies byte for byte. *)
    let refs, keys, key_s = references (List.concat_map compiles_of frames) in
    Array.iteri (fun i f -> Checks.record tally (check_frame refs f first.replies.(i))) frames_a;
    List.iteri
      (fun k (r : round) ->
        let stats_ok =
          match r.last_stats with
          | Some (Ok (Protocol.Stats_reply kvs)) -> Checks.stats_balance ~errs:(err_replies r) kvs
          | _ -> Error "the daemon did not answer the last stats"
        in
        Checks.record tally stats_ok;
        if k > 0 then
          Array.iteri
            (fun i rs ->
              Checks.record tally
                (Checks.same_text ~name:(Printf.sprintf "frame %d" i)
                   ~expected:(String.concat "\n" (List.map render first.replies.(i)))
                   (String.concat "\n" (List.map render rs))))
            r.replies)
      rounds;
    (* Code size and cycles of each catalog pair's first reply — the
       daemon's own compile of the base source. *)
    let firsts = Hashtbl.create 256 in
    Array.iteri
      (fun i f ->
        List.iteri
          (fun j c ->
            match (c.pair, List.nth_opt first.replies.(i) j) with
            | Some p, Some (Ok (Protocol.Compiled { ir; statuses = [ "miss" ] }))
              when not (Hashtbl.mem firsts p) ->
                Hashtbl.replace firsts p ir
            | _ -> ())
          (compiles_of f))
      frames_a;
    (* A base source the daemon never compiled itself (a semantically
       equal source came first, as a loop form's twin does) is
       measured on its in-process compile, which its reply was checked
       against. *)
    List.iter
      (fun f ->
        List.iter
          (fun c ->
            match c.pair with
            | Some p when not (Hashtbl.mem firsts p) ->
                Hashtbl.replace firsts p (List.hd (Hashtbl.find refs (c.mode, c.source)).accepted)
            | _ -> ())
          (compiles_of f))
      frames;
    let parsed = Hashtbl.create 256 in
    Hashtbl.iter
      (fun p ir ->
        match Snslp_ir.Ir_parser.parse_func ir with
        | f -> Hashtbl.replace parsed p f
        | exception e ->
            Checks.record tally (Error (Printf.sprintf "%s/%s: reply does not parse: %s" (fst p) (snd p) (Printexc.to_string e))))
      firsts;
    let code_size = Hashtbl.fold (fun _ f acc -> acc + Func.num_instrs f) parsed 0 in
    let cycles =
      List.map
        (fun (rung : Ladder.rung) ->
          let target, model = Ladder.target_model rung in
          let per =
            List.filter_map
              (fun (k : Registry.t) ->
                Option.map
                  (fun f ->
                    (Workload.measure ?model ?target (Workload.prepare k) f).Snslp_simperf.Simperf.cycles)
                  (Hashtbl.find_opt parsed (k.Registry.name, rung.Ladder.name)))
              catalog
          in
          ("sim_cycles." ^ rung.Ladder.name, Common.geomean per))
        Ladder.all
    in
    let instrs c = match Hashtbl.find_opt refs (c.mode, c.source) with Some r -> r.instrs | None -> 0 in
    let metric_rounds, snaps =
      List.fold_left
        (fun (acc, snaps) (r : round) ->
          let samples = ref [] and snaps = ref snaps in
          Array.iteri
            (fun i f ->
              match f with
              | Stats -> snaps := r.latency.(i) :: !snaps
              | Single _ | Batch _ ->
                  samples :=
                    Metrics.sample ~item:i ~seconds:r.latency.(i)
                      ~instrs:(Common.sumi (List.map instrs (compiles_of f)))
                    :: !samples)
            frames_a;
          (Metrics.round !samples ~busy_s:r.wall :: acc, !snaps))
        ([], []) rounds
    in
    {
      Outcome.tally;
      metrics =
        Outcome.with_units Metrics.end_to_end
          ([ ("setup_s", Outcome.setup_seconds setup); ("code_size", float_of_int code_size) ]
          @ cycles
          @ Metrics.timing ~rounds:metric_rounds ~snapshots:snaps
          @ [
              ("verify_rate", Metrics.ratio (float_of_int keys) key_s);
              ("peak_rss_mb", Common.median (List.map (fun r -> r.rss_mb) rounds));
            ]);
    }
  end
