(* Clock, order statistics, resident-set and JSON helpers shared by
   every workload. *)

let now_s () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Linear interpolation between closest ranks, as Python's
   [statistics.median] and the steadiness script compute it. *)
let median xs =
  match sorted xs with
  | [||] -> 0.0
  | a ->
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile: the smallest sample with at least [p]% of
   the samples at or below it. *)
let percentile p xs =
  match sorted xs with
  | [||] -> 0.0
  | a ->
      let n = Array.length a in
      let i = int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1 in
      a.(max 0 (min (n - 1) i))

let geomean xs =
  match xs with
  | [] -> 0.0
  | _ ->
      exp
        (List.fold_left (fun acc x -> acc +. log (Float.max x 1e-12)) 0.0 xs
        /. float_of_int (List.length xs))

let sum = List.fold_left ( +. ) 0.0
let sumi = List.fold_left ( + ) 0

(* Peak resident set (VmHWM) of a process, in MiB; [pid] defaults to
   this process.  0 when /proc is unavailable. *)
let peak_rss_mb ?pid () =
  let path =
    match pid with
    | None -> "/proc/self/status"
    | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> 0.0
  | text ->
      List.fold_left
        (fun acc line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] -> (
              match String.split_on_char ' ' (String.trim v) with
              | kb :: _ -> (
                  match float_of_string_opt kb with
                  | Some kb -> kb /. 1024.0
                  | None -> acc)
              | [] -> acc)
          | _ -> acc)
        0.0
        (String.split_on_char '\n' text)

(* Words allocated by this domain so far (minor + major − promoted). *)
let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* A fixed-seed splittable stream: every input the benchmark makes
   derives from [--seed] through one of these. *)
let rng seed = Random.State.make [| 0x5eb1; seed |]

let shuffle st xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* --- Compact JSON ------------------------------------------------------- *)

type json =
  | Num of float
  | Int of int
  | Bool of bool
  | Str of string
  | Arr of json list
  | Obj of (string * json) list
  | Raw of string  (** already-formatted JSON *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let rec json_to_string = function
  | Num f when Float.is_integer f && Float.abs f < 1e15 -> Printf.sprintf "%.1f" f
  | Num f when Float.is_finite f -> Printf.sprintf "%.17g" f
  | Num _ -> "null"
  | Int i -> string_of_int i
  | Bool b -> string_of_bool b
  | Str s -> json_string s
  | Raw s -> s
  | Arr xs -> "[" ^ String.concat ", " (List.map json_to_string xs) ^ "]"
  | Obj kvs ->
      "{"
      ^ String.concat ", "
          (List.map (fun (k, v) -> json_string k ^ ": " ^ json_to_string v) kvs)
      ^ "}"
