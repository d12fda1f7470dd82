(* The six settings of the cycle ladder, o3 → slp → lslp → sn-slp →
   +global → @avx512+revec, with the snslpd mode spelling of each.

   Unroll stays at its default and no compile-speed knob (memoize,
   jobs) is set, so deleting those knobs cannot change what the
   benchmark measures. *)

open Snslp_passes
open Snslp_vectorizer
module Target = Snslp_costmodel.Target
module Model = Snslp_costmodel.Model

type rung = { name : string; mode : string; setting : Pipeline.setting }

let o3 = { name = "o3"; mode = "o3"; setting = None }
let slp = { name = "slp"; mode = "slp"; setting = Some Config.vanilla }
let lslp = { name = "lslp"; mode = "lslp"; setting = Some Config.lslp }
let snslp = { name = "sn-slp"; mode = "sn-slp"; setting = Some Config.snslp }

let global =
  {
    name = "global";
    mode = "sn-slp+global";
    setting =
      Some
        {
          Config.snslp with
          Config.packing =
            Config.Global
              { beam = Config.default_beam; node_budget = Config.default_node_budget };
        };
  }

let avx512_revec =
  {
    name = "avx512-revec";
    mode = "sn-slp@avx512+revec";
    setting =
      Some
        {
          Config.snslp with
          Config.target = Target.avx512;
          model = Model.for_target Target.avx512;
          revec = true;
        };
  }

let all = [ o3; slp; lslp; snslp; global; avx512_revec ]

(* The settings the [programs] workload compiles under, as snslpc
   users pick them. *)
let programs = [ o3; lslp; snslp ]

let by_mode m = List.find_opt (fun r -> String.equal r.mode m) all

(* The target and machine model a setting's code is simulated on:
   its own (o3 runs on the default target and model). *)
let target_model (r : rung) =
  match r.setting with
  | None -> (None, None)
  | Some c -> (Some c.Config.target, Some c.Config.model)
