module Guard = Probdb_guard.Guard
module Stats = Probdb_obs.Stats

type step =
  | Skipped of { strategy : string; reason : string }
  | Tripped of { strategy : string; resource : string; site : string; detail : string }

type confidence = {
  ci_low : float;
  ci_high : float;
  eps : float;
  delta : float;
  samples : int;
}

type t = {
  value : float;
  exact : bool;
  strategy : string;
  degraded : bool;
  under_load : bool;
  confidence : confidence option;
  chain : step list;
  stats : Stats.t;
}

let step_of_trip ~strategy (trip : Guard.trip) =
  Tripped
    { strategy;
      resource = Guard.resource_name trip.Guard.resource;
      site = trip.Guard.site;
      detail = Guard.describe trip }

let step_strategy = function
  | Skipped { strategy; _ } | Tripped { strategy; _ } -> strategy

let step_detail = function
  | Skipped { reason; _ } -> reason
  | Tripped { detail; _ } -> detail

let step_kind = function Skipped _ -> "skipped" | Tripped _ -> "tripped"

let chain_to_stats chain =
  List.map (fun s -> (step_strategy s, step_kind s, step_detail s)) chain

let pp_step ppf s =
  Format.fprintf ppf "%s %s: %s" (step_strategy s) (step_kind s) (step_detail s)

let pp ppf a =
  (match a.confidence with
  | Some c ->
      Format.fprintf ppf "@[<v>%.9g in [%.9g, %.9g] at confidence %g via %s (degraded)"
        a.value c.ci_low c.ci_high (1.0 -. c.delta) a.strategy
  | None ->
      Format.fprintf ppf "@[<v>%.9g%s via %s" a.value
        (if a.exact then " (exact)" else "")
        a.strategy);
  List.iter (fun s -> Format.fprintf ppf "@   %a" pp_step s) a.chain;
  Format.fprintf ppf "@]"
