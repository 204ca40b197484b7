(** Engine answers with provenance: what the value is, who produced it,
    and — when the engine had to degrade — how exact inference failed on
    the way down.

    {!Engine.eval} returns one of these for every query it completes. For
    a safe query answered exactly, [degraded] is [false], [confidence] is
    [None] and [chain] lists the strategies tried before the winner. For
    an unsafe query under a deadline or budget, every exact strategy
    records a {!step} in [chain] and the final value is the Karp–Luby
    (ε,δ)-approximation with its confidence interval — the graceful
    degradation the dichotomy theorem forces on any engine that promises
    termination (PAPER.md Sec. 4/6). *)

type step =
  | Skipped of { strategy : string; reason : string }
      (** the strategy declined the query (wrong fragment, not applicable) *)
  | Tripped of { strategy : string; resource : string; site : string; detail : string }
      (** the strategy started but a resource guard interrupted it;
          [resource] is {!Probdb_guard.Guard.resource_name} of the trip,
          [site] the poll site, [detail] the rendered one-liner *)

type confidence = {
  ci_low : float;  (** lower end of the (1-δ)-confidence interval *)
  ci_high : float;
  eps : float;  (** requested relative error *)
  delta : float;  (** requested failure probability *)
  samples : int;  (** Monte-Carlo samples actually drawn *)
}

type t = {
  value : float;
  exact : bool;  (** [false] iff the value is sampling-based *)
  strategy : string;  (** the strategy that produced [value] *)
  degraded : bool;
      (** [true] iff exact inference was exhausted and [value] comes from
          the (ε,δ) fallback; implies [confidence <> None] *)
  under_load : bool;
      (** [true] iff the evaluation was forced to degrade
          ([Engine.force_degrade]) and took it: every exact strategy was
          skipped on the backpressure verdict and [value] comes from the
          (ε,δ) fallback; implies [degraded] *)
  confidence : confidence option;
  chain : step list;  (** strategies tried before [strategy], in order *)
  stats : Probdb_obs.Stats.t;
}

val step_of_trip : strategy:string -> Probdb_guard.Guard.trip -> step

val step_strategy : step -> string
val step_detail : step -> string

val step_kind : step -> string
(** ["skipped"] or ["tripped"] — the [kind] field of the stats/JSON chain. *)

val chain_to_stats : step list -> (string * string * string) list
(** The [(strategy, kind, detail)] triples stored in
    {!Probdb_obs.Stats.t.chain}. *)

val pp_step : Format.formatter -> step -> unit

val pp : Format.formatter -> t -> unit
(** Value, strategy, confidence interval when degraded, then the chain —
    the rendering behind [probdb eval]. *)
