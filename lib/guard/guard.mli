(** Resource guards: the engine's survival kit for the unsafe side of the
    dichotomy.

    Unsafe queries blow up by design (PAPER.md Sec. 4); the guard turns
    "blow up" into a recoverable, attributable event. A guard bundles

    - a {e monotonic deadline} (wall-clock, measured with
      {!Probdb_obs.Clock}),
    - a {e cooperative cancellation token} ({!cancel}),
    - {e named work budgets} for solver dimensions that were previously
      unbounded (inclusion–exclusion terms, plan cardinality, …),
    - an optional {e major-heap watermark} (checked with [Gc.quick_stat]),
    - a {e deterministic fault-injection hook} so the exhaustion and
      degradation paths are testable without constructing genuinely huge
      instances.

    Every solver in the repository polls its guard at its recursion points
    ([Wmc] per decision, [Dpll] per Shannon expansion, [Obdd] per node
    allocation, [Lift] per rule application, [Plan] per operator, [Wfomc]
    per composition, [Karp_luby] per sample, the engine's world enumeration
    per world), and so does the grounding they share ([Cq.join] per
    candidate fact at ["lineage.dnf"], [Formula.absorb] per clause at
    ["dnf.absorb"], [Lineage.of_query] per quantifier instance at
    ["lineage.ground"]). Exhaustion of any resource raises the single
    exception {!Exhausted} carrying a {!trip} that says {e which} budget
    tripped and {e where} — the engine records it in the degradation chain
    and moves on to the next strategy.

    A guard never trips on its own: only {!poll}, {!charge} and {!io}
    raise. Code that does not poll is not interrupted. *)

type resource =
  | Deadline  (** the wall-clock deadline passed *)
  | Cancelled  (** {!cancel} was called on the guard *)
  | Heap  (** the major-heap watermark was exceeded *)
  | Fault  (** a deterministic injected fault (tests only) *)
  | Work of string
      (** a named work budget, e.g. ["lifted.ie_terms"] or ["plan.rows"] *)

type trip = {
  resource : resource;  (** which budget tripped *)
  site : string;  (** the poll site, e.g. ["wmc.decide"] *)
  limit : float;  (** the configured limit (seconds, words, or work units) *)
  spent : float;  (** how much had been spent when the trip fired *)
}

exception Exhausted of trip
(** The single typed escape hatch for every resource class. *)

type fault =
  | Trip_at_poll of { poll : int; resource : resource }
      (** deterministically trip [resource] at the [poll]-th poll *)
  | Fail_io_at of int
      (** raise [Sys_error] on the [n]-th guarded I/O call ({!io}) *)

type t

val create :
  ?parent:t ->
  ?deadline_s:float ->
  ?heap_watermark_words:int ->
  ?fault:fault ->
  unit ->
  t
(** A fresh guard. [deadline_s] is relative to the moment of creation and
    measured on the monotonic {!Probdb_obs.Clock}; [heap_watermark_words]
    bounds [Gc.quick_stat().heap_words]; [fault] installs a deterministic
    failure for tests. With no arguments the guard only supports
    cancellation and budgets added later with {!set_budget}.

    [parent] links cancellation (and only cancellation: deadlines, budgets
    and watermarks stay per-guard): {!poll} and {!is_cancelled} also
    consult every ancestor, so one {!cancel} on a long-lived parent — a
    query server shutting down hard — interrupts every in-flight
    evaluation running under a child guard. *)

val unlimited : t
(** A shared guard that never trips; {!poll} on it is a no-op. Every
    solver's [?guard] parameter defaults to this, so unguarded callers pay
    (almost) nothing. {!cancel} on it is ignored. *)

val set_budget : t -> string -> int -> unit
(** [set_budget g name limit] installs (or replaces) the named work budget.
    {!charge} against a name with no budget is free. *)

val budget_spent : t -> string -> int
(** Work units charged so far against the named budget (0 if absent). *)

val budget_limit : t -> string -> int option
(** The configured limit of the named budget, if one was installed. Solvers
    use this to read sizing hints off the guard (e.g. the WMC cache cap
    from ["wmc.cache_entries"]) without a second configuration channel. *)

val heap_watermark_words : t -> int option
(** The heap watermark the guard enforces, if any. Caches consult it to
    evict {e before} the next {!poll} would trip, trading memoisation for
    staying under the limit (see the component cache in [Probdb_cnf.Wmc]). *)

val cancel : t -> unit
(** Request cooperative cancellation: the next {!poll} raises. Safe to call
    from another domain or signal handler (a single mutable flag).
    Cancelling a guard also cancels every guard created with it as
    [?parent], transitively. *)

val is_cancelled : t -> bool
(** Whether this guard or any ancestor was cancelled. *)

val polls : t -> int
(** Number of polls so far — the denominator for fault injection. *)

val elapsed_s : t -> float
(** Seconds since the guard was created. *)

val remaining_s : t -> float option
(** Seconds until the deadline, if one was set ([Some 0.] once passed). *)

val poll : t -> site:string -> unit
(** Check every installed limit and raise {!Exhausted} on the first one
    exhausted, attributing it to [site]. Order: injected fault,
    cancellation, deadline, heap watermark. *)

val poll_interval : int
(** How many {!tick}s buy one real {!poll} (256). *)

val tick : t -> site:string -> int ref -> unit
(** Amortised polling for tight inner loops (sampler iterations, columnar
    operator rows): increments [counter] and calls {!poll} only every
    {!poll_interval}-th tick, keeping guard overhead under 1% of loop cost
    while still bounding the reaction latency to a deadline or
    cancellation. The caller owns [counter] (one per loop nest, usually
    [ref 0]); on the shared {!unlimited} guard this is a no-op that leaves
    the counter untouched. *)

val charge : t -> site:string -> string -> int -> unit
(** [charge g ~site name n] adds [n] work units to budget [name], raising
    {!Exhausted} with [Work name] if the budget overflows, then behaves
    like {!poll}. *)

val io : t -> path:string -> unit
(** Mark a guarded I/O call (CSV open/read). Under [Fail_io_at n] the
    [n]-th call raises [Sys_error] mentioning [path]; otherwise a no-op.
    This is the deterministic stand-in for a failing disk in tests. *)

val resource_name : resource -> string
(** ["deadline"], ["cancelled"], ["heap"], ["fault"], or the budget name. *)

val describe : trip -> string
(** One line, e.g.
    ["deadline 2.000s exhausted at wmc.decide (elapsed 2.013s)"]. *)

val pp_trip : Format.formatter -> trip -> unit
