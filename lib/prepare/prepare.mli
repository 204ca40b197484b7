(** Prepared queries: the prepare/execute split behind the compiled-plan
    cache.

    The Dalvi–Suciu dichotomy makes the safe/unsafe verdict and the safe
    extensional plan functions of the query {e structure} alone — the
    tuple probabilities and the constants appearing in the query play no
    role in either. This module exploits that: {e prepare} lifts the
    constants of a query out as parameters, reduces the resulting template
    once (UCQ reduction → minimisation → safety classification → safe-plan
    construction), and caches the artifact under a canonical structural
    key; {e execute} binds the actual constants back into the cached plan
    (an injective constant-for-marker substitution, so every containment,
    hierarchy and safety property of the template transfers) and runs it.

    Two queries share an artifact exactly when they are alpha-equivalent
    modulo constants {e with the same constant-equality pattern}:
    [R('a') ∧ S('a')] and [R('b') ∧ S('b')] share a template (one
    parameter used twice), while [R('a') ∧ S('b')] gets its own (two
    parameters) — repeated constants constrain joins, so the pattern is
    part of the structure.

    Deliberately {e not} cached: everything data-dependent. The symmetric
    WFOMC check, the world-enumeration support bound, the Karp–Luby
    standard-probability check and all guard trips happen at execute time,
    so a cached artifact can never change which answer a database gets —
    cold execution and warm execution run the identical code path over the
    identical artifact, and a disabled cache (capacity 0) is simply one
    that always misses.

    One exception: requests a server degrades under load. Each artifact
    also keeps a running cost of its key's evaluations ({!record_cost}),
    and past the degrade watermark the engine skips exact inference only
    for keys whose recorded exact cost is at least their recorded sampling
    cost ({!degrade_under_load}). So under load a warm key may get its
    exact answer where a cold one gets the (ε,δ) approximation. Without
    load, and with a capacity-0 cache, the record changes nothing. *)

type cost
(** The running costs of one key: the normal strategy chain and the
    (ε,δ) fallback, each unrecorded until its first measurement. *)

type cost_kind =
  | Chain
      (** the strategy chain, from its first strategy to an answer; a
          chain whose exact strategies all failed counts their elapsed
          time plus the fallback that answered *)
  | Fallback  (** the (ε,δ) Karp–Luby fallback alone, grounding included *)

type artifact = private {
  key : string;
      (** canonical structural key: bound variables renamed in binding
          order, constants as [$i] parameter markers *)
  khash : int;  (** hash of [key], precomputed *)
  template : Probdb_logic.Fo.t;
      (** the query with each distinct constant replaced by a distinct
          parameter marker, in first-occurrence order *)
  nparams : int;  (** number of lifted constants *)
  ucq : (Probdb_logic.Ucq.t * Probdb_logic.Ucq.mode, string) result;
      (** template UCQ reduction, minimised ({!Probdb_logic.Ucq.minimize}),
          or the [Ucq.Unsupported] message (with parameter markers still
          inside — see {!bind_ucq}) *)
  plan : Probdb_plans.Plan.t option;
      (** safe plan of the template when it is a single self-join-free
          hierarchical positive CQ *)
  plan_skip : string option;
      (** when [plan = None]: the engine's safe-plan skip message *)
  lifted : Probdb_lifted.Lift.t;
      (** the lifted plan of the template, compiled once with the markers
          as parameters; the engine's lifted attempt evaluates it under the
          bound constants ({!Probdb_lifted.Lift.eval}) *)
  verdict : Probdb_lifted.Lift.verdict;
      (** lifted-rules safety classification of the template, read off
          [lifted] ({!Probdb_lifted.Lift.verdict}); informational (surfaced
          by [probdb prepare]) — execution never gates the lifted attempt
          on it *)
  cost : cost;
      (** the key's running evaluation costs — the one mutable part of an
          artifact, shared by every query that resolves to it *)
}

type bound = {
  artifact : artifact;
  binding : Probdb_core.Value.t array;
      (** [binding.(i)] is the constant parameter [$i] stands for *)
}
(** A prepared artifact together with the constants of one concrete
    query — everything {e execute} needs. *)

val key_of_query : Probdb_logic.Fo.t -> string * Probdb_core.Value.t array
(** The canonical structural key and the lifted constants, without
    building (or caching) the rest of the artifact. *)

val prepare : Probdb_logic.Fo.t -> bound
(** Uncached prepare: lift constants, build the full artifact. This is
    what a cache miss runs. *)

val record_cost : artifact -> cost_kind -> float -> unit
(** [record_cost a kind dt] folds one measured duration (seconds) into the
    running cost: an exponentially weighted mean with weight 1/4 on [dt],
    or [dt] itself as the first record. Safe from many domains; two
    concurrent records may lose one of them. The engine calls this after
    every evaluation that answers. *)

val degrade_under_load : artifact -> bool
(** The backpressure verdict: [false] when both costs are recorded and
    the chain's is below the fallback's, so skipping exact inference would
    not make the request cheaper; [true] otherwise — including a key with
    either cost unrecorded, which degrades as if there were no record. *)

val bind_plan : bound -> Probdb_plans.Plan.t option
(** The template plan with the markers substituted by the bound constants
    — the injective renaming keeps the plan safe for the concrete query. *)

val bind_ucq :
  bound -> (Probdb_logic.Ucq.t * Probdb_logic.Ucq.mode, string) result
(** The template UCQ with constants bound (each CQ re-normalised), or the
    [Unsupported] message with parameter markers rendered back to the
    bound constants. *)

val plan_skip : bound -> string option
(** [artifact.plan_skip] with markers rendered back to constants — the
    exact message the engine's cold safe-plan attempt would produce. *)

module Cache : sig
  (** The shared compiled-plan cache: a bounded LRU over artifacts, safe
      for concurrent use from many domains.

      Reads are lock-free — the two indexes (structural key → artifact,
      query text → parsed query + artifact) are immutable maps behind
      [Atomic.t], so a lookup is one atomic load plus a pure search, and a
      hit only stamps the entry's recency atomically. Misses serialise on
      a mutex with a double-checked lookup, so an artifact is built once
      even when many domains miss simultaneously. Eviction (capacity
      overflow, oldest-stamp-first, plus a heap-watermark half-sweep like
      the WMC component cache) happens under the same mutex.

      Counters are exact: every {!of_query}/{!resolve_text} lookup
      increments exactly one of hits/misses atomically, so over any quiet
      point [hits + misses = lookups]. *)

  type t

  type counters = { hits : int; misses : int; evictions : int; entries : int }

  val default_capacity : int
  (** 512 artifacts. *)

  val create : ?capacity:int -> ?heap_watermark_words:int -> unit -> t
  (** [capacity] defaults to {!default_capacity}; [0] disables caching
      (every lookup misses and nothing is stored — the cold path).
      When [heap_watermark_words] is set and the major heap exceeds 80% of
      it at insertion time, half the entries are swept (counted as
      evictions). *)

  val create_default : unit -> t
  (** {!create} at {!default_capacity}, except capacity [0] when
      {!disabled_by_env} — the constructor the CLI and the server use. *)

  val disabled_by_env : unit -> bool
  (** [true] when [PROBDB_NO_PLAN_CACHE] is set to anything but ["0"] or
      [""]. *)

  val capacity : t -> int

  val counters : t -> counters
  (** Exact snapshot of the atomic counters (entries counted from the
      current key index). *)

  val artifacts : t -> artifact list
  (** The cached artifacts, unordered — for tests and [probdb prepare]
      inspection. *)

  val of_query : ?stats:Probdb_obs.Stats.t -> t -> Probdb_logic.Fo.t -> bound
  (** Look up the query's structural key, building and inserting the
      artifact on a miss. With [stats], the time lands in the [Prepare]
      phase and the [prepare] block (hit flag, key, cache totals) is
      filled; a ["prepare"] trace span and [prepare.cache_*] metrics are
      emitted either way. *)

  val resolve_text :
    ?stats:Probdb_obs.Stats.t ->
    t ->
    free:string list ->
    string ->
    Probdb_logic.Fo.t * bound option
  (** Text-level memoisation for servers: returns the parsed query and,
      for sentences, its bound artifact. A text hit skips the parser
      entirely (parse phase reads ~0); a text miss parses (recorded in the
      [Parse] phase via [stats]) and falls through to {!of_query}. Open
      formulas ([free] non-empty or free variables present) are parsed but
      not prepared — per-grounding preparation happens in
      [Engine.answers] through the engine's configured cache.
      Raises [Probdb_logic.Parser.Error] like the parser. *)
end
