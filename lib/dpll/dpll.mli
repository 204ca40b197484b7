(** DPLL-style exact weighted model counting, with its trace.

    This is the grounded-inference baseline of the paper (Sec. 7, the
    mechanism behind Cachet/sharpSAT): full backtracking search on the
    Shannon expansion (Eq. (11)), a cache of previously-solved subformulas,
    and the components rule (Eq. (12)). The recorded trace is, per Huang
    and Darwiche:

    - caching + fixed variable order → an OBDD,
    - caching, free order → an FBDD,
    - caching + components → a decision-DNNF.

    The optional independent-or rule (the dual of components) leaves the
    decision-DNNF class; it is off by default and exists as an ablation. *)

type var_choice =
  | Most_frequent  (** the variable with the most AST occurrences *)
  | Fixed of int list  (** first variable of the list occurring in the formula *)

type config = {
  use_cache : bool;
  use_components : bool;
  independent_or : bool;
  var_choice : var_choice;
  max_decisions : int;  (** bail out with {!Decision_limit} beyond this *)
  max_cache_entries : int;
      (** formula-cache entry cap; on overflow the least-recently-used half
          is evicted (counted in {!stats}[.cache_evictions]). A
          ["dpll.cache_entries"] budget on the guard overrides this. *)
}

val default_config : config
(** cache + components, most-frequent variable, no independent-or, 50M
    decision cap, 500k cache entries. *)

val obdd_config : int list -> config
(** cache, no components, fixed order — the OBDD-shaped trace. *)

val fbdd_config : config
(** cache, no components, free order — the FBDD-shaped trace. *)

exception Decision_limit of int

type stats = {
  decisions : int;  (** Shannon expansions performed (branches) *)
  unit_propagations : int;
      (** subproblems that collapsed to a constant after conditioning — the
          formula-prover analogue of unit propagation *)
  cache_hits : int;
  cache_queries : int;  (** cache lookups; hit rate = hits/queries *)
  component_splits : int;
  cache_entries : int;  (** subformulas memoised and still resident at the end *)
  cache_evictions : int;  (** entries dropped to stay under the entry cap *)
}

type result = {
  prob : float;
  circuit : Probdb_kc.Circuit.t;  (** the trace *)
  trace_size : int;  (** distinct internal nodes of the trace *)
  stats : stats;
}

val count :
  ?config:config ->
  ?guard:Probdb_guard.Guard.t ->
  prob:(int -> float) ->
  Probdb_boolean.Formula.t ->
  result
(** [guard] (default {!Probdb_guard.Guard.unlimited}) is polled at every
    Shannon expansion (site ["dpll.shannon"]), so a deadline, cancellation
    or injected fault interrupts the search with
    [Probdb_guard.Guard.Exhausted]. The solver's own [max_decisions] cap
    still raises {!Decision_limit}. *)

val probability :
  ?config:config ->
  ?guard:Probdb_guard.Guard.t ->
  prob:(int -> float) ->
  Probdb_boolean.Formula.t ->
  float
(** Just the probability of {!count}. *)
