(** Seeded synthetic TID generators.

    The paper evaluates no datasets of its own; these generators produce
    the database families its claims are about: complete bipartite-shaped
    TIDs for H0-style queries, random sparse TIDs for correctness sweeps,
    Zipf-skewed probabilities for realism. All generation is deterministic
    given the seed. *)

type rel_spec = {
  name : string;
  arity : int;
  density : float;  (** fraction of the [domain^arity] possible tuples listed *)
}

val spec : ?density:float -> string -> int -> rel_spec
(** Density defaults to 0.5. *)

val random_tid :
  ?seed:int -> ?prob_range:float * float -> domain_size:int -> rel_spec list ->
  Probdb_core.Tid.t
(** Each possible tuple is listed with probability [density]; listed tuples
    get a uniform probability from [prob_range] (default [(0.05, 0.95)]).
    The domain is declared as [0 .. domain_size-1] even when some value ends
    up in no tuple. *)

val complete_tid :
  ?prob:float -> domain_size:int -> (string * int) list -> Probdb_core.Tid.t
(** Every possible tuple listed, all with probability [prob] (default 0.5) —
    a symmetric database in the sense of Sec. 8. *)

val h0_db : ?seed:int -> n:int -> unit -> Probdb_core.Tid.t
(** The complete bipartite family for H0: unary [R], [T] over a domain of
    size [n] and the full binary [S], with random probabilities — the
    workload of the dichotomy and circuit-size experiments. *)

val zipf_probs : ?s:float -> int -> float list
(** [zipf_probs k] are [k] probabilities proportional to the Zipf(s)
    distribution, rescaled into (0, 1); default exponent 1.0. *)

val with_zipf_probs : ?seed:int -> ?s:float -> Probdb_core.Tid.t -> Probdb_core.Tid.t
(** Reassigns tuple probabilities by a Zipf-skewed permutation. *)
