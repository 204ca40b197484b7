(** Ordered Binary Decision Diagrams with hash-consing.

    OBDDs are the knowledge-compilation target of Theorem 7.1: lineages of
    hierarchical self-join-free CQs admit linear-size OBDDs, while
    non-hierarchical ones force size ≥ (2^n - 1)/n under every variable
    order. The package is a classical reduced OBDD implementation: a unique
    table keyed by (variable, low, high), a memoised [apply], Boolean
    operations, weighted model counting, and compilation from
    {!Probdb_boolean.Formula}.

    Nodes are ints into growable int arrays (variable, children, level);
    the unique table and the apply memos are open-addressed int arrays,
    and the negation and WMC memos are dense arrays indexed by node. *)

type manager

type t
(** A node of one manager. Handles are memoised per manager, so [a == b]
    holds exactly when [a] and [b] are the same node (reduced OBDDs are
    canonical: the same function under the same order). A handle refers
    back to its manager, so compare handles with [==], never with [=]. *)

exception Node_limit of int
(** Raised by constructions when the manager exceeds its node budget — used
    by the exponential-blow-up experiments to bail out early. *)

val manager :
  ?max_nodes:int -> ?guard:Probdb_guard.Guard.t -> order:int list -> unit -> manager
(** [order] is the global variable order, first variable tested first.
    Variables absent from [order] are appended on first use. [guard]
    (default {!Probdb_guard.Guard.unlimited}) is polled on every fresh node
    allocation (site ["obdd.mk"]), so deadlines and cancellation interrupt
    compilation with [Probdb_guard.Guard.Exhausted]; the manager's own
    [max_nodes] cap still raises {!Node_limit}. *)

val order : manager -> int list

val node_count : manager -> int
(** Total distinct nodes allocated by the manager (its whole lifetime). *)

val zero : manager -> t
val one : manager -> t
val var : manager -> int -> t
val neg : manager -> t -> t
val conj : manager -> t -> t -> t
val disj : manager -> t -> t -> t
val of_formula : manager -> Probdb_boolean.Formula.t -> t

val size : t -> int
(** Distinct internal nodes reachable from this root (the OBDD size of
    Thm. 7.1). *)

val eval : (int -> bool) -> t -> bool
val wmc : manager -> (int -> float) -> t -> float
val sat_count : manager -> over_vars:int -> t -> float
(** Number of models over a space of [over_vars] variables (floating point
    to allow > 2^62). *)

val to_circuit : Circuit.builder -> t -> Circuit.t
(** The OBDD as a decision circuit (every OBDD is an FBDD, Fig. 2). *)

val obs_counts : t -> Probdb_obs.Stats.circuit_counts
(** {!size} in the observability layer's circuit record (class ["obdd"],
    two out-edges per internal node). *)

val default_order : Probdb_boolean.Formula.t -> int list
(** Variable order by first appearance in the formula — a reasonable
    default. *)
