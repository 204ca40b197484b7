(** Database tuples: finite sequences of {!Value.t}.

    A tuple over a relation of arity [k] is a list of [k] values. Tuples are
    ordered lexicographically so they can key maps and sets. *)

type t = Value.t list

val compare : t -> t -> int
(** Lexicographic order via {!Value.compare}. *)

val equal : t -> t -> bool

val hash : t -> int
(** Hash compatible with {!equal}, for use in [Hashtbl] keys. *)

val arity : t -> int
(** Number of values in the tuple. *)

val pp : Format.formatter -> t -> unit
(** Prints as [(v1, v2, ..., vk)]. *)

val to_string : t -> string
(** Same rendering as {!pp}. *)

val of_ints : int list -> t
(** Wraps each integer as a {!Value.Int}; handy for test fixtures. *)

val all : int -> Value.t list -> t list
(** [all k domain]: the cartesian power [domain^k], in domain order with
    the first component varying slowest. *)

module Set : Set.S with type elt = t
module Map : Map.S with type key = t
