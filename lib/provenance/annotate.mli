(** Semiring-annotated evaluation of (unions of) conjunctive queries.

    Given an annotation of every fact in some semiring K, the annotation of
    a Boolean UCQ is [Σ over valuations Π over atoms] of the facts'
    annotations — joins multiply, the implicit existential projection adds.
    With K = {!Semiring.Formula} and facts annotated by their lineage
    variables this computes the lineage [Probdb_lineage.Lineage.dnf_of_ucq]
    gives as DNF; with K = ℕ it counts valuations; with K = Bool it decides
    satisfaction (tested against [Probdb_logic.Semantics]). *)

module Make (K : Semiring.S) : sig
  type fact = string * Probdb_core.Tuple.t * K.t
  (** An annotated fact, listed once; unlisted facts count as [K.zero]. *)

  val of_world : Probdb_core.World.t -> fact list
  (** The world's facts, each annotated [K.one]. *)

  val eval_cq : fact list -> Probdb_logic.Cq.t -> K.t
  (** Annotation of a Boolean CQ, summed over {!Probdb_logic.Cq.join}'s
      valuations. Raises [Invalid_argument] on complemented atoms
      (provenance here is for positive queries). *)

  val eval_ucq : fact list -> Probdb_logic.Ucq.t -> K.t
end
