(** Boolean conjunctive queries.

    A CQ is a set of atoms whose variables are all implicitly existentially
    quantified (Eq. (6) of the paper). Atoms may carry a [comp] flag marking
    a complemented (negated) relation symbol — this is how unate sentences
    are reduced to the monotone case (Sec. 4): a complemented atom over
    relation [R] behaves exactly like a positive atom over a fresh relation
    [R'] whose tuple probabilities are [1 - p].

    The module provides the classical machinery the dichotomy rests on:
    the hierarchy test (Def. 4.2), homomorphism-based containment,
    equivalence and minimisation, and variable-connectivity components. *)

type atom = {
  rel : string;  (** relation name *)
  comp : bool;  (** complemented-symbol flag *)
  args : Fo.term list;
}

type t = atom list
(** Invariant kept by the constructors below: atoms sorted and without
    duplicates. *)

val make : atom list -> t
val atom : ?comp:bool -> string -> Fo.term list -> atom
val of_vars : ?comp:bool -> string -> string list -> atom

val compare : t -> t -> int
val equal_syntactic : t -> t -> bool

val vars : t -> string list
(** Variables of the query, sorted, without duplicates. *)

val symbols : t -> (string * bool) list
(** The (relation, complemented) symbols used, without duplicates. *)

val rel_names : t -> string list
(** Underlying relation names, without duplicates — the right notion for
    probabilistic-independence checks. *)

val is_ground : t -> bool

val atoms_of_var : t -> string -> atom list
(** [at(x)] from Def. 4.2: the atoms containing the variable. *)

val is_hierarchical : t -> bool
(** Def. 4.2: for any two variables, their atom sets are nested or
    disjoint. *)

val is_self_join_free : t -> bool
(** No relation symbol occurs twice. *)

val subst_const : string -> Probdb_core.Value.t -> t -> t
val rename_var : string -> string -> t -> t

val standardize_apart : avoid:string list -> t -> t
(** Renames all variables to be disjoint from [avoid]; returns the renamed
    query. *)

val conjoin : t -> t -> t
(** Conjunction of two Boolean CQs, standardising the second apart — this
    is the [Q_i ∧ Q_j] of the inclusion–exclusion formula (Sec. 5). *)

val connected_components : t -> t list
(** Partition of the atoms by variable connectivity. Ground atoms are
    singleton components. *)

val homomorphism : from:t -> into:t -> (string * Fo.term) list option
(** A homomorphism maps the variables of [from] to terms of [into] such
    that every atom of [from] lands on an atom of [into] (constants fixed,
    [comp] flags respected). Returns a witness when one exists. *)

val contained : t -> t -> bool
(** [contained q1 q2]: [q1 ⊑ q2] (every world satisfying [q1] satisfies
    [q2]), decided by a homomorphism from [q2] into [q1]
    (Chandra–Merlin). *)

val equivalent : t -> t -> bool

val minimize : t -> t
(** The core of the query: a minimal equivalent subquery, computed by
    repeatedly retracting redundant atoms. *)

(** {1 Valuations over listed facts} *)

type facts
(** Facts indexed by relation and by tuple. *)

val index : (string * Probdb_core.Tuple.t) array -> facts
(** Indexes an array of distinct [(relation, tuple)] facts; a fact is
    known by its position in the array. *)

val find : facts -> string -> Probdb_core.Tuple.t -> int option
(** The position of a listed fact. *)

val join : ?guard:Probdb_guard.Guard.t -> facts -> t -> (int list -> unit) -> unit
(** [join facts q yield] calls [yield] once per valuation of [q]'s
    variables that maps every atom onto a listed fact, with the matched
    facts' positions in atom order (repeats kept). Variables are bound
    from the facts, never from a domain: a backtracking search matches
    next the atom with the most bound arguments, by one lookup when all
    are bound and by a scan of its relation otherwise. [guard] (default
    {!Probdb_guard.Guard.unlimited}) is ticked once per candidate fact
    tried, at site ["lineage.dnf"]. Raises [Invalid_argument] on
    complemented atoms. *)

val to_fo : t -> Fo.t
(** The sentence [∃ vars. /\ atoms], complemented atoms becoming negated
    atoms. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
