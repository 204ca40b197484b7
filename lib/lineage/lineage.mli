(** Lineage: grounding a query over a TID into a Boolean formula.

    The lineage [F_{Q,DOM}] of a sentence [Q] associates a Boolean variable
    to every possible tuple and is true exactly on the assignments whose
    corresponding world satisfies [Q] (Sec. 7 and the Appendix of the
    paper). PQE is weighted model counting of the lineage: [p_D(Q) =
    p(F_{Q,DOM})] with each tuple-variable weighted by its marginal
    probability.

    Unlisted possible tuples have probability 0, so their variables are
    replaced by the constant [false] during construction; this keeps
    lineages polynomial in the size of the database rather than in
    |DOM|^arity. *)

type ctx
(** Grounding context: the database plus a per-evaluation fact index that
    maps facts to Boolean variables. *)

val create : Probdb_core.Tid.t -> ctx
(** One pass over [Tid.support]: variable [i] is the [i]-th listed fact,
    found through a per-relation tuple index; probabilities and facts sit
    in arrays indexed by variable. *)

val db : ctx -> Probdb_core.Tid.t

val pool : ctx -> Probdb_boolean.Var_pool.t
(** The fact/variable bijection with printable labels (["S(1, 2)"]), for
    the [probdb lineage] and [probdb compile] printers. Built on the first
    call; pool ids equal the context's variables and their probabilities
    the tuple marginals. *)

val var_of_fact : ctx -> string -> Probdb_core.Tuple.t -> int option
(** The variable of a listed fact; [None] when the tuple is unlisted
    (probability 0). *)

val fact_of_var : ctx -> int -> string * Probdb_core.Tuple.t
(** Inverse of {!var_of_fact}. Raises [Not_found] on foreign variables. *)

val prob : ctx -> int -> float
(** Marginal probability of a lineage variable. *)

val of_query :
  ?guard:Probdb_guard.Guard.t -> ctx -> Probdb_logic.Fo.t -> Probdb_boolean.Formula.t
(** The inductive lineage construction of the Appendix: conjunction for ∀
    and ∧, disjunction for ∃ and ∨, negation for ¬, with quantifiers
    expanded over the TID's domain. Works for arbitrary FO sentences.
    [guard] (default {!Probdb_guard.Guard.unlimited}) is ticked once per
    quantifier instance, at site ["lineage.ground"]. *)

val dnf_of_ucq :
  ?guard:Probdb_guard.Guard.t -> ctx -> Probdb_logic.Ucq.t -> int list list
(** The lineage of a positive UCQ directly as DNF clauses (sorted variable
    lists, absorption applied) — the input format of Karp–Luby sampling and
    of the multiplicity counts used by the lower bound of Theorem 6.1.
    Valuations come from {!Probdb_logic.Cq.join} over the listed facts,
    not from the domain. [guard] is ticked per candidate fact at
    ["lineage.dnf"], then per absorbed clause at ["dnf.absorb"].
    Raises [Invalid_argument] if some atom is complemented. *)

val multiplicities : int list list -> (int * int) list
(** How many DNF clauses each variable occurs in — the [k] of the
    [1-(1-p)^{1/k}] lower-bound trick (Sec. 6). *)
