(** Lifted inference: evaluating PQE on the first-order syntax alone.

    Implements the rule system of Sec. 5 of the paper on unate ∃*/∀*
    sentences (reduced to UCQs by [Probdb_logic.Ucq.of_sentence]):

    - independent union / independent join (rule (7) and its dual), with
      independence decided by disjointness of relation symbols;
    - the separator-variable rule (rule (8) and its dual);
    - the inclusion–exclusion formula (rule (10)) with cancellation of
      equivalent terms — the rule the paper singles out as the surprising
      ingredient of complete lifted inference (Thm. 5.1);
    - CQ/UCQ minimisation via homomorphism containment throughout.

    Internally a query is kept in CNF shape: a conjunction of {e clauses},
    each clause a disjunction of variable-connected CQ {e components}. The
    evaluation always runs in time polynomial in the database.

    {b Compile once, evaluate per request.} Which rule applies depends on
    the query's structure, never on the data, so {!compile} runs the
    derivation once — minimisation, containment, I/E cancellation — and
    emits a {e lifted plan}: an extensional plan extended with
    inclusion–exclusion. Its nodes are constants, ground-tuple lookups,
    independent joins (products), independent unions ([1 - Π(1 - v)]),
    signed I/E sums, separators ([1 - Π] over the domain, with the
    separator constant a symbolic {e slot}) and lazy failures. {!eval}
    folds the plan in the derivation's order, so answers are bit-identical
    to running the rules on the concrete query, with the same guard polls,
    I/E charges and {!stats} tallies. A failure raises {!Unsafe} only when
    evaluation reaches it, with the clause rendered from the constants then
    in scope, so an empty domain and the skip texts behave as before. A
    plan that fails before any rule applies raises at once, without a poll
    or a data read.

    {b Equality of constants.} A slot may equal, or order either way
    against, a parameter, a constant of the query or an enclosing slot,
    and the concrete derivation can depend on that: [S(x,2) ∧ S(x,x)] with
    [x = 2] minimises to one atom. The rules compare two constants only at
    the same position of two atoms over the same relation (sorting,
    deduplication, homomorphisms). So a separator whose variables share no
    such position with a symbol in scope gets one subplan for every
    constant. Otherwise the subplan is {e shattered}: evaluation compares
    the constant with the symbols sharing a position, and compiles one
    subplan per comparison pattern on its first occurrence, with equal
    symbols merged and the others ranked by value. Parameters are shattered
    the same way at the root, on the order of the bound constants. On the
    query zoo no separator needs shattering.

    When no rule applies the query is rejected with {!Unsafe}. For
    constant-free queries in the fragment this coincides with #P-hardness
    (Thm. 5.1) up to the paper's omitted refinements: we implement neither
    {e shattering} of the query on its constants (beyond the equalities
    above) nor {e ranking} (needed for atoms repeating a variable, e.g.
    [R(x,y) ∧ R(y,x)]), so a handful of exotic safe queries are rejected
    and must fall back to grounded inference. The experiment suite
    documents this boundary.

    The [use_inclusion_exclusion] and [use_cancellation] switches exist as
    ablations: without I/E the basic rules are incomplete (e.g. on [Q_J] of
    Sec. 5); without cancellation the I/E expansion recurses into #P-hard
    terms that a complete implementation must cancel (the [AB ∨ BC ∨ CD]
    discussion of Sec. 5). *)

exception Unsafe of string
(** No lifted rule applies; the message names the offending subquery. *)

val log_src : Logs.src
(** Rule applications are logged at debug level on this source, once per
    plan node as {!compile} emits it, with parameters shown as [$i] and
    separator slots as [@x]; enable with
    [Logs.Src.set_level Lift.log_src (Some Logs.Debug)] (and a reporter) to
    watch the derivation. *)

type config = {
  use_inclusion_exclusion : bool;
  use_cancellation : bool;
}

val default_config : config
(** Both on — the complete rule set of Theorem 5.1. *)

val basic_rules_only : config
(** Inclusion–exclusion disabled: the incomplete "basic rules" system. *)

val no_cancellation : config
(** I/E on, cancellation of equivalent terms off. *)

type stats = {
  mutable independent_unions : int;
      (** independent-∨ / independent-∃ splits (rule (7)) *)
  mutable independent_joins : int;
      (** independent-∧ / independent-∀ splits (the dual of rule (7)) *)
  mutable separator_steps : int;  (** separator-variable applications (rule (8)) *)
  mutable ie_expansions : int;  (** inclusion–exclusion applications *)
  mutable ie_terms : int;  (** terms recursed into after cancellation *)
  mutable cancelled_terms : int;  (** subset-sum terms removed by cancellation *)
  mutable negations : int;  (** complemented ground atoms evaluated as [1-p] *)
  mutable base_lookups : int;  (** ground-tuple probability reads *)
}

val fresh_stats : unit -> stats
(** A zeroed counter record, ready to pass as [~stats]. *)

val obs_counts : stats -> Probdb_obs.Stats.lifted_rules
(** The same tallies in the shape of the observability layer's per-query
    record ({!Probdb_obs.Stats.t}); used by the engine and the CLI to
    report rule applications. *)

type t
(** A compiled query: its lifted plan, shared by every evaluation and safe
    to evaluate from many domains at once. *)

val compile :
  ?config:config -> ?param:(Probdb_core.Value.t -> int option) -> Probdb_logic.Fo.t -> t
(** Runs the rules once on the sentence. [param c = Some i] marks the
    constant [c] as parameter [i], bound per evaluation; the others are
    constants of the plan. A sentence outside the fragment compiles to a
    plan whose evaluation raises [Probdb_logic.Ucq.Unsupported]. *)

val eval :
  ?stats:stats ->
  ?guard:Probdb_guard.Guard.t ->
  ?pool:Probdb_par.Par.pool ->
  t ->
  binding:Probdb_core.Value.t array ->
  Probdb_core.Tid.t ->
  float
(** [eval t ~binding db] evaluates the plan with parameter [i] bound to
    [binding.(i)]: the probability of the sentence with those constants,
    exactly as {!probability} computes it. Raises {!Unsafe} when it reaches
    a failure node, and [Ucq.Unsupported] (naming the bound constants)
    outside the fragment. [guard], [pool] and [stats] as for
    {!probability}; each relation is resolved once per evaluation. *)

val probability :
  ?config:config ->
  ?stats:stats ->
  ?guard:Probdb_guard.Guard.t ->
  ?pool:Probdb_par.Par.pool ->
  Probdb_core.Tid.t ->
  Probdb_logic.Fo.t ->
  float
(** [probability db q] evaluates a unate ∃*/∀* sentence by lifted inference:
    {!compile} then {!eval}. Raises {!Unsafe} when the rules fail, [Probdb_logic.Ucq.Unsupported]
    outside the fragment. [guard] (default
    {!Probdb_guard.Guard.unlimited}) is polled at every query/clause
    recursion (sites ["lifted.query"], ["lifted.clause"]) and charged
    ["lifted.ie_terms"] work units per inclusion–exclusion expansion, so an
    exploding derivation raises [Probdb_guard.Guard.Exhausted] instead of
    running away.

    With [pool], independent branches — relation-disjoint groups of the
    independent union/join rules and the per-constant factors of the
    separator rule — run as pool tasks, each tallying into a fresh stats
    record merged after the fork joins. Results are always combined in
    branch order, so the returned probability (and the final [stats]) is
    identical to the sequential evaluation for any pool size. *)

val probability_ucq :
  ?config:config ->
  ?stats:stats ->
  ?guard:Probdb_guard.Guard.t ->
  ?pool:Probdb_par.Par.pool ->
  Probdb_core.Tid.t ->
  Probdb_logic.Ucq.t ->
  float
(** {!probability} on a UCQ, read as the disjunction of its CQs. *)

type verdict =
  | Safe  (** lifted inference succeeds: PQE(Q) is in PTIME *)
  | Unsafe_by_rules of string
      (** the rules fail; for constant-free, repeat-free queries this means
          #P-hard by Thm. 5.1 *)
  | Unsupported of string  (** outside the unate ∃*/∀* fragment *)

val verdict : t -> verdict
(** Evaluates the plan on a one-element abstract domain, parameters
    standing for themselves — the decision procedure of Question 4.2 for
    this fragment. *)

val classify : ?config:config -> Probdb_logic.Fo.t -> verdict
(** {!verdict} of the compiled sentence. *)

val classify_ucq : ?config:config -> Probdb_logic.Ucq.t -> verdict

val pp_verdict : Format.formatter -> verdict -> unit
