(** Read-once factorisation of monotone DNFs.

    A Boolean function is {e read-once} if it has a formula in which every
    variable appears exactly once; its probability then factors along the
    formula in linear time. Read-once lineages are the best case of query
    compilation — for hierarchical self-join-free CQs the lineage is always
    read-once, which is what makes the linear-size OBDDs of Thm. 7.1(i)(a)
    possible — and the paper points to Golumbic–Mintz–Rotics [34] for the
    recognition problem.

    This module implements the classical cograph-style recognition on the
    irredundant monotone DNF (the set of prime implicants):

    - if the co-occurrence graph of the variables is disconnected, the
      function is the disjunction of its components' sub-DNFs;
    - if its complement is disconnected, the function is a candidate
      conjunction of the projections onto the co-components, accepted after
      verifying that the DNF equals the product of the projections
      ({e normality});
    - a single variable is read-once; anything else is not. *)

val factor :
  ?guard:Probdb_guard.Guard.t -> int list list -> Probdb_boolean.Formula.t option
(** [factor clauses] takes a monotone DNF as sorted variable lists (use
    [Probdb_boolean.Formula.to_dnf] or [Probdb_lineage.Lineage.dnf_of_ucq],
    both of which apply absorption) and returns an equivalent read-once
    formula, or [None] if the function is not read-once. [guard] (default
    {!Probdb_guard.Guard.unlimited}) is polled at every factorisation step
    (site ["read_once.factor"]), so a deadline or cancellation interrupts
    recognition with [Probdb_guard.Guard.Exhausted]. *)

val is_read_once : int list list -> bool

val probability :
  ?guard:Probdb_guard.Guard.t -> (int -> float) -> int list list -> float option
(** Linear-time probability through the factorisation; [None] when the DNF
    is not read-once. [guard] is polled as in {!factor}. *)
