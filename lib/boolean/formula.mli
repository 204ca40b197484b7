(** Propositional formulas over integer variables.

    These are the Boolean formulas of the model-counting problem (Sec. 7 of
    the paper): lineages of queries are values of this type, and all the
    grounded-inference machinery (brute-force WMC, DPLL, knowledge
    compilation) consumes it.

    Values are kept lightly normalised by the smart constructors: [And]/[Or]
    are flattened, sorted, duplicate-free, never contain their identity or
    absorbing element, and never have fewer than two children. This gives a
    cheap syntactic canonical form used as a cache key by DPLL. *)

type t = private
  | True
  | False
  | Var of int
  | Not of t
  | And of t list
  | Or of t list

val tru : t
val fls : t
val var : int -> t

val neg : t -> t
(** Pushes through constants and double negation. *)

val conj : t list -> t
(** n-ary conjunction with flattening, identity/absorption, duplicate
    removal and complement detection ([x /\ ~x = false]). *)

val disj : t list -> t

val conj2 : t -> t -> t
val disj2 : t -> t -> t

val implies : t -> t -> t
(** Material implication [~a \/ b]. *)

val iff : t -> t -> t

val compare : t -> t -> int
(** Structural total order (on the normalised form). *)

val equal : t -> t -> bool

val hash : t -> int
(** Full structural hash consistent with {!equal}: one pass over the whole
    AST (unlike the polymorphic [Hashtbl.hash], which samples a bounded
    prefix and degenerates on large lineages). Suitable for
    [Hashtbl.Make]-style hashed structural keys, e.g. the DPLL cache. *)

val vars : t -> int list
(** Variables occurring in the formula, sorted, without duplicates. *)

val var_count : t -> int

val size : t -> int
(** Number of AST nodes. *)

val eval : (int -> bool) -> t -> bool

val condition : int -> bool -> t -> t
(** [condition x b f] is [f[x := b]], re-normalised — the restriction used
    by the Shannon expansion (Eq. (11) of the paper). *)

val substitute : (int -> t option) -> t -> t
(** Simultaneous substitution of formulas for variables. *)

val nnf : t -> t
(** Negation normal form: negations pushed down to variables. *)

val is_positive : t -> bool
(** No negation anywhere (e.g. lineages of monotone queries). *)

val is_syntactically_read_once : t -> bool
(** Every variable occurs at most once in the AST. A read-once formula's
    probability is computable in linear time; this is the easy syntactic
    check, not the full read-once recognition of Golumbic et al. *)

val to_dnf : t -> int list list
(** Disjunctive normal form of a positive formula as a list of clauses
    (sorted variable lists), with absorption applied. Raises
    [Invalid_argument] on non-positive input. Worst-case exponential — meant
    for lineages of fixed queries on moderate databases. *)

val absorb : ?guard:Probdb_guard.Guard.t -> int list list -> int list list
(** Absorption on a monotone DNF whose clauses are strictly increasing
    variable lists: removes duplicate clauses and every clause that is a
    superset of another, and returns the rest in sorted order. Kept
    clauses are indexed by their smallest variable, so a clause is only
    compared with the kept clauses that could be its subsets. [guard]
    (default {!Probdb_guard.Guard.unlimited}) is ticked once per clause
    tested, at site ["dnf.absorb"]. *)

val as_cnf : t -> (int * bool) list list option
(** [Some clauses] when the formula is syntactically a conjunction of
    disjunctions of literals — each literal [(v, sign)] with [sign = false]
    for a negated variable. [True] is the empty conjunction [Some []] and
    [False] the empty clause [Some [[]]]. Lineages of universal queries are
    CNF-shaped by construction; this is the gate the engine's WMC strategy
    uses to pick the direct clause translation over Tseitin clausification
    (see [Probdb_cnf.Cnf]). Returns [None] on any other shape. *)

val pp : ?label:(int -> string) -> unit -> Format.formatter -> t -> unit
val to_string : ?label:(int -> string) -> t -> string
