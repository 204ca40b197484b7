(** Columnar plan execution: the fast path behind [Probdb_plans.Plan.eval].

    The list-based {!Probdb_plans.Ptable} evaluates Sec. 6 extensional
    plans over [(Value.t list * float) list] — every join key is a boxed
    list, every column access a [List.nth]. This module stores an
    intermediate relation as {e int-array columns} plus a float probability
    array; values are interned once per plan evaluation into a shared
    {!Probdb_core.Dict.t}, so the operator inner loops run over unboxed
    integers. The operators implement the same modified algebra
    (probabilities multiply under ⋈, combine with [u ⊕ v = 1-(1-u)(1-v)]
    under the independent project) and are tested property-for-property
    against the [Ptable] reference.

    Columns come from {e two providers}: heap arrays ([Ints]/[Floats] —
    CSV loads and every operator output) and mmapped segments of a packed
    container ([Imapped]/[Fmapped] — see {!Probdb_storage.Storage}).
    Operators read both through {!iget}/{!fget}, so {!scan_cols} over a
    packed relation hands the kernel-managed pages straight to a join with
    zero copies and no per-tuple boxing.

    Guard integration: operators accept a [?guard] and poll it amortised
    (every {!Probdb_guard.Guard.poll_interval} rows), so deadlines and
    cancellation reach even a single large join without measurable
    overhead. Budget charging per operator {e output} stays the caller's
    job ([Plan.eval] charges ["plan.rows"], as before). *)

type int_column = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type float_column =
  (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type icol = Ints of int array | Imapped of int_column
(** An id column: a heap array or a mapped container segment. *)

type fcol = Floats of float array | Fmapped of float_column
(** A probability column. *)

val iget : icol -> int -> int
val ilen : icol -> int
val fget : fcol -> int -> float
val flen : fcol -> int

type rel = {
  vars : string array;  (** column names, in order *)
  cols : icol array;  (** [iget cols.(j) i] = interned value of row [i], column [j] *)
  probs : fcol;  (** [fget probs i] = marginal probability of row [i] *)
}

(** Mutable per-evaluation tally, reported into
    [Probdb_obs.Stats.plan_counts] and the new [rows_processed] field. *)
type counters = {
  mutable operators : int;  (** operator applications *)
  mutable peak_rows : int;  (** largest operator output cardinality *)
  mutable rows_processed : int;  (** total input rows streamed through operators *)
}

val fresh_counters : unit -> counters

val nrows : rel -> int

val scan :
  ?guard:Probdb_guard.Guard.t ->
  ?counters:counters ->
  Probdb_core.Dict.t ->
  Probdb_core.Tid.t ->
  Probdb_logic.Cq.atom ->
  rel
(** Like [Ptable.scan]: keeps rows matching the atom's constants and
    repeated variables, projects onto the distinct variables in first
    occurrence order, and interns the surviving values. An atom over a
    missing relation scans as empty. Raises [Invalid_argument] on
    complemented atoms. *)

val scan_cols :
  ?guard:Probdb_guard.Guard.t ->
  ?counters:counters ->
  ?index:(int -> Probdb_storage.Storage.index option) ->
  lookup:(Probdb_core.Value.t -> int option) ->
  cols:int_column array ->
  probs:float_column ->
  Probdb_logic.Cq.atom ->
  rel
(** {!scan} over a packed relation's mapped columns. When the atom binds a
    distinct variable at every position — the common shape — the output
    {e is} the mapped segments ([Imapped]/[Fmapped]): zero copies, zero
    per-row work, pages fault in only when an operator touches them.
    Constants and repeated variables fall back to a filtered gather whose
    admission ids come from [lookup] (the container's read-only dictionary
    via [Dict.find_opt] — a constant the container never saw matches no
    row, and nothing is ever interned during evaluation). With [index]
    (column position to that column's {!Probdb_storage.Storage.index}),
    the gather visits only the bucket of the atom's first constant instead
    of every row; buckets keep ascending row order, so the output rows and
    their order are those of the full scan. The gather allocates nothing
    per input row. Raises [Invalid_argument] on complemented atoms or an
    arity mismatch with the columns. *)

val empty_scan : ?counters:counters -> Probdb_logic.Cq.atom -> rel
(** The empty result of scanning the atom against a missing relation:
    same columns, zero rows. *)

val join : ?guard:Probdb_guard.Guard.t -> ?counters:counters -> rel -> rel -> rel
(** Natural hash join on the shared columns, probabilities multiplied.
    Column positions are resolved once per call, never per row; the build
    side is the right input. Output columns are the left input's columns
    followed by the right input's non-shared columns. *)

val project : ?guard:Probdb_guard.Guard.t -> ?counters:counters -> string list -> rel -> rel
(** Independent project: group by the kept columns and combine each
    group's probabilities with ⊕. Raises [Invalid_argument] on unknown
    columns. *)

val disjoint_union : ?guard:Probdb_guard.Guard.t -> ?counters:counters -> rel -> rel -> rel
(** Union of two relations over the same columns (the right input's
    columns may be ordered differently) whose underlying events are
    disjoint, so probabilities of equal tuples {e add}. Used for safe
    UCQ plans whose branches partition the event space. Raises
    [Invalid_argument] if the column sets differ. *)

val boolean_prob : rel -> float
(** For a zero-column relation: the probability of its single row, or 0. *)

val to_rows : Probdb_core.Dict.t -> rel -> (Probdb_core.Tuple.t * float) list
(** Materialise back into boxed tuples (row order preserved). *)
