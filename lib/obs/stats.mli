(** Per-query statistics: the structured record every solver reports into.

    One {!t} is created per query evaluation (by [Probdb_engine.Engine] or
    by hand) and filled as the engine works through its strategies: phase
    wall-clock timings, the lifted-inference rule tally, WMC search
    counters, compiled-circuit sizes, and safe-plan cardinalities. The
    record is deliberately flat and mutable — recording must stay cheap
    enough to leave on for every query — and {!to_json} defines the stable
    machine-readable schema documented field by field in [docs/STATS.md].

    Which optional section is populated depends on the winning strategy:
    [lifted] for lifted inference, [wmc] + [circuit] for the clause-database
    counter, [circuit] for OBDD compilation, [plan] for safe extensional plans.
    Sections of strategies that were tried but skipped stay [None]. *)

type lifted_rules = {
  independent_unions : int;
      (** independent-∨ / independent-∃ splits (rule (7) of Sec. 5) *)
  independent_joins : int;  (** independent-∧ / independent-∀ splits (the dual) *)
  separator_steps : int;  (** separator-variable applications (rule (8)) *)
  ie_expansions : int;  (** inclusion–exclusion applications (rule (10)) *)
  ie_terms : int;  (** I/E terms recursed into after cancellation *)
  cancelled_terms : int;  (** I/E terms removed by cancellation *)
  negations : int;  (** complemented ground atoms evaluated as [1-p] *)
  base_lookups : int;  (** ground-tuple probability reads *)
}

(** Counters of the clause-database weighted model counter
    ([Probdb_cnf.Wmc]); the [wmc_]-prefixed names keep fields distinct in
    this flat namespace — the JSON keys drop the prefix (see
    [docs/STATS.md]). *)
type wmc_counts = {
  wmc_decisions : int;  (** branching decisions *)
  propagations : int;  (** literals implied by watched-literal propagation *)
  components : int;  (** connected components detected in residual databases *)
  wmc_cache_hits : int;
  wmc_cache_queries : int;
  wmc_cache_entries : int;  (** component-cache entries live at the end *)
  wmc_cache_evictions : int;
      (** entries dropped by the entry cap or the heap-watermark sweep *)
  max_trail : int;  (** deepest assignment trail over the run *)
}

type circuit_counts = {
  circuit_class : string;  (** ["obdd"], ["fbdd"], ["decision-dnnf"], ... *)
  nodes : int;
  edges : int;
}

type plan_counts = {
  operators : int;  (** scans + joins + projections evaluated *)
  peak_rows : int;  (** largest intermediate-relation cardinality *)
}

(** The packed-storage block, filled when the TID came from a [.pdb]
    container ([Probdb_storage.Storage]): what it cost to open and how
    much of the file the evaluation actually touched. The [st_]-prefixed
    names avoid clashing in this flat namespace — the JSON keys drop the
    prefix (see [docs/STATS.md]). Process-wide totals live in the
    [storage.*] metrics. *)
type storage_counts = {
  st_path : string;  (** the container file *)
  st_file_bytes : int;  (** container size on disk *)
  st_open_s : float;  (** header + TOC validation time (O(header)) *)
  st_bytes_mapped : int;  (** bytes of column segments mapped so far *)
  st_cols_mapped : int;  (** column segments mapped so far *)
  st_rels_materialized : int;  (** relations decoded to the heap so far *)
}

(** The prepared-query block ([Probdb_prepare.Prepare]): whether this
    evaluation hit the shared compiled-plan cache, under which structural
    key, and the cache's running totals at that moment. The [prep_]-prefixed
    names avoid clashing in this flat namespace — the JSON keys drop the
    prefix (see [docs/STATS.md]). *)
type prepare_counts = {
  prep_hit : bool;  (** this query's structural key was already cached *)
  prep_key : string;  (** canonical structural key (constants as [$i]) *)
  prep_cache_hits : int;  (** cache-lifetime hit total *)
  prep_cache_misses : int;
  prep_cache_evictions : int;
  prep_cache_entries : int;  (** artifacts cached after this lookup *)
}

(** Accumulated GC-counter deltas over the regions bracketed with
    {!with_gc} — allocation pressure and collector activity attributable
    to this query, not to the whole process. *)
type gc_counts = {
  mutable minor_words : float;
      (** words allocated in the minor heap ([Gc.minor_words] deltas —
          live even between collections) *)
  mutable major_words : float;
      (** words allocated in the major heap; [Gc.quick_stat] refreshes
          this at collection boundaries, so allocation-free-of-collection
          regions read 0 *)
  mutable promoted_words : float;  (** words surviving a minor collection *)
  mutable minor_collections : int;
  mutable major_collections : int;
  mutable compactions : int;
  mutable heap_peak_words : int;
      (** max major-heap size ([heap_words]) seen at any region exit; 0
          when the regions never touched the major heap *)
}

(** The phases a query goes through; see {!record_phase}. [Prepare] is the
    structural-key lookup plus, on a miss, artifact construction (UCQ
    reduction, minimisation, classification, safe-plan construction) —
    on a cache hit it is the only pre-solve phase that runs at all. *)
type phase = Parse | Prepare | Classify | Plan | Solve

type t = {
  mutable query : string option;  (** concrete syntax, when known *)
  mutable request_id : string option;
      (** serve-layer correlation id, when evaluated on behalf of a request *)
  mutable strategy : string option;  (** winning strategy name *)
  mutable probability : float option;
  mutable exact : bool;  (** [false] for sampling-based answers *)
  mutable std_error : float option;  (** for approximate answers *)
  mutable parse_s : float;
  mutable prepare_s : float;
      (** structural-key lookup + artifact construction on cache misses *)
  mutable classify_s : float;
      (** time spent deciding applicability (skipped strategies included) *)
  mutable plan_s : float;  (** safe-plan construction *)
  mutable solve_s : float;  (** the winning strategy's evaluation *)
  mutable lifted : lifted_rules option;
  mutable wmc : wmc_counts option;
  mutable circuit : circuit_counts option;
  mutable plan : plan_counts option;
  mutable prepare : prepare_counts option;
      (** filled when the evaluation went through a compiled-plan cache *)
  mutable storage : storage_counts option;
      (** filled when the TID came from a packed container *)
  mutable memo_hit_rate : float option;
      (** cache hits / cache queries of the winning solver, when it caches *)
  mutable skipped : (string * string) list;  (** strategy, reason — in trial order *)
  mutable degraded : bool;
      (** the exact strategies were exhausted and the answer is the (ε,δ)
          Karp–Luby fallback *)
  mutable ci_low : float option;  (** (1-δ)-confidence interval, degraded answers *)
  mutable ci_high : float option;
  mutable samples : int option;  (** Monte-Carlo samples drawn, degraded answers *)
  mutable chain : (string * string * string) list;
      (** degradation chain: strategy, kind (["skipped"] or ["tripped"]),
          detail — in trial order; the typed superset of [skipped] *)
  mutable domains_used : int;
      (** configured parallelism of the evaluation (1 = sequential) *)
  mutable par_tasks : int;
      (** tasks executed through the [Probdb_par.Par] pool, all strategies *)
  mutable rows_processed : int;
      (** input rows streamed through columnar plan operators *)
  gc : gc_counts;  (** filled by {!with_gc}; all-zero when never bracketed *)
  mutable config : (string * Json.t) list;
      (** evaluation-config echo (method, domains, deadline, ε/δ, seed, …)
          set by the engine; serialised as the [config] section of
          {!to_json}, [null] when empty *)
}

val create : unit -> t
(** All-zero timings, every section [None]. *)

val total_s : t -> float
(** Sum of the phase timings. *)

val record_phase : t -> phase -> float -> unit
(** [record_phase t ph dt] adds [dt] seconds to phase [ph].

    @param dt elapsed seconds; clamped to [0.] if negative. *)

val time_phase : t -> phase -> (unit -> 'a) -> 'a
(** Runs the thunk and {!record_phase}s its duration (measured with
    {!Clock.time}); exceptions propagate with the time still recorded. *)

val hit_rate : hits:int -> queries:int -> float option
(** [hits/queries], or [None] when [queries = 0]. *)

val with_gc : t -> (unit -> 'a) -> 'a
(** [with_gc t f] runs [f] and folds the [Gc.quick_stat] deltas across it
    into [t.gc] (allocated words, collection counts, heap peak), also when
    [f] raises. When {!Trace.on}, the running totals are emitted as
    [gc.*] counter events so the trace timeline shows allocation pressure.
    Do not nest on the same record — the outer region would double-count
    the inner one's deltas. *)

val to_json : t -> Json.t
(** The machine-readable form; schema in [docs/STATS.md]. Unpopulated
    sections serialise as [null] so every document has the same keys. *)

val pp : Format.formatter -> t -> unit
(** The human-readable table behind [probdb eval --stats]. *)
