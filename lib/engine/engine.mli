(** The PQE engine: a dispatcher over every inference method in the
    repository.

    This is the "probabilistic database system" the paper's results add up
    to. Given a query, the engine tries, in order:

    + {e lifted inference} (Sec. 5) — polynomial time, exact, succeeds
      exactly on safe queries of the unate ∃*/∀* fragment;
    + {e symmetric WFOMC} (Sec. 8) — when the database happens to be
      symmetric (every possible tuple listed at one probability per
      relation), any FO² sentence is polynomial, including #P-hard ones
      like H0;
    + a {e safe extensional plan} (Sec. 6) — exact on hierarchical
      self-join-free CQs, evaluated with plain relational operators;
    + {e read-once factorisation} — when the monotone DNF lineage is
      read-once (e.g. any hierarchical CQ lineage), probability in linear
      time (Golumbic et al., Sec. 7 context);
    + {e clause-database WMC} (Sec. 7) — exact, grounded; DPLL with
      caching and components as a sharpSAT-style counter
      ([Probdb_cnf.Wmc]): watched-literal propagation, component
      decomposition, a bounded component cache, a decision budget. In the
      auto chain it claims exactly the CNF-shaped (universal) lineages it
      translates directly; picked explicitly ([--method wmc] /
      [strategies = [Wmc]]) it clausifies anything;
    + {e knowledge compilation to OBDD} (Sec. 7) — exact, grounded; blows
      up on hard queries and is capped by a node budget. WMC and OBDD are
      the grounded tier: the query's lineage is built at most once per
      evaluation, on first use, and shared by both. Every grounded
      strategy (read-once, WMC, OBDD, Karp–Luby and the fallback) numbers
      variables through one fact index per evaluation;
    + {e Karp–Luby sampling} on the DNF lineage — an FPRAS for monotone
      UCQs when everything exact has failed;
    + {e possible-world enumeration} — the last resort for tiny databases.

    Every evaluation first prepares the query ({!Probdb_prepare.Prepare}):
    when its structure has a safe plan, the safe extensional plan moves to
    the front of the order above.

    Every answer reports which method produced it and why the earlier ones
    were skipped — the paper's narrative (who wins where) as an API. *)

type strategy =
  | Lifted
  | Symmetric
  | Safe_plan
  | Read_once
  | Wmc
  | Obdd
  | Karp_luby
  | World_enum

val all_strategies : strategy list
(** Every strategy, in the default chain order above — the one list the
    name table, the per-strategy win counters and the CLI's [--method]
    help are derived from. *)

val strategy_name : strategy -> string

val strategy_of_name : string -> strategy option
(** Inverse of {!strategy_name} over {!all_strategies} — shared by the
    CLI's [--method] parser and the serve protocol's ["method"] field.
    [None] on unknown names (and on ["auto"], which means "no override"). *)

type degrade = {
  eps : float;  (** target relative error of the fallback approximation *)
  delta : float;  (** target failure probability *)
  max_samples : int;
      (** hard cap on Monte-Carlo samples, so the fallback itself has a
          bounded cost (the FPRAS bound [4m·ln(2/δ)/ε²] can be huge) *)
}

type config = {
  strategies : strategy list;  (** tried in order *)
  obdd_max_nodes : int;
  wmc_max_decisions : int;
      (** decision cap of the clause-database WMC strategy (its component
          cache is additionally bounded, see [Probdb_cnf.Wmc.config]) *)
  kl_samples : int;
  max_enum_support : int;
  seed : int;
  deadline_s : float option;
      (** wall-clock deadline across all strategies (monotonic clock) *)
  max_ie_terms : int option;
      (** budget on lifted inclusion–exclusion terms (["lifted.ie_terms"]) *)
  max_plan_rows : int option;
      (** budget on plan intermediate-relation rows (["plan.rows"]) *)
  heap_watermark_words : int option;  (** major-heap watermark *)
  fault : Probdb_guard.Guard.fault option;
      (** deterministic fault injection, for tests *)
  degrade : degrade option;
      (** [Some _]: {!eval} falls back to the (ε,δ) Karp–Luby approximation
          when every exact strategy is skipped or tripped, and Karp–Luby is
          removed from the main strategy loop. [None]: {!eval} fails
          instead. {!evaluate} always runs with [None]. *)
  force_degraded : bool;
      (** when set (by {!force_degrade}), {!eval} may skip every exact
          strategy — recording each as a skipped step in the degradation
          chain — and answer directly with the (ε,δ) fallback. It does so
          when the query has a fallback and its prepared key's cost record
          does not show the chain cheaper than the fallback
          ({!Probdb_prepare.Prepare.degrade_under_load}); otherwise it runs
          the normal chain. {!evaluate} always runs with it unset. *)
  domains : int;
      (** OCaml domains for the parallel runtime ([probdb.par]). At [1]
          (the default) no pool is created and every strategy runs its
          exact sequential path. Above [1], a {!Probdb_par.Par.pool} is
          shared by lifted inference (independent branches) and Karp–Luby
          sampling ({!Probdb_approx.Karp_luby.estimate_par}, whose
          batch-indexed RNG streams make the estimate identical at any
          domain count); [stats] reports [domains_used] / [par_tasks]. *)
  parent_guard : Probdb_guard.Guard.t option;
      (** when set, the per-evaluation guard is created with this parent,
          linking cancellation: {!Probdb_guard.Guard.cancel} on the parent
          interrupts the evaluation at its next poll. A long-running
          server passes one server-wide guard here so a hard shutdown can
          stop every in-flight query cooperatively. *)
  plan_cache : Probdb_prepare.Prepare.Cache.t option;
      (** the shared compiled-plan cache every evaluation prepares
          through: the query's structural key (constants lifted to
          parameters) is looked up, a miss builds and caches the artifact
          (UCQ reduction, minimisation, classification, template safe
          plan), and execution binds the constants back into the cached
          artifact. When the artifact carries a safe plan, [Safe_plan] is
          promoted to the front of the strategy list, so safe queries run
          the compiled columnar plan directly — parse/classify/plan phase
          timings read ~0 on hits. [stats] reports the lookup in its
          [prepare] block. A capacity-0 cache runs the identical pipeline
          without retaining anything — that is what [--no-plan-cache]
          installs, so caching can never change an answer. [None] (the
          default) means capacity 0: the engine prepares through a shared
          capacity-0 cache. *)
}

val default_config : config
(** All eight strategies ({!all_strategies}); 200k OBDD nodes, 2M WMC
    decisions, 100k Karp–Luby samples; no deadline, no budgets,
    no fault; degradation on at [eps = 0.1], [delta = 0.05], at most 20k
    samples; one domain (sequential). *)

val exact_only : config
(** Drops Karp–Luby. *)

val force_degrade : config -> config
(** The serving-time backpressure transform: set [force_degraded] so
    {!eval} skips every exact method — each recorded as a skipped step in
    the degradation chain — and answers directly with the (ε,δ)
    Karp–Luby fallback, a certified confidence-interval answer at a cost
    bounded by [degrade.max_samples], which is what an overloaded server
    wants instead of queueing exact work. Keeps the base config's [degrade]
    targets, installing {!default_config}'s when degradation was off.

    Only where sampling is cheaper: a query whose prepared key has
    recorded a chain cost below its fallback cost runs the normal chain,
    and so does a query with no monotone DNF lineage to sample (e.g. a
    universal sentence). A key with either cost unrecorded degrades, so
    through a capacity-0 cache every samplable query does. The answer's
    [under_load] says which happened. *)

type outcome =
  | Exact of float
  | Approximate of { value : float; std_error : float }

val value : outcome -> float

type report = {
  outcome : outcome;
  strategy : strategy;  (** the method that produced the answer *)
  skipped : (strategy * string) list;  (** earlier methods and why they failed *)
  stats : Probdb_obs.Stats.t;
      (** per-query observability record: phase timings, lifted-rule tally,
          WMC counters, circuit sizes, plan cardinalities (docs/STATS.md) *)
}

exception No_method of (strategy * string) list
(** Every configured strategy failed; the payload says why. *)

val evaluate :
  ?config:config ->
  ?stats:Probdb_obs.Stats.t ->
  ?prepared:Probdb_prepare.Prepare.bound ->
  Probdb_core.Tid.t ->
  Probdb_logic.Fo.t ->
  report
(** Tries the configured strategies in order and returns the first answer:
    {!eval} with degradation off ([degrade = None], [force_degraded]
    unset), where a guard trip is one more reason a strategy was passed
    over. Always-on instrumentation: phase timings and per-solver counters are
    recorded into [stats] (a fresh record when not supplied) and returned
    in the report. Pass [?stats] to carry CLI-side timings (e.g. parse
    time) into the same record.

    @param config strategy list and budgets (default {!default_config}).
    @param stats the record to fill; freshly created when absent.
    @param prepared a pre-resolved artifact binding for [q] (e.g. from
      {!Probdb_prepare.Prepare.Cache.resolve_text}); when absent, the
      engine resolves one through [config.plan_cache].
    @raise Invalid_argument on open formulas — use {!answers}.
    @raise No_method when every configured strategy is skipped or tripped. *)

val eval :
  ?config:config ->
  ?stats:Probdb_obs.Stats.t ->
  ?prepared:Probdb_prepare.Prepare.bound ->
  Probdb_core.Tid.t ->
  Probdb_logic.Fo.t ->
  (Answer.t, Probdb_core.Probdb_error.t) result
(** Guaranteed-completion evaluation: the strategy chain of {!evaluate}
    (after prepare, with [Safe_plan] promoted when the artifact carries a
    plan), but

    - a {!Probdb_guard.Guard.t} built from the config's [deadline_s],
      budgets, heap watermark and [fault] interrupts runaway strategies;
      each interruption is recorded as a typed [Tripped] step in the
      answer's degradation chain (solver-internal caps — OBDD nodes, WMC
      decisions — are recorded the same way);
    - when every exact strategy is skipped or tripped and [config.degrade]
      is [Some _], the engine degrades to the Karp–Luby
      (ε,δ)-approximation and returns a [degraded] answer with its
      confidence interval. Its sampling is capped by [max_samples]; its
      grounding, when no exact strategy built the DNF already, gets the
      config's deadline again (at least 0.1 s), counted from the
      fallback's start, and a trip there is one more [Tripped] step
      (strategy ["karp-luby"]);
    - instead of raising, failures come back as
      [Error (Exhausted _)] (some strategy tripped a resource and no
      fallback applied) or [Error (No_method _)] (nothing was applicable).

    @raise Invalid_argument on open formulas — use {!answers}. *)

val probability : ?config:config -> Probdb_core.Tid.t -> Probdb_logic.Fo.t -> float
(** The numeric value of {!evaluate}'s outcome. *)

val answers :
  ?config:config -> free:string list -> Probdb_core.Tid.t -> Probdb_logic.Fo.t ->
  (Probdb_core.Value.t list * report) list
(** Non-Boolean queries: evaluates the Boolean query obtained by binding
    the free variables to each combination of domain values, keeping the
    bindings with positive probability. *)

val expected_answer_count :
  ?config:config -> free:string list -> Probdb_core.Tid.t -> Probdb_logic.Fo.t -> float
(** Expected number of answers of a non-Boolean query, by linearity of
    expectation: the sum of the per-binding marginals of {!answers}. *)

val pp_report : Format.formatter -> report -> unit
