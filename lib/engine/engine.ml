module Core = Probdb_core
module Fo = Probdb_logic.Fo
module Ucq = Probdb_logic.Ucq
module Lift = Probdb_lifted.Lift
module Lineage = Probdb_lineage.Lineage
module Obdd = Probdb_kc.Obdd
module Wmc = Probdb_cnf.Wmc
module Plan = Probdb_plans.Plan
module Prepare = Probdb_prepare.Prepare
module Cq = Probdb_logic.Cq
module Karp_luby = Probdb_approx.Karp_luby
module Stats = Probdb_obs.Stats
module Clock = Probdb_obs.Clock
module Trace = Probdb_obs.Trace
module Metrics = Probdb_obs.Metrics
module Json = Probdb_obs.Json
module Guard = Probdb_guard.Guard
module Error = Probdb_core.Probdb_error
module Par = Probdb_par.Par

type strategy =
  | Lifted
  | Symmetric
  | Safe_plan
  | Read_once
  | Wmc
  | Obdd
  | Karp_luby
  | World_enum

(* The default chain order; every other view of the strategy set (names,
   the win counters, the CLI help) is derived from this one list. *)
let all_strategies =
  [ Lifted; Symmetric; Safe_plan; Read_once; Wmc; Obdd; Karp_luby; World_enum ]

let strategy_name = function
  | Lifted -> "lifted"
  | Symmetric -> "symmetric"
  | Safe_plan -> "safe-plan"
  | Read_once -> "read-once"
  | Wmc -> "wmc"
  | Obdd -> "obdd"
  | Karp_luby -> "karp-luby"
  | World_enum -> "world-enum"

let strategy_of_name name = List.find_opt (fun s -> strategy_name s = name) all_strategies

type degrade = { eps : float; delta : float; max_samples : int }

type config = {
  strategies : strategy list;
  obdd_max_nodes : int;
  wmc_max_decisions : int;
  kl_samples : int;
  max_enum_support : int;
  seed : int;
  deadline_s : float option;
  max_ie_terms : int option;
  max_plan_rows : int option;
  heap_watermark_words : int option;
  fault : Guard.fault option;
  degrade : degrade option;
  force_degraded : bool;
  domains : int;
  parent_guard : Guard.t option;
  plan_cache : Prepare.Cache.t option;
}

let default_config =
  { strategies = all_strategies;
    obdd_max_nodes = 200_000;
    wmc_max_decisions = 2_000_000;
    kl_samples = 100_000;
    max_enum_support = 22;
    seed = 42;
    deadline_s = None;
    max_ie_terms = None;
    max_plan_rows = None;
    heap_watermark_words = None;
    fault = None;
    degrade = Some { eps = 0.1; delta = 0.05; max_samples = 20_000 };
    force_degraded = false;
    domains = 1;
    parent_guard = None;
    plan_cache = None }

(* The serving-time backpressure config: skip every exact strategy and go
   straight to the (ε,δ) Karp–Luby fallback when the key's cost record
   says that is cheaper (see [eval]), keeping whatever degrade accuracy
   targets the base config carries (installing the defaults when
   degradation was off). The strategy list is kept so the degradation
   chain can record each skipped strategy — a degraded answer must say
   why it degraded. Used by [probdb serve] when the request queue passes
   its degrade watermark. *)
let force_degrade config =
  { config with
    force_degraded = true;
    degrade =
      (match config.degrade with
      | Some _ as d -> d
      | None -> default_config.degrade) }

let exact_only =
  { default_config with
    strategies = List.filter (fun s -> s <> Karp_luby) all_strategies }

(* Process-wide metrics (aggregating across queries, unlike [Stats.t]),
   registered once: a win increments its strategy's counter directly. *)
let m_queries = Metrics.counter "engine.queries"

let m_degraded = Metrics.counter "engine.degraded"

let m_latency = Metrics.histogram "engine.query_latency_s"

let m_wins =
  List.map
    (fun s -> (s, Metrics.counter ("engine.strategy." ^ strategy_name s)))
    all_strategies

(* The evaluation-config echo surfaced as the [config] section of
   --stats-json: enough to re-run the query the same way. *)
let opt_json f = function None -> Json.Null | Some v -> f v

let config_fields config =
  [ ( "strategies",
      Json.List (List.map (fun s -> Json.Str (strategy_name s)) config.strategies) );
    ("domains", Json.Int config.domains);
    ("seed", Json.Int config.seed);
    ("deadline_s", opt_json (fun f -> Json.Float f) config.deadline_s);
    ("kl_samples", Json.Int config.kl_samples);
    ("obdd_max_nodes", Json.Int config.obdd_max_nodes);
    ("wmc_max_decisions", Json.Int config.wmc_max_decisions);
    ("max_enum_support", Json.Int config.max_enum_support);
    ("max_ie_terms", opt_json (fun n -> Json.Int n) config.max_ie_terms);
    ("max_plan_rows", opt_json (fun n -> Json.Int n) config.max_plan_rows);
    ("heap_watermark_words", opt_json (fun n -> Json.Int n) config.heap_watermark_words);
    ("plan_cache", Json.Bool (config.plan_cache <> None));
    ( "degrade",
      opt_json
        (fun d ->
          Json.Obj
            [ ("eps", Json.Float d.eps);
              ("delta", Json.Float d.delta);
              ("max_samples", Json.Int d.max_samples) ])
        config.degrade ) ]

let echo_config stats config =
  if stats.Stats.config = [] then stats.Stats.config <- config_fields config

type outcome = Exact of float | Approximate of { value : float; std_error : float }

let value = function Exact v -> v | Approximate { value; _ } -> value

type report = {
  outcome : outcome;
  strategy : strategy;
  skipped : (strategy * string) list;
  stats : Stats.t;
}

exception No_method of (strategy * string) list

type attempt = Ok_outcome of outcome | Skip of string | Trip of Guard.trip

(* Guard assembly: all knobs off means the shared no-op guard, so the
   default configuration pays nothing at the poll sites. *)
let guard_of_config config =
  match
    ( config.deadline_s,
      config.heap_watermark_words,
      config.fault,
      config.max_ie_terms,
      config.max_plan_rows,
      config.parent_guard )
  with
  | None, None, None, None, None, None -> Guard.unlimited
  | _ ->
      let g =
        Guard.create ?parent:config.parent_guard ?deadline_s:config.deadline_s
          ?heap_watermark_words:config.heap_watermark_words ?fault:config.fault ()
      in
      Option.iter (fun n -> Guard.set_budget g "lifted.ie_terms" n) config.max_ie_terms;
      Option.iter (fun n -> Guard.set_budget g "plan.rows" n) config.max_plan_rows;
      g

(* [domains = 1] means no pool at all: every strategy takes the exact
   sequential path it always took, so single-domain behaviour (results,
   RNG streams, poll counts) is unchanged by the parallel runtime. *)
let pool_of_config config =
  if config.domains > 1 then Some (Par.create ~domains:config.domains ()) else None

let record_pool stats = function
  | None -> ()
  | Some p ->
      stats.Stats.domains_used <- Par.domains p;
      stats.Stats.par_tasks <- Par.tasks_run p

(* The artifact's lifted plan under this request's constants. A plan that
   fails at its root raises at once: no poll, no data read. *)
let try_lifted prepared stats guard pool db =
  let rule_stats = Lift.fresh_stats () in
  let { Prepare.artifact; binding } = prepared in
  match Lift.eval ~stats:rule_stats ~guard ?pool artifact.Prepare.lifted ~binding db with
  | p ->
      stats.Stats.lifted <- Some (Lift.obs_counts rule_stats);
      Ok_outcome (Exact p)
  | exception Lift.Unsafe msg -> Skip ("rules fail: " ^ msg)
  | exception Ucq.Unsupported msg -> Skip ("fragment: " ^ msg)

(* A materialised TID is symmetric (Sec. 8) when every relation lists all
   |DOM|^arity possible tuples at one shared probability. *)
let as_symmetric db =
  let n = Core.Tid.domain_size db in
  let expected_domain = List.init n (fun i -> Core.Value.Int i) in
  if n = 0 || not (List.equal Core.Value.equal (Core.Tid.domain db) expected_domain)
  then None
  else
    let rec complete acc = function
      | [] -> Some (List.rev acc)
      | rel :: rest -> (
          let arity = Core.Relation.arity rel in
          if arity < 1 || arity > 2 then None
          else
            let possible = int_of_float (Float.pow (float_of_int n) (float_of_int arity)) in
            if Core.Relation.cardinal rel <> possible then None
            else
              match
                List.sort_uniq compare (List.map snd (Core.Relation.rows rel))
              with
              | [ p ] -> complete ((Core.Relation.name rel, arity, p) :: acc) rest
              | _ -> None)
    in
    match complete [] (Core.Tid.relations db) with
    | Some rels -> ( try Some (Probdb_symmetric.Sym_db.make ~n rels) with Invalid_argument _ -> None)
    | None -> None

let try_symmetric guard db q =
  match as_symmetric db with
  | None -> Skip "database is not symmetric"
  | Some sym -> (
      match Probdb_symmetric.Wfomc.probability ~guard sym q with
      | p -> Ok_outcome (Exact p)
      | exception Probdb_symmetric.Wfomc.Unsupported msg -> Skip ("FO2 fragment: " ^ msg))

(* Structure comes from the prepared artifact: [Prepare.bind_ucq] and
   [Prepare.bind_plan] substitute the actual constants back into the
   template-level UCQ and plan. Data-dependent checks (standard
   probabilities, read-once-ness, guard trips) run here at execute time —
   only structure is prepared. *)

let monotone ucq = not (List.exists (List.exists (fun (a : Cq.atom) -> a.Cq.comp)) ucq)

(* The monotone DNF lineage that read-once factorisation and Karp–Luby
   work on, with the mode that maps its probability back to the query's;
   [Error] says why the query has none. *)
let dnf_lineage ~guard prepared ctx =
  match Prepare.bind_ucq prepared with
  | Error msg -> Error ("fragment: " ^ msg)
  | Ok (ucq, mode) -> (
      if not (monotone ucq) then
        Error "complemented atoms (lineage is not a monotone DNF)"
      else
        let ctx = Lazy.force ctx in
        Ok (ctx, Lineage.dnf_of_ucq ~guard ctx ucq, mode))

(* Whether the (ε,δ) fallback can sample the query at all: a monotone DNF
   lineage over standard probabilities. Binding constants never adds or
   removes a complemented atom, so the template UCQ answers the first
   half. *)
let samplable prepared db =
  (match prepared.Prepare.artifact.Prepare.ucq with
  | Ok (ucq, _) -> monotone ucq
  | Error _ -> false)
  && Core.Tid.is_standard db

(* What the grounded strategies share within one evaluation: one fact
   index, the monotone DNF (read-once, Karp–Luby and the fallback) and the
   full Boolean lineage (WMC, then OBDD). Each is built at most once, on
   first use, so answers from the cheaper tiers never pay for them. Both
   ground under the evaluation's guard; [Lazy.force] re-raises a trip to
   every later strategy, which records it as its own. *)
type grounded = {
  dnf : (Lineage.ctx * int list list * Ucq.mode, string) result Lazy.t;
  lineage : (Lineage.ctx * Probdb_boolean.Formula.t, string) result Lazy.t;
}

let grounding guard prepared db q =
  let ctx = lazy (Lineage.create db) in
  { dnf = lazy (dnf_lineage ~guard prepared ctx);
    lineage =
      lazy
        (Trace.with_span ~cat:"lineage" "lineage.ground" (fun () ->
             let ctx = Lazy.force ctx in
             match Lineage.of_query ~guard ctx q with
             | f -> Ok (ctx, f)
             | exception Invalid_argument msg -> Error msg)) }

let try_read_once guard grounded =
  match Lazy.force grounded.dnf with
  | Error reason -> Skip reason
  | Ok (ctx, clauses, mode) -> (
      match Probdb_kc.Read_once.probability ~guard (Lineage.prob ctx) clauses with
      | Some p -> Ok_outcome (Exact (Ucq.apply_mode mode p))
      | None -> Skip "lineage is not read-once")

let try_safe_plan prepared stats guard db =
  (* prepare already planned the template; binding the constants back in
     is the only Plan-phase work left *)
  match Stats.time_phase stats Stats.Plan (fun () -> Prepare.bind_plan prepared) with
  | Some plan ->
      let p, plan_counts, rows = Plan.boolean_prob_counting ~guard db plan in
      stats.Stats.plan <- Some plan_counts;
      stats.Stats.rows_processed <- stats.Stats.rows_processed + rows;
      Ok_outcome (Exact p)
  | None ->
      Skip
        (Option.value ~default:"no safe plan (non-hierarchical)"
           (Prepare.plan_skip prepared))

let try_obdd config stats guard grounded =
  match Lazy.force grounded.lineage with
  | Error msg -> Skip msg
  | Ok (ctx, f) -> (
      let manager =
        Obdd.manager ~max_nodes:config.obdd_max_nodes ~guard
          ~order:(Obdd.default_order f) ()
      in
      match Obdd.of_formula manager f with
      | bdd ->
          stats.Stats.circuit <- Some (Obdd.obs_counts bdd);
          Ok_outcome (Exact (Obdd.wmc manager (Lineage.prob ctx) bdd))
      | exception Obdd.Node_limit n ->
          (* solver-internal cap: same class of event as a guard budget *)
          Trip
            { Guard.resource = Guard.Work "obdd.nodes";
              site = "obdd.mk";
              limit = float_of_int n;
              spent = float_of_int n })

let try_wmc config stats guard grounded =
  match Lazy.force grounded.lineage with
  | Error msg -> Skip msg
  | Ok (ctx, f) -> (
      (* In the auto chain the clause-database counter only claims lineage
         it translates directly — universal (CNF-shaped) sentences — and
         leaves DNF lineage to OBDD, whose variable order fits it better.
         As the only configured strategy (--method wmc) it was explicitly
         requested, so anything else goes through Tseitin clausification. *)
      if config.strategies <> [ Wmc ] && Probdb_boolean.Formula.as_cnf f = None then
        Skip "lineage is not CNF-shaped (force with --method wmc)"
      else
        let wmc_config =
          { Wmc.default_config with Wmc.max_decisions = config.wmc_max_decisions }
        in
        match Wmc.count ~config:wmc_config ~guard ~prob:(Lineage.prob ctx) f with
        | r ->
            stats.Stats.wmc <- Some (Wmc.obs_counts r.Wmc.stats);
            stats.Stats.circuit <- Some (Probdb_kc.Circuit.obs_counts r.Wmc.circuit);
            stats.Stats.memo_hit_rate <-
              Stats.hit_rate ~hits:r.Wmc.stats.Wmc.cache_hits
                ~queries:r.Wmc.stats.Wmc.cache_queries;
            Ok_outcome (Exact r.Wmc.prob)
        | exception Wmc.Decision_limit n ->
            Trip
              { Guard.resource = Guard.Work "wmc.decisions";
                site = "wmc.decide";
                limit = float_of_int n;
                spent = float_of_int n })

let sample ?guard config pool ~samples ctx clauses =
  match pool with
  | Some pool ->
      Karp_luby.estimate_par ~seed:config.seed ?guard ~pool ~samples
        ~prob:(Lineage.prob ctx) clauses
  | None ->
      Karp_luby.estimate ~seed:config.seed ?guard ~samples ~prob:(Lineage.prob ctx)
        clauses

let try_karp_luby config guard pool grounded db =
  if not (Core.Tid.is_standard db) then Skip "non-standard probabilities"
  else
    match Lazy.force grounded.dnf with
    | Error reason -> Skip reason
    | Ok (ctx, clauses, mode) ->
        let est = sample ~guard config pool ~samples:config.kl_samples ctx clauses in
        let v = Ucq.apply_mode mode est.Karp_luby.mean in
        Ok_outcome (Approximate { value = v; std_error = est.Karp_luby.std_error })

(* [Brute_force.probability], polled once per world: up to 2^22 worlds at
   the default support cap take seconds, so the last exact strategy must
   stop at a deadline or cancellation like every other one. *)
let try_world_enum config guard db q =
  if Core.Tid.support_size db > config.max_enum_support then
    Skip
      (Printf.sprintf "support %d exceeds enumeration budget %d"
         (Core.Tid.support_size db) config.max_enum_support)
  else
    Ok_outcome
      (Exact
         (Core.Worlds.probability db (fun w ->
              Guard.poll guard ~site:"enum.world";
              Probdb_logic.Semantics.holds_in_tid db w q)))

let attempt prepared config stats guard pool grounded db q s =
  let run () =
    match s with
    | Lifted -> try_lifted prepared stats guard pool db
    | Symmetric -> try_symmetric guard db q
    | Safe_plan -> try_safe_plan prepared stats guard db
    | Read_once -> try_read_once guard grounded
    | Wmc -> try_wmc config stats guard grounded
    | Obdd -> try_obdd config stats guard grounded
    | Karp_luby -> try_karp_luby config guard pool grounded db
    | World_enum -> try_world_enum config guard db q
  in
  (* Every trial is a span on the trace timeline and a GC-delta region:
     the trace shows which strategy the time went to, the stats show which
     strategy the allocation went to. *)
  let run () =
    Stats.with_gc stats (fun () ->
        Trace.with_span ~cat:"strategy" (strategy_name s) run)
  in
  match run () with r -> r | exception Guard.Exhausted trip -> Trip trip

(* Prepare/execute is the only pipeline: every evaluation works from a
   [Prepare.bound] — the caller's, one resolved through [config.plan_cache],
   or, with no cache configured, one built through a shared capacity-0
   cache (the same pipeline, nothing retained). With a template plan,
   Safe_plan is promoted to the front of the strategy list — running the
   compiled columnar plan instead of re-deriving the answer by lifted
   recursion is the point of preparing. The promotion is a pure function of
   the artifact, so cold misses, warm hits and capacity-0 caches order the
   strategies identically and answers cannot drift with cache state. *)
let no_cache = Prepare.Cache.create ~capacity:0 ()

let acquire_prepared config stats prepared q =
  match prepared with
  | Some b -> b
  | None ->
      Prepare.Cache.of_query ~stats (Option.value config.plan_cache ~default:no_cache) q

let promote_safe_plan prepared strategies =
  if prepared.Prepare.artifact.Prepare.plan <> None && List.mem Safe_plan strategies
  then Safe_plan :: List.filter (fun s -> s <> Safe_plan) strategies
  else strategies

(* ---------- guaranteed-completion evaluation ---------- *)

(* The shortest deadline the fallback's grounding gets: a request whose
   queue wait used up its deadline still grounds a small lineage for its
   degraded answer instead of tripping at the first poll. *)
let min_fallback_deadline_s = 0.1

(* The (ε,δ) fallback: Karp–Luby on the monotone DNF lineage, with the
   sample count from the classical FPRAS bound capped at [max_samples].
   It grounds under a child of the evaluation's guard: cancellation and
   the fault hook reach it, and with a deadline configured it gets one of
   the same length (at least [min_fallback_deadline_s]) counted from its
   own start, so a lineage too large to ground in that time raises
   [Guard.Exhausted] instead of running on. Returns [None] when the query
   has no monotone DNF lineage to sample (complemented atoms,
   non-standard probabilities, outside the UCQ fragment). The fallback is
   the last consumer of the grounding: it reuses a DNF an exact strategy
   already built, and otherwise grounds one of its own. Forcing the shared
   one would keep the fact index and the clauses reachable, so promoted,
   through every sample; under load, where every request takes this path,
   that raised overload-window's peak RSS by 4–6 MiB. *)
let kl_fallback prepared config guard pool grounded ~eps ~delta ~max_samples db =
  if not (Core.Tid.is_standard db) then None
  else
    let dnf =
      if Lazy.is_val grounded.dnf then Lazy.force grounded.dnf
      else
        let deadline_s = Option.map (Float.max min_fallback_deadline_s) config.deadline_s in
        dnf_lineage
          ~guard:(Guard.create ~parent:guard ?deadline_s ?fault:config.fault ())
          prepared
          (lazy (Lineage.create db))
    in
    match dnf with
    | Error _ -> None
    | Ok (ctx, clauses, mode) ->
        let m = max 1 (List.length clauses) in
        let samples =
          min (Karp_luby.required_samples ~eps ~delta ~clauses:m) max_samples
        in
        let est = sample config pool ~samples ctx clauses in
        let lo, hi = Karp_luby.confidence_interval ~delta est in
        let v = Ucq.apply_mode mode est.Karp_luby.mean in
        let lo, hi =
          match mode with
          | Ucq.Direct -> (lo, hi)
          | Ucq.Complemented -> (1.0 -. hi, 1.0 -. lo)
        in
        Some
          ( v,
            est.Karp_luby.std_error,
            { Answer.ci_low = lo; ci_high = hi; eps; delta; samples } )

let eval ?(config = default_config) ?stats ?prepared db q =
  if not (Fo.is_sentence q) then
    invalid_arg "Engine.eval: open formula (use Engine.answers)";
  let stats = match stats with Some s -> s | None -> Stats.create () in
  if stats.Stats.query = None then
    stats.Stats.query <- Some (Format.asprintf "%a" Fo.pp q);
  Metrics.incr m_queries;
  echo_config stats config;
  let guard = guard_of_config config in
  let pool = pool_of_config config in
  let prepared = acquire_prepared config stats prepared q in
  let artifact = prepared.Prepare.artifact in
  (* The backpressure verdict (docs/SERVING.md "Overload semantics"): a
     forced evaluation skips exact inference only when its key's recorded
     chain cost is at least its fallback cost, and only when there is a
     fallback to go to. Otherwise it runs the normal chain. *)
  let under_load =
    config.force_degraded && Prepare.degrade_under_load artifact && samplable prepared db
  in
  let grounded = grounding guard prepared db q in
  (* With degradation on, Karp–Luby is reserved for the fallback so that
     [degraded = true] means exactly "no exact strategy completed". *)
  let strategies =
    match config.degrade with
    | Some _ -> List.filter (fun s -> s <> Karp_luby) config.strategies
    | None -> config.strategies
  in
  let strategies = promote_safe_plan prepared strategies in
  let finish_stats chain =
    stats.Stats.chain <- Answer.chain_to_stats chain;
    stats.Stats.skipped <-
      List.map (fun s -> (Answer.step_strategy s, Answer.step_detail s)) chain
  in
  let answer s ~value ~std_error ~confidence chain =
    finish_stats chain;
    record_pool stats pool;
    stats.Stats.strategy <- Some (strategy_name s);
    stats.Stats.probability <- Some value;
    stats.Stats.exact <- std_error = None;
    stats.Stats.std_error <- std_error;
    Metrics.incr (List.assoc s m_wins);
    Metrics.observe m_latency (Stats.total_s stats);
    Result.Ok
      { Answer.value;
        exact = std_error = None;
        strategy = strategy_name s;
        degraded = confidence <> None;
        under_load;
        confidence;
        chain;
        stats }
  in
  let fail chain =
    finish_stats chain;
    let tripped =
      List.find_map
        (function
          | Answer.Tripped { resource; site; detail; _ } -> Some (resource, site, detail)
          | Answer.Skipped _ -> None)
        chain
    in
    match tripped with
    | Some (resource, site, detail) -> Result.Error (Error.Exhausted { resource; site; detail })
    | None ->
        Result.Error
          (Error.No_method
             (List.map (fun s -> (Answer.step_strategy s, Answer.step_detail s)) chain))
  in
  (* Every answer updates its key's running costs: the chain's from its
     first strategy, the fallback's from its own start. *)
  let started = Clock.now () in
  let record_chain () = Prepare.record_cost artifact Prepare.Chain (Clock.now () -. started) in
  let degrade_or_fail chain =
    match config.degrade with
    | None -> fail chain
    | Some { eps; delta; max_samples } -> (
        let result, dt =
          Clock.time (fun () ->
              Stats.with_gc stats (fun () ->
                  Trace.with_span ~cat:"strategy" "karp-luby.fallback" (fun () ->
                      match
                        kl_fallback prepared config guard pool grounded ~eps ~delta
                          ~max_samples db
                      with
                      | r -> Ok r
                      | exception Guard.Exhausted trip -> Error trip)))
        in
        Stats.record_phase stats Stats.Solve dt;
        match result with
        | Error trip ->
            fail (chain @ [ Answer.step_of_trip ~strategy:(strategy_name Karp_luby) trip ])
        | Ok None -> fail chain
        | Ok (Some (value, std_error, confidence)) ->
            Prepare.record_cost artifact Prepare.Fallback dt;
            if not under_load then record_chain ();
            stats.Stats.degraded <- true;
            stats.Stats.ci_low <- Some confidence.Answer.ci_low;
            stats.Stats.ci_high <- Some confidence.Answer.ci_high;
            stats.Stats.samples <- Some confidence.Answer.samples;
            Metrics.incr m_degraded;
            answer Karp_luby ~value ~std_error:(Some std_error)
              ~confidence:(Some confidence) chain)
  in
  let rec go chain = function
    | [] -> degrade_or_fail (List.rev chain)
    | s :: rest when under_load ->
        (* backpressure degradation: no exact strategy runs, but each one
           is recorded as skipped so the degradation chain says why the
           answer is an (ε,δ) interval *)
        go
          (Answer.Skipped
             { strategy = strategy_name s;
               reason = "skipped: degraded under load (backpressure)" }
          :: chain)
          rest
    | s :: rest -> (
        (* [Plan.safe_plan] time lands in the Plan phase inside the attempt;
           subtract it so Classify/Solve only get what is really theirs. *)
        let plan_before = stats.Stats.plan_s in
        let result, dt =
          Clock.time (fun () -> attempt prepared config stats guard pool grounded db q s)
        in
        let dt = Float.max 0.0 (dt -. (stats.Stats.plan_s -. plan_before)) in
        match result with
        | Ok_outcome outcome ->
            Stats.record_phase stats Stats.Solve dt;
            record_chain ();
            let std_error =
              match outcome with
              | Exact _ -> None
              | Approximate { std_error; _ } -> Some std_error
            in
            answer s ~value:(value outcome) ~std_error ~confidence:None (List.rev chain)
        | Skip reason ->
            Stats.record_phase stats Stats.Classify dt;
            go (Answer.Skipped { strategy = strategy_name s; reason } :: chain) rest
        | Trip trip ->
            Stats.record_phase stats Stats.Classify dt;
            go (Answer.step_of_trip ~strategy:(strategy_name s) trip :: chain) rest)
  in
  go [] strategies

(* The report-shaped view of {!eval} with degradation off: a trip is one
   more reason a strategy was passed over, and running out of strategies
   raises. *)
let evaluate ?(config = default_config) ?stats ?prepared db q =
  let stats = match stats with Some s -> s | None -> Stats.create () in
  let config = { config with degrade = None; force_degraded = false } in
  let strategy name = Option.get (strategy_of_name name) in
  match eval ~config ~stats ?prepared db q with
  | Ok a ->
      { outcome =
          (match stats.Stats.std_error with
          | None -> Exact a.Answer.value
          | Some std_error -> Approximate { value = a.Answer.value; std_error });
        strategy = strategy a.Answer.strategy;
        skipped =
          List.map
            (fun s -> (strategy (Answer.step_strategy s), Answer.step_detail s))
            a.Answer.chain;
        stats }
  | Error _ ->
      raise (No_method (List.map (fun (s, m) -> (strategy s, m)) stats.Stats.skipped))

let probability ?config db q = value (evaluate ?config db q).outcome

let answers ?config ~free db q =
  let undeclared = List.filter (fun v -> not (List.mem v free)) (Fo.free_vars q) in
  if undeclared <> [] then
    invalid_arg
      (Printf.sprintf "Engine.answers: undeclared free variables %s"
         (String.concat ", " undeclared));
  Core.Tuple.all (List.length free) (Core.Tid.domain db)
  |> List.filter_map (fun binding ->
         let ground =
           List.fold_left2 (fun f x v -> Fo.subst_const x v f) q free binding
         in
         let report = evaluate ?config db ground in
         if value report.outcome > 0.0 then Some (binding, report) else None)
  |> List.sort (fun (a, _) (b, _) -> Core.Tuple.compare a b)

let expected_answer_count ?config ~free db q =
  List.fold_left
    (fun acc (_, report) -> acc +. value report.outcome)
    0.0
    (answers ?config ~free db q)

let pp_report ppf r =
  let pp_outcome ppf = function
    | Exact v -> Format.fprintf ppf "%.9g (exact)" v
    | Approximate { value; std_error } ->
        Format.fprintf ppf "%.9g (±%.2g at 95%%)" value (1.96 *. std_error)
  in
  Format.fprintf ppf "@[<v>%a via %s" pp_outcome r.outcome (strategy_name r.strategy);
  List.iter
    (fun (s, reason) -> Format.fprintf ppf "@   %s skipped: %s" (strategy_name s) reason)
    r.skipped;
  Format.fprintf ppf "@]"
