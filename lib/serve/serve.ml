module Core = Probdb_core
module Err = Probdb_core.Probdb_error
module L = Probdb_logic
module E = Probdb_engine.Engine
module Answer = Probdb_engine.Answer
module Prepare = Probdb_prepare.Prepare
module Guard = Probdb_guard.Guard
module Par = Probdb_par.Par
module Json = Probdb_obs.Json
module Stats = Probdb_obs.Stats
module Metrics = Probdb_obs.Metrics
module Trace = Probdb_obs.Trace
module Clock = Probdb_obs.Clock
module Window = Probdb_obs.Window
module Histogram = Probdb_obs.Histogram
module Request_id = Probdb_obs.Request_id
module Chaos = Probdb_chaos.Chaos

type config = {
  host : string;
  port : int;
  workers : int;
  queue_capacity : int;
  degrade_above : int;
  default_deadline_ms : int option;
  worker_stall_deadline_ms : int;
  engine : E.config;
  telemetry : bool;
  slow_query_ms : float option;
  slow_query_log : string option;
  openmetrics_port : int option;
  slo_p99_ms : float option;
  slo_availability : float option;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 7433;
    workers = 2;
    queue_capacity = 64;
    degrade_above = 48;
    default_deadline_ms = None;
    worker_stall_deadline_ms = 30_000;
    engine = E.default_config;
    telemetry = true;
    slow_query_ms = None;
    slow_query_log = None;
    openmetrics_port = None;
    slo_p99_ms = None;
    slo_availability = None;
  }

(* Process-wide metrics mirrored by every server instance (the per-server
   snapshot lives in [stats_json]); names documented in docs/STATS.md. *)
let m_connections = Metrics.counter "serve.connections"
let m_requests = Metrics.counter "serve.requests"
let m_shed = Metrics.counter "serve.shed"
let m_degraded_load = Metrics.counter "serve.degraded_under_load"
let m_queue_depth = Metrics.gauge "serve.queue_depth"
let m_latency = Metrics.histogram "serve.request_latency_s"
let m_queue_wait = Metrics.histogram "serve.queue_wait_s"
let m_worker_restarts = Metrics.counter "serve.worker_restarts"

(* One TCP connection. Responses from worker domains and from the reader
   thread interleave on the descriptor, hence the write lock; [pending]
   counts requests admitted but not yet answered, so EOF handling can wait
   for the last response to flush before closing — [echo req | client]
   must see its answer. Writes go straight to [fd] via
   {!Protocol.write_line_fd} (short-write-safe framing); [ic] wraps the
   same descriptor for the blocking read side. *)
type conn = {
  cid : int;
  fd : Unix.file_descr;
  ic : in_channel;
  wlock : Mutex.t;
  plock : Mutex.t;
  pdone : Condition.t;
  mutable pending : int;
  mutable closed : bool;
}

(* An admitted eval request, queued for the worker service. [j_enqueued_s]
   anchors the queue-wait measurement the admission deadline charges;
   [j_degrade_load] says the request was admitted past the degrade
   watermark (the engine's per-key verdict decides what that does).
   [j_done] is the reply token: the worker's answer and the watchdog's
   doom path race for it, and only the CAS winner sends — one response
   per request, however the race resolves. *)
type job = {
  j_conn : conn;
  j_id : Json.t;
  j_req : Protocol.eval_request;
  j_rid : string option;  (* correlation id: client-supplied or minted *)
  j_degrade_load : bool;
  j_enqueued_s : float;
  j_done : bool Atomic.t;
}

type state = Running | Stopping

(* The rolling-horizon side of the telemetry: windowed twins of the
   cumulative counters, read back at 10s/60s/300s horizons by
   [stats_json] and the OpenMetrics exposition. Cumulative counters stay
   the source of exactness; these answer "what is happening right now". *)
type windows = {
  w_latency : Window.histogram;
  w_queue_wait : Window.histogram;
  w_answered : Window.counter;  (* eval replies sent, any outcome *)
  w_ok : Window.counter;
  w_errors : Window.counter;
  w_degraded : Window.counter;  (* force-degraded under load *)
  w_shed : Window.counter;
  w_slow : Window.counter;  (* at/over the slow-query threshold *)
  w_slo_miss : Window.counter;  (* latency above the p99 objective *)
  w_cache_hits : Window.counter;
  w_cache_misses : Window.counter;
  w_restarts : Window.counter;
  w_strategies : (string, Window.counter) Hashtbl.t;  (* winning strategy *)
  w_strategies_lock : Mutex.t;
}

let make_windows () =
  {
    w_latency = Window.histogram ();
    w_queue_wait = Window.histogram ();
    w_answered = Window.counter ();
    w_ok = Window.counter ();
    w_errors = Window.counter ();
    w_degraded = Window.counter ();
    w_shed = Window.counter ();
    w_slow = Window.counter ();
    w_slo_miss = Window.counter ();
    w_cache_hits = Window.counter ();
    w_cache_misses = Window.counter ();
    w_restarts = Window.counter ();
    w_strategies = Hashtbl.create 8;
    w_strategies_lock = Mutex.create ();
  }

let strategy_counter w name =
  Mutex.protect w.w_strategies_lock (fun () ->
      match Hashtbl.find_opt w.w_strategies name with
      | Some c -> c
      | None ->
          let c = Window.counter () in
          Hashtbl.add w.w_strategies name c;
          c)

type t = {
  cfg : config;
  db : Core.Tid.t;
  listen_fd : Unix.file_descr;
  bound_port : int;
  guard : Guard.t;  (* parent of every request guard; [stop `Now] cancels *)
  plan_cache : Prepare.Cache.t;
      (* one compiled-plan cache shared by every worker domain: repeated
         query templates skip parse/classify/plan after the first request *)
  req_base : E.config;
      (* the request-invariant engine config, resolved once at [start]:
         server guard installed as parent, [domains = 1] (engine work must
         stay inside its worker domain), the shared plan cache. Per-request
         handling only overrides the fields the request actually sets. *)
  base_degrade : E.degrade;
      (* the degradation targets a request inherits when it sets none,
         resolved once from the engine config (falling back to the engine
         defaults) *)
  service : job Par.Service.t;
  state : state Atomic.t;
  started_s : float;
  started_unix_s : float;  (* wall-clock start, for operators *)
  windows : windows option;  (* None with [telemetry = false] *)
  slowlog : Slowlog.t option;
  mutable om_listener : Openmetrics.listener option;
  last_rid : string option Atomic.t;
  last_slow_rid : string option Atomic.t;
  conns : (int, conn) Hashtbl.t;
  conns_lock : Mutex.t;
  mutable accept_thread : Thread.t option;
  stop_lock : Mutex.t;
  mutable stopped : bool;
  signalled : bool Atomic.t;  (* set by the {!drain_on_signals} handler *)
  mutable saved_handlers : (int * Sys.signal_behavior) list;
  trace_lock : Mutex.t;  (* tracing is process-global: one capture at a time *)
  next_cid : int Atomic.t;
  c_accepted : int Atomic.t;
  c_requests : int Atomic.t;
  c_eval_ok : int Atomic.t;
  c_eval_error : int Atomic.t;
  c_shed : int Atomic.t;
  c_degraded_load : int Atomic.t;
}

(* ---------- connection plumbing ---------- *)

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

(* A write to a connection the client already abandoned is not worth
   anything ([EPIPE]/[ECONNRESET] included — SIGPIPE itself is ignored
   process-wide in [start]): swallow the error and let the reader thread
   observe EOF. *)
let send conn json =
  try with_lock conn.wlock (fun () -> Protocol.write_line_fd conn.fd json)
  with Sys_error _ | Unix.Unix_error _ -> ()

let pending_incr conn =
  with_lock conn.plock (fun () -> conn.pending <- conn.pending + 1)

let pending_decr conn =
  with_lock conn.plock (fun () ->
      conn.pending <- conn.pending - 1;
      if conn.pending <= 0 then Condition.broadcast conn.pdone)

let pending_wait conn =
  with_lock conn.plock (fun () ->
      while conn.pending > 0 do
        Condition.wait conn.pdone conn.plock
      done)

let close_conn t conn =
  let mine =
    with_lock conn.plock (fun () ->
        if conn.closed then false
        else begin
          conn.closed <- true;
          true
        end)
  in
  if mine then begin
    (try Unix.shutdown conn.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    (* writes are unbuffered (straight to the fd), so there is nothing to
       flush; close the descriptor exactly once — a second close could
       hit a descriptor number the accept loop already reused *)
    (try Unix.close conn.fd with Unix.Unix_error _ -> ());
    with_lock t.conns_lock (fun () -> Hashtbl.remove t.conns conn.cid)
  end

(* Exactly-once reply for a job: whoever wins the [j_done] CAS — the
   worker that evaluated it, the watchdog that doomed it, or the shutdown
   path that dropped it — sends the response and releases the pending
   slot; everyone else's response is discarded. Returns whether this
   caller won. The winner also feeds the windowed latency/SLO gauges, so
   every admitted request is counted exactly once however it ends. *)
let reply t job resp =
  if Atomic.compare_and_set job.j_done false true then begin
    (* telemetry first, wire second: a client that reads [stats] right
       after receiving its reply must already see this request in the
       rolling windows *)
    let latency_s = Clock.now () -. job.j_enqueued_s in
    Metrics.observe m_latency latency_s;
    (match t.windows with
    | None -> ()
    | Some w ->
        Window.observe w.w_latency latency_s;
        Window.incr w.w_answered;
        (match t.cfg.slo_p99_ms with
        | Some ms when latency_s > ms /. 1e3 -> Window.incr w.w_slo_miss
        | _ -> ()));
    (match job.j_rid with
    | Some _ as rid -> Atomic.set t.last_rid rid
    | None -> ());
    send job.j_conn resp;
    pending_decr job.j_conn;
    true
  end
  else false

(* ---------- request evaluation (worker domains) ---------- *)

(* The request-invariant part of every per-request engine config: parent
   guard, worker-domain confinement, the shared plan cache, and the
   resolved degradation defaults. Built once at [start]; the per-request
   path ([config_of_request]) only layers the request's own overrides on
   top, instead of re-deriving all of this for every request. *)
let engine_base_of config ~guard ~plan_cache =
  let base =
    { config.engine with
      E.parent_guard = Some guard;
      plan_cache = Some plan_cache;
      (* engine work must stay inside this worker domain *)
      domains = 1 }
  in
  let base_degrade =
    match base.E.degrade with
    | Some d -> d
    | None -> (
        match E.default_config.E.degrade with
        | Some d -> d
        | None -> { E.eps = 0.1; delta = 0.05; max_samples = 20_000 })
  in
  (base, base_degrade)

(* Per-request engine configuration: the hoisted base ([t.req_base]),
   overridden field by field from the request, run under a child of the
   server guard. Raises [Protocol.Bad] on an unknown method name. *)
let config_of_request t ~(remaining_s : float option)
    (r : Protocol.eval_request) ~degrade_load =
  let base = t.req_base in
  let base =
    match r.Protocol.meth with
    | None | Some "auto" -> base
    | Some name -> (
        match E.strategy_of_name name with
        | Some s -> { base with E.strategies = [ s ] }
        | None -> Protocol.bad "unknown method %S" name)
  in
  let base =
    match (r.Protocol.samples, r.Protocol.seed) with
    | None, None -> base
    | _ ->
        { base with
          E.kl_samples =
            Option.value r.Protocol.samples ~default:base.E.kl_samples;
          seed = Option.value r.Protocol.seed ~default:base.E.seed }
  in
  let degrade =
    if r.Protocol.no_degrade || r.Protocol.meth = Some "karp-luby" then None
    else
      match (r.Protocol.eps, r.Protocol.delta, r.Protocol.samples) with
      | None, None, None -> Some t.base_degrade
      | _ ->
          let d = t.base_degrade in
          Some
            { E.eps = Option.value r.Protocol.eps ~default:d.E.eps;
              delta = Option.value r.Protocol.delta ~default:d.E.delta;
              max_samples =
                Option.value r.Protocol.samples ~default:d.E.max_samples }
  in
  let config = { base with E.deadline_s = remaining_s; degrade } in
  (* [no_degrade] requests are exempt from backpressure degradation:
     [force_degrade] would reinstall the default accuracy targets over
     [degrade = None] and silently break the exactness contract *)
  if degrade_load && not r.Protocol.no_degrade then E.force_degrade config
  else config

let confidence_json (c : Answer.confidence) =
  Json.Obj
    [
      ("ci_low", Json.Float c.Answer.ci_low);
      ("ci_high", Json.Float c.Answer.ci_high);
      ("eps", Json.Float c.Answer.eps);
      ("delta", Json.Float c.Answer.delta);
      ("samples", Json.Int c.Answer.samples);
    ]

let chain_json steps =
  Json.List
    (List.map
       (fun s ->
         Json.Obj
           [
             ("strategy", Json.Str (Answer.step_strategy s));
             ("kind", Json.Str (Answer.step_kind s));
             ("detail", Json.Str (Answer.step_detail s));
           ])
       steps)

let answer_json ~want_stats (a : Answer.t) =
  Json.Obj
    ([
       ("value", Json.Float a.Answer.value);
       ("exact", Json.Bool a.Answer.exact);
       ("strategy", Json.Str a.Answer.strategy);
       ("degraded", Json.Bool a.Answer.degraded);
       ("degraded_under_load", Json.Bool a.Answer.under_load);
     ]
    @ (match a.Answer.confidence with
      | Some c -> [ ("confidence", confidence_json c) ]
      | None -> [])
    @ [ ("chain", chain_json a.Answer.chain) ]
    @ if want_stats then [ ("stats", Stats.to_json a.Answer.stats) ] else [])

let report_json (r : E.report) =
  Json.Obj
    [
      ("value", Json.Float (E.value r.E.outcome));
      ( "exact",
        Json.Bool
          (match r.E.outcome with E.Exact _ -> true | E.Approximate _ -> false)
      );
      ("strategy", Json.Str (E.strategy_name r.E.strategy));
    ]

(* Exceptions escaping [E.answers] (which has no [eval]-style typed
   wrapper) and anything else unexpected, folded into the typed channel. *)
let typed_error = function
  | Err.Error e -> Protocol.Engine e
  | E.No_method chain ->
      Protocol.Engine
        (Err.No_method (List.map (fun (s, m) -> (E.strategy_name s, m)) chain))
  | Guard.Exhausted trip ->
      Protocol.Engine
        (Err.Exhausted
           {
             resource = Guard.resource_name trip.Guard.resource;
             site = trip.Guard.site;
             detail = Guard.describe trip;
           })
  | Protocol.Bad m -> Protocol.Bad_request m
  | exn -> Protocol.Internal (Printexc.to_string exn)

(* The deadline the evaluation still has: what the request asked for (or
   the server default) minus the time already spent queued. A request that
   spent its whole budget waiting gets a hair's breadth of deadline, so
   the guard trips at the first poll and the degradation path answers —
   the overloaded-server contract (degrade, don't drop). *)
let remaining_deadline t (r : Protocol.eval_request) ~queue_wait_s =
  match
    (r.Protocol.deadline_ms, t.cfg.default_deadline_ms, t.cfg.engine.E.deadline_s)
  with
  | Some ms, _, _ | None, Some ms, _ ->
      Some (Float.max 1e-4 ((float_of_int ms /. 1000.0) -. queue_wait_s))
  | None, None, base -> base

let engine_base t = t.req_base
let plan_cache t = t.plan_cache

let request_engine_config ?(degrade_load = false) t (r : Protocol.eval_request) =
  let remaining_s = remaining_deadline t r ~queue_wait_s:0.0 in
  config_of_request t ~remaining_s r ~degrade_load

(* The result document and whether the forced fallback answered it — the
   one place the worker learns a request was degraded under load. *)
let eval_result_json t job ~config ~stats ?prepared q =
  let r = job.j_req in
  match r.Protocol.free with
  | [] -> (
      match E.eval ~config ~stats ?prepared t.db q with
      | Ok a ->
          Ok (answer_json ~want_stats:r.Protocol.want_stats a, a.Answer.under_load)
      | Error e -> Error (Protocol.Engine e))
  | free -> (
      match E.answers ~config ~free t.db q with
      | answers ->
          Ok
            (Json.Obj
               [
                 ( "bindings",
                   Json.List
                     (List.map
                        (fun (binding, rep) ->
                          Json.Obj
                            [
                              ( "binding",
                                Json.List
                                  (List.map
                                     (fun v -> Json.Str (Core.Value.to_string v))
                                     binding) );
                              ("answer", report_json rep);
                            ])
                        answers) );
               ],
              false )
      | exception exn -> Error (typed_error exn))

(* One slow-query NDJSON record: everything needed to replay and explain
   the request, keyed by its correlation id. Schema documented in
   docs/SERVING.md (Monitoring). *)
let slow_record job ~latency_s ~queue_wait_s ~(stats : Stats.t) ~verdict =
  let opt_str = function None -> Json.Null | Some s -> Json.Str s in
  Json.Obj
    [
      ("ts_unix_s", Json.Float (Unix.gettimeofday ()));
      ("request_id", opt_str job.j_rid);
      ("query", Json.Str job.j_req.Protocol.query);
      ("verdict", Json.Str verdict);
      ("latency_s", Json.Float latency_s);
      ("queue_wait_s", Json.Float queue_wait_s);
      ("strategy", opt_str stats.Stats.strategy);
      ("exact", Json.Bool stats.Stats.exact);
      ("degraded", Json.Bool stats.Stats.degraded);
      ( "prepared_key",
        match stats.Stats.prepare with
        | Some p -> Json.Str p.Stats.prep_key
        | None -> Json.Null );
      ( "cache_hit",
        match stats.Stats.prepare with
        | Some p -> Json.Bool p.Stats.prep_hit
        | None -> Json.Null );
      ( "bytes_mapped",
        match stats.Stats.storage with
        | Some s -> Json.Int s.Stats.st_bytes_mapped
        | None -> Json.Null );
      ( "phases",
        Json.Obj
          [
            ("parse_s", Json.Float stats.Stats.parse_s);
            ("prepare_s", Json.Float stats.Stats.prepare_s);
            ("classify_s", Json.Float stats.Stats.classify_s);
            ("plan_s", Json.Float stats.Stats.plan_s);
            ("solve_s", Json.Float stats.Stats.solve_s);
          ] );
      ( "chain",
        Json.List
          (List.map
             (fun (s, kind, detail) ->
               Json.Obj
                 [
                   ("strategy", Json.Str s);
                   ("kind", Json.Str kind);
                   ("detail", Json.Str detail);
                 ])
             stats.Stats.chain) );
    ]

(* Post-reply bookkeeping for an answered eval: windowed outcome
   counters, the slow-query log, and the terminal trace instant. Only the
   reply winner calls this — a worker that lost the race to the watchdog
   must not double-count its late result. *)
let record_outcome t job ~stats ~degraded_load ~queue_wait_s ~verdict ~ok =
  let latency_s = Clock.now () -. job.j_enqueued_s in
  if degraded_load then begin
    Atomic.incr t.c_degraded_load;
    Metrics.incr m_degraded_load
  end;
  (match t.windows with
  | None -> ()
  | Some w ->
      if ok then Window.incr w.w_ok else Window.incr w.w_errors;
      if degraded_load then Window.incr w.w_degraded;
      (match stats.Stats.strategy with
      | Some s -> Window.incr (strategy_counter w s)
      | None -> ());
      (match stats.Stats.prepare with
      | Some p ->
          Window.incr
            (if p.Stats.prep_hit then w.w_cache_hits else w.w_cache_misses)
      | None -> ()));
  (match t.slowlog with
  | Some sl when Slowlog.should_log sl ~latency_s ->
      (match t.windows with Some w -> Window.incr w.w_slow | None -> ());
      (match job.j_rid with
      | Some _ as rid -> Atomic.set t.last_slow_rid rid
      | None -> ());
      Slowlog.log sl (slow_record job ~latency_s ~queue_wait_s ~stats ~verdict)
  | _ -> ());
  match job.j_rid with
  | Some rid -> Trace.instant ~cat:"request" ("req:" ^ rid ^ ":" ^ verdict)
  | None -> ()

let run_job t job =
  let r = job.j_req in
  let queue_wait_s = Clock.now () -. job.j_enqueued_s in
  Metrics.observe m_queue_wait queue_wait_s;
  (match t.windows with
  | Some w -> Window.observe w.w_queue_wait queue_wait_s
  | None -> ());
  Metrics.set m_queue_depth (float_of_int (Par.Service.depth t.service));
  let stats = Stats.create () in
  stats.Stats.query <- Some r.Protocol.query;
  stats.Stats.request_id <- job.j_rid;
  let result =
    try
      let remaining_s = remaining_deadline t r ~queue_wait_s in
      let config =
        config_of_request t ~remaining_s r ~degrade_load:job.j_degrade_load
      in
      (* the shared text index skips the parser on repeated request texts
         and hands back the prepared binding in the same lookup, so warm
         requests go straight to execution *)
      match
        Prepare.Cache.resolve_text ~stats t.plan_cache ~free:r.Protocol.free
          r.Protocol.query
      with
      | exception L.Parser.Error msg ->
          Error (Protocol.Engine (Err.Parse { message = msg }))
      | q, prepared -> eval_result_json t job ~config ~stats ?prepared q
    with exn -> Error (typed_error exn)
  in
  match result with
  | Ok (doc, degraded_load) ->
      if reply t job (Protocol.response_ok ?request_id:job.j_rid ~id:job.j_id doc)
      then begin
        Atomic.incr t.c_eval_ok;
        record_outcome t job ~stats ~degraded_load ~queue_wait_s ~verdict:"ok"
          ~ok:true
      end
  | Error err ->
      if
        reply t job
          (Protocol.response_error ?request_id:job.j_rid ~id:job.j_id err)
      then begin
        Atomic.incr t.c_eval_error;
        record_outcome t job ~stats ~degraded_load:false ~queue_wait_s
          ~verdict:(Protocol.error_class err) ~ok:false
      end

(* ---------- control operations (reader threads) ---------- *)

let uptime_s t = Clock.now () -. t.started_s

(* One rolling-horizon snapshot: quantiles from the merged latency
   window, rates against the eval replies sent inside the horizon. The
   denominator is [w_answered] — every admitted eval ends in exactly one
   reply (ok, error, shed, doomed), so the rates partition it. *)
let horizon_json t w ~horizon_s =
  let lat = Window.snapshot w.w_latency ~horizon_s in
  let answered = Window.total w.w_answered ~horizon_s in
  let errors = Window.total w.w_errors ~horizon_s in
  let shed = Window.total w.w_shed ~horizon_s in
  let rate num den =
    if den = 0 then Json.Null else Json.Float (float_of_int num /. float_of_int den)
  in
  let q p =
    if Histogram.count lat = 0 then Json.Null
    else Json.Float (Histogram.quantile lat p)
  in
  let hits = Window.total w.w_cache_hits ~horizon_s in
  let misses = Window.total w.w_cache_misses ~horizon_s in
  let slo =
    let avail_burn =
      match t.cfg.slo_availability with
      | Some a when a < 1.0 && answered > 0 ->
          let failure_rate =
            float_of_int (errors + shed) /. float_of_int answered
          in
          Some (failure_rate /. (1.0 -. a))
      | _ -> None
    in
    let p99_burn =
      match t.cfg.slo_p99_ms with
      | Some _ when answered > 0 ->
          (* the objective tolerates 1% of requests over the p99 target:
             burn 1.0 = spending that budget exactly *)
          let miss_rate =
            float_of_int (Window.total w.w_slo_miss ~horizon_s)
            /. float_of_int answered
          in
          Some (miss_rate /. 0.01)
      | _ -> None
    in
    match (avail_burn, p99_burn) with
    | None, None -> []
    | _ ->
        [
          ( "slo",
            Json.Obj
              ((match p99_burn with
               | Some b -> [ ("p99_burn_rate", Json.Float b) ]
               | None -> [])
              @
              match avail_burn with
              | Some b -> [ ("availability_burn_rate", Json.Float b) ]
              | None -> []) );
        ]
  in
  let strategies =
    let rows =
      Mutex.protect w.w_strategies_lock (fun () ->
          Hashtbl.fold (fun name c acc -> (name, c) :: acc) w.w_strategies [])
    in
    rows
    |> List.filter_map (fun (name, c) ->
           match Window.total c ~horizon_s with
           | 0 -> None
           | n -> Some (name, Json.Int n))
    |> List.sort compare
  in
  Json.Obj
    ([
       ("qps", Json.Float (Window.rate w.w_answered ~horizon_s));
       ("answered", Json.Int answered);
       ("p50_s", q 0.5);
       ("p90_s", q 0.9);
       ("p99_s", q 0.99);
       ("error_rate", rate errors answered);
       ("shed_rate", rate shed answered);
       ("degraded_rate", rate (Window.total w.w_degraded ~horizon_s) answered);
       ("cache_hit_rate", rate hits (hits + misses));
       ("slow", Json.Int (Window.total w.w_slow ~horizon_s));
       ("worker_restarts", Json.Int (Window.total w.w_restarts ~horizon_s));
       ("strategies", Json.Obj strategies);
     ]
    @ slo)

let window_json t =
  match t.windows with
  | None -> Json.Null
  | Some w ->
      Json.Obj
        [
          ("10s", horizon_json t w ~horizon_s:10.0);
          ("60s", horizon_json t w ~horizon_s:60.0);
          ("300s", horizon_json t w ~horizon_s:300.0);
        ]

let stats_json t =
  Json.Obj
    [
      ("uptime_s", Json.Float (uptime_s t));
      ("started_unix_s", Json.Float t.started_unix_s);
      ("workers", Json.Int (Par.Service.domains t.service));
      ("queue_capacity", Json.Int (Par.Service.capacity t.service));
      ("queue_depth", Json.Int (Par.Service.depth t.service));
      ("degrade_above", Json.Int t.cfg.degrade_above);
      ("in_flight", Json.Int (Par.Service.in_flight t.service));
      ("connections_accepted", Json.Int (Atomic.get t.c_accepted));
      ( "connections_active",
        Json.Int (with_lock t.conns_lock (fun () -> Hashtbl.length t.conns)) );
      ("requests", Json.Int (Atomic.get t.c_requests));
      ("eval_ok", Json.Int (Atomic.get t.c_eval_ok));
      ("eval_error", Json.Int (Atomic.get t.c_eval_error));
      ("shed", Json.Int (Atomic.get t.c_shed));
      ("degraded_under_load", Json.Int (Atomic.get t.c_degraded_load));
      ("worker_failures", Json.Int (Par.Service.failures t.service));
      ("worker_restarts", Json.Int (Par.Service.restarts t.service));
      ( "prepare_cache",
        let k = Prepare.Cache.counters t.plan_cache in
        Json.Obj
          [
            ("capacity", Json.Int (Prepare.Cache.capacity t.plan_cache));
            ("hits", Json.Int k.Prepare.Cache.hits);
            ("misses", Json.Int k.Prepare.Cache.misses);
            ("evictions", Json.Int k.Prepare.Cache.evictions);
            ("entries", Json.Int k.Prepare.Cache.entries);
            ( "hit_rate",
              match
                Stats.hit_rate ~hits:k.Prepare.Cache.hits
                  ~queries:(k.Prepare.Cache.hits + k.Prepare.Cache.misses)
              with
              | Some r -> Json.Float r
              | None -> Json.Null );
          ] );
      ("window", window_json t);
      ( "chaos",
        if not (Chaos.armed ()) then Json.Null
        else
          Json.Obj
            ([
               ( "spec",
                 match Chaos.spec () with
                 | Some sp -> Json.Str (Chaos.render_spec sp)
                 | None -> Json.Null );
               ("injections", Json.Int (Chaos.injections ()));
             ]
            @
            match Chaos.sites () with
            | Some sites ->
                [ ("sites", Json.List (List.map (fun s -> Json.Str s) sites)) ]
            | None -> []) );
      ( "slow_query",
        match t.slowlog with
        | None -> Json.Null
        | Some sl ->
            Json.Obj
              [
                ("threshold_ms", Json.Float (Slowlog.threshold_s sl *. 1e3));
                ("logged", Json.Int (Slowlog.logged sl));
                ( "last_request_id",
                  match Atomic.get t.last_slow_rid with
                  | Some rid -> Json.Str rid
                  | None -> Json.Null );
              ] );
    ]

(* The OpenMetrics exposition: the process-wide registry snapshot plus
   this server's cumulative counters and rolling 60s gauges, and info
   metrics carrying the most recent request ids so a scrape can be
   joined against the trace and the slow-query log. *)
let openmetrics_text t =
  let registry = Openmetrics.of_metrics_json (Metrics.to_json ()) in
  let serve =
    [
      Openmetrics.Gauge ("probdb_serve_uptime_seconds", uptime_s t);
      Openmetrics.Gauge ("probdb_serve_started_unix_seconds", t.started_unix_s);
      Openmetrics.Counter
        ("probdb_serve_requests", float_of_int (Atomic.get t.c_requests));
      Openmetrics.Counter
        ("probdb_serve_eval_ok", float_of_int (Atomic.get t.c_eval_ok));
      Openmetrics.Counter
        ("probdb_serve_eval_error", float_of_int (Atomic.get t.c_eval_error));
      Openmetrics.Counter
        ("probdb_serve_shed", float_of_int (Atomic.get t.c_shed));
      Openmetrics.Counter
        ( "probdb_serve_degraded_under_load",
          float_of_int (Atomic.get t.c_degraded_load) );
      Openmetrics.Gauge
        ( "probdb_serve_queue_depth",
          float_of_int (Par.Service.depth t.service) );
    ]
  in
  let windowed =
    match t.windows with
    | None -> []
    | Some w ->
        let h = 60.0 in
        let lat = Window.snapshot w.w_latency ~horizon_s:h in
        let answered = Window.total w.w_answered ~horizon_s:h in
        let g name v = Openmetrics.Gauge ("probdb_serve_1m_" ^ name, v) in
        let q p =
          if Histogram.count lat = 0 then []
          else [ g (Printf.sprintf "p%.0f_seconds" (p *. 100.0)) (Histogram.quantile lat p) ]
        in
        [ g "qps" (Window.rate w.w_answered ~horizon_s:h) ]
        @ q 0.5 @ q 0.9 @ q 0.99
        @ (if answered = 0 then []
           else
             let frac c =
               float_of_int (Window.total c ~horizon_s:h)
               /. float_of_int answered
             in
             [
               g "error_rate" (frac w.w_errors);
               g "shed_rate" (frac w.w_shed);
               g "degraded_rate" (frac w.w_degraded);
             ])
  in
  let rids =
    (match Atomic.get t.last_rid with
    | Some rid ->
        [ Openmetrics.Info ("probdb_last_request", [ ("request_id", rid) ]) ]
    | None -> [])
    @
    match Atomic.get t.last_slow_rid with
    | Some rid ->
        [ Openmetrics.Info ("probdb_last_slow_request", [ ("request_id", rid) ]) ]
    | None -> []
  in
  Openmetrics.render (registry @ serve @ windowed @ rids)

let capture_trace t ~ms =
  with_lock t.trace_lock (fun () ->
      Trace.enable ();
      Fun.protect ~finally:Trace.disable (fun () ->
          Thread.delay (float_of_int ms /. 1000.0));
      let doc = Trace.to_chrome_json () in
      Trace.clear ();
      doc)

(* ---------- admission control ---------- *)

let submit_eval t conn ~id (r : Protocol.eval_request) =
  (* Past the watermark the request is served with [force_degrade]: the
     engine answers it with the bounded-cost certified (ε,δ) fallback
     where its key's cost record says that is cheaper than exact work
     (docs/SERVING.md "Overload semantics"). *)
  let degrade_load =
    t.cfg.degrade_above > 0 && Par.Service.depth t.service >= t.cfg.degrade_above
  in
  (* Correlation id: honour the client's, mint one otherwise. Telemetry
     off ([--no-telemetry], the overhead-bench baseline) skips minting but
     still propagates a client-supplied id. *)
  let rid =
    match r.Protocol.request_id with
    | Some _ as rid -> rid
    | None -> if t.cfg.telemetry then Some (Request_id.mint ()) else None
  in
  pending_incr conn;
  let job =
    {
      j_conn = conn;
      j_id = id;
      j_req = r;
      j_rid = rid;
      j_degrade_load = degrade_load;
      j_enqueued_s = Clock.now ();
      j_done = Atomic.make false;
    }
  in
  (match rid with
  | Some rid -> Trace.instant ~cat:"request" ("req:" ^ rid ^ ":admitted")
  | None -> ());
  match Par.Service.try_submit t.service job with
  | `Accepted depth -> Metrics.set m_queue_depth (float_of_int depth)
  | `Overloaded ->
      Atomic.incr t.c_shed;
      Metrics.incr m_shed;
      (match t.windows with Some w -> Window.incr w.w_shed | None -> ());
      (match rid with
      | Some rid -> Trace.instant ~cat:"request" ("req:" ^ rid ^ ":shed")
      | None -> ());
      ignore
        (reply t job
           (Protocol.response_error ?request_id:rid ~id
              (Protocol.Overloaded
                 {
                   depth = Par.Service.depth t.service;
                   capacity = Par.Service.capacity t.service;
                 })))
  | `Closed ->
      ignore
        (reply t job
           (Protocol.response_error ?request_id:rid ~id Protocol.Shutting_down))

(* ---------- lifecycle (mutually recursive with request handling:
   the [shutdown] op stops the server that is handling it) ---------- *)

let rec handle_request t conn line =
  match Protocol.parse line with
  | Error (id, msg) ->
      send conn (Protocol.response_error ~id (Protocol.Bad_request msg))
  | Ok { Protocol.id; op } -> (
      Atomic.incr t.c_requests;
      Metrics.incr m_requests;
      match op with
      | Protocol.Ping ->
          send conn
            (Protocol.response_ok ~id (Json.Obj [ ("pong", Json.Bool true) ]))
      | Protocol.Stats -> send conn (Protocol.response_ok ~id (stats_json t))
      | Protocol.Metrics { openmetrics = false } ->
          send conn (Protocol.response_ok ~id (Metrics.to_json ()))
      | Protocol.Metrics { openmetrics = true } ->
          send conn
            (Protocol.response_ok ~id
               (Json.Obj [ ("openmetrics", Json.Str (openmetrics_text t)) ]))
      | Protocol.Trace { ms } ->
          send conn (Protocol.response_ok ~id (capture_trace t ~ms))
      | Protocol.Shutdown { drain } ->
          send conn
            (Protocol.response_ok ~id
               (Json.Obj
                  [ ("stopping", Json.Str (if drain then "drain" else "now")) ]));
          (* stop from a fresh thread: [stop] joins reader threads and
             workers, including the ones serving this very request *)
          ignore
            (Thread.create
               (fun mode -> try stop_ ~mode t with _ -> ())
               (if drain then `Drain else `Now))
      | Protocol.Eval r ->
          if Atomic.get t.state <> Running then
            send conn (Protocol.response_error ~id Protocol.Shutting_down)
          else submit_eval t conn ~id r)

and reader t conn =
  let rec loop () =
    match
      (* chaos site: the read syscall reporting a peer reset — handled
         exactly like EOF, the connection is torn down cleanly *)
      if Chaos.fire ~site:"serve.read" then
        raise (Unix.Unix_error (Unix.ECONNRESET, "read", ""))
      else input_line conn.ic
    with
    | line ->
        (if String.trim line <> "" then
           try handle_request t conn line
           with exn ->
             (* a request that blew past every typed channel (e.g.
                Stack_overflow on pathological input) must not kill the
                reader: answer [internal] and keep reading *)
             send conn
               (Protocol.response_error ~id:Json.Null
                  (Protocol.Internal (Printexc.to_string exn))));
        loop ()
    | exception (End_of_file | Sys_error _ | Unix.Unix_error _) -> ()
  in
  (* the connection is unregistered and its fd closed no matter how the
     loop ends; in-flight responses flush first *)
  Fun.protect
    ~finally:(fun () ->
      pending_wait conn;
      close_conn t conn)
    loop

and accept_loop ?(backoff_s = 0.001) t =
  if Atomic.get t.state <> Running then ()
  else
    (* chaos site: a transient accept failure (fd exhaustion, an
       interrupted syscall) raised before the real accept so no actual
       connection is consumed by the injection *)
    match
      if Chaos.fire ~site:"serve.accept" then
        raise (Unix.Unix_error (Unix.EMFILE, "accept", ""))
      else Unix.accept t.listen_fd
    with
    | fd, _addr when Atomic.get t.state <> Running ->
        (* the wake-up knock from [stop_], or a client racing the stop *)
        (try Unix.close fd with Unix.Unix_error _ -> ())
    | fd, _addr ->
        Atomic.incr t.c_accepted;
        Metrics.incr m_connections;
        let conn =
          {
            cid = Atomic.fetch_and_add t.next_cid 1;
            fd;
            ic = Unix.in_channel_of_descr fd;
            wlock = Mutex.create ();
            plock = Mutex.create ();
            pdone = Condition.create ();
            pending = 0;
            closed = false;
          }
        in
        with_lock t.conns_lock (fun () -> Hashtbl.replace t.conns conn.cid conn);
        ignore (Thread.create (fun () -> reader t conn) ());
        accept_loop t
    | exception
        Unix.Unix_error
          ( (Unix.EMFILE | Unix.ENFILE | Unix.EINTR | Unix.ECONNABORTED),
            _,
            _ )
      when Atomic.get t.state = Running ->
        (* transient errno: back off (1ms doubling to a 100ms cap, reset
           by the next successful accept) and keep serving — fd
           exhaustion and interrupted syscalls must not kill the server *)
        Thread.delay backoff_s;
        accept_loop ~backoff_s:(Float.min 0.1 (backoff_s *. 2.0)) t
    | exception Unix.Unix_error _ ->
        (* the listening socket was closed by [stop], or accept failed
           terminally; either way the accept loop is done *)
        ()

and stop_ ~mode t =
  with_lock t.stop_lock @@ fun () ->
  if not t.stopped then begin
    Atomic.set t.state Stopping;
    (* Waking a thread blocked in [accept] is the subtle part: closing the
       fd does not interrupt it on Linux. [shutdown] wakes it on most
       systems; the loopback knock covers the rest — the accept loop sees
       [Stopping] and exits either way. *)
    (try Unix.shutdown t.listen_fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    (try
       let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
       Fun.protect
         ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
         (fun () ->
           try
             Unix.connect fd
               (Unix.ADDR_INET
                  (Unix.inet_addr_of_string t.cfg.host, t.bound_port))
           with Unix.Unix_error _ -> ())
     with Unix.Unix_error _ | Failure _ -> ());
    (match t.accept_thread with Some th -> Thread.join th | None -> ());
    t.accept_thread <- None;
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    (match mode with `Now -> Guard.cancel t.guard | `Drain -> ());
    let dropped =
      Par.Service.shutdown
        ~drain:(match mode with `Drain -> true | `Now -> false)
        t.service
    in
    List.iter
      (fun job ->
        ignore
          (reply t job
             (Protocol.response_error ?request_id:job.j_rid ~id:job.j_id
                Protocol.Shutting_down)))
      dropped;
    let conns =
      with_lock t.conns_lock (fun () ->
          Hashtbl.fold (fun _ c acc -> c :: acc) t.conns [])
    in
    List.iter (fun c -> close_conn t c) conns;
    (match t.om_listener with
    | Some l ->
        Openmetrics.stop l;
        t.om_listener <- None
    | None -> ());
    (match t.slowlog with Some sl -> Slowlog.close sl | None -> ());
    t.stopped <- true
  end

let stop ?(mode = `Drain) t = stop_ ~mode t

(* A signal handler runs at an arbitrary poll point of an arbitrary
   thread, possibly one holding a lock the stop needs. So the handler only
   records the signal; the thread blocked in [wait] runs the drain. *)
let drain_on_signals t =
  match t.saved_handlers with
  | _ :: _ -> ()  (* already installed *)
  | [] ->
      let handler = Sys.Signal_handle (fun _ -> Atomic.set t.signalled true) in
      let install signal =
        match Sys.signal signal handler with
        | previous -> Some (signal, previous)
        | exception (Invalid_argument _ | Sys_error _) -> None
      in
      t.saved_handlers <- List.filter_map install [ Sys.sigint; Sys.sigterm ]

let wait t =
  let rec loop () =
    if Atomic.get t.signalled then stop_ ~mode:`Drain t;
    let stopped = with_lock t.stop_lock (fun () -> t.stopped) in
    if not stopped then begin
      Thread.delay 0.05;
      loop ()
    end
  in
  loop ();
  List.iter (fun (signal, previous) -> Sys.set_signal signal previous)
    t.saved_handlers;
  t.saved_handlers <- []

let start ?(config = default_config) db =
  (* never die on a client that went away mid-write *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let listen_fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
  let addr =
    try Unix.inet_addr_of_string config.host
    with Failure _ ->
      (try Unix.close listen_fd with Unix.Unix_error _ -> ());
      Err.raise_ (Err.Io { path = config.host; message = "not an IP address" })
  in
  (match Unix.bind listen_fd (Unix.ADDR_INET (addr, config.port)) with
  | () -> ()
  | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close listen_fd with Unix.Unix_error _ -> ());
      Err.raise_
        (Err.Io
           {
             path = Printf.sprintf "%s:%d" config.host config.port;
             message = Unix.error_message e;
           }));
  Unix.listen listen_fd 64;
  let bound_port =
    match Unix.getsockname listen_fd with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> config.port
  in
  (* tie the knot: the worker handler needs [t], which holds the service *)
  let t_cell = ref None in
  let stall_deadline_s =
    if config.worker_stall_deadline_ms > 0 then
      Some (float_of_int config.worker_stall_deadline_ms /. 1000.0)
    else None
  in
  let service =
    Par.Service.start ~domains:(max 1 config.workers) ?stall_deadline_s
      ~on_doom:(fun job ->
        (* a worker crashed or stalled mid-job: the request is answered
           typed [internal] here, and the worker pool has already spawned
           a replacement *)
        match !t_cell with
        | Some t ->
            if
              reply t job
                (Protocol.response_error ?request_id:job.j_rid ~id:job.j_id
                   (Protocol.Internal
                      "worker lost (crash or stall); request abandoned, \
                       worker restarted"))
            then begin
              Atomic.incr t.c_eval_error;
              (* the doomed request still gets its full telemetry trail:
                 error window, trace instant, slow-query record — all
                 keyed by the same correlation id as the typed reply *)
              let stats = Stats.create () in
              stats.Stats.query <- Some job.j_req.Protocol.query;
              stats.Stats.request_id <- job.j_rid;
              record_outcome t job ~stats ~degraded_load:false
                ~queue_wait_s:0.0 ~verdict:"doomed" ~ok:false
            end
        | None -> ())
      ~on_restart:(fun () ->
        Metrics.incr m_worker_restarts;
        match !t_cell with
        | Some { windows = Some w; _ } -> Window.incr w.w_restarts
        | _ -> ())
      ~capacity:(max 1 config.queue_capacity)
      (fun job ->
        match !t_cell with Some t -> run_job t job | None -> ())
  in
  let guard = Guard.create () in
  (* every worker domain shares one compiled-plan cache; an explicitly
     configured cache (e.g. capacity 0 for [--no-plan-cache]) is honoured,
     otherwise the default-capacity cache is created here once *)
  let plan_cache =
    match config.engine.E.plan_cache with
    | Some c -> c
    | None -> Prepare.Cache.create_default ()
  in
  let req_base, base_degrade = engine_base_of config ~guard ~plan_cache in
  let slowlog =
    match config.slow_query_ms with
    | Some threshold_ms ->
        Some (Slowlog.create ?path:config.slow_query_log ~threshold_ms ())
    | None -> None
  in
  let t =
    {
      cfg = config;
      db;
      listen_fd;
      bound_port;
      guard;
      plan_cache;
      req_base;
      base_degrade;
      service;
      state = Atomic.make Running;
      started_s = Clock.now ();
      started_unix_s = Unix.gettimeofday ();
      windows = (if config.telemetry then Some (make_windows ()) else None);
      slowlog;
      om_listener = None;
      last_rid = Atomic.make None;
      last_slow_rid = Atomic.make None;
      conns = Hashtbl.create 16;
      conns_lock = Mutex.create ();
      accept_thread = None;
      stop_lock = Mutex.create ();
      stopped = false;
      signalled = Atomic.make false;
      saved_handlers = [];
      trace_lock = Mutex.create ();
      next_cid = Atomic.make 0;
      c_accepted = Atomic.make 0;
      c_requests = Atomic.make 0;
      c_eval_ok = Atomic.make 0;
      c_eval_error = Atomic.make 0;
      c_shed = Atomic.make 0;
      c_degraded_load = Atomic.make 0;
    }
  in
  t_cell := Some t;
  (match config.openmetrics_port with
  | Some p ->
      t.om_listener <-
        Some
          (Openmetrics.serve_http ~host:config.host ~port:p ~body:(fun () ->
               openmetrics_text t))
  | None -> ());
  t.accept_thread <- Some (Thread.create (fun () -> accept_loop t) ());
  t

let port t = t.bound_port

let openmetrics_port t = Option.map Openmetrics.om_port t.om_listener
