(** The [probdb serve] server: a long-running concurrent query service.

    One process loads a TID once and answers many clients over TCP, one
    line-delimited JSON request/response pair at a time (the protocol of
    {!Protocol}, specified in [docs/SERVING.md]). The moving parts:

    - an {e accept thread} takes connections and spawns one blocking
      {e reader thread} per connection (system threads, so blocking I/O
      releases the OCaml runtime lock);
    - control operations ([ping]/[stats]/[metrics]/[trace]/[shutdown])
      are answered inline on the reader thread;
    - [eval] requests are submitted to a bounded
      {!Probdb_par.Par.Service} queue drained by worker {e domains} — the
      only place engine work runs, so concurrency is capped by the worker
      count and the queue bound is the backpressure contract;
    - overload degrades before it sheds: past the [degrade_above]
      watermark admitted requests are evaluated with
      {!Probdb_engine.Engine.force_degrade} (certified (ε,δ) Karp–Luby
      answers for the keys whose recorded exact cost is not below their
      sampling cost), and when the queue is full the request is refused with a
      typed [overloaded] error — the server never queues unboundedly;
    - every request runs under a {!Probdb_guard.Guard} deadline whose
      budget {e includes the time spent queued} (admission control), and
      all request guards are children of one server guard so
      {!stop}[ `Now] cancels in-flight work cooperatively. *)

type config = {
  host : string;  (** bind address (default ["127.0.0.1"]) *)
  port : int;  (** TCP port; [0] picks an ephemeral port (see {!port}) *)
  workers : int;  (** engine worker domains draining the request queue *)
  queue_capacity : int;
      (** bound of the request queue; a full queue sheds ([overloaded]) *)
  degrade_above : int;
      (** queue-depth watermark above which admitted requests are
          force-degraded to the (ε,δ) approximation where that is cheaper
          than exact inference; [<= 0] never degrades under load *)
  default_deadline_ms : int option;
      (** per-request deadline applied when the request carries none *)
  worker_stall_deadline_ms : int;
      (** a worker busy on one request past this deadline is abandoned:
          the request is answered with a typed [internal] error and a
          replacement worker domain is spawned (see
          {!Probdb_par.Par.Service}); [<= 0] disables the watchdog *)
  engine : Probdb_engine.Engine.config;
      (** base evaluation config; per-request fields override it *)
  telemetry : bool;
      (** master switch for the windowed metrics and request-id minting
          (default [true]); the overhead bench's baseline turns it off.
          Client-supplied request ids still propagate when off. *)
  slow_query_ms : float option;
      (** log requests at/above this latency as NDJSON records; [0] logs
          every request; [None] (default) disables the log *)
  slow_query_log : string option;
      (** slow-query log path (append mode); [None] logs to stderr *)
  openmetrics_port : int option;
      (** serve the OpenMetrics text exposition over HTTP on this extra
          port ([0] picks an ephemeral one, see {!openmetrics_port}) *)
  slo_p99_ms : float option;
      (** latency objective: requests over this count against a 1%% miss
          budget, exposed as the windowed [p99_burn_rate] gauge *)
  slo_availability : float option;
      (** availability objective in [(0, 1)], e.g. [0.999]: errors + shed
          against its failure budget is the windowed
          [availability_burn_rate] gauge *)
}

val default_config : config
(** Loopback, port 7433, 2 workers, queue capacity 64, degrade watermark
    48, no default deadline, 30s worker stall deadline,
    {!Probdb_engine.Engine.default_config}; telemetry on, no slow-query
    log, no OpenMetrics listener, no SLOs. *)

type t

val start : ?config:config -> Probdb_core.Tid.t -> t
(** Bind, listen, spawn the accept thread and the worker service, and
    return immediately. @raise Probdb_core.Probdb_error.Error ([Io])
    when the address cannot be bound. *)

val port : t -> int
(** The actually-bound port — the way to find an ephemeral one. *)

val openmetrics_port : t -> int option
(** The bound port of the OpenMetrics HTTP listener, when configured. *)

val openmetrics_text : t -> string
(** The OpenMetrics text exposition served on the {!openmetrics_port}
    listener and by the [metrics]/[format=openmetrics] protocol op: the
    process-wide {!Probdb_obs.Metrics} registry, this server's cumulative
    counters, rolling 1m gauges, and info metrics carrying the most
    recent (slow) request ids. *)

val plan_cache : t -> Probdb_prepare.Prepare.Cache.t
(** The compiled-plan cache shared by every worker domain. An explicitly
    configured [engine.plan_cache] is honoured (capacity 0 disables
    retention — the [--no-plan-cache] server); otherwise {!start} creates
    one default-capacity cache for the server's lifetime. Its counters
    are the [prepare_cache] block of {!stats_json}. *)

val engine_base : t -> Probdb_engine.Engine.config
(** The request-invariant engine configuration, resolved once at
    {!start}: the server guard as [parent_guard], [domains = 1], the
    shared {!plan_cache} installed, degradation defaults resolved. The
    per-request path layers request overrides on this hoisted base
    instead of rebuilding it per request; the same record is returned on
    every call (physical equality — the hoist contract the tests pin). *)

val request_engine_config :
  ?degrade_load:bool -> t -> Protocol.eval_request -> Probdb_engine.Engine.config
(** The engine configuration a given request would evaluate under (with
    zero queue wait charged against its deadline) — {!engine_base} plus
    the request's own overrides. Exposed for tests.
    @param degrade_load apply the over-watermark
      {!Probdb_engine.Engine.force_degrade} transform (default [false]).
    @raise Protocol.Bad on an unknown ["method"] name. *)

val stop : ?mode:[ `Drain | `Now ] -> t -> unit
(** Stop the server. [`Drain] (default) stops accepting, lets queued and
    in-flight requests complete and their responses flush, then closes
    every connection. [`Now] additionally clears the queue (each dropped
    request is answered with a typed [shutting-down] error) and cancels
    the server guard, interrupting in-flight evaluations at their next
    poll. Idempotent; concurrent callers block until the stop completes. *)

val drain_on_signals : t -> unit
(** Make SIGINT and SIGTERM request a [`Drain] stop. The handlers only
    record the signal: the thread blocked in {!wait} runs the stop, and
    {!wait} restores the previous handlers before it returns. Without a
    thread in {!wait}, a signal is recorded and nothing else happens. *)

val wait : t -> unit
(** Block until the server has stopped (its accept thread has exited and
    the workers are joined) — the foreground of [probdb serve]. Runs the
    drain a {!drain_on_signals} handler asked for, then restores the
    handlers that were in place before {!drain_on_signals}. *)

val stats_json : t -> Probdb_obs.Json.t
(** The live server snapshot behind the [stats] protocol op (schema:
    the [serve] block of [docs/STATS.md]): connection and request
    counters, queue depth and capacity, shed and degraded-under-load
    totals, uptime and wall-clock start time, the rolling
    10s/60s/300s [window] block (qps, latency quantiles, error / shed /
    degraded / cache-hit rates, strategy wins, SLO burn rates), and the
    [chaos] and [slow_query] status blocks. *)
