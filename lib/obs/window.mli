(** Windowed aggregation: rolling-horizon views over counters and
    histograms, backed by a ring of epoch-stamped time buckets.

    Writes are O(1); reads merge the buckets inside the requested horizon
    on demand, so one ring serves every horizon up to
    [buckets * bucket_s] seconds (default 300 x 1s = 5 minutes). All
    operations are thread-safe. *)

type counter
(** A windowed event counter. *)

val counter : ?buckets:int -> ?bucket_s:float -> unit -> counter
(** [counter ()] creates a ring of [buckets] (default 300) buckets of
    [bucket_s] (default 1.0) seconds each.
    @raise Invalid_argument if [buckets < 1] or [bucket_s <= 0]. *)

val add : counter -> int -> unit
(** Add [n] events at the current time. *)

val incr : counter -> unit
(** [incr c] is [add c 1]. *)

val total : counter -> horizon_s:float -> int
(** Events recorded in the last [horizon_s] seconds (clamped to the ring
    span). *)

val rate : counter -> horizon_s:float -> float
(** Events per second over the last [horizon_s] seconds. Divides by the
    time the window has actually covered, so rates are meaningful before
    the ring has lived a full horizon. *)

type histogram
(** A windowed histogram of float observations. *)

val histogram : ?buckets:int -> ?bucket_s:float -> unit -> histogram
(** Same ring parameters as {!counter}. A bucket gets its ~2048-slot
    {!Histogram.t} on its first observation, so a fresh window holds no
    cells and a full ring holds [buckets] of them.
    @raise Invalid_argument if [buckets < 1] or [bucket_s <= 0]. *)

val observe : histogram -> float -> unit
(** Record one observation at the current time. *)

val snapshot : histogram -> horizon_s:float -> Histogram.t
(** Merge the buckets of the last [horizon_s] seconds into a fresh
    {!Histogram.t} for quantile queries. *)
