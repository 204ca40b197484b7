(* Windowed aggregation: ring-buffered time buckets over the mergeable
   Histogram and plain counters. Each structure is a ring of fixed-width
   buckets stamped with the epoch (floor(now / bucket_s)) they belong to;
   a write lands in the bucket of the current epoch, resetting it first if
   the slot still holds data from a previous lap of the ring. Reads merge
   the buckets whose epoch falls inside the requested horizon, so rolling
   10s/1m/5m views come from one ring without any background rotation
   thread — time itself advances the window. *)

let default_buckets = 300

let default_bucket_s = 1.0

let epoch_of ~bucket_s now = int_of_float (now /. bucket_s)

(* Buckets a horizon spans, clamped to the ring size: asking for a longer
   horizon than the ring holds degrades to the whole ring. *)
let span_buckets ~bucket_s ~buckets horizon_s =
  min buckets (max 1 (int_of_float (Float.ceil (horizon_s /. bucket_s))))

(* The effective measurement span in seconds: a freshly created window has
   not lived a full horizon yet, so rates divide by the time actually
   covered (floored at one bucket to keep early rates finite). *)
let covered ~bucket_s ~created_s horizon_s =
  Float.max bucket_s (Float.min horizon_s (Clock.now () -. created_s))

(* ---------- windowed counter ---------- *)

type counter = {
  c_bucket_s : float;
  c_epochs : int array;
  c_cells : int array;
  c_lock : Mutex.t;
  c_created_s : float;
}

let counter ?(buckets = default_buckets) ?(bucket_s = default_bucket_s) () =
  if buckets < 1 then invalid_arg "Window.counter: buckets must be >= 1";
  if not (bucket_s > 0.0) then invalid_arg "Window.counter: bucket_s must be > 0";
  { c_bucket_s = bucket_s;
    c_epochs = Array.make buckets min_int;
    c_cells = Array.make buckets 0;
    c_lock = Mutex.create ();
    c_created_s = Clock.now () }

let add c n =
  let e = epoch_of ~bucket_s:c.c_bucket_s (Clock.now ()) in
  let i = e mod Array.length c.c_epochs in
  Mutex.protect c.c_lock (fun () ->
      if c.c_epochs.(i) <> e then begin
        c.c_epochs.(i) <- e;
        c.c_cells.(i) <- 0
      end;
      c.c_cells.(i) <- c.c_cells.(i) + n)

let incr c = add c 1

let total c ~horizon_s =
  let e_now = epoch_of ~bucket_s:c.c_bucket_s (Clock.now ()) in
  let n = Array.length c.c_epochs in
  let k = span_buckets ~bucket_s:c.c_bucket_s ~buckets:n horizon_s in
  Mutex.protect c.c_lock (fun () ->
      let sum = ref 0 in
      for i = 0 to n - 1 do
        if c.c_epochs.(i) > e_now - k && c.c_epochs.(i) <= e_now then
          sum := !sum + c.c_cells.(i)
      done;
      !sum)

let rate c ~horizon_s =
  float_of_int (total c ~horizon_s)
  /. covered ~bucket_s:c.c_bucket_s ~created_s:c.c_created_s horizon_s

(* ---------- windowed histogram ---------- *)

type histogram = {
  h_bucket_s : float;
  h_epochs : int array;
  h_cells : Histogram.t array;
  h_lock : Mutex.t;
  h_created_s : float;
}

(* Every slot of a fresh ring points at this one empty cell. A slot's
   epoch starts at [min_int], which no write matches, so [observe]
   replaces the sentinel with a cell of its own before the first add and
   the sentinel is never written; [snapshot] never reads it either, since
   no horizon reaches [min_int]. A ring therefore holds only the dense
   cells of the seconds it has seen, not 300 of them up front. *)
let empty_cell = Histogram.create ()

let histogram ?(buckets = default_buckets) ?(bucket_s = default_bucket_s) () =
  if buckets < 1 then invalid_arg "Window.histogram: buckets must be >= 1";
  if not (bucket_s > 0.0) then
    invalid_arg "Window.histogram: bucket_s must be > 0";
  { h_bucket_s = bucket_s;
    h_epochs = Array.make buckets min_int;
    h_cells = Array.make buckets empty_cell;
    h_lock = Mutex.create ();
    h_created_s = Clock.now () }

let observe h v =
  let e = epoch_of ~bucket_s:h.h_bucket_s (Clock.now ()) in
  let i = e mod Array.length h.h_epochs in
  Mutex.protect h.h_lock (fun () ->
      if h.h_epochs.(i) <> e then begin
        h.h_epochs.(i) <- e;
        h.h_cells.(i) <- Histogram.create ()
      end;
      Histogram.add h.h_cells.(i) v)

(* Merge the in-horizon buckets into a fresh histogram. Merge is
   associative and commutative (test/test_obs.ml property-checks this),
   so the bucket order never matters. *)
let snapshot h ~horizon_s =
  let e_now = epoch_of ~bucket_s:h.h_bucket_s (Clock.now ()) in
  let n = Array.length h.h_epochs in
  let k = span_buckets ~bucket_s:h.h_bucket_s ~buckets:n horizon_s in
  let merged = Histogram.create () in
  Mutex.protect h.h_lock (fun () ->
      for i = 0 to n - 1 do
        if h.h_epochs.(i) > e_now - k && h.h_epochs.(i) <= e_now then
          Histogram.merge_into ~into:merged h.h_cells.(i)
      done);
  merged
