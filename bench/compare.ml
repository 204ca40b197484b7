(* The bench regression gate and trace validator.

   Usage:
     compare OLD.json NEW.json [--threshold R] [--min-s S]
       Compare two BENCH_*.json files: every numeric leaf whose key ends
       in "_s" is a lower-is-better timing; NEW regresses when
       new > old * (1 + R). Exits 1 when any leaf regresses, 0 otherwise.
       Leaves below S seconds in both files are skipped (noise floor).

     compare --degrade FACTOR IN.json OUT.json
       Write a copy of IN with every "_s" timing multiplied by FACTOR —
       a synthetic regression used to test that the gate actually fails.

     compare --validate-trace FILE.json
       Check that FILE is well-formed Chrome trace_event JSON: an object
       with a traceEvents list, every event carrying name/ph/ts/pid/tid,
       a known phase letter, and balanced Begin/End nesting per lane.

   Wired as `make bench-compare` and `make check-trace` (docs/PERF.md,
   docs/TRACING.md). *)

module Json = Probdb_obs.Json

let read_json path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  match Json.of_string s with
  | Ok doc -> doc
  | Error msg -> failwith (Printf.sprintf "%s: %s" path msg)

(* Flatten a document to (dot.separated.path, leaf) pairs; list elements
   are indexed so rows of a table compare positionally. *)
let rec flatten prefix doc acc =
  let key k = if prefix = "" then k else prefix ^ "." ^ k in
  match doc with
  | Json.Obj fields ->
      List.fold_left (fun acc (k, v) -> flatten (key k) v acc) acc fields
  | Json.List items ->
      List.fold_left
        (fun (acc, i) v -> (flatten (key (string_of_int i)) v acc, i + 1))
        (acc, 0) items
      |> fst
  | leaf -> (prefix, leaf) :: acc

let number = function
  | Json.Float f -> Some f
  | Json.Int n -> Some (float_of_int n)
  | _ -> None

let is_timing path = String.length path >= 2 && Filename.check_suffix path "_s"

(* ---------- compare ---------- *)

let compare_files ~threshold ~min_s old_path new_path =
  let old_leaves = flatten "" (read_json old_path) [] in
  let new_leaves = flatten "" (read_json new_path) [] in
  let regressions = ref 0 and compared = ref 0 in
  List.iter
    (fun (path, old_leaf) ->
      if is_timing path then
        match (number old_leaf, List.assoc_opt path new_leaves) with
        | Some old_v, Some new_leaf -> (
            match number new_leaf with
            | Some new_v when old_v >= min_s || new_v >= min_s ->
                incr compared;
                if new_v > old_v *. (1.0 +. threshold) then begin
                  incr regressions;
                  Printf.printf "REGRESSION  %-50s %.6fs -> %.6fs (%+.1f%%)\n" path
                    old_v new_v
                    (100.0 *. ((new_v /. old_v) -. 1.0))
                end
            | _ -> ())
        | _ -> ())
    old_leaves;
  Printf.printf "%d timing(s) compared at threshold %.0f%%, %d regression(s)\n"
    !compared (100.0 *. threshold) !regressions;
  if !regressions > 0 then 1 else 0

(* ---------- degrade ---------- *)

let rec degrade factor prefix doc =
  let key k = if prefix = "" then k else prefix ^ "." ^ k in
  match doc with
  | Json.Obj fields -> Json.Obj (List.map (fun (k, v) -> (k, degrade factor (key k) v)) fields)
  | Json.List items -> Json.List (List.mapi (fun i v -> degrade factor (key (string_of_int i)) v) items)
  | Json.Float f when is_timing prefix -> Json.Float (f *. factor)
  | Json.Int n when is_timing prefix -> Json.Float (float_of_int n *. factor)
  | leaf -> leaf

let degrade_file factor in_path out_path =
  let doc = degrade factor "" (read_json in_path) in
  let oc = open_out out_path in
  output_string oc (Json.to_string ~pretty:true doc);
  output_string oc "\n";
  close_out oc;
  Printf.printf "wrote %s (timings x%g)\n" out_path factor;
  0

(* ---------- validate-trace ---------- *)

let known_phases = [ "B"; "E"; "i"; "C"; "M"; "X" ]

let validate_trace path =
  let fail fmt = Printf.ksprintf (fun s -> Printf.printf "INVALID %s: %s\n" path s; raise Exit) fmt in
  try
    let doc = read_json path in
    let events =
      match doc with
      | Json.Obj fields -> (
          match List.assoc_opt "traceEvents" fields with
          | Some (Json.List evs) -> evs
          | Some _ -> fail "traceEvents is not a list"
          | None -> fail "no traceEvents field")
      | _ -> fail "top level is not an object"
    in
    if events = [] then fail "empty traceEvents";
    let depth : (int, int) Hashtbl.t = Hashtbl.create 8 in
    List.iteri
      (fun i ev ->
        let fields =
          match ev with Json.Obj f -> f | _ -> fail "event %d is not an object" i
        in
        let str k =
          match List.assoc_opt k fields with
          | Some (Json.Str s) -> s
          | _ -> fail "event %d: missing string field %S" i k
        in
        let num k =
          match Option.bind (List.assoc_opt k fields) number with
          | Some v -> v
          | None -> fail "event %d: missing numeric field %S" i k
        in
        ignore (str "name");
        let ph = str "ph" in
        if not (List.mem ph known_phases) then fail "event %d: unknown phase %S" i ph;
        ignore (num "pid");
        let tid = int_of_float (num "tid") in
        (* metadata events carry no timestamp *)
        if ph <> "M" then ignore (num "ts");
        let d = Option.value ~default:0 (Hashtbl.find_opt depth tid) in
        match ph with
        | "B" -> Hashtbl.replace depth tid (d + 1)
        | "E" ->
            if d <= 0 then fail "event %d: End without Begin on lane %d" i tid;
            Hashtbl.replace depth tid (d - 1)
        | _ -> ())
      events;
    Hashtbl.iter
      (fun tid d -> if d <> 0 then fail "lane %d: %d unclosed Begin(s)" tid d)
      depth;
    Printf.printf "OK %s: %d events, balanced spans\n" path (List.length events);
    0
  with Exit -> 1

(* ---------- validate-serve ---------- *)

(* Schema check for BENCH_serve.json (the E17 load-generator output) —
   the serving counterpart of --validate-trace, run by `make check-serve`.
   Asserts the documented shape: the sweep table with its per-level
   fields, the sustained-qps headline, and the soak invariant that every
   request was answered. *)
let validate_serve path =
  let fail fmt =
    Printf.ksprintf (fun s -> Printf.printf "INVALID %s: %s\n" path s; raise Exit) fmt
  in
  try
    let doc = read_json path in
    let fields = match doc with Json.Obj f -> f | _ -> fail "top level is not an object" in
    let get k = match List.assoc_opt k fields with Some v -> v | None -> fail "missing field %S" k in
    (match get "experiment" with
    | Json.Str "serve" -> ()
    | _ -> fail "experiment is not \"serve\"");
    let num_field obj k =
      match obj with
      | Json.Obj f -> (
          match Option.bind (List.assoc_opt k f) number with
          | Some v -> v
          | None -> fail "sweep level missing numeric field %S" k)
      | _ -> fail "sweep level is not an object"
    in
    let levels = match get "sweep" with
      | Json.List (_ :: _ as ls) -> ls
      | Json.List [] -> fail "empty sweep"
      | _ -> fail "sweep is not a list"
    in
    List.iter
      (fun l ->
        List.iter
          (fun k -> ignore (num_field l k))
          [ "clients"; "requests"; "qps"; "p50_s"; "p90_s"; "p99_s";
            "degraded_rate"; "shed_rate"; "errors" ];
        let lo k = num_field l k in
        if lo "p50_s" > lo "p99_s" then fail "p50 above p99 in a sweep level";
        let rate k =
          let v = lo k in
          if v < 0.0 || v > 1.0 then fail "%s outside [0,1]" k
        in
        rate "degraded_rate";
        rate "shed_rate")
      levels;
    ignore (Option.map number (Some (get "sustained_qps")));
    (match get "all_answered" with
    | Json.Bool true -> ()
    | Json.Bool false -> fail "all_answered is false: requests went unanswered"
    | _ -> fail "all_answered is not a boolean");
    Printf.printf "OK %s: %d sweep level(s), all requests answered\n" path
      (List.length levels);
    0
  with Exit -> 1

(* ---------- validate-chaos ---------- *)

(* Schema and invariant check for BENCH_chaos.json (the E18 chaos-soak
   output) — run by `make check-chaos`. Beyond shape, it asserts the
   robustness contract the soak measures: every request accounted for,
   the server alive at the end, faults actually injected at every
   non-zero rate and across at least 5 distinct sites, and the
   chaos-disabled control answers bit-identical. *)
let validate_chaos path =
  let fail fmt =
    Printf.ksprintf (fun s -> Printf.printf "INVALID %s: %s\n" path s; raise Exit) fmt
  in
  try
    let doc = read_json path in
    let fields = match doc with Json.Obj f -> f | _ -> fail "top level is not an object" in
    let get k = match List.assoc_opt k fields with Some v -> v | None -> fail "missing field %S" k in
    (match get "experiment" with
    | Json.Str "chaos" -> ()
    | _ -> fail "experiment is not \"chaos\"");
    let bool_true k =
      match get k with
      | Json.Bool true -> ()
      | Json.Bool false -> fail "%s is false" k
      | _ -> fail "%s is not a boolean" k
    in
    let num_field obj k =
      match obj with
      | Json.Obj f -> (
          match Option.bind (List.assoc_opt k f) number with
          | Some v -> v
          | None -> fail "level missing numeric field %S" k)
      | _ -> fail "level is not an object"
    in
    let levels = match get "levels" with
      | Json.List (_ :: _ as ls) -> ls
      | Json.List [] -> fail "empty levels"
      | _ -> fail "levels is not a list"
    in
    List.iter
      (fun l ->
        List.iter
          (fun k -> ignore (num_field l k))
          [ "rate"; "requests"; "ok"; "typed_errors"; "gave_up"; "degraded";
            "retries"; "injections"; "worker_restarts"; "availability";
            "recovery_s"; "wall_s" ];
        let v k = num_field l k in
        if v "rate" < 0.0 || v "rate" > 1.0 then fail "rate outside [0,1]";
        if v "availability" < 0.0 || v "availability" > 1.0 then
          fail "availability outside [0,1]";
        if v "ok" +. v "typed_errors" +. v "gave_up" <> v "requests" then
          fail "level at rate %g: ok + typed + gave_up <> requests" (v "rate");
        if v "rate" > 0.0 && v "injections" <= 0.0 then
          fail "no injections at non-zero rate %g" (v "rate");
        if v "rate" = 0.0 && v "injections" > 0.0 then
          fail "injections at rate 0")
      levels;
    let sites = match get "injections_per_site" with
      | Json.Obj site_fields ->
          List.filter
            (fun (_, v) -> match number v with Some n -> n > 0.0 | None -> false)
            site_fields
      | _ -> fail "injections_per_site is not an object"
    in
    if List.length sites < 5 then
      fail "only %d site(s) injected faults; need >= 5" (List.length sites);
    bool_true "all_accounted";
    bool_true "server_survived";
    bool_true "bit_identical_after_disarm";
    Printf.printf "OK %s: %d level(s), %d site(s) injected, all accounted, server survived\n"
      path (List.length levels) (List.length sites);
    0
  with Exit -> 1

(* ---------- validate-prepare ---------- *)

(* Schema and invariant check for BENCH_prepare.json (the E19
   prepared-queries output) — run by `make check-prepare`. Beyond shape,
   it asserts the contract the prepare/execute split is sold on: warm
   cache hits are genuinely faster than cold prepares (>= 2x median at
   full sizes, >= 1.2x under PROBDB_BENCH_SMOKE where batches are tiny
   and noise is not), the served repeated-template workload hits the
   shared cache >= 90% of the time, and caching never changed an answer
   (every served value bit-compared against the uncached engine). *)
let validate_prepare path =
  let fail fmt =
    Printf.ksprintf (fun s -> Printf.printf "INVALID %s: %s\n" path s; raise Exit) fmt
  in
  try
    let doc = read_json path in
    let fields = match doc with Json.Obj f -> f | _ -> fail "top level is not an object" in
    let get k = match List.assoc_opt k fields with Some v -> v | None -> fail "missing field %S" k in
    (match get "experiment" with
    | Json.Str "prepare" -> ()
    | _ -> fail "experiment is not \"prepare\"");
    let smoke = match get "smoke" with
      | Json.Bool b -> b
      | _ -> fail "smoke is not a boolean"
    in
    let num_field obj k =
      match obj with
      | Json.Obj f -> (
          match Option.bind (List.assoc_opt k f) number with
          | Some v -> v
          | None -> fail "entry missing numeric field %S" k)
      | _ -> fail "entry is not an object"
    in
    let rows = match get "cold_warm" with
      | Json.List (_ :: _ as rs) -> rs
      | Json.List [] -> fail "empty cold_warm"
      | _ -> fail "cold_warm is not a list"
    in
    List.iter
      (fun r ->
        (match r with
        | Json.Obj f when List.mem_assoc "template" f -> ()
        | _ -> fail "cold_warm entry missing \"template\"");
        if num_field r "cold_s" <= 0.0 then fail "non-positive cold_s";
        if num_field r "warm_s" <= 0.0 then fail "non-positive warm_s";
        ignore (num_field r "speedup"))
      rows;
    let num k = match number (get k) with
      | Some v -> v
      | None -> fail "%s is not a number" k
    in
    let floor_x = if smoke then 1.2 else 2.0 in
    let median_speedup = num "median_speedup" in
    if median_speedup < floor_x then
      fail "median cold/warm speedup %.2fx below the %.1fx floor"
        median_speedup floor_x;
    let levels = match get "sweep" with
      | Json.List (_ :: _ as ls) -> ls
      | Json.List [] -> fail "empty sweep"
      | _ -> fail "sweep is not a list"
    in
    List.iter
      (fun l ->
        List.iter
          (fun k -> ignore (num_field l k))
          [ "clients"; "qps_cached"; "qps_uncached" ])
      levels;
    let hit_rate = num "hit_rate" in
    if hit_rate < 0.0 || hit_rate > 1.0 then fail "hit_rate outside [0,1]";
    if hit_rate < 0.9 then
      fail "served cache hit rate %.3f below 0.9 on a repeated-template workload"
        hit_rate;
    (match get "drift_free" with
    | Json.Bool true -> ()
    | Json.Bool false -> fail "drift_free is false: a cached answer differed"
    | _ -> fail "drift_free is not a boolean");
    (match get "all_answered" with
    | Json.Bool true -> ()
    | Json.Bool false -> fail "all_answered is false: requests went unanswered"
    | _ -> fail "all_answered is not a boolean");
    Printf.printf
      "OK %s: %.2fx median warm speedup, %.3f hit rate, %d sweep level(s), zero drift\n"
      path median_speedup hit_rate (List.length levels);
    0
  with Exit -> 1

(* ---------- validate-storage ---------- *)

(* Schema and invariant check for BENCH_storage.json (the E20
   out-of-core storage output) — run by `make bench-smoke`. Beyond
   shape, it asserts the contract packed containers are sold on:
   `Storage.open_file` beats `Csv_io.load_dir` by >= 100x at full sizes
   (>= 5x under PROBDB_BENCH_SMOKE, where files are a handful of pages
   and the constant costs dominate), the cold query mapped strictly
   less than the whole file (the untouched relation never faulted in),
   and every answer bit-matched the CSV path. *)
let validate_storage path =
  let fail fmt =
    Printf.ksprintf (fun s -> Printf.printf "INVALID %s: %s\n" path s; raise Exit) fmt
  in
  try
    let doc = read_json path in
    let fields = match doc with Json.Obj f -> f | _ -> fail "top level is not an object" in
    let get k = match List.assoc_opt k fields with Some v -> v | None -> fail "missing field %S" k in
    (match get "experiment" with
    | Json.Str "storage" -> ()
    | _ -> fail "experiment is not \"storage\"");
    let smoke = match get "smoke" with
      | Json.Bool b -> b
      | _ -> fail "smoke is not a boolean"
    in
    let num_field obj k =
      match obj with
      | Json.Obj f -> (
          match Option.bind (List.assoc_opt k f) number with
          | Some v -> v
          | None -> fail "scale missing numeric field %S" k)
      | _ -> fail "scale is not an object"
    in
    let scales = match get "scales" with
      | Json.List (_ :: _ as ss) -> ss
      | Json.List [] -> fail "empty scales"
      | _ -> fail "scales is not a list"
    in
    List.iter
      (fun s ->
        List.iter
          (fun k -> ignore (num_field s k))
          [ "rows"; "file_bytes"; "csv_load_s"; "pack_s"; "open_s";
            "open_speedup"; "cold_csv_s"; "cold_packed_s"; "cold_speedup";
            "bytes_mapped"; "mapped_fraction"; "index_build_s"; "index_bytes";
            "point_indexed_s"; "point_gather_s"; "point_speedup" ];
        let v k = num_field s k in
        if v "open_s" <= 0.0 then fail "non-positive open_s";
        if v "csv_load_s" <= 0.0 then fail "non-positive csv_load_s";
        let mf = v "mapped_fraction" in
        if mf <= 0.0 || mf >= 1.0 then
          fail
            "mapped_fraction %.3f at %.0f rows not in (0,1): the cold query \
             should map the scanned columns and only those"
            mf (v "rows"))
      scales;
    let num k = match number (get k) with
      | Some v -> v
      | None -> fail "%s is not a number" k
    in
    let floor_x = if smoke then 5.0 else 100.0 in
    let max_speedup = num "max_open_speedup" in
    if max_speedup < floor_x then
      fail "open speedup %.1fx at the largest scale below the %.0fx floor"
        max_speedup floor_x;
    (match get "bit_identical" with
    | Json.Bool true -> ()
    | Json.Bool false -> fail "bit_identical is false: a packed answer differed"
    | _ -> fail "bit_identical is not a boolean");
    (match get "point_bit_identical" with
    | Json.Bool true -> ()
    | Json.Bool false ->
        fail "point_bit_identical is false: the indexed point query differed"
    | _ -> fail "point_bit_identical is not a boolean");
    Printf.printf
      "OK %s: %d scale(s), %.0fx open speedup at the largest, lazy faults \
       only, zero drift\n"
      path (List.length scales) max_speedup;
    0
  with Exit -> 1

(* BENCH_obs.json gates from the telemetry issue: the instrumented
   server's throughput cost at saturation stays within the 2% budget
   (smoke windows are too short to measure that honestly, so smoke only
   sanity-bounds it), every reply carries a request id, the cumulative
   counters reconcile exactly with the client tally, and the rolling
   windows moved under load. Run by `make check-obs`. *)
let validate_obs path =
  let fail fmt =
    Printf.ksprintf (fun s -> Printf.printf "INVALID %s: %s\n" path s; raise Exit) fmt
  in
  try
    let doc = read_json path in
    let fields = match doc with Json.Obj f -> f | _ -> fail "top level is not an object" in
    let get k = match List.assoc_opt k fields with Some v -> v | None -> fail "missing field %S" k in
    (match get "experiment" with
    | Json.Str "obs" -> ()
    | _ -> fail "experiment is not \"obs\"");
    let smoke = match get "smoke" with
      | Json.Bool b -> b
      | _ -> fail "smoke is not a boolean"
    in
    let num k = match number (get k) with
      | Some v -> v
      | None -> fail "%s is not a number" k
    in
    if num "qps_off" <= 0.0 then fail "non-positive qps_off";
    if num "qps_on" <= 0.0 then fail "non-positive qps_on";
    if num "answered" <= 0.0 then fail "no replies tallied";
    if num "openmetrics_scrapes" <= 0.0 then
      fail "the openmetrics exposition was never scraped";
    let overhead = num "overhead_pct" in
    let budget = if smoke then 50.0 else 2.0 in
    if overhead > budget then
      fail "telemetry overhead %.2f%% above the %.0f%% budget" overhead budget;
    let coverage = num "request_id_coverage" in
    if coverage < 1.0 then
      fail "request_id coverage %.3f below 1.0: some reply had no id" coverage;
    (match get "window_moves" with
    | Json.Bool true -> ()
    | Json.Bool false -> fail "rolling windows did not move under load"
    | _ -> fail "window_moves is not a boolean");
    (match get "cumulative_exact" with
    | Json.Bool true -> ()
    | Json.Bool false ->
        fail "cumulative counters do not reconcile with the client tally"
    | _ -> fail "cumulative_exact is not a boolean");
    Printf.printf
      "OK %s: overhead %.2f%% (budget %.0f%%), id coverage 1.0 over %.0f \
       replies, windows live, counters exact\n"
      path overhead budget (num "answered");
    0
  with Exit -> 1

(* ---------- entry ---------- *)

let usage () =
  prerr_endline
    "usage: compare OLD.json NEW.json [--threshold R] [--min-s S]\n\
    \       compare --degrade FACTOR IN.json OUT.json\n\
    \       compare --validate-trace FILE.json\n\
    \       compare --validate-serve FILE.json\n\
    \       compare --validate-chaos FILE.json\n\
    \       compare --validate-prepare FILE.json\n\
    \       compare --validate-storage FILE.json\n\
    \       compare --validate-obs FILE.json";
  2

let () =
  let code =
    match List.tl (Array.to_list Sys.argv) with
    | [ "--validate-trace"; path ] -> validate_trace path
    | [ "--validate-serve"; path ] -> validate_serve path
    | [ "--validate-chaos"; path ] -> validate_chaos path
    | [ "--validate-prepare"; path ] -> validate_prepare path
    | [ "--validate-storage"; path ] -> validate_storage path
    | [ "--validate-obs"; path ] -> validate_obs path
    | [ "--degrade"; factor; in_path; out_path ] -> (
        match float_of_string_opt factor with
        | Some f -> degrade_file f in_path out_path
        | None -> usage ())
    | old_path :: new_path :: rest ->
        let rec opts threshold min_s = function
          | "--threshold" :: v :: rest -> opts (float_of_string v) min_s rest
          | "--min-s" :: v :: rest -> opts threshold (float_of_string v) rest
          | [] -> Some (threshold, min_s)
          | _ -> None
        in
        (match opts 0.25 0.0 rest with
        | Some (threshold, min_s) -> compare_files ~threshold ~min_s old_path new_path
        | None -> usage ())
    | _ -> usage ()
  in
  exit code
