type lifted_rules = {
  independent_unions : int;
  independent_joins : int;
  separator_steps : int;
  ie_expansions : int;
  ie_terms : int;
  cancelled_terms : int;
  negations : int;
  base_lookups : int;
}


type wmc_counts = {
  wmc_decisions : int;
  propagations : int;
  components : int;
  wmc_cache_hits : int;
  wmc_cache_queries : int;
  wmc_cache_entries : int;
  wmc_cache_evictions : int;
  max_trail : int;
}

type circuit_counts = { circuit_class : string; nodes : int; edges : int }

type prepare_counts = {
  prep_hit : bool;
  prep_key : string;
  prep_cache_hits : int;
  prep_cache_misses : int;
  prep_cache_evictions : int;
  prep_cache_entries : int;
}

type plan_counts = { operators : int; peak_rows : int }

type storage_counts = {
  st_path : string;
  st_file_bytes : int;
  st_open_s : float;
  st_bytes_mapped : int;
  st_cols_mapped : int;
  st_rels_materialized : int;
}

type gc_counts = {
  mutable minor_words : float;
  mutable major_words : float;
  mutable promoted_words : float;
  mutable minor_collections : int;
  mutable major_collections : int;
  mutable compactions : int;
  mutable heap_peak_words : int;
}

let fresh_gc () =
  { minor_words = 0.0;
    major_words = 0.0;
    promoted_words = 0.0;
    minor_collections = 0;
    major_collections = 0;
    compactions = 0;
    heap_peak_words = 0 }

type phase = Parse | Prepare | Classify | Plan | Solve

type t = {
  mutable query : string option;
  mutable request_id : string option;
  mutable strategy : string option;
  mutable probability : float option;
  mutable exact : bool;
  mutable std_error : float option;
  mutable parse_s : float;
  mutable prepare_s : float;
  mutable classify_s : float;
  mutable plan_s : float;
  mutable solve_s : float;
  mutable lifted : lifted_rules option;
  mutable wmc : wmc_counts option;
  mutable circuit : circuit_counts option;
  mutable plan : plan_counts option;
  mutable prepare : prepare_counts option;
  mutable storage : storage_counts option;
  mutable memo_hit_rate : float option;
  mutable skipped : (string * string) list;
  mutable degraded : bool;
  mutable ci_low : float option;
  mutable ci_high : float option;
  mutable samples : int option;
  mutable chain : (string * string * string) list;
  mutable domains_used : int;
  mutable par_tasks : int;
  mutable rows_processed : int;
  gc : gc_counts;
  mutable config : (string * Json.t) list;
}

let create () =
  { query = None;
    request_id = None;
    strategy = None;
    probability = None;
    exact = true;
    std_error = None;
    parse_s = 0.0;
    prepare_s = 0.0;
    classify_s = 0.0;
    plan_s = 0.0;
    solve_s = 0.0;
    lifted = None;
    wmc = None;
    circuit = None;
    plan = None;
    prepare = None;
    storage = None;
    memo_hit_rate = None;
    skipped = [];
    degraded = false;
    ci_low = None;
    ci_high = None;
    samples = None;
    chain = [];
    domains_used = 1;
    par_tasks = 0;
    rows_processed = 0;
    gc = fresh_gc ();
    config = [] }

let total_s t = t.parse_s +. t.prepare_s +. t.classify_s +. t.plan_s +. t.solve_s

let record_phase t phase dt =
  let dt = Float.max 0.0 dt in
  match phase with
  | Parse -> t.parse_s <- t.parse_s +. dt
  | Prepare -> t.prepare_s <- t.prepare_s +. dt
  | Classify -> t.classify_s <- t.classify_s +. dt
  | Plan -> t.plan_s <- t.plan_s +. dt
  | Solve -> t.solve_s <- t.solve_s +. dt

let time_phase t phase f =
  let t0 = Clock.now () in
  Fun.protect ~finally:(fun () -> record_phase t phase (Clock.now () -. t0)) f

let hit_rate ~hits ~queries =
  if queries = 0 then None else Some (float_of_int hits /. float_of_int queries)

(* ---------- GC profiling ---------- *)

(* [Gc.quick_stat] deltas around a region of work, folded into the stats
   record. Callers must not nest [with_gc] on the same record: the outer
   region's deltas would double-count the inner's. When tracing is on,
   the running totals are also emitted as counter events so the trace
   timeline shows allocation pressure per phase. *)
(* [Gc.quick_stat] only refreshes its allocation counters at collection
   boundaries (and does not maintain [top_heap_words] at all on OCaml 5),
   so a short region that triggers no collection would read as zero
   words. [Gc.minor_words ()] is the live allocation counter, and
   [heap_words] the current major-heap size — those two carry the signal
   between collections. *)
let with_gc t f =
  let b = Gc.quick_stat () in
  let b_minor = Gc.minor_words () in
  Fun.protect
    ~finally:(fun () ->
      let a = Gc.quick_stat () in
      let g = t.gc in
      g.minor_words <- g.minor_words +. (Gc.minor_words () -. b_minor);
      g.major_words <- g.major_words +. (a.Gc.major_words -. b.Gc.major_words);
      g.promoted_words <- g.promoted_words +. (a.Gc.promoted_words -. b.Gc.promoted_words);
      g.minor_collections <-
        g.minor_collections + (a.Gc.minor_collections - b.Gc.minor_collections);
      g.major_collections <-
        g.major_collections + (a.Gc.major_collections - b.Gc.major_collections);
      g.compactions <- g.compactions + (a.Gc.compactions - b.Gc.compactions);
      g.heap_peak_words <- max g.heap_peak_words a.Gc.heap_words;
      if Trace.on () then begin
        Trace.counter ~cat:"gc" "gc.minor_words" g.minor_words;
        Trace.counter ~cat:"gc" "gc.major_words" g.major_words;
        Trace.counter ~cat:"gc" "gc.minor_collections" (float_of_int g.minor_collections);
        Trace.counter ~cat:"gc" "gc.major_collections" (float_of_int g.major_collections);
        Trace.counter ~cat:"gc" "gc.heap_words" (float_of_int a.Gc.heap_words)
      end)
    f

(* ---------- JSON ---------- *)

let opt f = function None -> Json.Null | Some v -> f v

let lifted_to_json (l : lifted_rules) =
  Json.Obj
    [ ("independent_unions", Json.Int l.independent_unions);
      ("independent_joins", Json.Int l.independent_joins);
      ("separator_steps", Json.Int l.separator_steps);
      ("ie_expansions", Json.Int l.ie_expansions);
      ("ie_terms", Json.Int l.ie_terms);
      ("cancelled_terms", Json.Int l.cancelled_terms);
      ("negations", Json.Int l.negations);
      ("base_lookups", Json.Int l.base_lookups) ]

let wmc_to_json (w : wmc_counts) =
  Json.Obj
    [ ("decisions", Json.Int w.wmc_decisions);
      ("propagations", Json.Int w.propagations);
      ("components", Json.Int w.components);
      ("cache_hits", Json.Int w.wmc_cache_hits);
      ("cache_queries", Json.Int w.wmc_cache_queries);
      ("cache_entries", Json.Int w.wmc_cache_entries);
      ("cache_evictions", Json.Int w.wmc_cache_evictions);
      ("max_trail", Json.Int w.max_trail) ]

let circuit_to_json (c : circuit_counts) =
  Json.Obj
    [ ("class", Json.Str c.circuit_class);
      ("nodes", Json.Int c.nodes);
      ("edges", Json.Int c.edges) ]

let plan_to_json (p : plan_counts) =
  Json.Obj
    [ ("operators", Json.Int p.operators); ("peak_rows", Json.Int p.peak_rows) ]

let prepare_to_json (p : prepare_counts) =
  Json.Obj
    [ ("hit", Json.Bool p.prep_hit);
      ("key", Json.Str p.prep_key);
      ("cache_hits", Json.Int p.prep_cache_hits);
      ("cache_misses", Json.Int p.prep_cache_misses);
      ("cache_evictions", Json.Int p.prep_cache_evictions);
      ("cache_entries", Json.Int p.prep_cache_entries);
      ( "cache_hit_rate",
        match
          hit_rate ~hits:p.prep_cache_hits
            ~queries:(p.prep_cache_hits + p.prep_cache_misses)
        with
        | Some r -> Json.Float r
        | None -> Json.Null ) ]

let storage_to_json (s : storage_counts) =
  Json.Obj
    [ ("path", Json.Str s.st_path);
      ("file_bytes", Json.Int s.st_file_bytes);
      ("open_s", Json.Float s.st_open_s);
      ("bytes_mapped", Json.Int s.st_bytes_mapped);
      ("cols_mapped", Json.Int s.st_cols_mapped);
      ("relations_materialized", Json.Int s.st_rels_materialized) ]

let gc_to_json (g : gc_counts) =
  Json.Obj
    [ ("minor_words", Json.Float g.minor_words);
      ("major_words", Json.Float g.major_words);
      ("promoted_words", Json.Float g.promoted_words);
      ("minor_collections", Json.Int g.minor_collections);
      ("major_collections", Json.Int g.major_collections);
      ("compactions", Json.Int g.compactions);
      ("heap_peak_words", Json.Int g.heap_peak_words) ]

let to_json t =
  Json.Obj
    [ ("query", opt (fun s -> Json.Str s) t.query);
      ("request_id", opt (fun s -> Json.Str s) t.request_id);
      ("strategy", opt (fun s -> Json.Str s) t.strategy);
      ("probability", opt (fun f -> Json.Float f) t.probability);
      ("exact", Json.Bool t.exact);
      ("std_error", opt (fun f -> Json.Float f) t.std_error);
      ( "phases",
        Json.Obj
          [ ("parse_s", Json.Float t.parse_s);
            ("prepare_s", Json.Float t.prepare_s);
            ("classify_s", Json.Float t.classify_s);
            ("plan_s", Json.Float t.plan_s);
            ("solve_s", Json.Float t.solve_s);
            ("total_s", Json.Float (total_s t)) ] );
      ("lifted_rules", opt lifted_to_json t.lifted);
      ("wmc", opt wmc_to_json t.wmc);
      ("circuit", opt circuit_to_json t.circuit);
      ("plan", opt plan_to_json t.plan);
      ("prepare", opt prepare_to_json t.prepare);
      ("storage", opt storage_to_json t.storage);
      ("memo_hit_rate", opt (fun f -> Json.Float f) t.memo_hit_rate);
      ( "skipped",
        Json.List
          (List.map
             (fun (s, reason) ->
               Json.Obj [ ("strategy", Json.Str s); ("reason", Json.Str reason) ])
             t.skipped) );
      ("degraded", Json.Bool t.degraded);
      ("ci_low", opt (fun f -> Json.Float f) t.ci_low);
      ("ci_high", opt (fun f -> Json.Float f) t.ci_high);
      ("samples", opt (fun n -> Json.Int n) t.samples);
      ( "chain",
        Json.List
          (List.map
             (fun (s, kind, detail) ->
               Json.Obj
                 [ ("strategy", Json.Str s);
                   ("kind", Json.Str kind);
                   ("detail", Json.Str detail) ])
             t.chain) );
      ("domains_used", Json.Int t.domains_used);
      ("par_tasks", Json.Int t.par_tasks);
      ("rows_processed", Json.Int t.rows_processed);
      ("gc", gc_to_json t.gc);
      ("config", match t.config with [] -> Json.Null | fields -> Json.Obj fields) ]

(* ---------- human table ---------- *)

let ms s = Printf.sprintf "%.3fms" (s *. 1e3)

let pp ppf t =
  let line fmt = Format.fprintf ppf fmt in
  (match t.query with Some q -> line "query            %s@." q | None -> ());
  (match t.request_id with
  | Some r -> line "request_id       %s@." r
  | None -> ());
  (match t.strategy with Some s -> line "strategy         %s@." s | None -> ());
  (match t.probability with
  | Some p ->
      line "probability      %.9g%s%s@." p
        (if t.exact then " (exact)" else "")
        (match t.std_error with
        | Some e -> Printf.sprintf " (±%.2g at 95%%)" (1.96 *. e)
        | None -> "")
  | None -> ());
  line
    "phase timings    parse %s | prepare %s | classify %s | plan %s | solve %s | \
     total %s@."
    (ms t.parse_s) (ms t.prepare_s) (ms t.classify_s) (ms t.plan_s) (ms t.solve_s)
    (ms (total_s t));
  (match t.lifted with
  | Some l ->
      line
        "lifted rules     independent-or/exists %d | independent-and/forall %d | \
         separator %d@."
        l.independent_unions l.independent_joins l.separator_steps;
      line
        "                 inclusion-exclusion %d (terms %d, cancelled %d) | negations %d \
         | base lookups %d@."
        l.ie_expansions l.ie_terms l.cancelled_terms l.negations l.base_lookups
  | None -> ());
  (match t.wmc with
  | Some w ->
      line
        "wmc              decisions %d | propagations %d | components %d | cache %d/%d \
         (entries %d, evicted %d) | max trail %d@."
        w.wmc_decisions w.propagations w.components w.wmc_cache_hits w.wmc_cache_queries
        w.wmc_cache_entries w.wmc_cache_evictions w.max_trail
  | None -> ());
  (match t.circuit with
  | Some c ->
      line "circuit          %s: %d nodes, %d edges@." c.circuit_class c.nodes c.edges
  | None -> ());
  (match t.plan with
  | Some p ->
      line "plan             %d operators | peak intermediate rows %d@." p.operators
        p.peak_rows
  | None -> ());
  (match t.prepare with
  | Some p ->
      line
        "prepared         %s (key %s) | cache %d hits / %d misses / %d evictions \
         | %d entries@."
        (if p.prep_hit then "cache hit" else "cache miss")
        p.prep_key p.prep_cache_hits p.prep_cache_misses p.prep_cache_evictions
        p.prep_cache_entries
  | None -> ());
  (match t.storage with
  | Some s ->
      line
        "storage          packed %s (%d bytes) | open %s | mapped %d cols, %d \
         bytes | materialized %d rels@."
        s.st_path s.st_file_bytes (ms s.st_open_s) s.st_cols_mapped
        s.st_bytes_mapped s.st_rels_materialized
  | None -> ());
  (match t.memo_hit_rate with
  | Some r -> line "memo hit rate    %.1f%%@." (100.0 *. r)
  | None -> ());
  if t.domains_used > 1 || t.par_tasks > 0 then
    line "parallelism      %d domains | %d pool tasks@." t.domains_used t.par_tasks;
  if t.rows_processed > 0 then
    line "rows processed   %d@." t.rows_processed;
  if t.gc.minor_words > 0.0 || t.gc.major_words > 0.0 then
    line
      "gc               minor %.3gMw | major %.3gMw | promoted %.3gMw | collections \
       %d+%d | heap peak %.3gMw@."
      (t.gc.minor_words /. 1e6) (t.gc.major_words /. 1e6) (t.gc.promoted_words /. 1e6)
      t.gc.minor_collections t.gc.major_collections
      (float_of_int t.gc.heap_peak_words /. 1e6);
  if t.degraded then begin
    line "degraded         yes — exact strategies exhausted@.";
    (match (t.ci_low, t.ci_high) with
    | Some lo, Some hi -> line "confidence       [%.9g, %.9g]@." lo hi
    | _ -> ());
    match t.samples with
    | Some n -> line "samples          %d@." n
    | None -> ()
  end;
  List.iter
    (fun (s, kind, detail) -> line "chain            %s %s: %s@." s kind detail)
    t.chain;
  (* [chain] is the typed superset of [skipped]; avoid printing both *)
  if t.chain = [] then
    List.iter (fun (s, reason) -> line "skipped          %s: %s@." s reason) t.skipped
