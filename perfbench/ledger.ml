(* The per-layer ledger of a traced run.

   Nothing here is a probe inside the program: every number is either a
   timed call into a layer's public function, replayed in this process on
   the very requests the server answered, or a counter the server already
   exports through its [stats] and [metrics] ops. A layer the workload
   never reaches reports 0. *)

open Util
module Core = Probdb_core
module E = Probdb_engine.Engine
module Stats = Probdb_obs.Stats
module Protocol = Probdb_serve.Protocol
module Prepare = Probdb_prepare.Prepare
module Storage = Probdb_storage.Storage
module Lift = Probdb_lifted.Lift
module Plan = Probdb_plans.Plan
module Lineage = Probdb_lineage.Lineage
module Read_once = Probdb_kc.Read_once
module Obdd = Probdb_kc.Obdd
module Formula = Probdb_boolean.Formula
module Wmc = Probdb_cnf.Wmc
module Karp_luby = Probdb_approx.Karp_luby

(* Requests replayed one by one, and distinct texts whose layers are
   called directly: enough for stable medians, few enough to keep the
   replay to seconds. *)
let max_sampled = 1500
let max_texts = 200

(* Median seconds of [reps] calls; exceptions count as the call's end. *)
let time_median ?(reps = 3) f =
  median (Array.init reps (fun _ -> snd (timed (fun () -> try ignore (f ()) with _ -> ()))))

(* What a layer measurement of one text produced, [None] when the layer
   does not run for it. *)
type text_layers = {
  skip_s : float;  (** strategies tried and skipped before the winner *)
  win_s : float;  (** the winning strategy alone *)
  lifted_s : float option;
  plan_s : float option;
  lineage : (float * float) option;  (** seconds, variables *)
  read_once_s : float option;
  obdd : (float * float) option;  (** seconds, nodes *)
  wmc : (float * float * float) option;  (** seconds, decisions, cache hit rate *)
  kl : (float * float) option;  (** seconds, samples *)
}

let single_strategy config name =
  match E.strategy_of_name name with
  | Some s -> Some { config with E.strategies = [ s ]; degrade = None }
  | None -> None

let layers_of_text db config ~degraded q (b : Prepare.bound option) (stats : Stats.t) =
  let winner = Option.value stats.Stats.strategy ~default:"" in
  let chain = List.map (fun (s, _, _) -> s) stats.Stats.chain in
  let tried = winner :: chain in
  let eval_only name =
    match single_strategy config name with
    | Some c -> time_median (fun () -> E.evaluate ~config:c ?prepared:b db q)
    | None -> 0.0
  in
  let ucq () = match b with Some b -> Prepare.bind_ucq b | None -> Error "open" in
  let grounded = not (List.mem winner [ "lifted"; "safe-plan"; "symmetric" ]) in
  { skip_s = List.fold_left (fun acc s -> acc +. eval_only s) 0.0 chain;
    win_s = eval_only winner;
    lifted_s =
      (if winner = "lifted" then Some (time_median (fun () -> Lift.probability db q)) else None);
    plan_s =
      (match Option.bind b Prepare.bind_plan with
      | Some plan -> Some (time_median (fun () -> Plan.boolean_prob db plan))
      | None -> None);
    lineage =
      (if grounded then
         let s = time_median (fun () -> Lineage.of_query (Lineage.create db) q) in
         Some (s, float_of_int (Formula.var_count (Lineage.of_query (Lineage.create db) q)))
       else None);
    read_once_s =
      (if List.mem "read-once" tried then
         match ucq () with
         | Ok (u, _) ->
             Some
               (time_median (fun () ->
                    let ctx = Lineage.create db in
                    Read_once.probability (Lineage.prob ctx) (Lineage.dnf_of_ucq ctx u)))
         | Error _ -> None
       else None);
    obdd =
      (if List.mem "obdd" tried then
         let ctx = Lineage.create db in
         let f = Lineage.of_query ctx q in
         let compile () =
           let m =
             Obdd.manager ~max_nodes:config.E.obdd_max_nodes ~order:(Obdd.default_order f) ()
           in
           let bdd = Obdd.of_formula m f in
           ignore (Obdd.wmc m (Lineage.prob ctx) bdd);
           Obdd.size bdd
         in
         let nodes = try float_of_int (compile ()) with Obdd.Node_limit n -> float_of_int n in
         Some (time_median compile, nodes)
       else None);
    wmc =
      (if List.mem "wmc" tried then
         let ctx = Lineage.create db in
         let f = Lineage.of_query ctx q in
         if Formula.as_cnf f = None then None
         else
           let run () = Wmc.count ~prob:(Lineage.prob ctx) f in
           match run () with
           | r ->
               let st = r.Wmc.stats in
               Some
                 ( time_median run,
                   float_of_int st.Wmc.decisions,
                   ratio (float_of_int st.Wmc.cache_hits) (float_of_int st.Wmc.cache_queries) )
           | exception _ -> None
       else None);
    kl =
      (if degraded then
         match ucq () with
         | Ok (u, _) -> (
             let ctx = Lineage.create db in
             match Lineage.dnf_of_ucq ctx u with
             | clauses ->
                 let samples =
                   min 20_000
                     (Karp_luby.required_samples ~eps:0.1 ~delta:Fixtures.delta
                        ~clauses:(max 1 (List.length clauses)))
                 in
                 Some
                   ( time_median (fun () ->
                         Karp_luby.estimate ~samples ~prob:(Lineage.prob ctx) clauses),
                     float_of_int samples )
             | exception _ -> None)
         | Error _ -> None
       else None);
  }

type replayed = {
  latency_s : float;
  decode_s : float;
  resolve_s : float;
  eval_s : float;
  encode_s : float;
  minor_words : float;
  rows : int;
  solve_s : float;
  text : int;
}

(* Every metric of the traced run. [kept] are the traced phase's
   (position, latency, reply) records; [sent] the stream prefix the server
   saw; [stats]/[metrics] the server's own exports after the load. *)
let measure (w : Fixtures.t) ~(kept : (int * float * string) list) ~sent ~stats ~metrics
    ~(ci_miss_rate : float) ~client_busy_share ~trace_overhead_share =
  let db = Fixtures.open_db w in
  let len = Array.length w.Fixtures.stream in
  let text_of i = w.Fixtures.texts.(w.Fixtures.stream.(i mod len)) in
  (* 1. resolve the whole prefix in order through a fresh cache, as the
     server's shared cache saw it *)
  let cache = Prepare.Cache.create_default () in
  let resolve_at = Hashtbl.create 4096 in
  let kept = List.sort (fun (a, _, _) (b, _, _) -> compare a b) kept |> Array.of_list in
  let stride = max 1 (Array.length kept / max_sampled) in
  let sampled = Array.of_list (List.filteri (fun k _ -> k mod stride = 0) (Array.to_list kept)) in
  Array.iter (fun (i, _, _) -> Hashtbl.replace resolve_at i 0.0) sampled;
  let last_q = Hashtbl.create 4096 in
  let hit_s = ref 0.0 and hits = ref 0 and miss_s = ref 0.0 and misses = ref 0 in
  let key_hits = ref 0 in
  for i = 0 to sent - 1 do
    let text = text_of i in
    let st = Stats.create () in
    let (q, _), dt = timed (fun () -> Prepare.Cache.resolve_text ~stats:st cache ~free:[] text) in
    let text_hit = match Hashtbl.find_opt last_q text with Some q' -> q' == q | None -> false in
    Hashtbl.replace last_q text q;
    if text_hit then (hit_s := !hit_s +. dt; incr hits) else (miss_s := !miss_s +. dt; incr misses);
    (match st.Stats.prepare with Some p when p.Stats.prep_hit -> incr key_hits | _ -> ());
    if Hashtbl.mem resolve_at i then Hashtbl.replace resolve_at i dt
  done;
  (* 2. replay each sampled request: decode, resolve, eval, encode *)
  let config = Fixtures.engine_config cache in
  let l = Load.lines w in
  let per_text = Hashtbl.create 256 in
  let replayed =
    Array.map
      (fun (i, latency_s, reply) ->
        let line = Load.line l i in
        let decode_s = per_call ~reps:20 (fun () -> Protocol.parse line) in
        let reply_json = match Json.of_string reply with Ok j -> j | Error m -> failwith m in
        let id = Option.value (Json.member "id" reply_json) ~default:Json.Null in
        let request_id =
          match Json.member "request_id" reply_json with Some (Json.Str s) -> Some s | _ -> None
        in
        let result = Option.value (Json.member "result" reply_json) ~default:Json.Null in
        let encode_s =
          per_call ~reps:20 (fun () -> Json.to_string (Protocol.response_ok ?request_id ~id result))
        in
        let text = w.Fixtures.stream.(i mod len) in
        let q, b = Prepare.Cache.resolve_text cache ~free:[] w.Fixtures.texts.(text) in
        let st = Stats.create () in
        let _, eval_s = timed (fun () -> E.eval ~config ~stats:st ?prepared:b db q) in
        let degraded =
          match member [ "result"; "degraded" ] reply_json with Some (Json.Bool d) -> d | _ -> false
        in
        if (not (Hashtbl.mem per_text text)) && Hashtbl.length per_text < max_texts then
          Hashtbl.replace per_text text (layers_of_text db config ~degraded q b st);
        { latency_s; decode_s; resolve_s = Hashtbl.find resolve_at i; eval_s; encode_s;
          minor_words = st.Stats.gc.Stats.minor_words; rows = st.Stats.rows_processed;
          solve_s = st.Stats.solve_s; text })
      sampled
  in
  let n = float_of_int (max 1 (Array.length replayed)) in
  let col f = Array.map f replayed in
  let residual = col (fun r -> r.latency_s -. (r.decode_s +. r.resolve_s +. r.eval_s +. r.encode_s)) in
  let layer f =
    Array.of_list
      (List.filter_map
         (fun r -> match Hashtbl.find_opt per_text r.text with Some t -> f t | None -> None)
         (Array.to_list replayed))
  in
  let p50 a = median a in
  let us s = s *. 1e6 in
  let fst3 (a, _, _) = a and snd3 (_, b, _) = b and thd3 (_, _, c) = c in
  let skip = layer (fun t -> Some t.skip_s) and win = layer (fun t -> Some t.win_s) in
  (* server exports *)
  let counter name = num [ "counters"; name ] metrics in
  let evals = num [ "eval_ok" ] stats +. num [ "eval_error" ] stats +. num [ "shed" ] stats in
  let wins =
    List.map (fun s -> (s, counter ("engine.strategy." ^ s)))
      [ "lifted"; "symmetric"; "safe-plan"; "read-once"; "wmc"; "obdd"; "dpll";
        "karp-luby"; "world-enum" ]
  in
  let total_wins = List.fold_left (fun acc (_, c) -> acc +. c) 0.0 wins in
  let open_s =
    median
      (Array.init 5 (fun _ ->
           let st, dt = timed (fun () -> Storage.open_file w.Fixtures.db_path) in
           Storage.close st;
           dt))
  in
  let residual_share = ratio (sum residual) (sum (col (fun r -> r.latency_s))) in
  let metrics =
    [ ("serve.decode_us", us (sum (col (fun r -> r.decode_s)) /. n), "us");
      ("serve.encode_us", us (sum (col (fun r -> r.encode_s)) /. n), "us");
      ("serve.residual_us_p50", us (p50 residual), "us");
      ("serve.residual_us_p99", us (quantile residual 0.99), "us");
      ("serve.residual_share", residual_share, "share");
      ("serve.queue_wait_ms_p50", 1e3 *. num [ "histograms"; "serve.queue_wait_s"; "p50" ] metrics, "ms");
      ("serve.queue_wait_ms_p99", 1e3 *. num [ "histograms"; "serve.queue_wait_s"; "p99" ] metrics, "ms");
      ("serve.degraded_under_load_share", ratio (num [ "degraded_under_load" ] stats) evals, "share");
      ("serve.shed_share", ratio (num [ "shed" ] stats) evals, "share");
      ("prepare.resolve_hit_us", us (ratio !hit_s (float_of_int !hits)), "us");
      ("prepare.resolve_miss_us", us (ratio !miss_s (float_of_int !misses)), "us");
      ("prepare.text_hit_rate", ratio (float_of_int !hits) (float_of_int sent), "share");
      ("prepare.key_hit_rate", ratio (float_of_int !key_hits) (float_of_int sent), "share");
      ("prepare.evictions", num [ "prepare_cache"; "evictions" ] stats, "count");
      ("engine.eval_us_p50", us (p50 (col (fun r -> r.eval_s))), "us");
      ("engine.eval_us_p99", us (quantile (col (fun r -> r.eval_s)) 0.99), "us");
      ("engine.minor_words_per_req", sum (col (fun r -> r.minor_words)) /. n, "words");
      ("engine.skip_us_p50", us (p50 skip), "us");
      ("engine.useful_share", ratio (sum win) (sum win +. sum skip), "share") ]
    @ List.map (fun (s, c) -> ("engine.wins." ^ s, ratio c total_wins, "share")) wins
    @ [ ("lifted.us_p50", us (p50 (layer (fun t -> t.lifted_s))), "us");
        ("exec.plan_us_p50", us (p50 (layer (fun t -> t.plan_s))), "us");
        ( "exec.rows_per_s",
          ratio (float_of_int (Array.fold_left (fun acc r -> acc + r.rows) 0 replayed))
            (sum (col (fun r -> if r.rows > 0 then r.solve_s else 0.0))),
          "1/s" );
        ("storage.open_us", us open_s, "us");
        ( "storage.mapped_share",
          ratio (counter "storage.bytes_mapped") (float_of_int w.Fixtures.file_bytes),
          "share" );
        ("storage.relations_materialized", counter "storage.relations_materialized", "count");
        ("lineage.us_p50", us (p50 (layer (fun t -> Option.map fst t.lineage))), "us");
        ("lineage.vars_p50", p50 (layer (fun t -> Option.map snd t.lineage)), "count");
        ("kc.read_once_us_p50", us (p50 (layer (fun t -> t.read_once_s))), "us");
        ("kc.obdd_us_p50", us (p50 (layer (fun t -> Option.map fst t.obdd))), "us");
        ("kc.obdd_nodes_p50", p50 (layer (fun t -> Option.map snd t.obdd)), "count");
        ("cnf.wmc_us_p50", us (p50 (layer (fun t -> Option.map fst3 t.wmc))), "us");
        ("cnf.decisions_p50", p50 (layer (fun t -> Option.map snd3 t.wmc)), "count");
        ("cnf.cache_hit_rate", p50 (layer (fun t -> Option.map thd3 t.wmc)), "share");
        ("approx.kl_us_p50", us (p50 (layer (fun t -> Option.map fst t.kl))), "us");
        ("approx.samples_p50", p50 (layer (fun t -> Option.map snd t.kl)), "count");
        ("approx.ci_miss_rate", ci_miss_rate, "share");
        ("par.worker_restarts", num [ "worker_restarts" ] stats, "count");
        ("loadgen.client_busy_share", client_busy_share, "share");
        ("bench.trace_overhead_share", trace_overhead_share, "share") ]
  in
  (metrics, residual_share, Array.length replayed)
