(* perfbench: the repository benchmark (see README.md in this directory).

     perfbench --probdb EXE --workdir DIR --workload NAME --seed N
               --seconds S --trace 0|1 [--server-opt FLAG[=VALUE]]...

   Generates the workload's database and request stream from the seed,
   computes every reference answer, then measures a fresh [probdb serve]
   child process. With --trace 0 it prints the end-to-end metrics, with
   --trace 1 the per-layer ledger. The last line of standard output is the
   result object; --server-opt overrides one server flag (the sensitivity
   checks use it). *)

open Util
module Prepare = Probdb_prepare.Prepare

type args = {
  probdb : string;
  workdir : string;
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  server_opts : (string * string) list;
}

let usage () =
  prerr_endline
    "usage: perfbench --probdb EXE --workdir DIR --workload NAME --seed N --seconds S \
     --trace 0|1 [--server-opt FLAG[=VALUE]]...";
  exit 2

let parse_args () =
  let split v =
    match String.index_opt v '=' with
    | Some i -> (String.sub v 0 i, String.sub v (i + 1) (String.length v - i - 1))
    | None -> (v, "")
  in
  let rec go a = function
    | [] -> a
    | "--probdb" :: v :: rest -> go { a with probdb = v } rest
    | "--workdir" :: v :: rest -> go { a with workdir = v } rest
    | "--workload" :: v :: rest -> go { a with workload = v } rest
    | "--seed" :: v :: rest -> go { a with seed = int_of_string v } rest
    | "--seconds" :: v :: rest -> go { a with seconds = float_of_string v } rest
    | "--trace" :: v :: rest -> go { a with trace = v = "1" } rest
    | "--server-opt" :: v :: rest -> go { a with server_opts = a.server_opts @ [ split v ] } rest
    | _ -> usage ()
  in
  let empty =
    { probdb = ""; workdir = ""; workload = ""; seed = 0; seconds = 10.0; trace = false;
      server_opts = [] }
  in
  let a = try go empty (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage () in
  if a.probdb = "" || a.workdir = "" || not (List.mem a.workload Fixtures.names) then usage ();
  a

(* Servers still running are stopped on every exit path. *)
let live : Server.t list ref = ref []

let start_server a (w : Fixtures.t) ~tag =
  let s =
    Server.spawn ~exe:a.probdb ~dir:a.workdir ~tag ~db:w.Fixtures.db_path w.Fixtures.server_args
  in
  live := s :: !live;
  s

let stop_server s =
  Server.stop s;
  live := List.filter (fun x -> x != s) !live

let with_overrides (w : Fixtures.t) opts =
  let args =
    List.fold_left
      (fun args (k, v) ->
        if List.mem_assoc k args then List.map (fun (k', v') -> if k' = k then (k, v) else (k', v')) args
        else args @ [ (k, v) ])
      w.Fixtures.server_args opts
  in
  { w with Fixtures.server_args = args }

(* Set-up: spawn to first correct answer of the workload's probe. *)
let setup a w ~oracle ~tag =
  let t0 = now () in
  let s = start_server a w ~tag in
  let line =
    Json.to_string
      (Json.Obj [ ("id", Json.Int 0); ("query", Json.Str w.Fixtures.texts.(w.Fixtures.probe)) ])
  in
  let reply = Load.call ~port:s.Server.port line in
  let dt = now () -. t0 in
  (match Json.of_string reply with
  | Ok j when Load.check ~expected:oracle.(w.Fixtures.probe) j = Load.Exact_ok -> ()
  | _ -> failwith ("set-up probe answered wrongly: " ^ reply));
  (s, dt)

let warmup_s = 1.0
let setups = 15

(* Degraded answers are (1-δ)-intervals: misses must stay at δ, up to the
   binomial sampling error of the count (one-sided, 99.9%). *)
let ci_ok (t : Load.tally) =
  let n = float_of_int t.Load.degraded_ok in
  float_of_int t.Load.ci_miss
  <= (Fixtures.delta *. n) +. (3.1 *. sqrt (Fixtures.delta *. (1.0 -. Fixtures.delta) *. n)) +. 1.0

let metric_json metrics =
  Json.Obj
    (List.map
       (fun (name, v, unit) -> (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.Str unit) ]))
       metrics)

let print_result ~correct ~attempted ~failed metrics =
  List.iter (fun (name, v, unit) -> log "  %-34s %14.6f %s" name v unit) metrics;
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("correct", Json.Bool correct); ("attempted", Json.Int attempted);
            ("failed", Json.Int failed); ("metrics", metric_json metrics) ]))

let summary name (t : Load.tally) =
  log "%s: attempted %d, exact %d, degraded %d (interval misses %d), wrong %d, errors %d, shed %d"
    name t.Load.attempted t.Load.exact_ok t.Load.degraded_ok t.Load.ci_miss t.Load.wrong
    t.Load.errors t.Load.shed

let end_to_end a w ~oracle =
  (* every set-up but the last is stopped at once; the last one is measured *)
  let servers =
    List.init setups (fun k ->
        let s, dt = setup a w ~oracle ~tag:(Printf.sprintf "setup%d" k) in
        if k < setups - 1 then stop_server s;
        (s, dt))
  in
  let times = Array.of_list (List.map snd servers) in
  let s = fst (List.nth servers (setups - 1)) in
  let l = Load.lines w in
  let run = Load.run l ~oracle ~port:s.Server.port ~server_pid:s.Server.pid ~keep:0 in
  let warm = run ~start:0 ~seconds:warmup_s in
  let p = run ~start:warm.Load.sent ~seconds:a.seconds in
  let rss = Server.peak_rss_mb s in
  stop_server s;
  let t = p.Load.tally in
  summary "measured" t;
  let qps, p50, p99, quiet_load, seconds = Load.quiet p in
  log "per second (correct/s, p50 ms, p99 ms, interference %%): %s"
    (String.concat " "
       (List.map
          (fun (s : Load.second) ->
            Printf.sprintf "%.0f/%.3g/%.3g/%.0f" s.Load.qps (1e3 *. s.Load.p50) (1e3 *. s.Load.p99)
              (100.0 *. s.Load.interference))
          seconds));
  let metrics =
    [ ("setup_s", median times, "s");
      ("latency_p50_ms", 1e3 *. p50, "ms");
      ("latency_p99_ms", 1e3 *. p99, "ms");
      ("throughput_qps", qps, "1/s");
      ("exact_share", ratio (float_of_int t.Load.exact_ok) (float_of_int t.Load.attempted), "share");
      ("peak_rss_mb", rss, "MiB") ]
  in
  log "setup samples: %s s; %d latency samples; interference in the quiet \
       seconds: %.1f%% of the machine's CPU time (steal + other tenants)"
    (String.concat ", " (Array.to_list (Array.map (Printf.sprintf "%.4f") times)))
    t.Load.lat.Vec.len (100.0 *. quiet_load);
  let ok = Load.failed t = 0 && ci_ok t in
  print_result ~correct:ok ~attempted:t.Load.attempted ~failed:(Load.failed t) metrics

(* A residual below -15% of the client latency means the replayed parts
   add up to more than the whole: the measurement is broken. Smaller
   negative shares are the run-to-run noise of replaying a request in
   another process (it shows where serving is a tiny part of latency). *)
let residual_tolerance = -0.15

let traced a w ~oracle =
  let s, _ = setup a w ~oracle ~tag:"traced" in
  let l = Load.lines w in
  let port = s.Server.port in
  let run = Load.run l ~oracle ~port ~server_pid:s.Server.pid in
  let warm = run ~start:0 ~seconds:warmup_s ~keep:0 in
  let half = a.seconds /. 2.0 in
  let pu = run ~start:warm.Load.sent ~seconds:half ~keep:0 in
  (* keep about as many replies as the ledger replays *)
  let keep = max 1 ((pu.Load.sent - warm.Load.sent) / Ledger.max_sampled) in
  let pt = run ~start:pu.Load.sent ~seconds:half ~keep in
  let stats = Load.op ~port "stats" and metrics = Load.op ~port "metrics" in
  stop_server s;
  let qps (p : Load.phase) = float_of_int (Load.correct p.Load.tally) /. p.Load.elapsed_s in
  let t = Load.merge [| pu.Load.tally; pt.Load.tally |] in
  summary "traced" t;
  let ci_miss_rate = ratio (float_of_int t.Load.ci_miss) (float_of_int t.Load.degraded_ok) in
  let metrics, residual_share, replayed =
    Ledger.measure w ~kept:pt.Load.tally.Load.kept ~sent:pt.Load.sent ~stats ~metrics ~ci_miss_rate
      ~client_busy_share:((pu.Load.cpu_s +. pt.Load.cpu_s) /. (pu.Load.elapsed_s +. pt.Load.elapsed_s))
      ~trace_overhead_share:(1.0 -. ratio (qps pt) (qps pu))
  in
  let closed = residual_share >= residual_tolerance in
  log "ledger closure over %d replayed requests: residual share %.4f (%s)" replayed residual_share
    (if closed then "closed" else "BROKEN: the replayed parts exceed the client latency");
  let ok = Load.failed t = 0 && ci_ok t && closed in
  print_result ~correct:ok ~attempted:t.Load.attempted ~failed:(Load.failed t) metrics

let () =
  let a = parse_args () in
  mkdir_p a.workdir;
  let cleanup () =
    List.iter Server.stop !live;
    live := [];
    rm_rf a.workdir
  in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> cleanup (); exit 3));
  Fun.protect ~finally:cleanup @@ fun () ->
  let w, gen_s = timed (fun () -> Fixtures.make a.workload ~seed:a.seed ~dir:a.workdir) in
  let w = with_overrides w a.server_opts in
  let oracle, oracle_s = timed (fun () -> Fixtures.oracle w) in
  let keys =
    Array.to_list w.Fixtures.texts
    |> List.map (fun t -> fst (Prepare.key_of_query (Probdb_logic.Parser.parse t)))
    |> List.sort_uniq compare
  in
  log "workload %s, seed %d: %d tuples, %d file bytes; %d distinct texts against a plan cache \
       of %d artifacts (text index %d); %d distinct structural keys; stream of %d requests; \
       %d connection(s) x %d in flight; server %s"
    a.workload a.seed w.Fixtures.tuples w.Fixtures.file_bytes (Array.length w.Fixtures.texts)
    Prepare.Cache.default_capacity (4 * Prepare.Cache.default_capacity) (List.length keys)
    (Array.length w.Fixtures.stream) w.Fixtures.connections w.Fixtures.in_flight
    (String.concat " "
       (List.map (fun (k, v) -> if v = "" then k else k ^ " " ^ v) w.Fixtures.server_args));
  log "fixtures generated in %.2f s, reference answers in %.2f s" gen_s oracle_s;
  if a.trace then traced a w ~oracle else end_to_end a w ~oracle
