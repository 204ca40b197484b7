(* E12 — whole-engine ablation: every strategy on every query, with the
   dispatcher's choice highlighted. This is the survey's "who wins where"
   in one table, plus a census of the default chain's winners over the
   query zoo.

   PROBDB_BENCH_SMOKE=1 shrinks the census to domains 4 and 6. *)

module Core = Probdb_core
module L = Probdb_logic
module E = Probdb_engine.Engine
module Answer = Probdb_engine.Answer
module Dpll = Probdb_dpll.Dpll
module Lineage = Probdb_lineage.Lineage
module Gen = Probdb_workload.Gen
module Q = Probdb_workload.Queries

let smoke = Sys.getenv_opt "PROBDB_BENCH_SMOKE" <> None

(* Tree DPLL is not an engine strategy; its column times the reference
   counter directly on the query's lineage, at the decision cap the engine
   gives WMC. *)
type column = Strategy of E.strategy | Tree_dpll

let columns =
  [ Strategy E.Lifted; Strategy E.Safe_plan; Strategy E.Read_once; Strategy E.Obdd;
    Tree_dpll; Strategy E.Karp_luby; Strategy E.World_enum ]

let column_name = function Strategy s -> E.strategy_name s | Tree_dpll -> "dpll"

let db_for q ~n =
  let specs =
    List.map (fun (name, arity) -> Gen.spec ~density:0.8 name arity) (L.Fo.relations q)
  in
  Gen.random_tid ~seed:23 ~domain_size:n specs

let refusal reason =
  let short = if String.length reason > 18 then String.sub reason 0 18 ^ "…" else reason in
  "✗ " ^ short

let dpll_cell db q =
  let config = { Dpll.default_config with Dpll.max_decisions = E.default_config.E.wmc_max_decisions } in
  let run () =
    let ctx = Lineage.create db in
    Dpll.probability ~config ~prob:(Lineage.prob ctx) (Lineage.of_query ctx q)
  in
  match Common.time run with
  | v, dt -> Printf.sprintf "%.4f %s" v (Common.pretty_time dt)
  | exception Dpll.Decision_limit _ -> refusal "decision cap"
  | exception Invalid_argument reason -> refusal reason

let strategy_cell db q s =
  let config =
    { E.default_config with E.strategies = [ s ]; E.kl_samples = 30_000 }
  in
  match Common.time (fun () -> E.evaluate ~config db q) with
  | r, dt ->
      let v = E.value r.E.outcome in
      let mark = match r.E.outcome with E.Exact _ -> "" | E.Approximate _ -> "~" in
      Printf.sprintf "%s%.4f %s" mark v (Common.pretty_time dt)
  | exception E.No_method ((_, reason) :: _) -> refusal reason
  | exception E.No_method [] -> "✗"

let cell db q = function Strategy s -> strategy_cell db q s | Tree_dpll -> dpll_cell db q

let matrix () =
  Common.section "per-strategy results (value + time; ~ marks sampling; ✗ = method refuses)";
  let queries =
    [ (Q.q_hier, 4); (Q.q_j, 3); (Q.q_w, 2); (Q.h0, 3); (Q.self_join_symmetric, 3) ]
  in
  let rows =
    List.map
      (fun ((e : Q.entry), n) ->
        let db = db_for e.Q.query ~n in
        e.Q.name :: List.map (cell db e.Q.query) columns)
      queries
  in
  Common.table (("query" :: List.map column_name columns) :: rows)

let dispatcher () =
  Common.section "dispatcher choices (default configuration)";
  let queries = [ (Q.q_hier, 4); (Q.q_j, 3); (Q.q_w, 2); (Q.h0, 3); (Q.self_join_symmetric, 3) ] in
  let rows =
    List.map
      (fun ((e : Q.entry), n) ->
        let db = db_for e.Q.query ~n in
        let r = E.evaluate db e.Q.query in
        [ e.Q.name;
          E.strategy_name r.E.strategy;
          Common.f6 (E.value r.E.outcome);
          String.concat "; "
            (List.map (fun (s, _) -> E.strategy_name s) r.E.skipped) ])
      queries
  in
  Common.table ([ "query"; "answered by"; "value"; "skipped" ] :: rows)

(* Who answers what under the default chain: every zoo query at every
   domain and two seeds, one evaluation each under a 20 s deadline (degraded
   Karp–Luby answers are marked "~"). *)
let census () =
  let deadline_s = 20.0 in
  let domains = if smoke then [ 4; 6 ] else [ 4; 6; 8; 10; 12 ] in
  let seeds = [ 1; 2 ] in
  Common.section
    (Printf.sprintf "default-chain census (winner + time; %.0f s deadline per evaluation)"
       deadline_s);
  let config = { E.default_config with E.deadline_s = Some deadline_s } in
  let wins = Hashtbl.create 8 and slowest = ref ("", 0.0) in
  let run (e : Q.entry) n seed =
    let specs =
      List.map (fun (name, arity) -> Gen.spec ~density:0.8 name arity) (L.Fo.relations e.Q.query)
    in
    let db = Gen.random_tid ~seed ~domain_size:n specs in
    match Common.time (fun () -> E.eval ~config db e.Q.query) with
    | Ok a, dt ->
        let winner = a.Answer.strategy in
        Hashtbl.replace wins winner (1 + Option.value ~default:0 (Hashtbl.find_opt wins winner));
        if dt > snd !slowest then
          slowest := (Printf.sprintf "%s n=%d seed=%d" e.Q.name n seed, dt);
        Printf.sprintf "%s%s %s" (if a.Answer.degraded then "~" else "") winner
          (Common.pretty_time dt)
    | Error err, _ -> "✗ " ^ Probdb_core.Probdb_error.render err
  in
  let rows =
    List.concat_map
      (fun (e : Q.entry) ->
        List.map
          (fun n ->
            e.Q.name :: string_of_int n :: List.map (run e n) seeds)
          domains)
      Q.all
  in
  Common.table
    (("query" :: "n" :: List.map (Printf.sprintf "seed %d") seeds) :: rows);
  Printf.printf "wins: %s; slowest: %s (%s)\n"
    (String.concat ", "
       (List.filter_map
          (fun s ->
            let name = E.strategy_name s in
            Option.map (Printf.sprintf "%s %d" name) (Hashtbl.find_opt wins name))
          E.all_strategies))
    (fst !slowest)
    (Common.pretty_time (snd !slowest))

(* The cost of the probes themselves: the same auto-dispatched query with
   tracing off (the default — every probe is one atomic load) and on. The
   disabled number is the one that matters for production; docs/PERF.md
   records it. *)
let tracing_overhead () =
  Common.section "tracing overhead (engine-auto on q_j, per-query medians)";
  let db = db_for Q.q_j.Q.query ~n:3 in
  let q = Q.q_j.Q.query in
  let reps = 100 in
  let batch () =
    for _ = 1 to reps do
      ignore (E.probability db q)
    done
  in
  let off = Common.timed ~repeat:5 batch /. float_of_int reps in
  Probdb_obs.Trace.enable ();
  let on_ = Common.timed ~repeat:5 batch /. float_of_int reps in
  Probdb_obs.Trace.disable ();
  Probdb_obs.Trace.clear ();
  Common.table
    [ [ "tracing"; "time/query"; "overhead" ];
      [ "disabled"; Common.pretty_time off; "-" ];
      [ "enabled"; Common.pretty_time on_;
        Printf.sprintf "%+.1f%%" (100.0 *. ((on_ /. off) -. 1.0)) ] ]

let run () =
  Common.header "E12: engine ablation — every method on every query";
  matrix ();
  dispatcher ();
  census ();
  tracing_overhead ()

let bechamel_tests =
  let db = db_for Q.q_j.Q.query ~n:3 in
  [
    Bechamel.Test.make ~name:"e12/engine-auto-qj"
      (Bechamel.Staged.stage (fun () -> E.probability db Q.q_j.Q.query));
  ]
