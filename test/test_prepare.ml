(* The prepare/execute split: canonical structural keys, constant
   binding, the shared compiled-plan cache, and the contract the whole
   design rests on — caching can never change an answer.

   Bit-identity is asserted at the float-bits level between a capacity-0
   cache (identical pipeline, nothing retained), no cache at all (which
   resolves through a capacity-0 cache), the first (cold) evaluation
   through a real cache, and the warm hit. *)

module Core = Probdb_core
module L = Probdb_logic
module E = Probdb_engine.Engine
module Answer = Probdb_engine.Answer
module Prepare = Probdb_prepare.Prepare
module Q = Probdb_workload.Queries
module Gen = Probdb_workload.Gen
module Stats = Probdb_obs.Stats
module Json = Probdb_obs.Json
module P = Probdb_plans
module Serve = Probdb_serve.Serve
module Client = Probdb_serve.Client
module Protocol = Probdb_serve.Protocol

let parse = L.Parser.parse_sentence
let key_of text = fst (Prepare.key_of_query (parse text))

let db_for q ~seed ~domain_size =
  let specs =
    List.map
      (fun (name, arity) -> Gen.spec ~density:0.7 name arity)
      (L.Fo.relations q)
  in
  Gen.random_tid ~seed ~domain_size specs

(* ---------- the canonical key ---------- *)

let test_key_canonicalisation () =
  (* alpha-equivalent sentences share a key *)
  Alcotest.(check string) "alpha-renaming invariant"
    (key_of "exists x y. R(x) && S(x,y)")
    (key_of "exists u v. R(u) && S(u,v)");
  (* constants lift to parameters: same template, different binding *)
  let ka, pa = Prepare.key_of_query (parse "exists x. S(x,'a')") in
  let kb, pb = Prepare.key_of_query (parse "exists x. S(x,'b')") in
  Alcotest.(check string) "constants share a template" ka kb;
  Alcotest.(check bool) "bindings differ" false (pa = pb);
  Alcotest.(check int) "one parameter" 1 (Array.length pa);
  (* the constant-equality pattern is part of the structure: a repeated
     constant constrains a join, two distinct ones do not *)
  Alcotest.(check bool) "equality pattern distinguishes" false
    (String.equal
       (key_of "exists x. S(x,'a') && T('a')")
       (key_of "exists x. S(x,'a') && T('b')"));
  (* ...and the repeated-constant key is itself shared modulo renaming *)
  Alcotest.(check string) "repeated pattern shared"
    (key_of "exists x. S(x,'a') && T('a')")
    (key_of "exists x. S(x,'zz') && T('zz')");
  (* structurally different queries never collide *)
  Alcotest.(check bool) "structure distinguishes" false
    (String.equal (key_of Q.q_hier.Q.text) (key_of Q.h0.Q.text));
  (* parameters come back in first-occurrence order *)
  let _, params = Prepare.key_of_query (parse "exists x. S(x,'b') && R('a')") in
  Alcotest.(check (list string)) "first-occurrence order" [ "b"; "a" ]
    (List.map Core.Value.to_string (Array.to_list params))

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let test_bind_roundtrip () =
  let b = Prepare.prepare (parse "exists x y. R(x) && S(x,y) && T('a')") in
  Alcotest.(check int) "one parameter" 1 b.Prepare.artifact.Prepare.nparams;
  (match Prepare.bind_ucq b with
  | Ok (ucq, L.Ucq.Direct) ->
      let s = Format.asprintf "%a" L.Ucq.pp ucq in
      Alcotest.(check bool) "constant bound back" true (contains s "a");
      Alcotest.(check bool) "no marker leaks" false (String.contains s '\x00')
  | Ok (_, L.Ucq.Complemented) -> Alcotest.fail "expected a direct UCQ"
  | Error msg -> Alcotest.failf "expected a UCQ, got %S" msg);
  match Prepare.bind_plan b with
  | Some plan ->
      let s = P.Plan.to_string plan in
      Alcotest.(check bool) "plan mentions the constant" true (contains s "a");
      Alcotest.(check bool) "no marker in the plan" false (String.contains s '\x00')
  | None -> Alcotest.fail "hierarchical CQ must have a template plan"

(* ---------- bit-identity of cached execution ---------- *)

let bits = Int64.bits_of_float

let fingerprint = function
  | Ok (a : Answer.t) ->
      Ok
        ( bits a.Answer.value,
          a.Answer.strategy,
          a.Answer.degraded,
          List.map
            (fun s ->
              (Answer.step_strategy s, Answer.step_kind s, Answer.step_detail s))
            a.Answer.chain )
  | Error e -> Error (Probdb_core.Probdb_error.render e)

(* cold-through-cache, warm hit, capacity-0 and no cache at all must
   agree bit for bit (value, strategy, degradation chain) *)
let check_identity config db q =
  let with_cache plan_cache = { config with E.plan_cache } in
  let cached = with_cache (Some (Prepare.Cache.create ~capacity:512 ())) in
  let runs =
    [ cached (* cold *); cached (* warm *);
      with_cache (Some (Prepare.Cache.create ~capacity:0 ())); with_cache None ]
  in
  match List.map (fun config -> fingerprint (E.eval ~config db q)) runs with
  | cold :: rest -> List.for_all (( = ) cold) rest
  | [] -> true

(* random TIDs over the relations of [Q.hierarchical_chain 1..3] *)
let chain_db ~seed =
  Gen.random_tid ~seed ~domain_size:(2 + (seed mod 3))
    (Gen.spec ~density:0.7 "R" 1
    :: List.init 3 (fun i -> Gen.spec ~density:0.7 (Printf.sprintf "S%d" (i + 1)) 2))

let prop_cached_eval_bit_identical =
  Test_util.qcheck ~count:20 "cached eval bit-identical to cold (query zoo)"
    QCheck2.Gen.(int_range 1 500)
    (fun seed ->
      List.for_all
        (fun (e : Q.entry) ->
          let db = db_for e.Q.query ~seed ~domain_size:2 in
          check_identity E.default_config db e.Q.query)
        Q.all
      &&
      let db = chain_db ~seed in
      List.for_all
        (fun k -> check_identity E.default_config db (Q.hierarchical_chain k))
        [ 1; 2; 3 ])

let test_bit_identity_under_guard_trips () =
  (* deterministic resource trips (budgets, not wall clocks): every exact
     method trips or is skipped, the degradation chain is exercised, and
     the (seeded) degraded answer is still bit-identical cache-on vs off *)
  let starved =
    { E.default_config with
      E.obdd_max_nodes = 10;
      wmc_max_decisions = 10;
      max_enum_support = 2;
      max_ie_terms = Some 1;
      max_plan_rows = Some 1;
      seed = 97;
      degrade = Some { E.eps = 0.2; delta = 0.1; max_samples = 400 } }
  in
  let db = Gen.h0_db ~seed:6 ~n:6 () in
  Alcotest.(check bool) "degraded answer identical" true
    (check_identity starved db Q.h0.Q.query);
  (* a safe query whose promoted plan trips its row budget: the chain must
     record the trip identically on cold, warm and capacity-0 runs *)
  let db2 = db_for Q.q_hier.Q.query ~seed:8 ~domain_size:3 in
  Alcotest.(check bool) "plan trip chain identical" true
    (check_identity starved db2 Q.q_hier.Q.query)

let test_eviction_storm_never_changes_answers () =
  (* capacity 2 with a larger working set: constant eviction churn, yet
     every answer matches the uncached pipeline *)
  let tiny = Prepare.Cache.create ~capacity:2 () in
  let cached = { E.default_config with E.plan_cache = Some tiny } in
  let mismatches = ref 0 in
  for round = 1 to 3 do
    List.iter
      (fun (e : Q.entry) ->
        let db = db_for e.Q.query ~seed:round ~domain_size:2 in
        let fresh =
          { E.default_config with
            E.plan_cache = Some (Prepare.Cache.create ~capacity:0 ()) }
        in
        match (E.eval ~config:cached db e.Q.query, E.eval ~config:fresh db e.Q.query) with
        | Ok a, Ok b -> if bits a.Answer.value <> bits b.Answer.value then incr mismatches
        | Error _, Error _ -> ()
        | _ -> incr mismatches)
      Q.all
  done;
  Alcotest.(check int) "no drift under eviction churn" 0 !mismatches;
  let k = Prepare.Cache.counters tiny in
  Alcotest.(check bool) "cache stayed bounded" true (k.Prepare.Cache.entries <= 2);
  Alcotest.(check bool) "evictions happened" true (k.Prepare.Cache.evictions > 0)

(* ---------- the backpressure verdict ---------- *)

(* Each case seeds the key's cost record through [Prepare.record_cost], the
   function the engine itself records with, so no case depends on a
   timing. *)

let under_load_db () = Gen.h0_db ~seed:6 ~n:6 ()

let forced cache = E.force_degrade { E.default_config with E.plan_cache = Some cache }

let seed_costs cache q ~chain ~fallback =
  let a = (Prepare.Cache.of_query cache q).Prepare.artifact in
  Option.iter (Prepare.record_cost a Prepare.Chain) chain;
  Option.iter (Prepare.record_cost a Prepare.Fallback) fallback

let answer_of = function
  | Ok a -> a
  | Error e -> Alcotest.failf "expected an answer: %s" (Probdb_core.Probdb_error.render e)

let marked_under_load (a : Answer.t) =
  a.Answer.chain <> []
  && List.for_all
       (fun s -> Answer.step_detail s = "skipped: degraded under load (backpressure)")
       a.Answer.chain

let check_degraded_under_load name (a : Answer.t) =
  Alcotest.(check bool) (name ^ ": under_load") true a.Answer.under_load;
  Alcotest.(check bool) (name ^ ": degraded") true a.Answer.degraded;
  Alcotest.(check bool) (name ^ ": chain marked degraded under load") true
    (marked_under_load a)

let test_verdict_cheap_key_stays_exact () =
  let db = under_load_db () and q = Q.h0.Q.query in
  let cache = Prepare.Cache.create ~capacity:8 () in
  seed_costs cache q ~chain:(Some 1e-6) ~fallback:(Some 1.0);
  let a = answer_of (E.eval ~config:(forced cache) db q) in
  Alcotest.(check bool) "not under load" false a.Answer.under_load;
  Alcotest.(check bool) "exact" true a.Answer.exact;
  Alcotest.(check bool) "bit-identical to a cold exact run" true
    (fingerprint (Ok a) = fingerprint (E.eval db q))

let test_verdict_expensive_key_degrades () =
  let db = under_load_db () and q = Q.h0.Q.query in
  let cache = Prepare.Cache.create ~capacity:8 () in
  seed_costs cache q ~chain:(Some 1.0) ~fallback:(Some 1e-6);
  check_degraded_under_load "expensive" (answer_of (E.eval ~config:(forced cache) db q))

let test_verdict_unrecorded_key_degrades () =
  let db = under_load_db () and q = Q.h0.Q.query in
  check_degraded_under_load "no record"
    (answer_of (E.eval ~config:(forced (Prepare.Cache.create ~capacity:8 ())) db q));
  (* one cost alone is not a record to compare: the chain's, as a request
     below the watermark leaves it *)
  let cache = Prepare.Cache.create ~capacity:8 () in
  seed_costs cache q ~chain:(Some 1e-6) ~fallback:None;
  check_degraded_under_load "chain cost only"
    (answer_of (E.eval ~config:(forced cache) db q))

let test_verdict_forall_key_runs_exact () =
  (* a universal sentence has no monotone DNF to sample: even with no
     record, its first forced evaluation is the normal exact chain *)
  let db = under_load_db () and q = parse "forall x y. R(x) || S(x,y)" in
  let a = answer_of (E.eval ~config:(forced (Prepare.Cache.create ~capacity:8 ())) db q) in
  Alcotest.(check bool) "not under load" false a.Answer.under_load;
  Alcotest.(check bool) "exact" true a.Answer.exact;
  Alcotest.(check bool) "bit-identical to an unforced run" true
    (fingerprint (Ok a) = fingerprint (E.eval db q))

let test_verdict_capacity_zero_cache () =
  (* nothing is retained, so a record never outlives its evaluation: every
     forced evaluation of a samplable key degrades, as with no record *)
  let db = under_load_db () and q = Q.h0.Q.query in
  let cache = Prepare.Cache.create ~capacity:0 () in
  seed_costs cache q ~chain:(Some 1e-6) ~fallback:(Some 1.0);
  let first = answer_of (E.eval ~config:(forced cache) db q) in
  check_degraded_under_load "capacity 0" first;
  let second = answer_of (E.eval ~config:(forced cache) db q) in
  check_degraded_under_load "capacity 0, again" second;
  Alcotest.(check bool) "both runs identical" true
    (fingerprint (Ok first) = fingerprint (Ok second))

(* ---------- the shared cache under concurrency ---------- *)

let test_concurrent_lookups_exact_counters () =
  (* N domains hammer one cache, half the keys shared across domains and
     half private; no torn artifacts (every returned artifact equals a
     fresh rebuild) and the atomic counters balance exactly *)
  let shared = List.init 8 (fun k -> Q.hierarchical_chain (k + 1)) in
  let private_pool did = List.init 8 (fun k -> Q.hierarchical_chain (10 + (8 * did) + k)) in
  let cache = Prepare.Cache.create () in
  let n_domains = 4 and iters = 200 in
  let torn = Atomic.make 0 in
  let worker did () =
    let privs = private_pool did in
    for i = 0 to iters - 1 do
      let q =
        if i mod 2 = 0 then List.nth shared (((i / 2) + did) mod 8)
        else List.nth privs ((i / 2) mod 8)
      in
      let b = Prepare.Cache.of_query cache q in
      let fresh = Prepare.prepare q in
      if
        b.Prepare.artifact.Prepare.key <> fresh.Prepare.artifact.Prepare.key
        || b.Prepare.artifact.Prepare.nparams <> fresh.Prepare.artifact.Prepare.nparams
        || (b.Prepare.artifact.Prepare.plan = None)
           <> (fresh.Prepare.artifact.Prepare.plan = None)
      then Atomic.incr torn
    done
  in
  let domains = List.init n_domains (fun did -> Domain.spawn (worker did)) in
  List.iter Domain.join domains;
  Alcotest.(check int) "no torn entries" 0 (Atomic.get torn);
  let k = Prepare.Cache.counters cache in
  let distinct = 8 + (n_domains * 8) in
  Alcotest.(check int) "hits + misses = lookups, exactly"
    (n_domains * iters)
    (k.Prepare.Cache.hits + k.Prepare.Cache.misses);
  Alcotest.(check int) "one entry per distinct key" distinct k.Prepare.Cache.entries;
  Alcotest.(check int) "no evictions below capacity" 0 k.Prepare.Cache.evictions;
  Alcotest.(check bool) "every distinct key missed at least once" true
    (k.Prepare.Cache.misses >= distinct)

(* ---------- the serving integration ---------- *)

let small_db () =
  Gen.random_tid ~seed:11 ~domain_size:6
    [ Gen.spec ~density:0.5 "R" 1; Gen.spec ~density:0.3 "S" 2;
      Gen.spec ~density:0.5 "T" 1 ]

let with_server ?config db f =
  let config =
    match config with
    | Some c -> { c with Serve.port = 0 }
    | None -> { Serve.default_config with Serve.port = 0 }
  in
  let server = Serve.start ~config db in
  Fun.protect ~finally:(fun () -> Serve.stop server) (fun () ->
      f server (Serve.port server))

let plain_request query =
  { Protocol.query; free = []; meth = None; deadline_ms = None; samples = None;
    eps = None; delta = None; seed = None; no_degrade = false;
    want_stats = false; request_id = None }

let test_serve_engine_config_hoisted () =
  with_server (small_db ()) @@ fun server _port ->
  let base = Serve.engine_base server in
  (* the base is resolved once, not rebuilt per call *)
  Alcotest.(check bool) "hoisted base is one record" true
    (base == Serve.engine_base server);
  let c = Serve.request_engine_config server (plain_request "exists x. R(x)") in
  (* the request-invariant parts are shared with the base, physically *)
  Alcotest.(check bool) "plan cache shared" true
    (c.E.plan_cache == base.E.plan_cache);
  (match c.E.plan_cache with
  | Some cache ->
      Alcotest.(check bool) "it is the server cache" true
        (cache == Serve.plan_cache server)
  | None -> Alcotest.fail "request config lost the plan cache");
  Alcotest.(check bool) "parent guard shared" true
    (c.E.parent_guard == base.E.parent_guard);
  Alcotest.(check bool) "parent guard installed" true (c.E.parent_guard <> None);
  Alcotest.(check int) "worker-domain confinement" 1 c.E.domains;
  (* a request with no accuracy overrides reuses the resolved degrade
     record instead of re-deriving it *)
  (match (base.E.degrade, c.E.degrade) with
  | Some b, Some r -> Alcotest.(check bool) "degrade record shared" true (b == r)
  | _ -> Alcotest.fail "degradation defaults missing");
  (* per-request overrides still land *)
  let c2 =
    Serve.request_engine_config server
      { (plain_request "exists x. R(x)") with Protocol.meth = Some "wmc" }
  in
  (match c2.E.strategies with
  | [ E.Wmc ] -> ()
  | _ -> Alcotest.fail "method override lost");
  (* the retired tree-DPLL method is as unknown as a made-up one *)
  List.iter
    (fun meth ->
      match
        Serve.request_engine_config server
          { (plain_request "exists x. R(x)") with Protocol.meth = Some meth }
      with
      | exception Protocol.Bad _ -> ()
      | _ -> Alcotest.failf "unknown method %S must raise" meth)
    [ "quantum"; "dpll" ]

let float_of name j =
  match Json.member name j with
  | Some (Json.Float f) -> f
  | Some (Json.Int i) -> float_of_int i
  | _ -> Alcotest.failf "%S is not a number" name

let test_serve_repeated_templates_hit () =
  (* a repeated-template workload: after the first round every request is
     a cache hit, hit-rate >= 0.9, zero answer drift vs the uncached
     pipeline, and warm responses report ~0 parse/classify time. The
     cache is explicit so the test is meaningful under
     PROBDB_NO_PLAN_CACHE=1 too. *)
  let db = small_db () in
  let queries = [ "exists x y. R(x) && S(x,y)"; "exists x. R(x) && T(x)" ] in
  let uncached =
    { E.default_config with
      E.plan_cache = Some (Prepare.Cache.create ~capacity:0 ()) }
  in
  let expected =
    List.map
      (fun q ->
        match E.eval ~config:uncached db (parse q) with
        | Ok a -> (q, a.Answer.value)
        | Error e -> Alcotest.failf "local eval failed: %s" (Probdb_core.Probdb_error.render e))
      queries
  in
  let cache = Prepare.Cache.create () in
  let config =
    { Serve.default_config with
      Serve.engine = { E.default_config with E.plan_cache = Some cache } }
  in
  with_server ~config db @@ fun server port ->
  let c = Client.connect port in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let rounds = 25 in
  for _ = 1 to rounds do
    List.iter
      (fun (q, want) ->
        let resp = Client.eval c q in
        Alcotest.(check bool) ("ok for " ^ q) true (Client.ok resp);
        let got = float_of "value" (Client.result resp) in
        if bits got <> bits want then
          Alcotest.failf "%s: served %.17g drifted from uncached %.17g" q got want)
      expected
  done;
  (* warm request: the stats block reports the hit and zero-cost
     parse/classify phases (nothing records into them on a text hit) *)
  let resp =
    Client.eval c ~fields:[ ("stats", Json.Bool true) ] (fst (List.hd expected))
  in
  let stats = match Json.member "stats" (Client.result resp) with
    | Some s -> s
    | None -> Alcotest.fail "want_stats response missing stats"
  in
  (match Json.member "prepare" stats with
  | Some prep -> (
      match Json.member "hit" prep with
      | Some (Json.Bool true) -> ()
      | _ -> Alcotest.fail "warm request not reported as a cache hit")
  | None -> Alcotest.fail "stats missing the prepare block");
  (match Json.member "phases" stats with
  | Some phases ->
      Alcotest.(check (float 0.0)) "parse skipped on hit" 0.0 (float_of "parse_s" phases);
      Alcotest.(check (float 0.0)) "classify skipped on hit" 0.0
        (float_of "classify_s" phases)
  | None -> Alcotest.fail "stats missing phases");
  (* the server-level snapshot: >= 0.9 hit rate over the soak *)
  match Json.member "prepare_cache" (Serve.stats_json server) with
  | Some block ->
      let rate = float_of "hit_rate" block in
      Alcotest.(check bool)
        (Printf.sprintf "hit rate %.3f >= 0.9" rate)
        true (rate >= 0.9);
      let hits = float_of "hits" block and misses = float_of "misses" block in
      Alcotest.(check bool) "counters cover the workload" true
        (hits +. misses >= float_of_int (rounds * List.length queries))
  | None -> Alcotest.fail "serve stats missing prepare_cache"

let suites =
  [
    ( "prepare",
      [
        Alcotest.test_case "canonical key" `Quick test_key_canonicalisation;
        Alcotest.test_case "bind round-trip" `Quick test_bind_roundtrip;
        prop_cached_eval_bit_identical;
        Alcotest.test_case "bit identity under guard trips" `Quick
          test_bit_identity_under_guard_trips;
        Alcotest.test_case "eviction storm never changes answers" `Quick
          test_eviction_storm_never_changes_answers;
        Alcotest.test_case "load verdict: cheap key stays exact" `Quick
          test_verdict_cheap_key_stays_exact;
        Alcotest.test_case "load verdict: expensive key degrades" `Quick
          test_verdict_expensive_key_degrades;
        Alcotest.test_case "load verdict: unrecorded key degrades" `Quick
          test_verdict_unrecorded_key_degrades;
        Alcotest.test_case "load verdict: forall key runs exact" `Quick
          test_verdict_forall_key_runs_exact;
        Alcotest.test_case "load verdict: capacity-0 cache degrades" `Quick
          test_verdict_capacity_zero_cache;
        Alcotest.test_case "concurrent lookups, exact counters" `Slow
          test_concurrent_lookups_exact_counters;
        Alcotest.test_case "serve: engine config hoisted" `Quick
          test_serve_engine_config_hoisted;
        Alcotest.test_case "serve: repeated templates hit the cache" `Slow
          test_serve_repeated_templates_hit;
      ] );
  ]
