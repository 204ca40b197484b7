(* Tests for the event-tracing layer: ring buffers, Chrome trace_event
   export schema, span repair, and the determinism guarantee (tracing on
   or off must not change query answers). *)

module L = Probdb_logic
module E = Probdb_engine.Engine
module Gen = Probdb_workload.Gen
module Trace = Probdb_obs.Trace
module Json = Probdb_obs.Json

(* Every test leaves tracing off and empty so suites stay independent. *)
let isolated f =
  Fun.protect
    ~finally:(fun () ->
      Trace.disable ();
      Trace.clear ())
    f

(* (a) Disabled tracing records nothing: the probes must be inert, not
   just filtered at export. *)
let test_disabled_records_nothing () =
  isolated @@ fun () ->
  Trace.disable ();
  Trace.clear ();
  Trace.begin_ ~cat:"t" "x";
  Trace.instant "y";
  Trace.counter "z" 1.0;
  Trace.end_ ~cat:"t" "x";
  Alcotest.(check int) "no events" 0 (List.length (Trace.events ()));
  Alcotest.(check bool) "with_span still runs the thunk" true
    (Trace.with_span "s" (fun () -> true))

(* (b) Recorded events come back in timestamp order with the emitting
   domain and the right kinds. *)
let test_events_ordered_and_typed () =
  isolated @@ fun () ->
  Trace.enable ();
  Trace.with_span ~cat:"outer" "a" (fun () ->
      Trace.instant ~cat:"i" "tick";
      Trace.counter ~cat:"c" "n" 42.0);
  let evs = Trace.events () in
  Alcotest.(check (list string))
    "kind sequence"
    [ "B:a"; "i:tick"; "C:n"; "E:a" ]
    (List.map
       (fun (e : Trace.event) ->
         let k =
           match e.Trace.kind with
           | Trace.Begin -> "B"
           | Trace.End -> "E"
           | Trace.Instant -> "i"
           | Trace.Counter -> "C"
         in
         k ^ ":" ^ e.Trace.name)
       evs);
  let sorted = List.sort (fun (a : Trace.event) b -> Int.compare a.Trace.ts_ns b.Trace.ts_ns) evs in
  Alcotest.(check bool) "timestamp order" true (evs = sorted);
  let d = (Domain.self () :> int) in
  Alcotest.(check bool) "lane is this domain" true
    (List.for_all (fun (e : Trace.event) -> e.Trace.domain = d) evs);
  match List.find (fun (e : Trace.event) -> e.Trace.kind = Trace.Counter) evs with
  | e -> Alcotest.(check (float 0.0)) "counter value" 42.0 e.Trace.value
  | exception Not_found -> Alcotest.fail "no counter event"

(* (c) Ring overflow keeps the newest events and counts the dropped. *)
let test_ring_overflow () =
  isolated @@ fun () ->
  Trace.enable ~capacity:8 ();
  for i = 1 to 100 do
    Trace.counter "i" (float_of_int i)
  done;
  let evs = Trace.events () in
  Alcotest.(check int) "ring keeps capacity" 8 (List.length evs);
  Alcotest.(check int) "dropped counted" 92 (Trace.dropped ());
  Alcotest.(check (float 0.0)) "newest survives" 100.0
    (List.fold_left (fun acc (e : Trace.event) -> Float.max acc e.Trace.value) 0.0 evs)

let chrome_events () =
  match Trace.to_chrome_json () with
  | Json.Obj fields -> (
      match List.assoc "traceEvents" fields with
      | Json.List evs -> evs
      | _ -> Alcotest.fail "traceEvents is not a list")
  | _ -> Alcotest.fail "chrome doc is not an object"

let ph ev =
  match ev with
  | Json.Obj fields -> (
      match List.assoc_opt "ph" fields with
      | Some (Json.Str s) -> s
      | _ -> Alcotest.fail "event without ph")
  | _ -> Alcotest.fail "event is not an object"

(* (d) The export schema: every event is an object carrying
   name/ph/pid/tid, phases are from the known set, and Begin/End nest
   properly per lane — even when the recorded stream is broken (unclosed
   Begin, orphan End), because the exporter repairs it. *)
let test_chrome_schema_and_repair () =
  isolated @@ fun () ->
  Trace.enable ();
  Trace.end_ "orphan";
  (* Begin evicted in a real overflow; synthetic here *)
  Trace.begin_ "unclosed";
  Trace.instant "i";
  let evs = chrome_events () in
  Alcotest.(check bool) "nonempty" true (evs <> []);
  let known = [ "B"; "E"; "i"; "C"; "M" ] in
  List.iter
    (fun ev ->
      Alcotest.(check bool) "known phase" true (List.mem (ph ev) known);
      match ev with
      | Json.Obj fields ->
          List.iter
            (fun k ->
              Alcotest.(check bool) (k ^ " present") true
                (List.mem_assoc k fields))
            [ "name"; "ph"; "pid"; "tid" ]
      | _ -> Alcotest.fail "event is not an object")
    evs;
  let count p = List.length (List.filter (fun e -> ph e = p) evs) in
  Alcotest.(check int) "balanced B/E" (count "B") (count "E");
  Alcotest.(check bool) "thread metadata present" true (count "M" > 0)

(* (e) Counter events carry their value under args.value — that's where
   Perfetto reads the series. *)
let test_counter_args () =
  isolated @@ fun () ->
  Trace.enable ();
  Trace.counter ~cat:"c" "load" 7.5;
  let evs = List.filter (fun e -> ph e = "C") (chrome_events ()) in
  Alcotest.(check int) "one counter" 1 (List.length evs);
  match List.hd evs with
  | Json.Obj fields -> (
      match List.assoc_opt "args" fields with
      | Some (Json.Obj args) -> (
          match List.assoc_opt "value" args with
          | Some (Json.Float v) -> Alcotest.(check (float 0.0)) "value" 7.5 v
          | _ -> Alcotest.fail "no args.value")
      | _ -> Alcotest.fail "counter without args")
  | _ -> Alcotest.fail "not an object"

(* (f) enable starts a fresh trace: events from the previous run are gone
   even though domain-local buffers were cached. *)
let test_enable_clears () =
  isolated @@ fun () ->
  Trace.enable ();
  Trace.instant "old";
  Trace.enable ();
  Trace.instant "new";
  let names = List.map (fun (e : Trace.event) -> e.Trace.name) (Trace.events ()) in
  Alcotest.(check (list string)) "only the new event" [ "new" ] names

(* (g) Determinism: the probability computed with tracing enabled must be
   bit-identical to the one computed with tracing off — instrumentation
   observes, never perturbs. *)
let test_tracing_does_not_change_answers () =
  isolated @@ fun () ->
  let q = L.Parser.parse_sentence "exists x y. R(x) && S(x,y) && T(y)" in
  let specs =
    List.map (fun (name, arity) -> Gen.spec ~density:0.6 name arity) (L.Fo.relations q)
  in
  let db = Gen.random_tid ~seed:11 ~domain_size:6 specs in
  Trace.disable ();
  let p_off = E.probability db q in
  Trace.enable ();
  let p_on = E.probability db q in
  Trace.disable ();
  Alcotest.(check bool) "bit-identical probability" true
    (Int64.equal (Int64.bits_of_float p_off) (Int64.bits_of_float p_on))

(* (h) Multi-domain tracing: pool tasks land on their executing domain's
   lane, and the export carries one thread_name record per lane. *)
let test_domain_lanes () =
  isolated @@ fun () ->
  Trace.enable ();
  let pool = Probdb_par.Par.create ~domains:2 () in
  let results =
    Probdb_par.Par.run pool (List.init 8 (fun i () -> i * i))
  in
  Alcotest.(check (list int)) "results in order"
    (List.init 8 (fun i -> i * i))
    results;
  let evs = Trace.events () in
  let lanes =
    List.sort_uniq Int.compare (List.map (fun (e : Trace.event) -> e.Trace.domain) evs)
  in
  Alcotest.(check bool) "at least one lane" true (List.length lanes >= 1);
  let metas = List.filter (fun e -> ph e = "M") (chrome_events ()) in
  (* one process_name + one thread_name per lane *)
  Alcotest.(check int) "metadata per lane" (1 + List.length lanes) (List.length metas)

(* (h) The grounded tier grounds at most once per evaluation: WMC and OBDD
   share one lineage, and answers from the cheaper tiers never build it. *)
let test_grounded_tier_grounds_once () =
  isolated @@ fun () ->
  let groundings config db q =
    (* explicit capacity: the ring-overflow test leaves a tiny one behind *)
    Trace.enable ~capacity:65_536 ();
    let r = E.evaluate ~config db (L.Parser.parse_sentence q) in
    let n =
      List.length
        (List.filter
           (fun (e : Trace.event) -> e.Trace.kind = Trace.Begin && e.Trace.name = "lineage.ground")
           (Trace.events ()))
    in
    Trace.disable ();
    (E.strategy_name r.E.strategy, n)
  in
  let db =
    Gen.random_tid ~seed:5 ~domain_size:3
      [ Gen.spec ~density:0.8 "R" 1; Gen.spec ~density:0.8 "S" 2; Gen.spec ~density:0.8 "T" 1 ]
  in
  let check name want got = Alcotest.(check (pair string int)) name want got in
  (* WMC skips the DNF lineage it was handed, OBDD answers from the same one *)
  check "h0: wmc skips, obdd wins" ("obdd", 1)
    (groundings E.default_config db "exists x y. R(x) && S(x,y) && T(y)");
  (* WMC claims the CNF lineage and trips; OBDD reuses it *)
  check "wmc trips, obdd wins" ("obdd", 1)
    (groundings
       { E.default_config with E.strategies = [ E.Wmc; E.Obdd ]; wmc_max_decisions = 1 }
       db "forall x y. !R(x) || !S(x,y) || !T(y)");
  check "safe plan never grounds" ("safe-plan", 0)
    (groundings E.default_config db "exists x y. R(x) && S(x,y)");
  check "lifted never grounds" ("lifted", 0)
    (groundings E.default_config db "forall x y. R(x) || S(x,y)")

let suites =
  [
    ( "trace",
      [
        Alcotest.test_case "disabled records nothing" `Quick
          test_disabled_records_nothing;
        Alcotest.test_case "events ordered and typed" `Quick
          test_events_ordered_and_typed;
        Alcotest.test_case "ring overflow drops oldest" `Quick test_ring_overflow;
        Alcotest.test_case "chrome schema valid and repaired" `Quick
          test_chrome_schema_and_repair;
        Alcotest.test_case "counter values in args" `Quick test_counter_args;
        Alcotest.test_case "enable starts fresh" `Quick test_enable_clears;
        Alcotest.test_case "tracing does not change answers" `Quick
          test_tracing_does_not_change_answers;
        Alcotest.test_case "pool tasks trace per-domain lanes" `Quick
          test_domain_lanes;
        Alcotest.test_case "grounded tier grounds once" `Quick
          test_grounded_tier_grounds_once;
      ] );
  ]
