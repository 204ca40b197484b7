(* The [probdb serve] suite: protocol conformance, concurrency
   bit-identity against in-process evaluation, admission control,
   overload shedding, and shutdown semantics — everything over a real
   TCP loopback socket, on an ephemeral port per test.

   The multi-client soak scales with PROBDB_SOAK=1 (what `make
   check-serve` sets): 8 clients x 1000 requests instead of the quick
   8 x 50. *)

module Serve = Probdb_serve.Serve
module Client = Probdb_serve.Client
module Protocol = Probdb_serve.Protocol
module Json = Probdb_obs.Json
module E = Probdb_engine.Engine
module Answer = Probdb_engine.Answer
module L = Probdb_logic
module Gen = Probdb_workload.Gen
module Err = Probdb_core.Probdb_error

let small_db () =
  Gen.random_tid ~seed:11 ~domain_size:6
    [ Gen.spec ~density:0.5 "R" 1; Gen.spec ~density:0.3 "S" 2;
      Gen.spec ~density:0.5 "T" 1 ]

(* Big enough that grounded exact inference on the unsafe H0-shaped query
   polls its guard many times — the deadline and degradation paths need
   work to interrupt. *)
let hard_db () =
  Gen.random_tid ~seed:3 ~domain_size:26
    [ Gen.spec ~density:0.85 "R" 1; Gen.spec ~density:0.8 "S" 2;
      Gen.spec ~density:0.85 "T" 1 ]

let h0 = "exists x y. R(x) && S(x,y) && T(y)"

let queries =
  [ "exists x y. R(x) && S(x,y)";
    "exists x. R(x)";
    h0;
    "forall x y. R(x) || S(x,y)";
    "exists x y. R(x) && S(x,y) && R(y)" ]

let with_server ?config db f =
  let config =
    match config with
    | Some c -> { c with Serve.port = 0 }
    | None -> { Serve.default_config with Serve.port = 0 }
  in
  let server = Serve.start ~config db in
  Fun.protect ~finally:(fun () -> Serve.stop server) (fun () ->
      f server (Serve.port server))

let get name j =
  match Json.member name j with
  | Some v -> v
  | None -> Alcotest.failf "response missing %S in %s" name (Json.to_string j)

let float_of name j =
  match get name j with
  | Json.Float f -> f
  | Json.Int i -> float_of_int i
  | _ -> Alcotest.failf "%S is not a number" name

let bool_of name j =
  match get name j with
  | Json.Bool b -> b
  | _ -> Alcotest.failf "%S is not a boolean" name

(* ---------- protocol conformance ---------- *)

let test_protocol_ops () =
  with_server (small_db ()) @@ fun _server port ->
  let c = Client.connect port in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  Alcotest.(check bool) "ping" true (Client.ping c);
  (* stats has the documented serve-block fields *)
  let stats = Client.result (Client.call c [ ("op", Json.Str "stats") ]) in
  List.iter
    (fun k -> ignore (get k stats))
    [ "uptime_s"; "workers"; "queue_capacity"; "queue_depth"; "degrade_above";
      "in_flight"; "connections_accepted"; "connections_active"; "requests";
      "eval_ok"; "eval_error"; "shed"; "degraded_under_load"; "worker_failures" ];
  (* metrics is the process-wide registry document *)
  let metrics = Client.result (Client.call c [ ("op", Json.Str "metrics") ]) in
  ignore (get "counters" metrics);
  ignore (get "gauges" metrics);
  ignore (get "histograms" metrics);
  (* trace returns a Chrome trace_event document *)
  let trace =
    Client.result (Client.call c [ ("op", Json.Str "trace"); ("ms", Json.Int 10) ])
  in
  ignore (get "traceEvents" trace);
  (* id round-trips verbatim, including non-integer ids *)
  let resp =
    Client.call c [ ("id", Json.Str "abc"); ("op", Json.Str "ping") ]
  in
  (match get "id" resp with
  | Json.Str "abc" -> ()
  | j -> Alcotest.failf "id not echoed: %s" (Json.to_string j))

let expect_error ~cls ~code resp =
  Alcotest.(check bool) "ok=false" false (Client.ok resp);
  let err = get "error" resp in
  (match get "class" err with
  | Json.Str c -> Alcotest.(check string) "error class" cls c
  | _ -> Alcotest.fail "error class not a string");
  match get "code" err with
  | Json.Int c -> Alcotest.(check int) "error code" code c
  | _ -> Alcotest.fail "error code not an int"

let test_malformed_requests () =
  with_server (small_db ()) @@ fun _server port ->
  let c = Client.connect port in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let roundtrip line =
    Client.send_line c line;
    match Json.of_string (Client.recv_line c) with
    | Ok j -> j
    | Error m -> Alcotest.failf "response not JSON: %s" m
  in
  (* not JSON at all *)
  expect_error ~cls:"bad-request" ~code:10 (roundtrip "this is not json");
  (* JSON but not an object *)
  expect_error ~cls:"bad-request" ~code:10 (roundtrip "[1,2,3]");
  (* missing op defaults to eval, which then lacks its query — and the
     error still echoes the request id so pipelined clients can match it *)
  let missing = roundtrip {|{"id":17}|} in
  expect_error ~cls:"bad-request" ~code:10 missing;
  (match Json.member "id" missing with
  | Some (Json.Int 17) -> ()
  | other ->
      Alcotest.failf "parse error lost the id: %s"
        (match other with Some j -> Json.to_string j | None -> "absent"));
  (* ...and a well-formed op-less request really is an eval *)
  (match Json.member "ok" (roundtrip {|{"id":18,"query":"exists x. R(x)"}|}) with
  | Some (Json.Bool true) -> ()
  | _ -> Alcotest.fail "op-less eval request did not succeed");
  (* unknown op *)
  expect_error ~cls:"bad-request" ~code:10 (roundtrip {|{"op":"frobnicate"}|});
  (* eval without query *)
  expect_error ~cls:"bad-request" ~code:10 (roundtrip {|{"op":"eval"}|});
  (* wrong field type *)
  expect_error ~cls:"bad-request" ~code:10
    (roundtrip {|{"op":"eval","query":42}|});
  (* unknown method: recognised at evaluation, still typed *)
  expect_error ~cls:"bad-request" ~code:10
    (Client.eval c ~fields:[ ("method", Json.Str "quantum") ] "exists x. R(x)");
  (* ...including the retired tree-DPLL method *)
  expect_error ~cls:"bad-request" ~code:10
    (Client.eval c ~fields:[ ("method", Json.Str "dpll") ] "exists x. R(x)");
  (* out-of-range numeric fields: bad-request, not an internal engine
     error surfacing from a guard or sampler invariant *)
  expect_error ~cls:"bad-request" ~code:10
    (Client.eval c ~fields:[ ("samples", Json.Int 0) ] "exists x. R(x)");
  expect_error ~cls:"bad-request" ~code:10
    (Client.eval c ~fields:[ ("deadline_ms", Json.Int (-5)) ] "exists x. R(x)");
  expect_error ~cls:"bad-request" ~code:10
    (Client.eval c ~fields:[ ("eps", Json.Float 0.0) ] "exists x. R(x)");
  (* a query that does not parse: the typed parse error, code 4 *)
  expect_error ~cls:"parse" ~code:4 (Client.eval c "exists x. R(x");
  (* the connection survived all of the above *)
  Alcotest.(check bool) "still serving" true (Client.ping c)

(* ---------- bit-identity against in-process evaluation ---------- *)

let local_value db q =
  match
    E.eval ~config:E.default_config db (L.Parser.parse_sentence q)
  with
  | Ok a -> a.Answer.value
  | Error e -> Alcotest.failf "local eval failed: %s" (Err.render e)

let test_eval_matches_local () =
  let db = small_db () in
  let expected = List.map (fun q -> (q, local_value db q)) queries in
  with_server db @@ fun _server port ->
  let c = Client.connect port in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  List.iter
    (fun (q, want) ->
      let resp = Client.eval c q in
      Alcotest.(check bool) ("ok for " ^ q) true (Client.ok resp);
      let got = float_of "value" (Client.result resp) in
      if got <> want then
        Alcotest.failf "%s: served %.17g <> local %.17g" q got want)
    expected

let test_concurrent_clients_bit_identical () =
  let db = small_db () in
  let expected = List.map (fun q -> (q, local_value db q)) queries in
  let soak = Sys.getenv_opt "PROBDB_SOAK" = Some "1" in
  let clients = 8 and rounds = if soak then 200 else 10 in
  (* 8 clients x rounds x 5 queries: 8000 requests in soak mode *)
  with_server db @@ fun server port ->
  let failures = Atomic.make 0 in
  let answered = Atomic.make 0 in
  let client_loop _i =
    let c = Client.connect port in
    Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
    for _ = 1 to rounds do
      List.iter
        (fun (q, want) ->
          let resp = Client.eval c q in
          let got = float_of "value" (Client.result resp) in
          Atomic.incr answered;
          if not (Client.ok resp) || got <> want then Atomic.incr failures)
        expected
    done
  in
  let threads = List.init clients (fun i -> Thread.create client_loop i) in
  List.iter Thread.join threads;
  Alcotest.(check int) "no mismatched answers" 0 (Atomic.get failures);
  Alcotest.(check int) "every request answered"
    (clients * rounds * List.length expected)
    (Atomic.get answered);
  (* zero dropped connections: the servers saw exactly [clients] + none shed *)
  let stats = Serve.stats_json server in
  (match Json.member "shed" stats with
  | Some (Json.Int 0) -> ()
  | j ->
      Alcotest.failf "unexpected shedding under default capacity: %s"
        (match j with Some j -> Json.to_string j | None -> "missing"))

let test_pipelined_requests () =
  (* many requests written before any response is read; per-connection
     answers come back for every id exactly once *)
  with_server (small_db ()) @@ fun _server port ->
  let c = Client.connect port in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let n = 20 in
  for i = 0 to n - 1 do
    Client.send_line c
      (Json.to_string
         (Json.Obj
            [ ("id", Json.Int i); ("op", Json.Str "eval");
              ("query", Json.Str "exists x. R(x)") ]))
  done;
  let seen = Hashtbl.create n in
  for _ = 1 to n do
    match Json.of_string (Client.recv_line c) with
    | Ok resp -> (
        Alcotest.(check bool) "ok" true (Client.ok resp);
        match get "id" resp with
        | Json.Int i -> Hashtbl.replace seen i ()
        | _ -> Alcotest.fail "non-integer id echoed")
    | Error m -> Alcotest.failf "bad response: %s" m
  done;
  Alcotest.(check int) "every id answered once" n (Hashtbl.length seen)

(* ---------- deadlines, degradation, overload ---------- *)

let test_deadline_degrades () =
  (* a 1 ms deadline on an unsafe query over the hard database: exact
     inference cannot finish, the guard trips, the answer is the certified
     (eps,delta) fallback *)
  with_server (hard_db ()) @@ fun _server port ->
  let c = Client.connect port in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let resp = Client.eval c ~fields:[ ("deadline_ms", Json.Int 1) ] h0 in
  Alcotest.(check bool) "ok (degraded, not dropped)" true (Client.ok resp);
  let r = Client.result resp in
  Alcotest.(check bool) "degraded" true (bool_of "degraded" r);
  let conf = get "confidence" r in
  let lo = float_of "ci_low" conf and hi = float_of "ci_high" conf in
  let v = float_of "value" r in
  Alcotest.(check bool) "value inside its own CI" true (lo <= v && v <= hi)

let test_deadline_no_degrade_fails_typed () =
  with_server (hard_db ()) @@ fun _server port ->
  let c = Client.connect port in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let resp =
    Client.eval c
      ~fields:[ ("deadline_ms", Json.Int 1); ("no_degrade", Json.Bool true) ]
      h0
  in
  (* exhausted (7): a guard tripped and no fallback was allowed *)
  expect_error ~cls:"exhausted" ~code:7 resp

let test_overload_sheds_typed () =
  (* one worker wedged on slow sampling work, capacity 1, no degradation
     watermark: the pipelined burst must shed with the typed overloaded
     error and never queue unboundedly. The wedge must stay far below the
     worker stall deadline (30 s by default): a wedge the watchdog dooms
     is answered with [internal], which this test counts as untyped. The
     watchdog has its own test in the chaos suite. *)
  let config =
    { Serve.default_config with
      Serve.workers = 1;
      queue_capacity = 1;
      degrade_above = 0 }
  in
  with_server ~config (hard_db ()) @@ fun _server port ->
  let c = Client.connect port in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let n = 8 in
  for i = 0 to n - 1 do
    Client.send_line c
      (Json.to_string
         (Json.Obj
            [ ("id", Json.Int i); ("op", Json.Str "eval");
              ("query", Json.Str h0);
              ("method", Json.Str "karp-luby");
              ("samples", Json.Int 100_000) ]))
  done;
  let ok = ref 0 and shed = ref 0 and other = ref 0 in
  for _ = 1 to n do
    match Json.of_string (Client.recv_line c) with
    | Ok resp ->
        if Client.ok resp then incr ok
        else if Client.error_class resp = Some "overloaded" then begin
          incr shed;
          let err = get "error" resp in
          ignore (get "depth" err);
          ignore (get "capacity" err);
          match get "code" err with
          | Json.Int 8 -> ()
          | _ -> Alcotest.fail "overloaded code <> 8"
        end
        else incr other
    | Error m -> Alcotest.failf "bad response: %s" m
  done;
  Alcotest.(check int) "every request answered" n (!ok + !shed + !other);
  Alcotest.(check int) "no untyped failures" 0 !other;
  Alcotest.(check bool) "some requests shed" true (!shed > 0);
  Alcotest.(check bool) "some requests served" true (!ok > 0)

let test_degrades_under_load () =
  (* watermark 1 with a wedged worker: later admissions in the burst are
     answered with the certified approximation instead of queued exact
     work, and the stats counter records it *)
  let config =
    { Serve.default_config with
      Serve.workers = 1;
      queue_capacity = 16;
      degrade_above = 1 }
  in
  with_server ~config (hard_db ()) @@ fun server port ->
  let c = Client.connect port in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let n = 6 in
  for i = 0 to n - 1 do
    Client.send_line c
      (Json.to_string
         (Json.Obj
            [ ("id", Json.Int i); ("op", Json.Str "eval");
              ("query", Json.Str h0);
              (* even the degraded answers stay bounded *)
              ("samples", Json.Int 4_000);
              ("deadline_ms", Json.Int 300) ]))
  done;
  let degraded_under_load = ref 0 in
  for _ = 1 to n do
    match Json.of_string (Client.recv_line c) with
    | Ok resp when Client.ok resp ->
        if bool_of "degraded_under_load" (Client.result resp) then
          incr degraded_under_load
    | Ok _ -> () (* typed errors acceptable under a deadline *)
    | Error m -> Alcotest.failf "bad response: %s" m
  done;
  Alcotest.(check bool) "burst tail degraded under load" true
    (!degraded_under_load > 0);
  match Json.member "degraded_under_load" (Serve.stats_json server) with
  | Some (Json.Int k) ->
      Alcotest.(check bool) "stats counter advanced" true (k > 0)
  | _ -> Alcotest.fail "stats missing degraded_under_load"

let test_no_degrade_exempt_under_load () =
  (* past the degradation watermark, a request carrying [no_degrade]
     keeps its exact evaluation and is not counted as degraded-under-load:
     force-degrading it would silently break the exactness contract
     (docs/SERVING.md "Overload semantics") *)
  let config =
    { Serve.default_config with
      Serve.workers = 1;
      queue_capacity = 16;
      degrade_above = 1 }
  in
  let db = hard_db () in
  let cheap = "exists x. R(x)" in
  let want = local_value db cheap in
  with_server ~config db @@ fun server port ->
  let c = Client.connect port in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  (* two slow sampling jobs (no_degrade so they never touch the counter):
     one wedges the single worker, the other holds the queue depth at the
     watermark while the exact requests behind it are admitted *)
  for i = 0 to 1 do
    Client.send_line c
      (Json.to_string
         (Json.Obj
            [ ("id", Json.Int i); ("op", Json.Str "eval");
              ("query", Json.Str h0);
              ("method", Json.Str "karp-luby");
              ("no_degrade", Json.Bool true);
              ("samples", Json.Int 400_000) ]))
  done;
  let n = 3 in
  for i = 2 to 1 + n do
    Client.send_line c
      (Json.to_string
         (Json.Obj
            [ ("id", Json.Int i); ("op", Json.Str "eval");
              ("query", Json.Str cheap);
              ("no_degrade", Json.Bool true) ]))
  done;
  for _ = 1 to 2 + n do
    match Json.of_string (Client.recv_line c) with
    | Error m -> Alcotest.failf "bad response: %s" m
    | Ok resp -> (
        Alcotest.(check bool) "ok" true (Client.ok resp);
        match get "id" resp with
        | Json.Int i when i >= 2 ->
            let r = Client.result resp in
            Alcotest.(check bool) "exact despite load" true (bool_of "exact" r);
            Alcotest.(check bool) "not flagged degraded_under_load" false
              (bool_of "degraded_under_load" r);
            let got = float_of "value" r in
            if got <> want then
              Alcotest.failf "no_degrade served %.17g <> exact %.17g" got want
        | _ -> ())
  done;
  match Json.member "degraded_under_load" (Serve.stats_json server) with
  | Some (Json.Int 0) -> ()
  | j ->
      Alcotest.failf "no_degrade requests counted as degraded: %s"
        (match j with Some j -> Json.to_string j | None -> "missing")

(* ---------- shutdown ---------- *)

let test_shutdown_drains_in_flight () =
  (* a slow request is in flight when the shutdown lands on another
     connection; its answer must still arrive before the socket closes *)
  with_server (hard_db ()) @@ fun server port ->
  let c = Client.connect port in
  let slow_resp = ref None in
  let th =
    Thread.create
      (fun () ->
        slow_resp :=
          Some
            (Client.eval c
               ~fields:
                 [ ("method", Json.Str "karp-luby");
                   ("samples", Json.Int 500_000) ]
               h0))
      ()
  in
  (* let the slow request reach a worker *)
  Thread.delay 0.15;
  let admin = Client.connect port in
  let resp = Client.call admin [ ("op", Json.Str "shutdown") ] in
  Alcotest.(check bool) "shutdown acknowledged" true (Client.ok resp);
  Thread.join th;
  Client.close c;
  Client.close admin;
  Serve.wait server;
  (match !slow_resp with
  | Some r -> Alcotest.(check bool) "in-flight answer delivered" true (Client.ok r)
  | None -> Alcotest.fail "in-flight request lost");
  (* new connections are refused once stopped *)
  match Client.connect port with
  | c2 ->
      (* accept backlog may race the close; a read must at least fail *)
      (match Client.ping c2 with
      | true -> Alcotest.fail "server still serving after shutdown"
      | false -> ()
      | exception (End_of_file | Sys_error _ | Failure _ | Client.Connection_closed) -> ());
      Client.close c2
  | exception Unix.Unix_error _ -> ()

(* SIGTERM under pipelined load: the process signals itself while one
   connection keeps 16 requests in flight. The handler only records the
   signal and the thread in [Serve.wait] runs the drain, which must finish
   within 5 s every time; [wait] then puts the default handlers back.
   (Running the stop on a thread created inside the handler could hang the
   drain forever, a few percent of the time.) *)
let test_sigterm_drains_under_load () =
  let soak = Sys.getenv_opt "PROBDB_SOAK" = Some "1" in
  let trials = if soak then 100 else 10 in
  let is_default signal =
    match Sys.signal signal Sys.Signal_default with
    | Sys.Signal_default -> true
    | _ -> false
  in
  List.iter (fun signal -> Sys.set_signal signal Sys.Signal_default)
    [ Sys.sigint; Sys.sigterm ];
  let db = small_db () in
  for trial = 1 to trials do
    let rng = Random.State.make [| trial |] in
    let config =
      { Serve.default_config with Serve.port = 0; Serve.workers = 1 }
    in
    let server = Serve.start ~config db in
    Serve.drain_on_signals server;
    let c = Client.connect (Serve.port server) in
    Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
    let total = 3000 and depth = 16 in
    let answered = Atomic.make 0 in
    let send i =
      Client.send_line c
        (Json.to_string
           (Json.Obj
              [ ("id", Json.Int i); ("op", Json.Str "eval");
                ("query", Json.Str (List.nth queries (i mod 2))) ]))
    in
    let load () =
      try
        for i = 0 to depth - 1 do send i done;
        for i = depth to total + depth - 1 do
          ignore (Client.recv_line c);
          Atomic.incr answered;
          if i < total then send i
        done
      with Client.Connection_closed | Failure _ | Sys_error _ | Unix.Unix_error _ -> ()
    in
    let loader = Thread.create load () in
    let kill_after = 20 + Random.State.int rng 400 in
    let signalled_at = Atomic.make 0.0 in
    let killer =
      Thread.create
        (fun () ->
          let give_up = Unix.gettimeofday () +. 2.0 in
          while Atomic.get answered < kill_after && Unix.gettimeofday () < give_up do
            Thread.delay 0.001
          done;
          Atomic.set signalled_at (Unix.gettimeofday ());
          Unix.kill (Unix.getpid ()) Sys.sigterm)
        ()
    in
    let finished = Atomic.make false in
    let waiter =
      Thread.create (fun () -> Serve.wait server; Atomic.set finished true) ()
    in
    Thread.join killer;
    let deadline = Atomic.get signalled_at +. 5.0 in
    while (not (Atomic.get finished)) && Unix.gettimeofday () < deadline do
      Thread.delay 0.01
    done;
    (* a hung drain holds the stop lock, so a failing trial leaves the
       server as it is rather than block on stopping it *)
    if not (Atomic.get finished) then
      Alcotest.failf "trial %d: SIGTERM drain did not finish within 5 s" trial;
    Thread.join waiter;
    Thread.join loader;
    Alcotest.(check bool)
      (Printf.sprintf "trial %d: default SIGTERM handler restored" trial)
      true (is_default Sys.sigterm);
    Alcotest.(check bool)
      (Printf.sprintf "trial %d: default SIGINT handler restored" trial)
      true (is_default Sys.sigint)
  done

let test_stop_now_cancels () =
  (* stop `Now while slow exact work is in flight: the server guard's
     cancellation reaches the evaluation, which answers typed (cancelled
     -> exhausted) or degraded — and stop returns promptly either way *)
  with_server (hard_db ()) @@ fun server port ->
  let c = Client.connect port in
  let got = ref None in
  let th =
    Thread.create
      (fun () ->
        got :=
          Some
            (try
               `Resp
                 (Client.eval c
                    ~fields:[ ("no_degrade", Json.Bool true) ]
                    h0)
             with End_of_file | Sys_error _ | Failure _ | Client.Connection_closed -> `Closed))
      ()
  in
  Thread.delay 0.2;
  let t0 = Unix.gettimeofday () in
  Serve.stop ~mode:`Now server;
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "stop `Now returns promptly" true (elapsed < 5.0);
  Thread.join th;
  Client.close c;
  match !got with
  | Some (`Resp r) ->
      (* the in-flight request was interrupted: typed error, never a hang *)
      if Client.ok r then ()
      else
        Alcotest.(check bool) "typed interruption" true
          (match Client.error_class r with
          | Some ("exhausted" | "shutting-down" | "internal") -> true
          | _ -> false)
  | Some `Closed | None -> ()

let test_queued_get_shutting_down_on_stop_now () =
  (* queued-but-not-started requests are failed out with the typed
     shutting-down error when the queue is cleared *)
  let config =
    { Serve.default_config with
      Serve.workers = 1;
      queue_capacity = 8;
      degrade_above = 0 }
  in
  with_server ~config (hard_db ()) @@ fun server port ->
  let c = Client.connect port in
  for i = 0 to 3 do
    Client.send_line c
      (Json.to_string
         (Json.Obj
            [ ("id", Json.Int i); ("op", Json.Str "eval");
              ("query", Json.Str h0);
              ("method", Json.Str "karp-luby");
              ("samples", Json.Int 2_000_000) ]))
  done;
  Thread.delay 0.2;
  let stopper = Thread.create (fun () -> Serve.stop ~mode:`Now server) () in
  let classes = ref [] in
  (try
     for _ = 1 to 4 do
       match Json.of_string (Client.recv_line c) with
       | Ok resp ->
           classes :=
             (if Client.ok resp then "ok"
              else Option.value ~default:"?" (Client.error_class resp))
             :: !classes
       | Error _ -> ()
     done
   with End_of_file | Sys_error _ | Client.Connection_closed -> ());
  Thread.join stopper;
  Client.close c;
  Alcotest.(check bool) "queued requests answered shutting-down" true
    (List.mem "shutting-down" !classes)

(* ---------- operational telemetry ---------- *)

module Trace = Probdb_obs.Trace
module Chaos = Probdb_chaos.Chaos
module Request_id = Probdb_obs.Request_id

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  really_input_string ic (in_channel_length ic)

(* Telemetry recording happens on the worker after the reply is sent, so
   give the background write a moment to land. *)
let eventually ?(timeout_s = 2.0) pred =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    if pred () then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      Thread.delay 0.02;
      go ()
    end
  in
  go ()

let test_request_id_roundtrip () =
  with_server (small_db ()) @@ fun _server port ->
  let c = Client.connect port in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  (* a client-supplied id is echoed verbatim on the reply *)
  let resp =
    Client.eval ~fields:[ ("request_id", Json.Str "rid-echo-1") ] c
      "exists x. R(x)"
  in
  Alcotest.(check bool) "eval ok" true (Client.ok resp);
  Alcotest.(check (option string)) "echoed" (Some "rid-echo-1")
    (Client.request_id resp);
  (* the server mints one when the client does not supply it *)
  (match Client.request_id (Client.eval c "exists x. R(x)") with
  | Some rid ->
      Alcotest.(check bool) "minted id valid" true (Request_id.valid rid)
  | None -> Alcotest.fail "no server-minted request_id");
  (* malformed ids are rejected typed, not silently accepted *)
  expect_error ~cls:"bad-request" ~code:10
    (Client.eval ~fields:[ ("request_id", Json.Str "has space") ] c
       "exists x. R(x)")

let test_stats_window_and_uptime () =
  with_server (small_db ()) @@ fun _server port ->
  let c = Client.connect port in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  for _ = 1 to 5 do
    Alcotest.(check bool) "eval ok" true (Client.ok (Client.eval c h0))
  done;
  let stats = Client.result (Client.call c [ ("op", Json.Str "stats") ]) in
  (* cumulative counters stay exact *)
  Alcotest.(check bool) "uptime present" true
    (float_of "uptime_s" stats >= 0.0);
  Alcotest.(check bool) "start time sane" true
    (float_of "started_unix_s" stats > 1e9);
  (* rolling windows have moved under the load just applied *)
  let window = get "window" stats in
  List.iter (fun h -> ignore (get h window)) [ "10s"; "60s"; "300s" ];
  let w10 = get "10s" window in
  Alcotest.(check bool) "10s answered moved" true
    (float_of "answered" w10 >= 5.0);
  Alcotest.(check bool) "10s qps positive" true (float_of "qps" w10 > 0.0);
  Alcotest.(check bool) "10s p99 present" true (float_of "p99_s" w10 > 0.0)

(* One request through `--slow-query-ms 0` leaves the same correlation id
   on the typed reply, the slow-query NDJSON record, the trace instants
   and the OpenMetrics exposition — the issue's acceptance criterion. *)
let test_request_id_correlation () =
  let log = Filename.temp_file "probdb_slow" ".ndjson" in
  Fun.protect ~finally:(fun () -> try Sys.remove log with Sys_error _ -> ())
  @@ fun () ->
  let config =
    { Serve.default_config with
      Serve.slow_query_ms = Some 0.0;
      slow_query_log = Some log }
  in
  Trace.enable ();
  Fun.protect ~finally:Trace.disable @@ fun () ->
  with_server ~config (small_db ()) @@ fun server port ->
  let c = Client.connect port in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let rid = "rid-corr-7" in
  let resp =
    Client.eval ~fields:[ ("request_id", Json.Str rid) ] c "exists x. R(x)"
  in
  Alcotest.(check bool) "eval ok" true (Client.ok resp);
  Alcotest.(check (option string)) "reply correlated" (Some rid)
    (Client.request_id resp);
  (* slow-query record (threshold 0 logs everything) *)
  Alcotest.(check bool) "slow-query record carries id" true
    (eventually (fun () ->
         contains_sub (read_file log)
           (Printf.sprintf "\"request_id\":%s" (Json.to_string (Json.Str rid)))));
  let slow_line =
    match
      List.find_opt
        (fun l -> contains_sub l rid)
        (String.split_on_char '\n' (read_file log))
    with
    | Some l -> l
    | None -> Alcotest.fail "slow-query line vanished"
  in
  (match Json.of_string slow_line with
  | Ok j ->
      List.iter
        (fun k -> ignore (get k j))
        [ "ts_unix_s"; "request_id"; "query"; "verdict"; "latency_s";
          "queue_wait_s"; "strategy"; "phases"; "chain" ]
  | Error m -> Alcotest.failf "slow-query line not JSON: %s" m);
  (* trace instants *)
  let has_instant name =
    List.exists
      (fun (e : Trace.event) -> e.Trace.kind = Trace.Instant && e.Trace.name = name)
      (Trace.events ())
  in
  Alcotest.(check bool) "trace: admitted instant" true
    (eventually (fun () -> has_instant ("req:" ^ rid ^ ":admitted")));
  Alcotest.(check bool) "trace: ok instant" true
    (eventually (fun () -> has_instant ("req:" ^ rid ^ ":ok")));
  (* OpenMetrics exposition *)
  Alcotest.(check bool) "openmetrics carries id" true
    (eventually (fun () ->
         let om = Serve.openmetrics_text server in
         contains_sub om
           (Printf.sprintf "probdb_last_request_info{request_id=\"%s\"} 1" rid)
         && contains_sub om
              (Printf.sprintf
                 "probdb_last_slow_request_info{request_id=\"%s\"} 1" rid)
         && contains_sub om "# EOF"))

(* A chaos-doomed request is answered with the typed internal error AND
   its telemetry trail — all under the client's correlation id. The
   chaos site allowlist keeps the fault on the worker only, so the
   serve transport stays healthy. *)
let test_doomed_request_carries_id () =
  Chaos.arm ~only:[ "par.worker.crash" ] { Chaos.seed = 42; rate = 1.0 };
  Fun.protect ~finally:Chaos.disarm @@ fun () ->
  Trace.enable ();
  Fun.protect ~finally:Trace.disable @@ fun () ->
  let config = { Serve.default_config with Serve.workers = 1 } in
  with_server ~config (small_db ()) @@ fun _server port ->
  let c = Client.connect port in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let rid = "rid-doom-1" in
  let resp =
    Client.eval ~fields:[ ("request_id", Json.Str rid) ] c "exists x. R(x)"
  in
  expect_error ~cls:"internal" ~code:1 resp;
  Alcotest.(check (option string)) "doomed reply correlated" (Some rid)
    (Client.request_id resp);
  Alcotest.(check bool) "trace: doomed instant" true
    (eventually (fun () ->
         List.exists
           (fun (e : Trace.event) ->
             e.Trace.kind = Trace.Instant
             && e.Trace.name = "req:" ^ rid ^ ":doomed")
           (Trace.events ())))

let test_openmetrics_exposition () =
  let config = { Serve.default_config with Serve.openmetrics_port = Some 0 } in
  with_server ~config (small_db ()) @@ fun server port ->
  let c = Client.connect port in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  Alcotest.(check bool) "eval ok" true (Client.ok (Client.eval c h0));
  (* in-band: the metrics op grows an openmetrics format variant *)
  let resp =
    Client.call c
      [ ("op", Json.Str "metrics"); ("format", Json.Str "openmetrics") ]
  in
  Alcotest.(check bool) "metrics ok" true (Client.ok resp);
  let body =
    match Json.member "openmetrics" (Client.result resp) with
    | Some (Json.Str s) -> s
    | _ -> Alcotest.fail "no openmetrics text in metrics result"
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("exposition has " ^ needle) true
        (contains_sub body needle))
    [ "# TYPE probdb_serve_requests counter"; "probdb_serve_requests_total";
      "probdb_serve_uptime_seconds"; "# EOF" ];
  (* unknown formats are rejected typed *)
  expect_error ~cls:"bad-request" ~code:10
    (Client.call c [ ("op", Json.Str "metrics"); ("format", Json.Str "xml") ]);
  (* out-of-band: the HTTP exposition endpoint serves the same text *)
  let om_port =
    match Serve.openmetrics_port server with
    | Some p -> p
    | None -> Alcotest.fail "openmetrics listener has no port"
  in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, om_port));
  let req = Bytes.of_string "GET /metrics HTTP/1.0\r\n\r\n" in
  ignore (Unix.write fd req 0 (Bytes.length req));
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 4096 in
  let rec drain () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        drain ()
  in
  drain ();
  let http = Buffer.contents buf in
  Alcotest.(check bool) "HTTP 200" true (contains_sub http "200 OK");
  Alcotest.(check bool) "openmetrics content type" true
    (contains_sub http "application/openmetrics-text");
  Alcotest.(check bool) "exposition complete" true (contains_sub http "# EOF")

let suites =
  [
    ( "serve",
      [
        Alcotest.test_case "protocol control ops" `Quick test_protocol_ops;
        Alcotest.test_case "malformed requests answered typed" `Quick
          test_malformed_requests;
        Alcotest.test_case "served values = in-process values" `Quick
          test_eval_matches_local;
        Alcotest.test_case "concurrent clients bit-identical" `Slow
          test_concurrent_clients_bit_identical;
        Alcotest.test_case "pipelined requests all answered" `Quick
          test_pipelined_requests;
        Alcotest.test_case "deadline expiry degrades with CI" `Quick
          test_deadline_degrades;
        Alcotest.test_case "deadline + no_degrade fails typed" `Quick
          test_deadline_no_degrade_fails_typed;
        Alcotest.test_case "overload sheds with typed error" `Slow
          test_overload_sheds_typed;
        Alcotest.test_case "backpressure degrades under load" `Slow
          test_degrades_under_load;
        Alcotest.test_case "no_degrade exempt from load degradation" `Slow
          test_no_degrade_exempt_under_load;
        Alcotest.test_case "shutdown drains in-flight work" `Slow
          test_shutdown_drains_in_flight;
        Alcotest.test_case "SIGTERM drains under pipelined load" `Quick
          test_sigterm_drains_under_load;
        Alcotest.test_case "stop now cancels in-flight work" `Slow
          test_stop_now_cancels;
        Alcotest.test_case "stop now fails queued typed" `Slow
          test_queued_get_shutting_down_on_stop_now;
        Alcotest.test_case "request ids round-trip and validate" `Quick
          test_request_id_roundtrip;
        Alcotest.test_case "stats: uptime and rolling windows" `Quick
          test_stats_window_and_uptime;
        Alcotest.test_case "one id across reply, slow log, trace, openmetrics"
          `Quick test_request_id_correlation;
        Alcotest.test_case "doomed request keeps its correlation id" `Quick
          test_doomed_request_carries_id;
        Alcotest.test_case "openmetrics exposition: in-band and HTTP" `Quick
          test_openmetrics_exposition;
      ] );
  ]
