(* The four workloads: each one's database, request stream and server
   flags, all generated from the workload seed before anything is timed.

   The server only ever sees the packed database file and the request
   lines; the reference answers ([oracle]) are computed in this process by
   [Engine.eval] over the same file, with the server's engine settings. *)

module Core = Probdb_core
module E = Probdb_engine.Engine
module Answer = Probdb_engine.Answer
module Gen = Probdb_workload.Gen
module Prepare = Probdb_prepare.Prepare
module Storage = Probdb_storage.Storage
module Parser = Probdb_logic.Parser
module Json = Probdb_obs.Json

type t = {
  name : string;
  server_args : (string * string) list;
      (** [probdb serve] flags, [("--workers", "2")]; an empty value is a
          bare flag *)
  connections : int;  (** client connections, one generator thread each *)
  in_flight : int;  (** requests kept outstanding per connection; 1 = closed loop *)
  texts : string array;  (** distinct query texts *)
  stream : int array;  (** request [i] asks [texts.(stream.(i mod len))] *)
  kl_seeds : int option;
      (** [Some base]: request [i] carries sampling seed [base + i], so
          degraded answers are independent draws and their interval
          misses can be counted *)
  probe : int;  (** text asked first by every fresh server (set-up time) *)
  db_path : string;
  tuples : int;
  file_bytes : int;
}

let delta = 0.05

let rel name arity rows =
  Core.Relation.make (Core.Schema.of_arity name arity) rows

let prob rng = 0.05 +. Random.State.float rng 0.9

(* Unary relation listing each constant with probability [density]. *)
let unary rng name n density =
  rel name 1
    (List.filter_map
       (fun x ->
         if Random.State.float rng 1.0 < density then
           Some (Core.Tuple.of_ints [ x ], prob rng)
         else None)
       (List.init n Fun.id))

(* Binary relation listing each of the n*n pairs with probability [density]. *)
let dense_binary rng name n density =
  let rows = ref [] in
  for x = n - 1 downto 0 do
    for y = n - 1 downto 0 do
      if Random.State.float rng 1.0 < density then
        rows := (Core.Tuple.of_ints [ x; y ], prob rng) :: !rows
    done
  done;
  rel name 2 !rows

(* Zipf(1) draws over [0, n): rank r is drawn with weight 1/(r+1), and
   ranks map to constants through a seeded permutation so the hot
   constants differ between seeds. *)
let zipf_sampler rng n =
  let cum = Array.make n 0.0 in
  let acc = ref 0.0 in
  for r = 0 to n - 1 do
    acc := !acc +. (1.0 /. float_of_int (r + 1));
    cum.(r) <- !acc
  done;
  let perm = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- t
  done;
  fun () ->
    let u = Random.State.float rng !acc in
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cum.(mid) < u then lo := mid + 1 else hi := mid
    done;
    perm.(!lo)

(* Interns texts as they are drawn, so the stream refers to them by index. *)
let interner () =
  let ids = Hashtbl.create 1024 and texts = ref [] and n = ref 0 in
  let intern text =
    match Hashtbl.find_opt ids text with
    | Some i -> i
    | None ->
        let i = !n in
        Hashtbl.add ids text i;
        texts := text :: !texts;
        incr n;
        i
  in
  let contents () = Array.of_list (List.rev !texts) in
  (intern, contents)

(* Draw [len] requests from [templates], (weight, text-of-constant) pairs,
   in shuffled blocks that hold each template exactly [weight] times: every
   stretch of the stream has the same mix, so a run's figures do not depend
   on how many expensive requests happened to fall into its window. *)
let stratified_stream rng ~len ~constant templates =
  let intern, contents = interner () in
  let block =
    Array.of_list (List.concat_map (fun (w, f) -> List.init w (fun _ -> f)) templates)
  in
  let b = Array.length block in
  let stream = Array.make len 0 in
  for start = 0 to (len / b) - 1 do
    for i = b - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = block.(i) in
      block.(i) <- block.(j);
      block.(j) <- t
    done;
    Array.iteri (fun k f -> stream.((start * b) + k) <- intern (f (constant ()))) block
  done;
  (contents (), Array.sub stream 0 (len / b * b))

(* The tuples of a fixed-structure TID, with probabilities re-drawn from
   the workload seed: grounded costs (lineage, circuit sizes) depend on the
   structure alone, so runs on different seeds do the same work. *)
let reweigh ?(lo = 0.05) ?(hi = 0.95) ~seed db =
  let rng = Random.State.make [| seed; 4 |] in
  Core.Tid.map_probs (fun _ _ _ -> lo +. Random.State.float rng (hi -. lo)) db

let index_of texts text =
  let rec find i = if texts.(i) = text then i else find (i + 1) in
  find 0

let pack ~dir name db =
  let path = Filename.concat dir (name ^ ".pdb") in
  Storage.pack db path;
  (path, Core.Tid.support_size db, (Unix.stat path).Unix.st_size)

let fixed_server_args ~workers ~queue ~degrade_above ~deadline_ms =
  [ ("--workers", string_of_int workers);
    ("--queue", string_of_int queue);
    ("--degrade-above", string_of_int degrade_above) ]
  @ match deadline_ms with Some ms -> [ ("--deadline-ms", string_of_int ms) ] | None -> []

(* serve-point: point queries over a small TID whose 4 templates fit the
   plan cache but whose distinct texts do not fit its text index. Two
   templates are answered by lifted inference, two by safe plans, each in
   about 10-20 us, so serving and prepare dominate a request. Four
   requests in flight keep the one worker busy: the server's own work per
   request, not the wake-up latency of a shared VM, sets the pace. *)
let serve_point ~seed ~dir =
  let n = 2000 in
  let rng = Random.State.make [| seed; 1 |] in
  let s =
    rel "S" 2
      (List.init 1000 (fun _ ->
           (Core.Tuple.of_ints [ Random.State.int rng n; Random.State.int rng n ], prob rng))
      |> List.sort_uniq (fun (a, _) (b, _) -> Core.Tuple.compare a b))
  in
  let db =
    Core.Tid.make ~domain:(List.init n Core.Value.int)
      [ unary rng "R" n 0.3; s; unary rng "T" n 0.3 ]
  in
  let db_path, tuples, file_bytes = pack ~dir "serve-point" db in
  let texts, stream =
    stratified_stream rng ~len:(1 lsl 17) ~constant:(zipf_sampler rng n)
      [ (3, fun c -> Printf.sprintf "R(%d) || T(%d)" c c);
        (2, fun c -> Printf.sprintf "R(%d) || T(%d) || S(%d,%d)" c c c c);
        (2, fun c -> Printf.sprintf "R(%d) && T(%d)" c c);
        (3, Printf.sprintf "exists y. S(%d,y) && T(y)") ]
  in
  { name = "serve-point";
    server_args =
      fixed_server_args ~workers:1 ~queue:64 ~degrade_above:48 ~deadline_ms:None;
    connections = 1; in_flight = 4; texts; stream; kl_seeds = None;
    probe = stream.(0); db_path; tuples; file_bytes }

(* scan-packed: a ~1M-tuple packed TID; full and constant-selective
   join-projects over the mapped S, plus a rare universal query that lifted
   inference answers over heap-materialised (small, unary) relations. *)
let scan_packed ~seed ~dir =
  let n = 1000 in
  let rng = Random.State.make [| seed; 2 |] in
  let db_path, tuples, file_bytes =
    let db =
      Core.Tid.make
        ~domain:(List.init n Core.Value.int)
        [ unary rng "R" n 0.5; dense_binary rng "S" n 0.5; unary rng "T" n 0.5;
          dense_binary rng "U" n 0.5 ]
    in
    pack ~dir "scan-packed" db
  in
  Gc.compact ();
  (* 64 selective constants: each distinct text costs the reference a scan *)
  let hot = Array.init 64 (fun _ -> Random.State.int rng n) in
  let texts, stream =
    stratified_stream rng ~len:4096
      ~constant:(fun () -> hot.(Random.State.int rng (Array.length hot)))
      [ (2, fun _ -> "exists x y. R(x) && S(x,y)");
        (2, fun _ -> "exists x y. S(x,y) && T(y)");
        (15, Printf.sprintf "exists y. S(%d,y) && T(y)");
        (1, fun _ -> "forall x. R(x) => T(x)") ]
  in
  let probe = index_of texts "exists x y. R(x) && S(x,y)" in
  { name = "scan-packed";
    server_args =
      fixed_server_args ~workers:1 ~queue:64 ~degrade_above:48 ~deadline_ms:None;
    connections = 1; in_flight = 1; texts; stream; kl_seeds = None; probe;
    db_path; tuples; file_bytes }

(* grounded-exact: the query zoo's hard and lifted-only queries on a
   domain-8 TID, so the strategy chain, lineage and the grounded counters
   do the work. R is complete so that [h0_forall] has no empty clause, and
   the zoo's [self_join_hard] is written over the binary S1: over a unary R
   its atoms would match no tuple. *)
let grounded_exact ~seed ~dir =
  let db =
    reweigh ~seed
      (Gen.random_tid ~seed:3 ~domain_size:8
         [ Gen.spec ~density:1.0 "R" 1; Gen.spec ~density:0.4 "S" 2;
           Gen.spec ~density:0.6 "T" 1; Gen.spec ~density:0.3 "S1" 2;
           Gen.spec ~density:0.5 "S2" 2; Gen.spec ~density:0.5 "S3" 2 ])
  in
  let db_path, tuples, file_bytes = pack ~dir "grounded-exact" db in
  let module Q = Probdb_workload.Queries in
  (* h0 carries a third of the mix, so the median request is an h0: the
     median of a mix of equal shares would sit on the edge between two
     queries' costs and jump between them from run to run *)
  let rng = Random.State.make [| seed; 3 |] in
  let texts, stream =
    stratified_stream rng ~len:4096 ~constant:(fun () -> ())
      (List.map (fun (w, t) -> (w, fun () -> t))
         [ (3, Q.h0.Q.text); (1, Q.h0_forall.Q.text); (2, Q.h1.Q.text);
           (1, "exists x y z. S1(x,y) && S1(y,z)"); (1, Q.q_j.Q.text); (1, Q.q_w.Q.text) ])
  in
  { name = "grounded-exact";
    server_args =
      fixed_server_args ~workers:1 ~queue:64 ~degrade_above:48 ~deadline_ms:None;
    connections = 1; in_flight = 1; texts; stream; kl_seeds = None;
    probe = index_of texts Q.h0.Q.text; db_path; tuples; file_bytes }

(* overload-window: E17's three-query mix on its domain-12 TID, sent
   pipelined 16 deep at a 1-worker server whose degrade watermark (4) sits
   below the standing queue and whose queue bound (32) sits above it: every
   admitted request is force-degraded and none is shed. Probabilities stay
   in [0.02, 0.2] so the answers sit well inside (0, 1): near 1 the sampled
   estimate overshoots and its interval comes back empty (see README.md).
   The probabilities are fixed too, because the sampler's cost per draw
   depends on them; the workload seed draws the requests' sampling seeds. *)
let overload_window ~seed ~dir =
  let db =
    reweigh ~lo:0.02 ~hi:0.2 ~seed:17
      (Gen.random_tid ~seed:17 ~domain_size:12
         [ Gen.spec ~density:0.6 "R" 1; Gen.spec ~density:0.4 "S" 2;
           Gen.spec ~density:0.6 "T" 1 ])
  in
  let db_path, tuples, file_bytes = pack ~dir "overload-window" db in
  let texts =
    [| "exists x y. R(x) && S(x,y)"; "forall x y. R(x) || S(x,y)";
       "exists x y. R(x) && S(x,y) && T(y)" |]
  in
  { name = "overload-window";
    server_args =
      fixed_server_args ~workers:1 ~queue:32 ~degrade_above:4 ~deadline_ms:(Some 2000);
    connections = 1; in_flight = 16; texts;
    stream = Array.init 4096 (fun i -> i mod 3);
    kl_seeds = Some (1 + ((seed land 0xfff) * 0x100000)); probe = 2; db_path; tuples; file_bytes }

let names = [ "serve-point"; "scan-packed"; "grounded-exact"; "overload-window" ]

let make name ~seed ~dir =
  match name with
  | "serve-point" -> serve_point ~seed ~dir
  | "scan-packed" -> scan_packed ~seed ~dir
  | "grounded-exact" -> grounded_exact ~seed ~dir
  | "overload-window" -> overload_window ~seed ~dir
  | _ -> invalid_arg ("unknown workload " ^ name)

(* Request [i] on the wire. Ids are stream positions modulo the stream
   length, unique among any window of outstanding requests. *)
let request_line w i =
  let len = Array.length w.stream in
  let fields =
    [ ("id", Json.Int (i mod len)); ("query", Json.Str w.texts.(w.stream.(i mod len))) ]
    @ match w.kl_seeds with Some base -> [ ("seed", Json.Int (base + i)) ] | None -> []
  in
  Json.to_string (Json.Obj fields)

(* The engine settings [probdb serve] evaluates with, minus the deadline:
   the reference must be the exact answer. *)
let engine_config cache =
  { E.default_config with
    E.degrade = Some { E.eps = 0.1; delta; max_samples = 20_000 };
    plan_cache = Some cache }

let open_db w = Core.Csv_io.load_any w.db_path

(* Reference answer of every distinct text, computed before the run. *)
let oracle w =
  let db = open_db w in
  let config = engine_config (Prepare.Cache.create_default ()) in
  Array.map
    (fun text ->
      match E.eval ~config db (Parser.parse text) with
      | Ok a when a.Answer.exact -> a.Answer.value
      | Ok _ -> failwith ("oracle: inexact reference for " ^ text)
      | Error e -> failwith ("oracle: " ^ Core.Probdb_error.render e))
    w.texts
