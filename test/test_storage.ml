(* The packed-container suite ([Probdb_storage.Storage]): roundtrip
   identity against the CSV path, bit-identical engine answers across
   strategies, typed errors for every corruption class, laziness of the
   mapped TID, and a concurrent serve soak where every worker reads one
   shared mapped file.

   The soak scales with PROBDB_SOAK=1 (what `make check-storage` sets). *)

module Core = Probdb_core
module Storage = Probdb_storage.Storage
module E = Probdb_engine.Engine
module Answer = Probdb_engine.Answer
module L = Probdb_logic
module Gen = Probdb_workload.Gen
module Err = Core.Probdb_error
module Serve = Probdb_serve.Serve
module Client = Probdb_serve.Client
module Json = Probdb_obs.Json
module Exec = Probdb_exec.Exec
module Metrics = Probdb_obs.Metrics

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) name

let small_db () =
  Gen.random_tid ~seed:11 ~domain_size:6
    [ Gen.spec ~density:0.5 "R" 1; Gen.spec ~density:0.3 "S" 2;
      Gen.spec ~density:0.5 "T" 1 ]

let with_handle path f =
  let t = Storage.open_file path in
  Fun.protect ~finally:(fun () -> Storage.close t) (fun () -> f t)

(* every relation's rows plus the domain, with exact floats — structural
   equality on this is the bit-identity oracle for the data itself *)
let contents db =
  ( List.map
      (fun r -> (Core.Relation.name r, Core.Relation.arity r, Core.Relation.rows r))
      (Core.Tid.relations db),
    Core.Tid.domain db )

let check_same_contents what a b =
  if contents a <> contents b then
    Alcotest.failf "%s: packed contents differ from source" what

(* ---------- roundtrip identity ---------- *)

let test_roundtrip_explicit () =
  (* value variety the CSV path never exercises: negative ints, strings
     with separators and quotes, booleans, an empty relation, and
     probabilities at both closed endpoints *)
  let v = Core.Value.int and s x = Core.Value.Str x and b x = Core.Value.Bool x in
  let r =
    Core.Relation.of_list "R"
      [ ([ v (-3); s "h\xc3\xa9llo, \"quoted\""; b true ], 0.1);
        ([ v 7; s ""; b false ], 1.0);
        ([ v 0; s "plain"; b true ], 0.0) ]
  in
  let e = Core.Relation.make (Core.Schema.make "Empty" [ "x"; "y" ]) [] in
  let db = Core.Tid.make [ r; e ] in
  let path = tmp "storage_explicit.pdb" in
  Storage.pack db path;
  with_handle path @@ fun t ->
  Storage.verify t;
  Alcotest.(check (list (triple string int int)))
    "TOC relations"
    [ ("Empty", 2, 0); ("R", 3, 3) ]
    (Storage.relations t);
  check_same_contents "explicit values" db (Storage.tid t)

let prop_roundtrip =
  Test_util.qcheck ~count:25 "pack then open = csv load (random TIDs)"
    QCheck2.Gen.(int_range 1 1000)
    (fun seed ->
      let db =
        Gen.random_tid ~seed ~domain_size:5
          [ Gen.spec ~density:0.4 "R" 1; Gen.spec ~density:0.3 "S" 2;
            Gen.spec ~density:0.5 "T" 3 ]
      in
      let dir = tmp (Printf.sprintf "storage_prop_%d.csv" seed) in
      let path = tmp (Printf.sprintf "storage_prop_%d.pdb" seed) in
      Core.Csv_io.save_dir dir db;
      let from_csv = Core.Csv_io.load_dir dir in
      Storage.pack from_csv path;
      let ok = with_handle path (fun t -> contents (Storage.tid t) = contents from_csv) in
      let via_load_any = contents (Core.Csv_io.load_any path) = contents from_csv in
      ok && via_load_any)

(* ---------- bit-identical engine answers, CSV vs packed ---------- *)

let eval_value ~config db q =
  match E.eval ~config db (L.Parser.parse_sentence q) with
  | Ok a -> a.Answer.value
  | Error e -> Alcotest.failf "eval failed: %s" (Err.render e)

let test_engine_bit_identity () =
  let db = small_db () in
  let dir = tmp "storage_identity.csv" in
  let path = tmp "storage_identity.pdb" in
  Core.Csv_io.save_dir dir db;
  let csv_db = Core.Csv_io.load_dir dir in
  Storage.pack csv_db path;
  let packed_db = Core.Csv_io.load_any path in
  let cases =
    [ (E.Lifted, "exists x y. R(x) && S(x,y)");
      (E.Safe_plan, "exists x y. R(x) && S(x,y)");
      (E.Wmc, "forall x y. R(x) || S(x,y)");
      (E.Obdd, "exists x y. R(x) && S(x,y) && T(y)");
      (E.Wmc, "exists x y. R(x) && S(x,y) && T(y)");
      (E.Karp_luby, "exists x y. R(x) && S(x,y) && T(y)") ]
    (* selective shapes that probe the row index, for every domain
       constant and one the database never saw *)
    @ List.concat_map
        (fun c ->
          [ (E.Safe_plan, Printf.sprintf "exists y. S(%s,y) && T(y)" c);
            (E.Safe_plan, Printf.sprintf "R(%s) && T(%s)" c c) ])
        (List.map Core.Value.to_string (Core.Tid.domain csv_db) @ [ "12345" ])
  in
  List.iter
    (fun (s, q) ->
      let config =
        { E.default_config with E.strategies = [ s ]; E.seed = 42;
          E.kl_samples = 5_000 }
      in
      let want = eval_value ~config csv_db q in
      let got = eval_value ~config packed_db q in
      if got <> want then
        Alcotest.failf "%s on %s: packed %.17g <> csv %.17g"
          (E.strategy_name s) q got want)
    cases

(* ---------- corruption: every class is a typed Io ---------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  really_input_string ic (in_channel_length ic)

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  output_string oc s

let u64_at s off =
  Int64.to_int (Bytes.get_int64_ne (Bytes.unsafe_of_string s) off)

let expect_io what f =
  match f () with
  | _ -> Alcotest.failf "%s: expected a typed Io error" what
  | exception Err.Error (Err.Io _ as e) ->
      Alcotest.(check int) (what ^ " exit code") 2 (Err.exit_code e)
  | exception e ->
      Alcotest.failf "%s: expected Io, got %s" what (Printexc.to_string e)

let test_corrupt_files () =
  let db = small_db () in
  let good = tmp "storage_good.pdb" in
  Storage.pack db good;
  let pristine = read_file good in
  let corrupt what f =
    let path = tmp "storage_corrupt.pdb" in
    write_file path (f pristine);
    expect_io what (fun () -> with_handle path (fun _ -> ()))
  in
  let patch off bytes s =
    let b = Bytes.of_string s in
    String.iteri (fun i c -> Bytes.set b (off + i) c) bytes;
    Bytes.to_string b
  in
  let patch_u64 off v s =
    let b = Bytes.of_string s in
    Bytes.set_int64_ne b off (Int64.of_int v);
    Bytes.to_string b
  in
  (* too small to even hold a header page *)
  corrupt "tiny file" (fun s -> String.sub s 0 100);
  (* magic *)
  corrupt "bad magic" (patch 0 "NOTPACK1");
  (* the byteswapped endianness tag: a container from a foreign-endian
     machine, detected before any checksum *)
  corrupt "foreign endianness" (fun s ->
      let tag = String.init 8 (fun i -> s.[16 + (7 - i)]) in
      patch 16 tag s);
  (* a tag that is neither ours nor swapped *)
  corrupt "garbled endianness tag" (patch_u64 16 12345);
  (* version from the future *)
  corrupt "unsupported version" (patch_u64 8 (Storage.format_version + 1));
  (* 32-bit word size *)
  corrupt "unsupported word size" (patch_u64 24 4);
  (* flip the stored header checksum itself *)
  corrupt "header checksum" (fun s -> patch_u64 64 (u64_at s 64 + 1) s);
  (* appended garbage: recorded size no longer matches the file *)
  corrupt "trailing garbage" (fun s -> s ^ "junk");
  (* truncation below the recorded size (drop the final page, which
     holds the table of contents) *)
  corrupt "truncated container" (fun s -> String.sub s 0 (String.length s - 4096));
  (* flip one byte inside the TOC segment *)
  corrupt "toc checksum" (fun s ->
      let toc_off = u64_at s 40 in
      let b = Bytes.of_string s in
      Bytes.set b toc_off (Char.chr (Char.code (Bytes.get b toc_off) lxor 0xff));
      Bytes.to_string b);
  (* a flipped data byte passes open (O(header) — data unchecked) but is
     named by the explicit full-file verify *)
  let path = tmp "storage_corrupt.pdb" in
  let b = Bytes.of_string pristine in
  Bytes.set b 4096 (Char.chr (Char.code (Bytes.get b 4096) lxor 0xff));
  write_file path (Bytes.to_string b);
  with_handle path (fun t -> expect_io "data checksum via verify" (fun () -> Storage.verify t));
  (* pack into a directory that does not exist *)
  expect_io "pack to missing directory" (fun () ->
      Storage.pack db "/nonexistent-probdb-dir/x.pdb");
  (* a closed handle refuses lazy loads *)
  let t = Storage.open_file good in
  Storage.close t;
  expect_io "use after close" (fun () -> ignore (Storage.dict t))

let test_load_any_sniffing () =
  let db = small_db () in
  let dir = tmp "storage_sniff.csv" in
  let path = tmp "storage_sniff.pdb" in
  Core.Csv_io.save_dir dir db;
  Storage.pack db path;
  check_same_contents "load_any on a directory" db (Core.Csv_io.load_any dir);
  check_same_contents "load_any on .pdb" db (Core.Csv_io.load_any path);
  (* magic sniffing: the extension is not load-bearing *)
  let noext = tmp "storage_sniff_noext" in
  write_file noext (read_file path);
  check_same_contents "load_any by magic" db (Core.Csv_io.load_any noext);
  expect_io "load_any on a missing path" (fun () ->
      ignore (Core.Csv_io.load_any (tmp "storage_no_such_path")));
  (* a regular file that is neither format *)
  let plain = tmp "storage_sniff_plain.txt" in
  write_file plain "1,2,0.5\n";
  expect_io "load_any on a plain file" (fun () ->
      ignore (Core.Csv_io.load_any plain))

(* ---------- laziness: open is O(header), safe plans map, nothing
   materialises until a grounded consumer asks ---------- *)

let test_lazy_tid () =
  let db = small_db () in
  let path = tmp "storage_lazy.pdb" in
  Storage.pack db path;
  with_handle path @@ fun t ->
  let packed = Storage.tid t in
  Alcotest.(check int) "nothing forced at open" 0 (Core.Tid.forced_relations packed);
  Alcotest.(check int) "support size from the TOC alone"
    (Core.Tid.support_size db) (Core.Tid.support_size packed);
  Alcotest.(check bool) "backing recognised" true (Storage.backing packed <> None);
  (* a safe plan scans the mapped columns in place *)
  let config = { E.default_config with E.strategies = [ E.Safe_plan ] } in
  let q = "exists x y. R(x) && S(x,y)" in
  let want = eval_value ~config db q in
  let got = eval_value ~config packed q in
  if got <> want then Alcotest.failf "safe plan: %.17g <> %.17g" got want;
  Alcotest.(check int) "safe plan forced nothing" 0 (Core.Tid.forced_relations packed);
  Alcotest.(check int) "safe plan materialised nothing" 0
    (Storage.relations_materialized t);
  Alcotest.(check bool) "but columns were mapped" true (Storage.cols_mapped t > 0);
  Alcotest.(check bool) "and bytes attributed" true (Storage.bytes_mapped t > 0);
  (* a grounded consumer decodes exactly the relation it touches *)
  ignore (Core.Tid.relation packed "R");
  Alcotest.(check int) "one relation forced" 1 (Core.Tid.forced_relations packed);
  Alcotest.(check int) "one relation materialised" 1
    (Storage.relations_materialized t);
  (* derived TIDs drop the backing: they no longer describe the file *)
  let derived = Core.Tid.map_probs (fun _ _ p -> p) packed in
  Alcotest.(check bool) "derived TID drops backing" true
    (Storage.backing derived = None)

(* ---------- row indexes: constant selections probe a bucket ---------- *)

(* bit-level equality of two executor relations: same columns, same rows
   in the same order, probabilities equal bit for bit *)
let same_rel (a : Exec.rel) (b : Exec.rel) =
  let rows r =
    List.init (Exec.nrows r) (fun i ->
        ( Array.map (fun c -> Exec.iget c i) r.Exec.cols,
          Int64.bits_of_float (Exec.fget r.Exec.probs i) ))
  in
  a.Exec.vars = b.Exec.vars && rows a = rows b

let prop_indexed_scan =
  Test_util.qcheck ~count:60 "indexed scan_cols = full scan (random columns)"
    QCheck2.Gen.(int_range 1 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let int = Random.State.int rng in
      let v k = Core.Value.int (int k) in
      (* S(a,b,c) over few values, so ids repeat down every column; Z
         holds values S never uses, and an extra domain value takes the
         largest dictionary id when present *)
      let vals = 1 + int 6 in
      let tuples n arity =
        List.init n (fun _ -> List.init arity (fun _ -> v vals))
        |> List.sort_uniq Core.Tuple.compare
        |> List.map (fun t -> (t, Random.State.float rng 1.0))
      in
      let s = Core.Relation.make (Core.Schema.make "S" [ "a"; "b"; "c" ]) (tuples (int 60) 3) in
      let z =
        Core.Relation.make (Core.Schema.make "Z" [ "a" ])
          (List.init (int 3) (fun i -> ([ Core.Value.int (100 + i) ], 0.5)))
      in
      let domain = if int 2 = 0 then [ Core.Value.int 200 ] else [] in
      let path = tmp (Printf.sprintf "storage_index_%d.pdb" seed) in
      Storage.pack (Core.Tid.make ~domain [ s; z ]) path;
      Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
      with_handle path @@ fun t ->
      let dict = Storage.dict t in
      let lookup = Core.Dict.find_opt dict in
      let view = Option.get (Storage.view t "S") in
      let scan ?index atom =
        Exec.scan_cols ?index ~lookup ~cols:view.Storage.vcols
          ~probs:view.Storage.vprobs atom
      in
      let const () =
        match int 4 with
        | 0 -> v vals  (* usually present in the column *)
        | 1 -> Core.Value.int (100 + int 3)  (* absent from S, maybe known *)
        | 3 when Core.Dict.size dict > 0 ->
            Core.Dict.value dict (Core.Dict.size dict - 1)  (* largest id *)
        | _ -> Core.Value.Str "never-packed"  (* unknown to the dictionary *)
      in
      let arg () =
        if int 2 = 0 then L.Fo.Const (const ())
        else L.Fo.Var [| "x"; "y"; "z" |].(int 3)
      in
      List.for_all
        (fun _ ->
          let atom = { L.Cq.rel = "S"; comp = false; args = List.init 3 (fun _ -> arg ()) } in
          same_rel (scan atom) (scan ~index:(Storage.index t "S") atom))
        (List.init 20 Fun.id))

(* four domains share one handle: every index is built once, and the
   answers match a sequential run bit for bit *)
let test_concurrent_index_builds () =
  let db = small_db () in
  let path = tmp "storage_index_domains.pdb" in
  Storage.pack db path;
  let queries =
    List.concat_map
      (fun c ->
        [ Printf.sprintf "exists y. S(%d,y) && T(y)" c;
          Printf.sprintf "R(%d) && T(%d)" c c ])
      (List.init 6 Fun.id)
  in
  let config = { E.default_config with E.strategies = [ E.Safe_plan ] } in
  let want = List.map (eval_value ~config db) queries in
  let builds = Metrics.counter "storage.index_builds" in
  let before = Metrics.counter_value builds in
  with_handle path (fun t ->
      let packed = Storage.tid t in
      let run () = List.map (eval_value ~config packed) queries in
      let answers = List.init 4 (fun _ -> Domain.spawn run) |> List.map Domain.join in
      List.iteri
        (fun d got ->
          if List.map Int64.bits_of_float got <> List.map Int64.bits_of_float want then
            Alcotest.failf "domain %d: answers differ from the sequential run" d)
        answers;
      (* S column 0, R column 0 and T column 0 *)
      Alcotest.(check int) "one build per indexed column" 3
        (Metrics.counter_value builds - before);
      ignore (List.map (eval_value ~config packed) queries);
      Alcotest.(check int) "no rebuild on reuse" 3
        (Metrics.counter_value builds - before));
  (* after close, an index not yet built fails like an unmapped column *)
  let t = Storage.open_file path in
  Storage.close t;
  let error f =
    match f () with
    | _ -> Alcotest.fail "expected a typed Io error after close"
    | exception Err.Error e -> Err.render e
  in
  Alcotest.(check string) "index after close = column after close"
    (error (fun () -> ignore (Storage.view t "S")))
    (error (fun () -> ignore (Storage.index t "S" 0)))

(* ---------- concurrent serve soak over one shared mapped file ---------- *)

let float_of name j =
  match Json.member name j with
  | Some (Json.Float f) -> f
  | Some (Json.Int i) -> float_of_int i
  | _ -> Alcotest.failf "response missing number %S" name

let test_concurrent_serve_over_packed () =
  let db = small_db () in
  let path = tmp "storage_serve.pdb" in
  Storage.pack db path;
  with_handle path @@ fun t ->
  let packed = Storage.tid t in
  let queries =
    [ "exists x y. R(x) && S(x,y)";
      "exists x. R(x)";
      "exists x y. R(x) && S(x,y) && T(y)";
      "forall x y. R(x) || S(x,y)" ]
  in
  let expected =
    List.map
      (fun q -> (q, eval_value ~config:E.default_config db q))
      queries
  in
  let soak = Sys.getenv_opt "PROBDB_SOAK" = Some "1" in
  let clients = 6 and rounds = if soak then 100 else 8 in
  let config = { Serve.default_config with Serve.port = 0 } in
  let server = Serve.start ~config packed in
  Fun.protect ~finally:(fun () -> Serve.stop server) @@ fun () ->
  let port = Serve.port server in
  let failures = Atomic.make 0 in
  let answered = Atomic.make 0 in
  let client_loop _ =
    let c = Client.connect port in
    Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
    for _ = 1 to rounds do
      List.iter
        (fun (q, want) ->
          let resp = Client.eval c q in
          Atomic.incr answered;
          if
            (not (Client.ok resp))
            || float_of "value" (Client.result resp) <> want
          then Atomic.incr failures)
        expected
    done
  in
  let threads = List.init clients (fun i -> Thread.create client_loop i) in
  List.iter Thread.join threads;
  Alcotest.(check int) "every worker bit-identical over the shared map" 0
    (Atomic.get failures);
  Alcotest.(check int) "every request answered"
    (clients * rounds * List.length expected)
    (Atomic.get answered)

let suites =
  [
    ( "storage",
      [
        Alcotest.test_case "explicit roundtrip" `Quick test_roundtrip_explicit;
        prop_roundtrip;
        Alcotest.test_case "engine bit-identity csv vs packed" `Quick
          test_engine_bit_identity;
        Alcotest.test_case "corrupt files are typed Io" `Quick test_corrupt_files;
        Alcotest.test_case "load_any format sniffing" `Quick test_load_any_sniffing;
        Alcotest.test_case "packed TID is lazy" `Quick test_lazy_tid;
        prop_indexed_scan;
        Alcotest.test_case "index built once across domains" `Quick
          test_concurrent_index_builds;
        Alcotest.test_case "concurrent serve over one mapped file" `Quick
          test_concurrent_serve_over_packed;
      ] );
  ]
